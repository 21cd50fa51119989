package memfs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"testing"
	"testing/quick"
	"time"

	"cntr/internal/allocs"
	"cntr/internal/blobstore"
	"cntr/internal/vfs"
)

func newClient(t *testing.T) *vfs.Client {
	t.Helper()
	return vfs.NewClient(New(Options{}), vfs.Root())
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := newClient(t)
	data := []byte("hello cntr")
	if err := c.WriteFile("/f", data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
}

func TestWriteAcrossBlockBoundary(t *testing.T) {
	c := newClient(t)
	data := make([]byte, 3*blockSize+100)
	for i := range data {
		data[i] = byte(i % 251)
	}
	if err := c.WriteFile("/big", data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("/big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("multi-block data mismatch")
	}
}

func TestSparseFileReadsZeros(t *testing.T) {
	c := newClient(t)
	f, err := c.Open("/sparse", vfs.ORdwr|vfs.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("end"), 100*blockSize); err != nil {
		t.Fatal(err)
	}
	attr, _ := f.Stat()
	if attr.Size != 100*blockSize+3 {
		t.Fatalf("size = %d", attr.Size)
	}
	// Only one block should be allocated.
	if attr.Blocks != blockSize/512 {
		t.Fatalf("blocks = %d, want %d", attr.Blocks, blockSize/512)
	}
	buf := make([]byte, 10)
	if _, err := f.ReadAt(buf, 50*blockSize); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("hole must read as zeros")
		}
	}
	f.Close()
}

func TestAppendMode(t *testing.T) {
	c := newClient(t)
	if err := c.WriteFile("/log", []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("/log", vfs.OWronly|vfs.OAppend, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("two"), 0); err != nil { // offset ignored under O_APPEND
		t.Fatal(err)
	}
	f.Close()
	got, _ := c.ReadFile("/log")
	if string(got) != "onetwo" {
		t.Fatalf("append result %q", got)
	}
}

func TestOTruncTruncates(t *testing.T) {
	c := newClient(t)
	if err := c.WriteFile("/t", []byte("0123456789"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("/t", vfs.OWronly|vfs.OTrunc, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	attr, _ := c.Stat("/t")
	if attr.Size != 0 {
		t.Fatalf("size after O_TRUNC = %d", attr.Size)
	}
}

func TestOExclFailsOnExisting(t *testing.T) {
	c := newClient(t)
	if err := c.WriteFile("/x", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := c.Open("/x", vfs.OWronly|vfs.OCreat|vfs.OExcl, 0o644)
	if vfs.ToErrno(err) != vfs.EEXIST {
		t.Fatalf("err = %v, want EEXIST", err)
	}
}

// TestUnlinkedFileRemainsReadable: a file unlinked while open keeps its
// inode until the last close, across 200 creates and unlinks whose
// inodes are records the slab hands out again: none of them is the open
// file's, which keeps its bytes and its attributes.
func TestUnlinkedFileRemainsReadable(t *testing.T) {
	fs := New(Options{})
	c := vfs.NewClient(fs, vfs.Root())
	if err := c.WriteFile("/gone", []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := c.Open("/gone", vfs.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	was, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("/gone"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/gone"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatal("file should be gone from namespace")
	}
	reaped, reused := map[*inode]bool{}, 0
	for i := 0; i < 200; i++ {
		if err := c.WriteFile("/churn", []byte("churn bytes"), 0o600); err != nil {
			t.Fatal(err)
		}
		attr, err := c.Stat("/churn")
		if err != nil {
			t.Fatal(err)
		}
		n := fs.inodes[attr.Ino]
		if reaped[n] {
			reused++
		}
		reaped[n] = true
		if err := c.Remove("/churn"); err != nil {
			t.Fatal(err)
		}
	}
	if reused == 0 {
		t.Fatal("200 creates after as many unlinks reused no inode record")
	}
	if now, err := f.Stat(); err != nil || now.Ino != was.Ino || now.Size != 4 || now.Mode != was.Mode || now.Nlink != 0 {
		t.Fatalf("after the churn the open file stats %+v, %v; want %+v with no link", now, err, was)
	}
	buf := make([]byte, 4)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("read after unlink: %v", err)
	}
	if string(buf) != "data" {
		t.Fatal("data mismatch after unlink")
	}
	f.Close()
}

func TestHardLinks(t *testing.T) {
	c := newClient(t)
	if err := c.WriteFile("/a", []byte("shared"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Link("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	aAttr, _ := c.Stat("/a")
	bAttr, _ := c.Stat("/b")
	if aAttr.Ino != bAttr.Ino {
		t.Fatal("hard link must share inode")
	}
	if aAttr.Nlink != 2 {
		t.Fatalf("nlink = %d, want 2", aAttr.Nlink)
	}
	if err := c.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("/b")
	if err != nil || string(got) != "shared" {
		t.Fatalf("after unlink: %q, %v", got, err)
	}
	bAttr, _ = c.Stat("/b")
	if bAttr.Nlink != 1 {
		t.Fatalf("nlink = %d, want 1", bAttr.Nlink)
	}
}

func TestLinkToDirectoryForbidden(t *testing.T) {
	c := newClient(t)
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.Link("/d", "/d2"); vfs.ToErrno(err) != vfs.EPERM {
		t.Fatalf("link to dir: %v, want EPERM", err)
	}
}

func TestSymlinkResolution(t *testing.T) {
	c := newClient(t)
	if err := c.MkdirAll("/real/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteFile("/real/sub/file", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Symlink("/real/sub", "/ln"); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("/ln/file")
	if err != nil || string(got) != "x" {
		t.Fatalf("through symlink: %q, %v", got, err)
	}
	target, err := c.Readlink("/ln")
	if err != nil || target != "/real/sub" {
		t.Fatalf("readlink: %q, %v", target, err)
	}
	// Relative symlink.
	if err := c.Symlink("sub/file", "/real/rel"); err != nil {
		t.Fatal(err)
	}
	got, err = c.ReadFile("/real/rel")
	if err != nil || string(got) != "x" {
		t.Fatalf("relative symlink: %q, %v", got, err)
	}
}

func TestSymlinkLoopDetected(t *testing.T) {
	c := newClient(t)
	if err := c.Symlink("/b", "/a"); err != nil {
		t.Fatal(err)
	}
	if err := c.Symlink("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	_, err := c.ReadFile("/a")
	if vfs.ToErrno(err) != vfs.ELOOP {
		t.Fatalf("err = %v, want ELOOP", err)
	}
}

func TestRenameBasic(t *testing.T) {
	c := newClient(t)
	if err := c.WriteFile("/src", []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Rename("/src", "/dst"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/src"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatal("src should be gone")
	}
	if got, err := c.ReadFile("/dst"); err != nil || string(got) != "v" {
		t.Fatalf("dst: %q, %v", got, err)
	}
}

func TestRenameReplacesTarget(t *testing.T) {
	c := newClient(t)
	c.WriteFile("/a", []byte("a"), 0o644)
	c.WriteFile("/b", []byte("b"), 0o644)
	if err := c.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	got, _ := c.ReadFile("/b")
	if string(got) != "a" {
		t.Fatalf("b = %q, want a", got)
	}
}

func TestRenameNoReplace(t *testing.T) {
	c := newClient(t)
	c.WriteFile("/a", nil, 0o644)
	c.WriteFile("/b", nil, 0o644)
	ra, _ := c.Lresolve("/a")
	rb, _ := c.Lresolve("/b")
	err := c.FS.Rename(c.Op, ra.Parent, "a", rb.Parent, "b", vfs.RenameNoReplace)
	if vfs.ToErrno(err) != vfs.EEXIST {
		t.Fatalf("err = %v, want EEXIST", err)
	}
}

// TestRenameOntoOtherLink: renaming one hard link onto another of the
// same inode changes nothing, as in Linux: both names stay, the link
// count stays 2 and neither directory's times move.
func TestRenameOntoOtherLink(t *testing.T) {
	c := newClient(t)
	if err := c.WriteFile("/a", []byte("v"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Link("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	before, _ := c.Stat("/")
	if err := c.Rename("/a", "/b"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/a", "/b"} {
		if st, err := c.Stat(name); err != nil || st.Nlink != 2 {
			t.Fatalf("%s after the rename: %+v, %v; want nlink 2", name, st, err)
		}
	}
	if after, _ := c.Stat("/"); !after.Mtime.Equal(before.Mtime) {
		t.Fatalf("the directory's mtime moved from %v to %v", before.Mtime, after.Mtime)
	}
	err := c.FS.Rename(c.Op, vfs.RootIno, "a", vfs.RootIno, "b", vfs.RenameNoReplace)
	if vfs.ToErrno(err) != vfs.EEXIST {
		t.Fatalf("RENAME_NOREPLACE onto the other link: %v, want EEXIST", err)
	}
}

func TestRenameExchange(t *testing.T) {
	c := newClient(t)
	c.WriteFile("/a", []byte("A"), 0o644)
	c.WriteFile("/b", []byte("B"), 0o644)
	err := c.FS.Rename(c.Op, vfs.RootIno, "a", vfs.RootIno, "b", vfs.RenameExchange)
	if err != nil {
		t.Fatal(err)
	}
	ga, _ := c.ReadFile("/a")
	gb, _ := c.ReadFile("/b")
	if string(ga) != "B" || string(gb) != "A" {
		t.Fatalf("exchange: a=%q b=%q", ga, gb)
	}
}

func TestRenameDirIntoOwnSubtree(t *testing.T) {
	c := newClient(t)
	if err := c.MkdirAll("/d/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	err := c.Rename("/d", "/d/sub/d")
	if vfs.ToErrno(err) != vfs.EINVAL {
		t.Fatalf("err = %v, want EINVAL", err)
	}
}

func TestRenameDirUpdatesDotDot(t *testing.T) {
	c := newClient(t)
	c.MkdirAll("/p1/d", 0o755)
	c.Mkdir("/p2", 0o755)
	if err := c.Rename("/p1/d", "/p2/d"); err != nil {
		t.Fatal(err)
	}
	r, err := c.Resolve("/p2/d/..")
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := c.Resolve("/p2")
	if r.Ino != p2.Ino {
		t.Fatal(".. should point at new parent")
	}
}

func TestRmdirNonEmpty(t *testing.T) {
	c := newClient(t)
	c.MkdirAll("/d/sub", 0o755)
	err := c.Remove("/d")
	if vfs.ToErrno(err) != vfs.ENOTEMPTY {
		t.Fatalf("err = %v, want ENOTEMPTY", err)
	}
}

// TestRemovedDirectoryStaysUntilClosed: a directory removed while open —
// by rmdir or by a rename over it — is kept, as Linux keeps an S_DEAD
// inode, until its last Releasedir. Meanwhile its link count reads 0, its
// listing is ENOENT (getdents on a dead directory) and nothing can be made
// in it; after the close its inode is gone.
func TestRemovedDirectoryStaysUntilClosed(t *testing.T) {
	for _, how := range []string{"rmdir", "rename over"} {
		t.Run(how, func(t *testing.T) {
			fs := New(Options{})
			c, op := vfs.NewClient(fs, vfs.Root()), vfs.RootOp()
			for _, d := range []string{"/d", "/e"} {
				if err := c.Mkdir(d, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			attr, err := c.Stat("/d")
			if err != nil {
				t.Fatal(err)
			}
			h, err := fs.Opendir(op, attr.Ino)
			if err != nil {
				t.Fatal(err)
			}
			if how == "rmdir" {
				err = c.Remove("/d")
			} else {
				err = c.Rename("/e", "/d")
			}
			if err != nil {
				t.Fatal(err)
			}
			if ents, err := fs.Readdir(op, h, 0); vfs.ToErrno(err) != vfs.ENOENT {
				t.Errorf("readdir of the removed directory: %v, %v; want ENOENT", ents, err)
			}
			if got, err := fs.Getattr(op, attr.Ino); err != nil || got.Nlink != 0 {
				t.Errorf("getattr of the removed directory: nlink %d, %v; want 0, nil", got.Nlink, err)
			}
			if _, err := fs.Mkdir(op, attr.Ino, "x", 0o755); vfs.ToErrno(err) != vfs.ENOENT {
				t.Errorf("mkdir in the removed directory: %v, want ENOENT", err)
			}
			if err := fs.Releasedir(op, h); err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Getattr(op, attr.Ino); vfs.ToErrno(err) != vfs.ESTALE {
				t.Errorf("getattr after the last close: %v, want ESTALE", err)
			}
		})
	}
}

// TestReaddirLinkOrderAndComplete: a listing holds every entry once, in
// the order the names were linked, as on tmpfs; not in name order.
func TestReaddirLinkOrderAndComplete(t *testing.T) {
	c := newClient(t)
	names := []string{"zeta", "alpha", "mid"}
	for _, n := range names {
		if err := c.WriteFile("/"+n, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := c.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 3 {
		t.Fatalf("got %d entries", len(ents))
	}
	for i, e := range ents {
		if e.Name != names[i] {
			t.Fatalf("entry %d = %q, want %q", i, e.Name, names[i])
		}
	}
}

func TestReaddirOffsetResume(t *testing.T) {
	fs := New(Options{})
	c := vfs.NewClient(fs, vfs.Root())
	for _, n := range []string{"a", "b", "c", "d"} {
		c.WriteFile("/"+n, nil, 0o644)
	}
	h, err := fs.Opendir(c.Op, vfs.RootIno)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Releasedir(c.Op, h)
	first, err := fs.Readdir(c.Op, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].Name != "." || first[1].Name != ".." {
		t.Fatal("dot entries must come first")
	}
	// Resume from the third entry's offset.
	rest, err := fs.Readdir(c.Op, h, first[2].Off)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != len(first)-3 {
		t.Fatalf("resume returned %d entries, want %d", len(rest), len(first)-3)
	}
}

// TestReaddirCookieNamesEntry: a name's cookie is the one it took when it
// was linked. An unlinked name's cookie is never given again, a rename
// links the new name under a new cookie, and RENAME_EXCHANGE leaves each
// name in its place.
func TestReaddirCookieNamesEntry(t *testing.T) {
	fs := New(Options{})
	c := vfs.NewClient(fs, vfs.Root())
	cookies := func() map[string]int64 {
		t.Helper()
		h, err := fs.Opendir(c.Op, vfs.RootIno)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Releasedir(c.Op, h)
		ents, err := fs.Readdir(c.Op, h, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		for i, e := range ents {
			if i > 0 && e.Off <= ents[i-1].Off {
				t.Fatalf("cookie %d after %d", e.Off, ents[i-1].Off)
			}
			got[e.Name] = e.Off
		}
		return got
	}
	for _, n := range []string{"a", "b", "c"} {
		if err := c.WriteFile("/"+n, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	steps := []struct {
		do   func() error
		want map[string]int64
	}{
		{func() error { return nil }, map[string]int64{".": 1, "..": 2, "a": 3, "b": 4, "c": 5}},
		{func() error {
			if err := c.Remove("/b"); err != nil {
				return err
			}
			return c.WriteFile("/d", nil, 0o644)
		}, map[string]int64{".": 1, "..": 2, "a": 3, "c": 5, "d": 6}},
		{func() error { return c.Rename("/a", "/e") }, map[string]int64{".": 1, "..": 2, "c": 5, "d": 6, "e": 7}},
		{func() error {
			return fs.Rename(c.Op, vfs.RootIno, "c", vfs.RootIno, "d", vfs.RenameExchange)
		}, map[string]int64{".": 1, "..": 2, "c": 5, "d": 6, "e": 7}},
		{func() error { return c.Rename("/e", "/c") }, map[string]int64{".": 1, "..": 2, "c": 8, "d": 6}},
	}
	for i, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got := cookies(); !maps.Equal(got, s.want) {
			t.Fatalf("step %d: cookies %v, want %v", i, got, s.want)
		}
	}
}

// TestReaddirAllocBudget: a listing allocates only the slice it returns,
// and a call past the last cookie returns nil without allocating, whether
// the last name linked is still there or not.
func TestReaddirAllocBudget(t *testing.T) {
	fs := New(Options{})
	c := vfs.NewClient(fs, vfs.Root())
	for i := 0; i < 13; i++ {
		if err := c.WriteFile(fmt.Sprintf("/f%02d", i), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	h, err := fs.Opendir(c.Op, vfs.RootIno)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Releasedir(c.Op, h)
	var last, lastLinked int64
	listing := testing.AllocsPerRun(100, func() {
		ents, err := fs.Readdir(c.Op, h, 0)
		if err != nil || len(ents) != 15 {
			t.Fatal(len(ents), err)
		}
		last = ents[len(ents)-1].Off
	})
	if err := c.Remove("/f12"); err != nil {
		t.Fatal(err)
	}
	lastLinked, last = last, last-1
	pastEnd := testing.AllocsPerRun(100, func() {
		for _, off := range []int64{last, lastLinked} {
			if ents, err := fs.Readdir(c.Op, h, off); ents != nil || err != nil {
				t.Fatal(ents, err)
			}
		}
	})
	allocs.Check(t, "Readdir of 13 names and the dots", listing)
	allocs.Check(t, "Readdir past the last cookie", pastEnd)
}

func TestPermissionDeniedForOtherUser(t *testing.T) {
	fs := New(Options{})
	root := vfs.NewClient(fs, vfs.Root())
	if err := root.WriteFile("/secret", []byte("s"), 0o600); err != nil {
		t.Fatal(err)
	}
	user := vfs.NewClient(fs, vfs.User(1000, 1000))
	if _, err := user.ReadFile("/secret"); vfs.ToErrno(err) != vfs.EACCES {
		t.Fatalf("err = %v, want EACCES", err)
	}
}

// TestSetTimesNeedsOwnerOrWrite: as Linux's setattr_prepare, uid 1000
// may not set explicit times on root's 0644 file (EPERM) nor touch it to
// now without write permission (EACCES); once the file is writable to
// it, touching succeeds while explicit times still fail, and root may do
// both. A refused call changes no time.
func TestSetTimesNeedsOwnerOrWrite(t *testing.T) {
	fs := New(Options{})
	root := vfs.NewClient(fs, vfs.Root())
	if err := root.WriteFile("/f", []byte("f"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := root.Stat("/f")
	if err != nil {
		t.Fatal(err)
	}
	user, admin := vfs.NewOp(context.Background(), vfs.User(1000, 1000)), vfs.RootOp()
	at := vfs.Attr{Atime: before.Atime.Add(-time.Hour), Mtime: before.Mtime.Add(-time.Hour)}
	for _, tc := range []struct {
		op   *vfs.Op
		mode vfs.Mode
		mask vfs.SetattrMask
		want vfs.Errno
	}{
		{user, 0o644, vfs.SetAtime, vfs.EPERM},
		{user, 0o644, vfs.SetMtime, vfs.EPERM},
		{user, 0o644, vfs.SetAtimeNow, vfs.EACCES},
		{user, 0o644, vfs.SetMtimeNow, vfs.EACCES},
		{user, 0o646, vfs.SetAtime | vfs.SetMtime, vfs.EPERM},
		{user, 0o646, vfs.SetAtimeNow | vfs.SetMtimeNow, vfs.OK},
		{admin, 0o644, vfs.SetAtime | vfs.SetMtime, vfs.OK},
	} {
		if err := root.Chmod("/f", tc.mode); err != nil {
			t.Fatal(err)
		}
		was, _ := root.Stat("/f")
		_, err := fs.Setattr(tc.op, before.Ino, tc.mask, at)
		if got := vfs.ToErrno(err); got != tc.want {
			t.Errorf("uid %d, mode %o, mask %b: %v, want %v", tc.op.Cred.FSUID, tc.mode, tc.mask, got, tc.want)
		}
		if now, _ := root.Stat("/f"); tc.want != vfs.OK && (now.Atime != was.Atime || now.Mtime != was.Mtime) {
			t.Errorf("uid %d, mode %o, mask %b: refused, yet the times moved", tc.op.Cred.FSUID, tc.mode, tc.mask)
		}
	}
}

func TestChmodClearsSetgidForNonGroupMember(t *testing.T) {
	fs := New(Options{})
	root := vfs.NewClient(fs, vfs.Root())
	if err := root.WriteFile("/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// Give the file to uid 1000 but a group they are not in.
	if err := root.Chown("/f", 1000, 5000); err != nil {
		t.Fatal(err)
	}
	user := vfs.NewClient(fs, vfs.User(1000, 1000))
	if err := user.Chmod("/f", 0o2755); err != nil {
		t.Fatal(err)
	}
	attr, _ := user.Stat("/f")
	if attr.Mode&vfs.ModeSetGID != 0 {
		t.Fatal("SGID must be cleared when chmod caller not in owning group")
	}
	// Root (CAP_FSETID) keeps the bit.
	if err := root.Chmod("/f", 0o2755); err != nil {
		t.Fatal(err)
	}
	attr, _ = root.Stat("/f")
	if attr.Mode&vfs.ModeSetGID == 0 {
		t.Fatal("privileged chmod must keep SGID")
	}
}

func TestWriteClearsSetuid(t *testing.T) {
	fs := New(Options{})
	root := vfs.NewClient(fs, vfs.Root())
	if err := root.WriteFile("/bin", []byte("#!"), 0o644); err != nil {
		t.Fatal(err)
	}
	root.Chown("/bin", 1000, 1000)
	root.Chmod("/bin", 0o4755)
	user := vfs.NewClient(fs, vfs.User(1000, 1000))
	f, err := user.Open("/bin", vfs.OWronly, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("mod")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	attr, _ := user.Stat("/bin")
	if attr.Mode&vfs.ModeSetUID != 0 {
		t.Fatal("write must clear setuid")
	}
}

func TestSgidDirectoryInheritance(t *testing.T) {
	fs := New(Options{})
	root := vfs.NewClient(fs, vfs.Root())
	if err := root.Mkdir("/shared", 0o2775); err != nil {
		t.Fatal(err)
	}
	if err := root.Chown("/shared", 0, 4242); err != nil {
		t.Fatal(err)
	}
	// Re-set SGID: chown may clear it on regular files but not dirs.
	if err := root.Chmod("/shared", 0o2777); err != nil {
		t.Fatal(err)
	}
	user := vfs.NewClient(fs, vfs.User(1000, 1000))
	if err := user.WriteFile("/shared/f", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	attr, _ := user.Stat("/shared/f")
	if attr.GID != 4242 {
		t.Fatalf("gid = %d, want inherited 4242", attr.GID)
	}
	if err := user.Mkdir("/shared/sub", 0o755); err != nil {
		t.Fatal(err)
	}
	dattr, _ := user.Stat("/shared/sub")
	if dattr.GID != 4242 || dattr.Mode&vfs.ModeSetGID == 0 {
		t.Fatalf("subdir gid=%d mode=%o, want 4242 with SGID", dattr.GID, dattr.Mode)
	}
}

func TestRlimitFsizeEnforced(t *testing.T) {
	fs := New(Options{})
	cred := vfs.Root()
	cred.FSizeLimit = 100
	c := vfs.NewClient(fs, cred)
	f, err := c.Create("/limited", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write(make([]byte, 200))
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("wrote %d bytes, want truncation to 100", n)
	}
	if _, err := f.WriteAt([]byte("x"), 150); vfs.ToErrno(err) != vfs.EFBIG {
		t.Fatalf("write past limit: %v, want EFBIG", err)
	}
	if err := f.Truncate(500); vfs.ToErrno(err) != vfs.EFBIG {
		t.Fatalf("truncate past limit: %v, want EFBIG", err)
	}
	f.Close()
}

func TestStickyBitRestrictsDeletion(t *testing.T) {
	fs := New(Options{})
	root := vfs.NewClient(fs, vfs.Root())
	if err := root.Mkdir("/tmp", 0o1777); err != nil {
		t.Fatal(err)
	}
	alice := vfs.NewClient(fs, vfs.User(1000, 1000))
	bob := vfs.NewClient(fs, vfs.User(2000, 2000))
	if err := alice.WriteFile("/tmp/alice.txt", nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := bob.Remove("/tmp/alice.txt"); vfs.ToErrno(err) != vfs.EPERM {
		t.Fatalf("bob remove: %v, want EPERM", err)
	}
	if err := alice.Remove("/tmp/alice.txt"); err != nil {
		t.Fatalf("alice remove: %v", err)
	}
}

func TestTruncateExtendReadsZeros(t *testing.T) {
	c := newClient(t)
	c.WriteFile("/f", []byte("abc"), 0o644)
	if err := c.Truncate("/f", 10); err != nil {
		t.Fatal(err)
	}
	got, _ := c.ReadFile("/f")
	if len(got) != 10 || string(got[:3]) != "abc" {
		t.Fatalf("got %q", got)
	}
	for _, b := range got[3:] {
		if b != 0 {
			t.Fatal("extension must be zeros")
		}
	}
}

func TestTruncateShrinkDiscardsData(t *testing.T) {
	c := newClient(t)
	c.WriteFile("/f", bytes.Repeat([]byte("x"), 2*blockSize), 0o644)
	if err := c.Truncate("/f", 5); err != nil {
		t.Fatal(err)
	}
	if err := c.Truncate("/f", 2*blockSize); err != nil {
		t.Fatal(err)
	}
	got, _ := c.ReadFile("/f")
	if string(got[:5]) != "xxxxx" {
		t.Fatal("prefix should survive")
	}
	for _, b := range got[5:] {
		if b != 0 {
			t.Fatal("shrink-then-grow must expose zeros, not stale data")
		}
	}
}

func TestXattrRoundTrip(t *testing.T) {
	fs := New(Options{})
	c := vfs.NewClient(fs, vfs.Root())
	c.WriteFile("/f", nil, 0o644)
	r, _ := c.Resolve("/f")
	if err := fs.Setxattr(c.Op, r.Ino, "user.key", []byte("val"), 0); err != nil {
		t.Fatal(err)
	}
	v, err := fs.Getxattr(c.Op, r.Ino, "user.key")
	if err != nil || string(v) != "val" {
		t.Fatalf("getxattr: %q, %v", v, err)
	}
	names, err := fs.Listxattr(c.Op, r.Ino)
	if err != nil || len(names) != 1 || names[0] != "user.key" {
		t.Fatalf("listxattr: %v, %v", names, err)
	}
	if err := fs.Removexattr(c.Op, r.Ino, "user.key"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Getxattr(c.Op, r.Ino, "user.key"); vfs.ToErrno(err) != vfs.ENODATA {
		t.Fatalf("after remove: %v, want ENODATA", err)
	}
}

func TestXattrCreateReplaceFlags(t *testing.T) {
	fs := New(Options{})
	c := vfs.NewClient(fs, vfs.Root())
	c.WriteFile("/f", nil, 0o644)
	r, _ := c.Resolve("/f")
	if err := fs.Setxattr(c.Op, r.Ino, "user.k", []byte("1"), vfs.XattrReplace); vfs.ToErrno(err) != vfs.ENODATA {
		t.Fatalf("replace-missing: %v", err)
	}
	if err := fs.Setxattr(c.Op, r.Ino, "user.k", []byte("1"), vfs.XattrCreate); err != nil {
		t.Fatal(err)
	}
	if err := fs.Setxattr(c.Op, r.Ino, "user.k", []byte("2"), vfs.XattrCreate); vfs.ToErrno(err) != vfs.EEXIST {
		t.Fatalf("create-existing: %v", err)
	}
}

func TestACLMaskUpdatesGroupBits(t *testing.T) {
	fs := New(Options{})
	c := vfs.NewClient(fs, vfs.Root())
	c.WriteFile("/f", nil, 0o644)
	r, _ := c.Resolve("/f")
	acl := vfs.ACL{Entries: []vfs.ACLEntry{
		{Tag: vfs.ACLUserObj, Perm: 6},
		{Tag: vfs.ACLUser, Perm: 7, ID: 1000},
		{Tag: vfs.ACLGroupObj, Perm: 4},
		{Tag: vfs.ACLMask, Perm: 5},
		{Tag: vfs.ACLOther, Perm: 4},
	}}
	if err := fs.Setxattr(c.Op, r.Ino, vfs.XattrPosixACLAccess, vfs.EncodeACL(acl), 0); err != nil {
		t.Fatal(err)
	}
	attr, _ := c.Stat("/f")
	if attr.Mode>>3&7 != 5 {
		t.Fatalf("group bits = %o, want 5 (ACL mask)", attr.Mode>>3&7)
	}
}

func TestFallocatePreallocateAndPunch(t *testing.T) {
	fs := New(Options{})
	c := vfs.NewClient(fs, vfs.Root())
	f, err := c.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := fs.Fallocate(c.Op, f.Handle(), 0, 0, 4*blockSize); err != nil {
		t.Fatal(err)
	}
	attr, _ := f.Stat()
	if attr.Size != 4*blockSize {
		t.Fatalf("size = %d", attr.Size)
	}
	if attr.Blocks != 4*blockSize/512 {
		t.Fatalf("blocks = %d", attr.Blocks)
	}
	// KEEP_SIZE must not grow the file.
	if err := fs.Fallocate(c.Op, f.Handle(), vfs.FallocKeepSize, 4*blockSize, blockSize); err != nil {
		t.Fatal(err)
	}
	attr, _ = f.Stat()
	if attr.Size != 4*blockSize {
		t.Fatal("KEEP_SIZE grew the file")
	}
	// Punch a hole over block 1.
	if _, err := f.WriteAt(bytes.Repeat([]byte("y"), blockSize), blockSize); err != nil {
		t.Fatal(err)
	}
	if err := fs.Fallocate(c.Op, f.Handle(), vfs.FallocPunchHole|vfs.FallocKeepSize, blockSize, blockSize); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	f.ReadAt(buf, blockSize)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("punched range must read zeros")
		}
	}
	// PUNCH_HOLE without KEEP_SIZE is invalid.
	if err := fs.Fallocate(c.Op, f.Handle(), vfs.FallocPunchHole, 0, blockSize); vfs.ToErrno(err) != vfs.EINVAL {
		t.Fatalf("punch without keep-size: %v", err)
	}
}

func TestCapacityEnforced(t *testing.T) {
	fs := New(Options{Capacity: 2 * blockSize})
	c := vfs.NewClient(fs, vfs.Root())
	err := c.WriteFile("/f", make([]byte, 3*blockSize), 0o644)
	if vfs.ToErrno(err) != vfs.ENOSPC {
		// Partial write then ENOSPC is also acceptable at the client
		// level; the file must not exceed capacity.
		attr, _ := c.Stat("/f")
		if attr.Size > 2*blockSize {
			t.Fatalf("file exceeded capacity: %d", attr.Size)
		}
	}
	st, _ := fs.Statfs(c.Op, vfs.RootIno)
	if st.BlocksFree != 0 {
		t.Fatalf("free blocks = %d, want 0", st.BlocksFree)
	}
}

func TestCapacityFreedOnDelete(t *testing.T) {
	fs := New(Options{Capacity: 4 * blockSize})
	c := vfs.NewClient(fs, vfs.Root())
	if err := c.WriteFile("/a", make([]byte, 4*blockSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	if st, _ := fs.Statfs(c.Op, vfs.RootIno); st.BlocksFree != st.Blocks {
		t.Fatalf("%d blocks used after delete", st.Blocks-st.BlocksFree)
	}
	if err := c.WriteFile("/b", make([]byte, 4*blockSize), 0o644); err != nil {
		t.Fatalf("space should be reusable: %v", err)
	}
}

func TestStatfsCounts(t *testing.T) {
	fs := New(Options{})
	c := vfs.NewClient(fs, vfs.Root())
	c.WriteFile("/f", make([]byte, blockSize), 0o644)
	st, err := fs.Statfs(c.Op, vfs.RootIno)
	if err != nil {
		t.Fatal(err)
	}
	if st.BlockSize != blockSize || st.Blocks == 0 {
		t.Fatalf("statfs = %+v", st)
	}
	if st.Blocks-st.BlocksFree != 1 {
		t.Fatalf("used blocks = %d, want 1", st.Blocks-st.BlocksFree)
	}
}

func TestHandleExport(t *testing.T) {
	fs := New(Options{})
	c := vfs.NewClient(fs, vfs.Root())
	c.WriteFile("/f", []byte("x"), 0o644)
	r, _ := c.Resolve("/f")
	h, err := fs.NameToHandle(r.Ino)
	if err != nil {
		t.Fatal(err)
	}
	ino, err := fs.OpenByHandle(h)
	if err != nil || ino != r.Ino {
		t.Fatalf("OpenByHandle: %d, %v", ino, err)
	}
	if _, err := fs.OpenByHandle([]byte{1}); vfs.ToErrno(err) != vfs.EINVAL {
		t.Fatal("short handle must be EINVAL")
	}
	c.Remove("/f")
	if _, err := fs.OpenByHandle(h); vfs.ToErrno(err) != vfs.ESTALE {
		t.Fatalf("stale handle: %v, want ESTALE", err)
	}
}

func TestMknodRequiresPrivilege(t *testing.T) {
	fs := New(Options{})
	user := vfs.NewOp(nil, vfs.User(1000, 1000))
	if _, err := fs.Mknod(user, vfs.RootIno, "dev", vfs.TypeCharDev, 0o600, 0x0101); vfs.ToErrno(err) != vfs.EPERM {
		t.Fatalf("mknod chardev as user: %v, want EPERM", err)
	}
	// But root first needs write access to /.
	root := vfs.RootOp()
	if _, err := fs.Mknod(root, vfs.RootIno, "dev", vfs.TypeCharDev, 0o600, 0x0101); vfs.ToErrno(err) != vfs.OK {
		t.Fatal(err)
	}
	// FIFOs are unprivileged — but / is 0755 so give the user a dir.
	if _, err := fs.Mkdir(root, vfs.RootIno, "home", 0o777); err != nil {
		t.Fatal(err)
	}
	c := vfs.NewClientOp(fs, user)
	r, _ := c.Resolve("/home")
	if _, err := fs.Mknod(user, r.Ino, "pipe", vfs.TypeFIFO, 0o644, 0); err != nil {
		t.Fatalf("mknod fifo: %v", err)
	}
}

func TestTimesUpdate(t *testing.T) {
	fs := New(Options{})
	c := vfs.NewClient(fs, vfs.Root())
	c.WriteFile("/f", []byte("1"), 0o644)
	a1, _ := c.Stat("/f")
	// Writing bumps mtime/ctime.
	f, _ := c.Open("/f", vfs.OWronly, 0)
	f.Write([]byte("2"))
	f.Close()
	a2, _ := c.Stat("/f")
	if !a2.Mtime.After(a1.Mtime) {
		t.Fatal("mtime must advance on write")
	}
	if !a2.Ctime.After(a1.Ctime) {
		t.Fatal("ctime must advance on write")
	}
	// Reading bumps atime.
	c.ReadFile("/f")
	a3, _ := c.Stat("/f")
	if !a3.Atime.After(a2.Atime) {
		t.Fatal("atime must advance on read")
	}
}

func TestStatsInterceptorCounts(t *testing.T) {
	fs := New(Options{})
	stats := vfs.NewStats()
	c := vfs.NewClient(vfs.Chain(fs, stats), vfs.Root())
	c.WriteFile("/f", []byte("abc"), 0o644)
	c.ReadFile("/f")
	st := stats.Snapshot()
	if st.Creates == 0 || st.Writes == 0 || st.Reads == 0 || st.BytesWrit != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Releases == 0 {
		t.Fatalf("releases uncounted: %+v", st)
	}
}

func TestSeekAndSequentialIO(t *testing.T) {
	c := newClient(t)
	f, err := c.Open("/s", vfs.ORdwr|vfs.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("hello world"))
	if _, err := f.Seek(6, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(&f, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "world" {
		t.Fatalf("seek read %q", buf)
	}
	if _, err := f.Seek(-5, io.SeekEnd); err != nil {
		t.Fatal(err)
	}
	io.ReadFull(&f, buf)
	if string(buf) != "world" {
		t.Fatalf("seek-end read %q", buf)
	}
	f.Close()
	if err := f.Close(); vfs.ToErrno(err) != vfs.EBADF {
		t.Fatal("double close must fail")
	}
}

func TestWalkTreeVisitsAll(t *testing.T) {
	c := newClient(t)
	c.MkdirAll("/a/b", 0o755)
	c.WriteFile("/a/f1", nil, 0o644)
	c.WriteFile("/a/b/f2", nil, 0o644)
	var visited []string
	err := c.WalkTree("/a", func(p string, attr vfs.Attr) error {
		visited = append(visited, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(visited) != 4 {
		t.Fatalf("visited %v", visited)
	}
}

// Property: write at arbitrary offsets then read back yields exactly the
// written bytes, with holes reading as zeros.
func TestPropertyWriteReadConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		fs := New(Options{})
		c := vfs.NewClient(fs, vfs.Root())
		file, err := c.Create("/p", 0o644)
		if err != nil {
			return false
		}
		defer file.Close()
		// Mirror writes into a reference buffer.
		ref := make([]byte, 0)
		rng := seed
		next := func() uint64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			if rng == 0 {
				rng = 1
			}
			return rng
		}
		for i := 0; i < 20; i++ {
			off := int64(next() % 50000)
			size := int(next()%5000) + 1
			data := make([]byte, size)
			for j := range data {
				data[j] = byte(next())
			}
			if _, err := file.WriteAt(data, off); err != nil {
				return false
			}
			if int(off)+size > len(ref) {
				grown := make([]byte, int(off)+size)
				copy(grown, ref)
				ref = grown
			}
			copy(ref[off:], data)
		}
		got, err := c.ReadFile("/p")
		if err != nil {
			return false
		}
		return bytes.Equal(got, ref)
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: nlink accounting stays consistent across link/unlink storms.
func TestPropertyNlinkConsistency(t *testing.T) {
	f := func(ops []uint8) bool {
		fs := New(Options{})
		c := vfs.NewClient(fs, vfs.Root())
		if err := c.WriteFile("/base", nil, 0o644); err != nil {
			return false
		}
		links := map[string]bool{"base": true}
		anyLink := func() string {
			for name := range links {
				return name
			}
			return ""
		}
		n := 0
		for _, op := range ops {
			if op%2 == 0 {
				name := string(rune('a' + n%26))
				if links[name] {
					continue
				}
				if err := c.Link("/"+anyLink(), "/"+name); err != nil {
					return false
				}
				links[name] = true
				n++
			} else if len(links) > 1 {
				name := anyLink()
				if err := c.Remove("/" + name); err != nil {
					return false
				}
				delete(links, name)
			}
		}
		var anyName string
		for name := range links {
			anyName = name
			break
		}
		attr, err := c.Stat("/" + anyName)
		if err != nil {
			return false
		}
		return int(attr.Nlink) == len(links)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestBlockIndexAllocBudget: indexing a 1 MiB file's 256 blocks takes 17
// nodes from the filesystem's node slab, whose blocks of up to 64 nodes
// every file shares, so testing.AllocsPerRun's whole-number average reads
// 0 per file. The blocks' content lives in the store and is not counted.
func TestBlockIndexAllocBudget(t *testing.T) {
	const runs = 20
	fs := New(Options{})
	ref := blobstore.Sum(nil)
	files := make([]inode, runs+1)
	next := 0
	objects := testing.AllocsPerRun(runs, func() {
		n := &files[next]
		next++
		for idx := range int64(1 << 20 / blockSize) {
			fs.materializeBlock(n, idx, ref)
		}
	})
	allocs.Check(t, "index of a 1 MiB file's blocks", objects)
}

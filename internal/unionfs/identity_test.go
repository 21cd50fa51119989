package unionfs

import (
	"bytes"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/vfs"
)

// TestColdStatLookups: a lookup resolves one component against its
// parent's layers, so a cold stat of a file six components down in the
// lower layer looks up six names there, not the path from the root of
// the layer once per component.
func TestColdStatLookups(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/a/b/c/d/e/f": "deep"})
	count := vfs.NewStats()
	u := NewWith(Options{}, vfs.Chain(lower, count))
	attr, err := vfs.NewClient(u, vfs.Root()).Stat("/a/b/c/d/e/f")
	if err != nil || attr.Size != 4 {
		t.Fatalf("stat = %+v, %v", attr, err)
	}
	if got := count.Snapshot().Lookups; got != 6 {
		t.Fatalf("a cold stat of a depth-6 lower file took %d lower lookups, want 6", got)
	}
}

// TestRenamedInodeAnswers: the inode held for a lower file names the
// file, not its path: after a rename it still answers Getattr, with its
// own inode number, and Link.
func TestRenamedInodeAnswers(t *testing.T) {
	u := NewWith(Options{}, makeLayer(t, map[string]string{"/a": "content"}))
	op := vfs.RootOp()
	held, err := u.Lookup(op, vfs.RootIno, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Rename(op, vfs.RootIno, "a", vfs.RootIno, "b", 0); err != nil {
		t.Fatal(err)
	}
	attr, err := u.Getattr(op, held.Ino)
	if err != nil || attr.Ino != held.Ino || attr.Size != 7 {
		t.Fatalf("getattr of the renamed inode = %+v, %v; want inode %d, 7 bytes", attr, err, held.Ino)
	}
	b, err := u.Lookup(op, vfs.RootIno, "b")
	if err != nil || b.Ino != held.Ino {
		t.Fatalf("lookup of the new name = inode %d, %v; want %d", b.Ino, err, held.Ino)
	}
	if _, err := u.Link(op, held.Ino, vfs.RootIno, "c"); err != nil {
		t.Fatalf("link of the renamed inode: %v", err)
	}
	got, err := vfs.NewClient(u, vfs.Root()).ReadFile("/c")
	if err != nil || string(got) != "content" {
		t.Fatalf("/c = %q, %v", got, err)
	}
}

// TestLinkSharesInode: a hard link is a second name of one inode, whether
// its source is a lower file (copied up first) or one made in the union,
// and both names show nlink 2 (xfstests generic/035).
func TestLinkSharesInode(t *testing.T) {
	u := NewWith(Options{}, makeLayer(t, map[string]string{"/lower": "x"}))
	cli := vfs.NewClient(u, vfs.Root())
	if err := cli.WriteFile("/upper", []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{"/lower", "/upper"} {
		if err := cli.Link(src, src+"-link"); err != nil {
			t.Fatal(err)
		}
		a, errA := cli.Stat(src)
		b, errB := cli.Stat(src + "-link")
		if errA != nil || errB != nil || a.Ino != b.Ino || a.Nlink != 2 || b.Nlink != 2 {
			t.Fatalf("%s: inodes %d/%d nlink %d/%d (%v, %v); want one inode, nlink 2",
				src, a.Ino, b.Ino, a.Nlink, b.Nlink, errA, errB)
		}
	}
}

// TestUnlinkReturnsSpace: a file made in the union, written and removed,
// gives back every block it took once its last handle is closed.
func TestUnlinkReturnsSpace(t *testing.T) {
	u := NewWith(Options{}, memfs.New(memfs.Options{}))
	cli := vfs.NewClient(u, vfs.Root())
	free := func() uint64 {
		t.Helper()
		st, err := u.Statfs(vfs.RootOp(), vfs.RootIno)
		if err != nil {
			t.Fatal(err)
		}
		return st.BlocksFree
	}
	before := free()
	if err := cli.WriteFile("/big", bytes.Repeat([]byte{1}, 1<<20), 0o644); err != nil {
		t.Fatal(err)
	}
	if used := before - free(); used != 256 {
		t.Fatalf("1 MiB took %d blocks, want 256", used)
	}
	if err := cli.Remove("/big"); err != nil {
		t.Fatal(err)
	}
	if leaked := before - free(); leaked != 0 {
		t.Fatalf("%d blocks still used after the file was removed", leaked)
	}
}

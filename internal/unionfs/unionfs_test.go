package unionfs

import (
	"bytes"
	"slices"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/vfs"
)

// makeLayer builds a read-only layer from path->content pairs.
func makeLayer(t *testing.T, files map[string]string) *memfs.FS {
	t.Helper()
	fs := memfs.New(memfs.Options{})
	cli := vfs.NewClient(fs, vfs.Root())
	for path, content := range files {
		dir := path[:maxIdx(0, lastSlash(path))]
		if dir != "" {
			if err := cli.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		if err := cli.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}

func maxIdx(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestLowerLayerVisible(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/bin/sh": "shell", "/etc/os-release": "alpine"})
	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	got, err := cli.ReadFile("/bin/sh")
	if err != nil || string(got) != "shell" {
		t.Fatalf("lower read: %q %v", got, err)
	}
}

func TestUpperShadowsLower(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/conf": "old"})
	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	if err := cli.WriteFile("/conf", []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _ := cli.ReadFile("/conf")
	if string(got) != "new" {
		t.Fatalf("got %q", got)
	}
	// Lower layer untouched.
	lcli := vfs.NewClient(lower, vfs.Root())
	lgot, _ := lcli.ReadFile("/conf")
	if string(lgot) != "old" {
		t.Fatal("lower layer modified")
	}
}

func TestLayerPrecedence(t *testing.T) {
	top := makeLayer(t, map[string]string{"/f": "top"})
	bottom := makeLayer(t, map[string]string{"/f": "bottom", "/only": "b"})
	u := NewWith(Options{}, top, bottom)
	cli := vfs.NewClient(u, vfs.Root())
	got, _ := cli.ReadFile("/f")
	if string(got) != "top" {
		t.Fatalf("precedence: %q", got)
	}
	got, err := cli.ReadFile("/only")
	if err != nil || string(got) != "b" {
		t.Fatalf("fallthrough: %q %v", got, err)
	}
}

func TestCopyUpOnWrite(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/data/file": "original"})
	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	f, err := cli.Open("/data/file", vfs.ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("X"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, _ := cli.ReadFile("/data/file")
	if string(got) != "Xriginal" {
		t.Fatalf("after copy-up write: %q", got)
	}
	// Original layer unchanged.
	lgot, _ := vfs.NewClient(lower, vfs.Root()).ReadFile("/data/file")
	if string(lgot) != "original" {
		t.Fatal("lower layer modified by copy-up")
	}
}

func TestWhiteoutHidesLowerFile(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/victim": "x", "/keep": "y"})
	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	if err := cli.Remove("/victim"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Stat("/victim"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("removed file visible: %v", err)
	}
	ents, _ := cli.ReadDir("/")
	for _, e := range ents {
		if e.Name == "victim" || e.Name == ".wh.victim" {
			t.Fatalf("listing leaks %q", e.Name)
		}
	}
	if _, err := cli.Stat("/keep"); err != nil {
		t.Fatal("unrelated file disappeared")
	}
}

// TestRemoveChecksPermission: removing a name only a lower layer holds
// whites it out with the internal credential, so the union checks the
// caller's as memfs does: write and search permission on the parent,
// then the sticky bit.
func TestRemoveChecksPermission(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/etc/conf": "x", "/tmp/x": "y"})
	if err := vfs.NewClient(lower, vfs.Root()).Chmod("/tmp", 0o1777); err != nil {
		t.Fatal(err)
	}
	u := NewWith(Options{}, lower)
	user := vfs.NewClient(u, vfs.User(1000, 1000))
	if err := user.Remove("/etc/conf"); vfs.ToErrno(err) != vfs.EACCES {
		t.Fatalf("uid 1000 removing a root-owned /etc/conf: %v, want EACCES", err)
	}
	if err := user.Remove("/tmp/x"); vfs.ToErrno(err) != vfs.EPERM {
		t.Fatalf("uid 1000 removing root's file in a sticky /tmp: %v, want EPERM", err)
	}
	root := vfs.NewClient(u, vfs.Root())
	for _, p := range []string{"/etc/conf", "/tmp/x"} {
		if _, err := root.Stat(p); err != nil {
			t.Fatalf("%s after refused removals: %v", p, err)
		}
		if err := root.Remove(p); err != nil {
			t.Fatalf("root removing %s: %v", p, err)
		}
	}
}

// TestPermissionBeforeCopyUp: a change the caller may not make copies
// nothing up. uid 1000 opening root's lower /etc/conf for writing,
// chmodding it, or setting or removing one of its xattrs is refused, and
// the upper layer then holds neither /etc nor /etc/conf.
func TestPermissionBeforeCopyUp(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/etc/conf": "x"})
	r, err := vfs.NewClient(lower, vfs.Root()).Resolve("/etc/conf")
	if err != nil {
		t.Fatal(err)
	}
	if err := lower.Setxattr(vfs.RootOp(), r.Ino, "user.origin", []byte("lower"), 0); err != nil {
		t.Fatal(err)
	}
	user := vfs.NewOp(nil, vfs.User(1000, 1000))
	for _, tc := range []struct {
		name string
		want vfs.Errno
		call func(u *FS, ino vfs.Ino) error
	}{
		{"open O_WRONLY", vfs.EACCES, func(u *FS, ino vfs.Ino) error {
			_, err := u.Open(user, ino, vfs.OWronly)
			return err
		}},
		{"chmod", vfs.EPERM, func(u *FS, ino vfs.Ino) error {
			_, err := u.Setattr(user, ino, vfs.SetMode, vfs.Attr{Mode: 0o666})
			return err
		}},
		{"setxattr", vfs.EPERM, func(u *FS, ino vfs.Ino) error {
			return u.Setxattr(user, ino, "user.new", []byte("v"), 0)
		}},
		{"removexattr", vfs.EPERM, func(u *FS, ino vfs.Ino) error {
			return u.Removexattr(user, ino, "user.origin")
		}},
	} {
		u := NewWith(Options{}, lower)
		f, err := vfs.NewClient(u, vfs.Root()).Resolve("/etc/conf")
		if err != nil {
			t.Fatal(err)
		}
		if err := tc.call(u, f.Ino); vfs.ToErrno(err) != tc.want {
			t.Errorf("uid 1000's %s of root's /etc/conf: %v, want %v", tc.name, err, tc.want)
		}
		for _, p := range []string{"/etc", "/etc/conf"} {
			if _, err := vfs.NewClient(u.upper, vfs.Root()).Stat(p); vfs.ToErrno(err) != vfs.ENOENT {
				t.Errorf("after a refused %s the upper layer holds %s (%v)", tc.name, p, err)
			}
		}
	}
}

func TestRecreateAfterWhiteout(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/f": "old"})
	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	cli.Remove("/f")
	if err := cli.WriteFile("/f", []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := cli.ReadFile("/f")
	if err != nil || string(got) != "new" {
		t.Fatalf("recreate: %q %v", got, err)
	}
}

// TestMergedReaddir: the merged listing holds each visible name once, in
// cookie order: the bottom layer's names in its link order, then the names
// only a layer above holds. A name in both layers keeps the bottom's place
// and shows the top's file, and a copy-up moves no entry.
func TestMergedReaddir(t *testing.T) {
	layer := func(files ...string) *memfs.FS {
		fs := memfs.New(memfs.Options{})
		cli := vfs.NewClient(fs, vfs.Root())
		if err := cli.Mkdir("/dir", 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(files); i += 2 {
			if err := cli.WriteFile("/dir/"+files[i], []byte(files[i+1]), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return fs
	}
	top := layer("a", "1", "both", "top")
	bottom := layer("b", "2", "both", "bottom")
	u := NewWith(Options{}, top, bottom)
	cli := vfs.NewClient(u, vfs.Root())
	list := func() []string {
		t.Helper()
		ents, err := cli.ReadDir("/dir")
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name
			if i > 0 && e.Off <= ents[i-1].Off {
				t.Fatalf("cookies %d then %d: not increasing", ents[i-1].Off, e.Off)
			}
		}
		return names
	}
	want := []string{"b", "both", "a"}
	if names := list(); !slices.Equal(names, want) {
		t.Fatalf("merged listing = %v, want %v", names, want)
	}
	if got, err := cli.ReadFile("/dir/both"); err != nil || string(got) != "top" {
		t.Fatalf("/dir/both = %q, %v; want the top layer's", got, err)
	}
	if err := cli.WriteFile("/dir/b", []byte("copied up"), 0o644); err != nil {
		t.Fatal(err)
	}
	if names := list(); !slices.Equal(names, want) {
		t.Fatalf("after a copy-up the listing = %v, want %v", names, want)
	}
}

// TestDotDotListsTheParent: a listing's ".." carries the inode a lookup
// of ".." returns, at the root (the root itself) and two levels down, and
// opening the listing takes no lookup reference on the parent.
func TestDotDotListsTheParent(t *testing.T) {
	u := NewWith(Options{}, makeLayer(t, map[string]string{"/d1/d2/f": "x"}))
	op := vfs.RootOp()
	d1, err := u.Lookup(op, vfs.RootIno, "d1")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := u.Lookup(op, d1.Ino, "d2")
	if err != nil {
		t.Fatal(err)
	}
	for _, ino := range []vfs.Ino{vfs.RootIno, d2.Ino} {
		refs := u.nodes[d1.Ino].nlookup
		h, err := u.Opendir(op, ino)
		if err != nil {
			t.Fatal(err)
		}
		ents, err := u.Readdir(op, h, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.Releasedir(op, h); err != nil {
			t.Fatal(err)
		}
		if got := u.nodes[d1.Ino].nlookup; got != refs {
			t.Fatalf("listing inode %d moved d1's lookup count from %d to %d", ino, refs, got)
		}
		dotdot, err := u.Lookup(op, ino, "..")
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(ents, func(e vfs.Dirent) bool { return e.Name == ".." })
		if i < 0 || ents[i].Ino != dotdot.Ino {
			t.Fatalf("inode %d lists %+v, want \"..\" with inode %d", ino, ents, dotdot.Ino)
		}
	}
}

func TestMkdirAndNestedWrites(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/usr/bin/tool": "t"})
	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	if err := cli.MkdirAll("/usr/local/bin", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := cli.WriteFile("/usr/local/bin/new", []byte("n"), 0o755); err != nil {
		t.Fatal(err)
	}
	ents, _ := cli.ReadDir("/usr")
	if len(ents) != 2 { // bin (lower) + local (upper)
		t.Fatalf("merged /usr = %v", ents)
	}
}

func TestRenameLowerFile(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/old": "content"})
	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	if err := cli.Rename("/old", "/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Stat("/old"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("source visible after rename: %v", err)
	}
	got, err := cli.ReadFile("/new")
	if err != nil || string(got) != "content" {
		t.Fatalf("rename dest: %q %v", got, err)
	}
}

func TestRenameDirectoryCopiesTree(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/d/x": "1", "/d/sub/y": "2"})
	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	if err := cli.Rename("/d", "/moved"); err != nil {
		t.Fatal(err)
	}
	got, err := cli.ReadFile("/moved/sub/y")
	if err != nil || string(got) != "2" {
		t.Fatalf("moved tree: %q %v", got, err)
	}
	if _, err := cli.Stat("/d"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("old tree visible: %v", err)
	}
}

func TestRmdirUnionEmpty(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/dir/f": "x"})
	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	if err := cli.Remove("/dir"); vfs.ToErrno(err) != vfs.ENOTEMPTY {
		t.Fatalf("rmdir non-empty union: %v", err)
	}
	if err := cli.Remove("/dir/f"); err != nil {
		t.Fatal(err)
	}
	if err := cli.Remove("/dir"); err != nil {
		t.Fatalf("rmdir emptied dir: %v", err)
	}
	if _, err := cli.Stat("/dir"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatal("dir still visible")
	}
}

func TestHardLinkWithinUnion(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/f": "x"})
	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	if err := cli.Link("/f", "/l"); err != nil {
		t.Fatal(err)
	}
	got, err := cli.ReadFile("/l")
	if err != nil || string(got) != "x" {
		t.Fatalf("link read: %q %v", got, err)
	}
}

func TestSymlinkInUnion(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/target": "T"})
	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	if err := cli.Symlink("/target", "/ln"); err != nil {
		t.Fatal(err)
	}
	got, err := cli.ReadFile("/ln")
	if err != nil || string(got) != "T" {
		t.Fatalf("symlink read: %q %v", got, err)
	}
}

func TestXattrCopyUp(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/f": "x"})
	lcli := vfs.NewClient(lower, vfs.Root())
	r, _ := lcli.Resolve("/f")
	lower.Setxattr(vfs.RootOp(), r.Ino, "user.origin", []byte("lower"), 0)

	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	ur, _ := cli.Resolve("/f")
	// Setting a new xattr copies up and must preserve existing ones.
	if err := u.Setxattr(vfs.RootOp(), ur.Ino, "user.new", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	v, err := u.Getxattr(vfs.RootOp(), ur.Ino, "user.origin")
	if err != nil || !bytes.Equal(v, []byte("lower")) {
		t.Fatalf("xattr lost in copy-up: %q %v", v, err)
	}
}

func TestChmodCopiesUp(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/f": "x"})
	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	if err := cli.Chmod("/f", 0o700); err != nil {
		t.Fatal(err)
	}
	attr, _ := cli.Stat("/f")
	if attr.Mode&vfs.ModePerm != 0o700 {
		t.Fatalf("mode = %o", attr.Mode)
	}
	lattr, _ := vfs.NewClient(lower, vfs.Root()).Stat("/f")
	if lattr.Mode&vfs.ModePerm != 0o644 {
		t.Fatal("lower layer mode changed")
	}
}

func TestDeepLayerStack(t *testing.T) {
	l1 := makeLayer(t, map[string]string{"/a": "1"})
	l2 := makeLayer(t, map[string]string{"/b": "2"})
	l3 := makeLayer(t, map[string]string{"/c": "3", "/a": "shadowed"})
	u := NewWith(Options{}, l1, l2, l3)
	cli := vfs.NewClient(u, vfs.Root())
	for path, want := range map[string]string{"/a": "1", "/b": "2", "/c": "3"} {
		got, err := cli.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("%s = %q %v, want %q", path, got, err, want)
		}
	}
}

func TestWhiteoutsNotListedEver(t *testing.T) {
	lower := makeLayer(t, map[string]string{"/d/a": "1", "/d/b": "2", "/d/c": "3"})
	u := NewWith(Options{}, lower)
	cli := vfs.NewClient(u, vfs.Root())
	cli.Remove("/d/a")
	cli.Remove("/d/b")
	ents, err := cli.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "c" {
		t.Fatalf("listing = %v", ents)
	}
}

// TestRenameExchange: RENAME_EXCHANGE swaps two names, each of them a
// lower file, a file made in the union or a merged directory, and each
// union inode follows its object; no end is lost. A missing end is ENOENT
// and a flag the union cannot honour EINVAL.
func TestRenameExchange(t *testing.T) {
	u := NewWith(Options{}, makeLayer(t, map[string]string{"/a": "A", "/d/x": "X"}))
	cli := vfs.NewClient(u, vfs.Root())
	op := vfs.RootOp()
	if err := cli.WriteFile("/b", []byte("B"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := u.Lookup(op, vfs.RootIno, "a")
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Rename(op, vfs.RootIno, "a", vfs.RootIno, "b", vfs.RenameExchange); err != nil {
		t.Fatal(err)
	}
	for path, want := range map[string]string{"/a": "B", "/b": "A"} {
		if got, err := cli.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("%s = %q, %v; want %q", path, got, err, want)
		}
	}
	if b, err := cli.Stat("/b"); err != nil || b.Ino != a.Ino {
		t.Fatalf("/b is inode %d (%v), want the exchanged file's %d", b.Ino, err, a.Ino)
	}
	if err := u.Rename(op, vfs.RootIno, "d", vfs.RootIno, "a", vfs.RenameExchange); err != nil {
		t.Fatal(err)
	}
	if got, err := cli.ReadFile("/a/x"); err != nil || string(got) != "X" {
		t.Fatalf("/a/x = %q, %v; want the exchanged directory's", got, err)
	}
	if got, err := cli.ReadFile("/d"); err != nil || string(got) != "B" {
		t.Fatalf("/d = %q, %v; want the exchanged file's", got, err)
	}
	for _, c := range []struct {
		to    string
		flags vfs.RenameFlags
		want  vfs.Errno
	}{
		{"missing", vfs.RenameExchange, vfs.ENOENT},
		{"b", vfs.RenameExchange | vfs.RenameNoReplace, vfs.EINVAL},
		{"b", 1 << 2, vfs.EINVAL}, // RENAME_WHITEOUT
	} {
		if err := u.Rename(op, vfs.RootIno, "a", vfs.RootIno, c.to, c.flags); vfs.ToErrno(err) != c.want {
			t.Fatalf("rename a %s with flags %#x: %v, want %v", c.to, c.flags, err, c.want)
		}
	}
}

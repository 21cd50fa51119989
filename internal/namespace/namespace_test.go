package namespace

import (
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/vfs"
)

func newRoot(t *testing.T) (*MountNS, *vfs.Client) {
	t.Helper()
	ns := NewMountNS(memfs.New(memfs.Options{}))
	return ns, NewClient(ns, vfs.Root())
}

// bind resolves src in ns and mounts what it names at dst: a bind mount.
func bind(t *testing.T, ns *MountNS, src, dst string, readOnly bool) {
	t.Helper()
	r, err := ns.Resolve(vfs.RootOp(), src)
	if err != nil {
		t.Fatal(err)
	}
	ns.Mount(dst, r.FS, r.Ino, readOnly)
}

func TestRootMountResolution(t *testing.T) {
	_, c := newRoot(t)
	if err := c.WriteFile("/hello", []byte("world"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("/hello")
	if err != nil || string(got) != "world" {
		t.Fatalf("read: %q %v", got, err)
	}
}

func TestMountShadowsDirectory(t *testing.T) {
	ns, c := newRoot(t)
	c.MkdirAll("/mnt", 0o755)
	c.WriteFile("/mnt/under", []byte("hidden"), 0o644)
	other := memfs.New(memfs.Options{})
	vfs.NewClient(other, vfs.Root()).WriteFile("/visible", []byte("shown"), 0o644)
	ns.Mount("/mnt", other, vfs.RootIno, false)
	if _, err := c.Stat("/mnt/under"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("shadowed file visible: %v", err)
	}
	got, err := c.ReadFile("/mnt/visible")
	if err != nil || string(got) != "shown" {
		t.Fatalf("mounted file: %q %v", got, err)
	}
}

func TestMountNeedsNoUnderlyingDir(t *testing.T) {
	ns, c := newRoot(t)
	other := memfs.New(memfs.Options{})
	ns.Mount("/virtual/deep", other, vfs.RootIno, false)
	if _, err := c.ReadDir("/virtual/deep"); err != nil {
		t.Fatalf("mount without underlying dir: %v", err)
	}
}

func TestBindMount(t *testing.T) {
	ns, c := newRoot(t)
	c.MkdirAll("/data/sub", 0o755)
	c.WriteFile("/data/sub/f", []byte("x"), 0o644)
	bind(t, ns, "/data/sub", "/alias", false)
	got, err := c.ReadFile("/alias/f")
	if err != nil || string(got) != "x" {
		t.Fatalf("bind read: %q %v", got, err)
	}
	// Writes through the bind are visible at the original path.
	if err := c.WriteFile("/alias/new", []byte("y"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = c.ReadFile("/data/sub/new")
	if err != nil || string(got) != "y" {
		t.Fatalf("write through bind: %q %v", got, err)
	}
}

func TestReadOnlyMountRejectsWrites(t *testing.T) {
	ns, c := newRoot(t)
	c.MkdirAll("/ro", 0o755)
	c.WriteFile("/ro/f", []byte("x"), 0o644)
	bind(t, ns, "/ro", "/mnt", true)
	if err := c.WriteFile("/mnt/new", nil, 0o644); vfs.ToErrno(err) != vfs.EROFS {
		t.Fatalf("write to ro mount: %v, want EROFS", err)
	}
	if _, err := c.ReadFile("/mnt/f"); err != nil {
		t.Fatalf("read from ro mount: %v", err)
	}
}

func TestCloneIsolatesPrivateMounts(t *testing.T) {
	ns, _ := newRoot(t)
	child := ns.Clone()
	other := memfs.New(memfs.Options{})
	child.Mount("/m", other, vfs.RootIno, false)
	if _, ok := ns.MountAt("/m"); ok {
		t.Fatal("private mount leaked to parent namespace")
	}
	if _, ok := child.MountAt("/m"); !ok {
		t.Fatal("mount missing in child")
	}
	ns.Mount("/n", other, vfs.RootIno, false)
	if _, ok := child.MountAt("/n"); ok {
		t.Fatal("parent's later mount leaked into the clone")
	}
}

func TestChroot(t *testing.T) {
	_, c := newRoot(t)
	c.MkdirAll("/jail/etc", 0o755)
	c.WriteFile("/jail/etc/passwd", []byte("root:x:0:0"), 0o644)
	c.WriteFile("/outside", []byte("secret"), 0o644)
	jc, err := c.Chroot("/jail")
	if err != nil {
		t.Fatal(err)
	}
	got, err := jc.ReadFile("/etc/passwd")
	if err != nil || string(got) != "root:x:0:0" {
		t.Fatalf("chroot read: %q %v", got, err)
	}
	if _, err := jc.Stat("/outside"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("escape: %v, want ENOENT", err)
	}
}

func TestChrootSeesNestedMounts(t *testing.T) {
	ns, c := newRoot(t)
	c.MkdirAll("/jail", 0o755)
	tools := memfs.New(memfs.Options{})
	vfs.NewClient(tools, vfs.Root()).WriteFile("/gdb", []byte("ELF"), 0o755)
	ns.Mount("/jail/usr/bin", tools, vfs.RootIno, false)
	jc, err := c.Chroot("/jail")
	if err != nil {
		t.Fatal(err)
	}
	got, err := jc.ReadFile("/usr/bin/gdb")
	if err != nil || string(got) != "ELF" {
		t.Fatalf("nested mount in chroot: %q %v", got, err)
	}
}

func TestRenameAcrossMountsEXDEV(t *testing.T) {
	ns, c := newRoot(t)
	other := memfs.New(memfs.Options{})
	ns.Mount("/m", other, vfs.RootIno, false)
	c.WriteFile("/f", []byte("x"), 0o644)
	if err := c.Rename("/f", "/m/f"); vfs.ToErrno(err) != vfs.EXDEV {
		t.Fatalf("cross-mount rename: %v, want EXDEV", err)
	}
	if err := c.Link("/f", "/m/l"); vfs.ToErrno(err) != vfs.EXDEV {
		t.Fatalf("cross-mount link: %v, want EXDEV", err)
	}
}

func TestSymlinkAcrossMounts(t *testing.T) {
	ns, c := newRoot(t)
	other := memfs.New(memfs.Options{})
	vfs.NewClient(other, vfs.Root()).WriteFile("/target", []byte("t"), 0o644)
	ns.Mount("/m", other, vfs.RootIno, false)
	if err := c.Symlink("/m/target", "/ln"); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("/ln")
	if err != nil || string(got) != "t" {
		t.Fatalf("cross-mount symlink: %q %v", got, err)
	}
}

func TestRemoveMountPointBusy(t *testing.T) {
	ns, c := newRoot(t)
	c.MkdirAll("/mp", 0o755)
	ns.Mount("/mp", memfs.New(memfs.Options{}), vfs.RootIno, false)
	if err := c.Remove("/mp"); vfs.ToErrno(err) != vfs.EBUSY {
		t.Fatalf("remove mount point: %v, want EBUSY", err)
	}
}

func TestMountsListing(t *testing.T) {
	ns, _ := newRoot(t)
	ns.Mount("/b", memfs.New(memfs.Options{}), vfs.RootIno, false)
	ns.Mount("/a", memfs.New(memfs.Options{}), vfs.RootIno, true)
	ms := ns.Mounts()
	if len(ms) != 3 || ms[0].Point != "/" || ms[1].Point != "/a" || ms[2].Point != "/b" {
		t.Fatalf("mounts = %v", ms)
	}
	if !ms[1].ReadOnly {
		t.Fatal("read-only flag lost")
	}
}

var allKinds = []Kind{KindPID, KindNet, KindUTS, KindIPC, KindUser, KindCgroup}

func newSet(hostname string) *Set {
	return New(NewMountNS(memfs.New(memfs.Options{})), hostname, allKinds...)
}

func TestSetnsReplacesSelected(t *testing.T) {
	nsA, nsB := newSet("a"), newSet("b")
	proc := nsA.Clone()
	proc.Setns(nsB, KindMount, KindUTS)
	for k := Kind(0); k < numKinds; k++ {
		from := nsA
		if k == KindMount || k == KindUTS {
			from = nsB
		}
		if proc.ID(k) != from.ID(k) {
			t.Fatalf("%s: id %d, want %d", k, proc.ID(k), from.ID(k))
		}
	}
	if proc.Mount != nsB.Mount {
		t.Fatal("mount namespace not replaced")
	}
	proc2 := nsA.Clone()
	proc2.SetnsAll(nsB)
	if *proc2 != *nsB {
		t.Fatal("SetnsAll incomplete")
	}
}

func TestNamespaceIdentity(t *testing.T) {
	s := newSet("host")
	seen := make(map[uint64]Kind)
	for k := Kind(0); k < numKinds; k++ {
		id := s.ID(k)
		if id == 0 {
			t.Fatalf("%s: namespace ids must be non-zero", k)
		}
		if prev, dup := seen[id]; dup {
			t.Fatalf("%s and %s share id %d", prev, k, id)
		}
		seen[id] = k
	}
	// ids are drawn in the order the kinds are listed, after the mount's.
	if s.ID(KindCgroup) != s.ID(KindMount)+uint64(len(allKinds)) {
		t.Fatalf("ids = %d..%d", s.ID(KindMount), s.ID(KindCgroup))
	}
	// A kind not unshared has no identity of its own until Setns.
	c := New(NewMountNS(memfs.New(memfs.Options{})), "c", KindPID)
	if c.ID(KindUser) != 0 {
		t.Fatal("a kind not unshared must have id 0")
	}
	c.Setns(s, KindUser)
	if c.ID(KindUser) != s.ID(KindUser) {
		t.Fatal("Setns must join the user namespace")
	}
}

// TestUTSNamespace: the hostname belongs to the UTS namespace — joining
// one takes its hostname, and a fork keeps it.
func TestUTSNamespace(t *testing.T) {
	host, ctr := newSet("host"), newSet("container-1")
	if ctr.Hostname != "container-1" {
		t.Fatal("hostname")
	}
	proc := host.Clone()
	proc.Setns(ctr, KindNet)
	if proc.Hostname != "host" {
		t.Fatal("joining the net namespace changed the hostname")
	}
	proc.Setns(ctr, KindUTS)
	if proc.Hostname != "container-1" || proc.Clone().Hostname != "container-1" {
		t.Fatal("joining the UTS namespace must take its hostname")
	}
}

func TestKindString(t *testing.T) {
	if KindMount.String() != "mnt" || KindUser.String() != "user" || Kind(99).String() != "unknown" {
		t.Fatal("kind names")
	}
}

func TestDotDotAcrossMount(t *testing.T) {
	ns, c := newRoot(t)
	other := memfs.New(memfs.Options{})
	vfs.NewClient(other, vfs.Root()).MkdirAll("/deep", 0o755)
	ns.Mount("/m", other, vfs.RootIno, false)
	c.WriteFile("/atroot", []byte("r"), 0o644)
	got, err := c.ReadFile("/m/deep/../../atroot")
	if err != nil || string(got) != "r" {
		t.Fatalf("dotdot across mount: %q %v", got, err)
	}
}

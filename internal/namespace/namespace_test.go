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
	if err := ns.Mount("/mnt", other, vfs.RootIno, PropPrivate, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/mnt/under"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("shadowed file visible: %v", err)
	}
	got, err := c.ReadFile("/mnt/visible")
	if err != nil || string(got) != "shown" {
		t.Fatalf("mounted file: %q %v", got, err)
	}
	// Unmount restores the original view.
	if err := ns.Unmount("/mnt"); err != nil {
		t.Fatal(err)
	}
	got, err = c.ReadFile("/mnt/under")
	if err != nil || string(got) != "hidden" {
		t.Fatalf("after unmount: %q %v", got, err)
	}
}

func TestMountNeedsNoUnderlyingDir(t *testing.T) {
	ns, c := newRoot(t)
	other := memfs.New(memfs.Options{})
	if err := ns.Mount("/virtual/deep", other, vfs.RootIno, PropPrivate, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadDir("/virtual/deep"); err != nil {
		t.Fatalf("mount without underlying dir: %v", err)
	}
}

func TestBindMount(t *testing.T) {
	ns, c := newRoot(t)
	c.MkdirAll("/data/sub", 0o755)
	c.WriteFile("/data/sub/f", []byte("x"), 0o644)
	if err := ns.Bind(vfs.RootOp(), "/data/sub", "/alias", false); err != nil {
		t.Fatal(err)
	}
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
	if err := ns.Bind(vfs.RootOp(), "/ro", "/mnt", true); err != nil {
		t.Fatal(err)
	}
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
	if err := child.Mount("/m", other, vfs.RootIno, PropPrivate, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := ns.MountAt("/m"); ok {
		t.Fatal("private mount leaked to parent namespace")
	}
	if _, ok := child.MountAt("/m"); !ok {
		t.Fatal("mount missing in child")
	}
}

func TestSharedPropagation(t *testing.T) {
	ns, c := newRoot(t)
	c.MkdirAll("/shared", 0o755)
	// Re-mount root as shared, then clone.
	root, _ := ns.MountAt("/")
	if err := ns.Mount("/", root.FS, root.Root, PropShared, false); err != nil {
		t.Fatal(err)
	}
	child := ns.Clone()
	other := memfs.New(memfs.Options{})
	if err := child.Mount("/shared/m", other, PropPrivate.asRootIno(), PropPrivate, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := ns.MountAt("/shared/m"); !ok {
		t.Fatal("mount under shared subtree should propagate to peer")
	}
}

// asRootIno is test sugar so the call site reads naturally.
func (Propagation) asRootIno() vfs.Ino { return vfs.RootIno }

func TestMakeAllPrivateStopsPropagation(t *testing.T) {
	ns, _ := newRoot(t)
	root, _ := ns.MountAt("/")
	ns.Mount("/", root.FS, root.Root, PropShared, false)
	child := ns.Clone()
	child.MakeAllPrivate()
	other := memfs.New(memfs.Options{})
	if err := child.Mount("/m", other, vfs.RootIno, PropPrivate, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := ns.MountAt("/m"); ok {
		t.Fatal("mount propagated despite MakeAllPrivate")
	}
}

func TestMoveMount(t *testing.T) {
	ns, c := newRoot(t)
	other := memfs.New(memfs.Options{})
	vfs.NewClient(other, vfs.Root()).WriteFile("/f", []byte("m"), 0o644)
	ns.Mount("/old", other, vfs.RootIno, PropPrivate, false)
	inner := memfs.New(memfs.Options{})
	ns.Mount("/old/inner", inner, vfs.RootIno, PropPrivate, false)
	if err := ns.MoveMount("/old", "/new/place"); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("/new/place/f")
	if err != nil || string(got) != "m" {
		t.Fatalf("moved mount: %q %v", got, err)
	}
	if _, ok := ns.MountAt("/new/place/inner"); !ok {
		t.Fatal("child mounts must move along")
	}
	if _, ok := ns.MountAt("/old"); ok {
		t.Fatal("old mount point still present")
	}
}

func TestUnmountBusyWithChildren(t *testing.T) {
	ns, _ := newRoot(t)
	a, b := memfs.New(memfs.Options{}), memfs.New(memfs.Options{})
	ns.Mount("/a", a, vfs.RootIno, PropPrivate, false)
	ns.Mount("/a/b", b, vfs.RootIno, PropPrivate, false)
	if err := ns.Unmount("/a"); vfs.ToErrno(err) != vfs.EBUSY {
		t.Fatalf("unmount with child: %v, want EBUSY", err)
	}
	if err := ns.Unmount("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := ns.Unmount("/a"); err != nil {
		t.Fatal(err)
	}
	if err := ns.Unmount("/"); vfs.ToErrno(err) != vfs.EBUSY {
		t.Fatalf("unmount root: %v, want EBUSY", err)
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
	ns.Mount("/jail/usr/bin", tools, vfs.RootIno, PropPrivate, false)
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
	ns.Mount("/m", other, vfs.RootIno, PropPrivate, false)
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
	ns.Mount("/m", other, vfs.RootIno, PropPrivate, false)
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
	ns.Mount("/mp", memfs.New(memfs.Options{}), vfs.RootIno, PropPrivate, false)
	if err := c.Remove("/mp"); vfs.ToErrno(err) != vfs.EBUSY {
		t.Fatalf("remove mount point: %v, want EBUSY", err)
	}
}

func TestMountsListing(t *testing.T) {
	ns, _ := newRoot(t)
	ns.Mount("/b", memfs.New(memfs.Options{}), vfs.RootIno, PropPrivate, false)
	ns.Mount("/a", memfs.New(memfs.Options{}), vfs.RootIno, PropPrivate, true)
	ms := ns.Mounts()
	if len(ms) != 3 || ms[0].Point != "/" || ms[1].Point != "/a" || ms[2].Point != "/b" {
		t.Fatalf("mounts = %v", ms)
	}
	if !ms[1].ReadOnly {
		t.Fatal("read-only flag lost")
	}
}

func TestPIDNamespaceMapping(t *testing.T) {
	p := NewPID()
	l1 := p.Register(1234)
	l2 := p.Register(5678)
	if l1 != 1 || l2 != 2 {
		t.Fatalf("local pids = %d, %d", l1, l2)
	}
	if again := p.Register(1234); again != 1 {
		t.Fatalf("re-register changed pid: %d", again)
	}
	if h, ok := p.HostPID(2); !ok || h != 5678 {
		t.Fatalf("HostPID(2) = %d, %v", h, ok)
	}
	if l, ok := p.LocalPID(1234); !ok || l != 1 {
		t.Fatalf("LocalPID(1234) = %d, %v", l, ok)
	}
	p.Unregister(1234)
	if _, ok := p.LocalPID(1234); ok {
		t.Fatal("unregistered pid still mapped")
	}
}

func TestUserNamespaceMapping(t *testing.T) {
	u := &UserNS{
		ID:     1,
		UIDMap: []IDMap{{Inside: 0, Outside: 100000, Count: 65536}},
		GIDMap: []IDMap{{Inside: 0, Outside: 200000, Count: 1000}},
	}
	if out, ok := u.MapUID(0); !ok || out != 100000 {
		t.Fatalf("MapUID(0) = %d %v", out, ok)
	}
	if out, ok := u.MapUID(1000); !ok || out != 101000 {
		t.Fatalf("MapUID(1000) = %d %v", out, ok)
	}
	if _, ok := u.MapUID(70000); ok {
		t.Fatal("out-of-range uid should be unmapped")
	}
	if out, ok := u.MapGID(999); !ok || out != 200999 {
		t.Fatalf("MapGID(999) = %d %v", out, ok)
	}
}

func TestSetnsReplacesSelected(t *testing.T) {
	nsA := HostSet(NewMountNS(memfs.New(memfs.Options{})))
	nsB := HostSet(NewMountNS(memfs.New(memfs.Options{})))
	proc := nsA.Clone()
	proc.Setns(nsB, KindMount, KindUTS)
	if proc.Mount != nsB.Mount || proc.UTS != nsB.UTS {
		t.Fatal("selected namespaces not replaced")
	}
	if proc.PID != nsA.PID || proc.Net != nsA.Net {
		t.Fatal("unselected namespaces must stay")
	}
	proc2 := nsA.Clone()
	proc2.SetnsAll(nsB)
	if proc2.Mount != nsB.Mount || proc2.Cgroup != nsB.Cgroup {
		t.Fatal("SetnsAll incomplete")
	}
}

func TestNamespaceIdentity(t *testing.T) {
	s := HostSet(NewMountNS(memfs.New(memfs.Options{})))
	desc := s.Describe()
	if len(desc) != NumKinds {
		t.Fatalf("describe = %v", desc)
	}
	if s.ID(KindMount) == 0 || s.ID(KindPID) == 0 {
		t.Fatal("namespace ids must be non-zero")
	}
	if s.ID(KindMount) == s.ID(KindPID) {
		t.Fatal("namespace ids must be unique")
	}
}

func TestUTSNamespace(t *testing.T) {
	u := NewUTS("container-1")
	if u.Hostname() != "container-1" {
		t.Fatal("hostname")
	}
	u.SetHostname("renamed")
	if u.Hostname() != "renamed" {
		t.Fatal("set hostname")
	}
}

func TestNetNamespaceInterfaces(t *testing.T) {
	n := NewNet()
	n.AddInterface("eth0")
	ifs := n.Interfaces()
	if len(ifs) != 2 || ifs[0] != "lo" || ifs[1] != "eth0" {
		t.Fatalf("interfaces = %v", ifs)
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
	ns.Mount("/m", other, vfs.RootIno, PropPrivate, false)
	c.WriteFile("/atroot", []byte("r"), 0o644)
	got, err := c.ReadFile("/m/deep/../../atroot")
	if err != nil || string(got) != "r" {
		t.Fatalf("dotdot across mount: %q %v", got, err)
	}
}

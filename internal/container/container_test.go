package container

import (
	"slices"
	"strings"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/namespace"
	"cntr/internal/proc"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

func newWorld(t *testing.T) (*Runtime, *proc.Table) {
	t.Helper()
	host := namespace.New(namespace.NewMountNS(memfs.New(memfs.Options{})), "host",
		namespace.KindPID, namespace.KindNet, namespace.KindUTS, namespace.KindIPC, namespace.KindUser, namespace.KindCgroup)
	table := proc.NewTable(host)
	return NewRuntime(table, host), table
}

func simpleImage(t *testing.T, name string) *Image {
	t.Helper()
	img, err := BuildImage(name, "latest", ImageConfig{
		Cmd: []string{"/bin/app", "--serve"},
		Env: []string{"APP=1"},
	}, LayerSpec{
		ID: name + "-l1",
		Files: []FileSpec{
			{Path: "/bin/app", Size: 1000, Executable: true},
			{Path: "/etc/app.conf", Content: []byte("conf")},
		},
	}, LayerSpec{
		ID: name + "-l2",
		Files: []FileSpec{
			{Path: "/usr/share/doc/readme", Size: 500},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestImageBuildAndSizes(t *testing.T) {
	img := simpleImage(t, "web")
	if img.Ref() != "web:latest" {
		t.Fatalf("ref = %s", img.Ref())
	}
	if img.Size() != 1000+4+500 {
		t.Fatalf("size = %d", img.Size())
	}
	files := img.ListFiles()
	if len(files) != 3 || files["/bin/app"] != 1000 || files["/usr/share/doc/readme"] != 500 {
		t.Fatalf("list = %v", files)
	}
}

func TestLayerShadowingReducesUnionSize(t *testing.T) {
	img, err := BuildImage("shadow", "v1", ImageConfig{},
		LayerSpec{ID: "base", Files: []FileSpec{{Path: "/f", Size: 1000}}},
		LayerSpec{ID: "patch", Files: []FileSpec{{Path: "/f", Size: 10}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if img.Size() != 1010 {
		t.Fatalf("transfer size = %d", img.Size())
	}
	if files := img.ListFiles(); len(files) != 1 || files["/f"] != 10 {
		t.Fatalf("union view = %v, want /f of 10 bytes (upper layer wins)", files)
	}
}

func TestContainerLifecycle(t *testing.T) {
	rt, table := newWorld(t)
	img := simpleImage(t, "app")
	c, err := rt.Create("mycontainer", img, CreateOpts{Engine: "docker"})
	if err != nil {
		t.Fatal(err)
	}
	if c.State != StateCreated || c.State.String() != "created" {
		t.Fatalf("state = %v", c.State)
	}
	if err := rt.Start(c); err != nil {
		t.Fatal(err)
	}
	if c.State != StateRunning || c.MainPID == 0 {
		t.Fatalf("after start: %v pid=%d", c.State, c.MainPID)
	}
	p, err := table.Get(c.MainPID)
	if err != nil {
		t.Fatal(err)
	}
	if p.Comm != "app" {
		t.Fatalf("comm = %s", p.Comm)
	}
	if !slices.Contains(p.Env, "APP=1") {
		t.Fatal("image env not applied")
	}
	// The main process sees the image's root filesystem.
	cli := namespace.NewClient(p.Namespaces.Mount, p.Cred())
	got, err := cli.ReadFile("/etc/app.conf")
	if err != nil || string(got) != "conf" {
		t.Fatalf("container fs: %q %v", got, err)
	}
	if err := rt.Stop(c); err != nil {
		t.Fatal(err)
	}
	if _, err := table.Get(c.MainPID); err == nil {
		t.Fatal("main process should be gone")
	}
	if err := rt.Remove("mycontainer"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Get("mycontainer"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatal("container should be removed")
	}
}

func TestContainerIsolation(t *testing.T) {
	rt, table := newWorld(t)
	img := simpleImage(t, "iso")
	a, _ := rt.Create("a", img, CreateOpts{})
	b, _ := rt.Create("b", img, CreateOpts{})
	rt.Start(a)
	rt.Start(b)
	pa, _ := table.Get(a.MainPID)
	pb, _ := table.Get(b.MainPID)
	// Different namespaces of every kind except user, which both share
	// with the host.
	for _, k := range []namespace.Kind{namespace.KindMount, namespace.KindPID, namespace.KindNet, namespace.KindUTS, namespace.KindIPC, namespace.KindCgroup} {
		if pa.Namespaces.ID(k) == pb.Namespaces.ID(k) {
			t.Fatalf("%v namespace shared between containers", k)
		}
	}
	if u := rt.Host.ID(namespace.KindUser); u == 0 || pa.Namespaces.ID(namespace.KindUser) != u || pb.Namespaces.ID(namespace.KindUser) != u {
		t.Fatal("containers must share the host's user namespace")
	}
	if pa.Namespaces.Hostname != "a" || pb.Namespaces.Hostname != "b" {
		t.Fatalf("hostnames = %q, %q", pa.Namespaces.Hostname, pb.Namespaces.Hostname)
	}
	// Writes in one container do not affect the other.
	namespace.NewClient(pa.Namespaces.Mount, pa.Cred()).WriteFile("/etc/app.conf", []byte("A"), 0o644)
	got, _ := namespace.NewClient(pb.Namespaces.Mount, pb.Cred()).ReadFile("/etc/app.conf")
	if string(got) != "conf" {
		t.Fatalf("b sees %q", got)
	}
	// Profiles and cgroups.
	if pa.Profile != "docker-default" {
		t.Fatalf("profile = %s", pa.Profile)
	}
	if pa.Caps.Has(vfs.CapSysAdmin) {
		t.Fatal("container process must not hold CAP_SYS_ADMIN")
	}
	if table.Cgroups.Of(a.MainPID) == table.Cgroups.Of(b.MainPID) {
		t.Fatal("containers must get distinct cgroups")
	}
}

func TestPrivilegedContainer(t *testing.T) {
	rt, table := newWorld(t)
	img := simpleImage(t, "priv")
	c, _ := rt.Create("p", img, CreateOpts{Privileged: true})
	rt.Start(c)
	p, _ := table.Get(c.MainPID)
	if !p.Caps.Has(vfs.CapSysAdmin) {
		t.Fatal("privileged container keeps full caps")
	}
	if c.Profile != "unconfined" {
		t.Fatalf("profile = %s", c.Profile)
	}
}

func TestEngineResolution(t *testing.T) {
	rt, _ := newWorld(t)
	img := simpleImage(t, "multi")
	// Every id shares c0ffee..., so a short prefix names several
	// containers. Each container here draws its serial from a sixteen of
	// its own (c0ffee00001x, c0ffee00002x, ...), so its first 11 digits
	// are a unique prefix.
	start := func(name, engine string, serial int) *Container {
		rt.nextSerial = serial
		c, err := rt.Create(name, img, CreateOpts{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	docker := start("web", "docker", 0x10)
	lxc := start("pen", "lxc", 0x20)
	rkt := start("pod", "rkt", 0x30)
	nspawn := start("vm", "systemd-nspawn", 0x40)

	// docker: a name, then a hex id or a unique prefix of one; rkt: an
	// id or a unique prefix, then a name; lxc and systemd-nspawn: a name.
	for _, tc := range []struct {
		ref    string
		c      *Container
		engine string
	}{
		{"web", docker, "docker"},
		{docker.ID, docker, "docker"},
		{docker.ID[:11], docker, "docker"},
		{"pen", lxc, "lxc"},
		{"pod", rkt, "rkt"},
		{rkt.ID, rkt, "rkt"},
		{rkt.ID[:11], rkt, "rkt"},
		{"vm", nspawn, "systemd-nspawn"},
	} {
		pid, engine, err := ResolveAnyEngine(rt, tc.ref)
		if err != nil || engine != tc.engine || pid != tc.c.MainPID {
			t.Errorf("ResolveAnyEngine(%q) = %d %s %v, want %d %s", tc.ref, pid, engine, err, tc.c.MainPID, tc.engine)
		}
	}
	// lxc and systemd-nspawn refuse ids, whole or cut short.
	for _, ref := range []string{lxc.ID, lxc.ID[:11], nspawn.ID, nspawn.ID[:11]} {
		if pid, engine, err := ResolveAnyEngine(rt, ref); vfs.ToErrno(err) != vfs.ENOENT {
			t.Errorf("ResolveAnyEngine(%q) = %d %s %v, want ENOENT", ref, pid, engine, err)
		}
	}
	if names := rt.Engines(); !slices.Equal(names, []string{"docker", "lxc", "rkt", "systemd-nspawn"}) {
		t.Fatalf("engines = %v", names)
	}
}

// TestByIDRefusesAmbiguousPrefix: an id prefix names a container only
// when exactly one id has it, as rkt's unambiguous prefix does. Every id
// here shares c0ffee..., so a short prefix is refused, not answered with
// whichever container a map walk meets first.
func TestByIDRefusesAmbiguousPrefix(t *testing.T) {
	rt, _ := newWorld(t)
	img := simpleImage(t, "ids")
	var cs []*Container
	for _, engine := range []string{"docker", "rkt", "lxc"} {
		c, err := rt.Create("c-"+engine, img, CreateOpts{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Start(c); err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	for _, c := range cs {
		if got, err := rt.ByID(c.ID); err != nil || got != c {
			t.Errorf("ByID(%q) = %v, %v", c.ID, got, err)
		}
	}
	for _, ref := range []string{"", "c0ffee", cs[0].ID[:11]} {
		if got, err := rt.ByID(ref); vfs.ToErrno(err) != vfs.ENOENT {
			t.Errorf("ByID(%q) = %v, %v, want ENOENT", ref, got, err)
		}
		if pid, engine, err := ResolveAnyEngine(rt, ref); vfs.ToErrno(err) != vfs.ENOENT {
			t.Errorf("ResolveAnyEngine(%q) = %d %s %v, want ENOENT", ref, pid, engine, err)
		}
	}
}

func TestExecInContainer(t *testing.T) {
	rt, table := newWorld(t)
	img := simpleImage(t, "exec")
	c, _ := rt.Create("e", img, CreateOpts{})
	rt.Start(c)
	p, err := rt.Exec(c, "sh", []string{"/bin/sh"})
	if err != nil {
		t.Fatal(err)
	}
	main, _ := table.Get(c.MainPID)
	if p.Namespaces.Mount != main.Namespaces.Mount {
		t.Fatal("exec process must share the container's mount namespace")
	}
	rt.Stop(c)
	if _, err := rt.Exec(c, "sh", nil); err == nil {
		t.Fatal("exec in stopped container should fail")
	}
}

func TestRegistryPullDiffTransfer(t *testing.T) {
	clock := sim.NewClock()
	reg := NewRegistry()
	base := LayerSpec{ID: "shared-base", Files: []FileSpec{{Path: "/lib/libc", Size: 5 << 20}}}
	img1, _ := BuildImage("app1", "v1", ImageConfig{}, base,
		LayerSpec{ID: "app1", Files: []FileSpec{{Path: "/bin/a1", Size: 1 << 20, Executable: true}}})
	img2, _ := BuildImage("app2", "v1", ImageConfig{}, base,
		LayerSpec{ID: "app2", Files: []FileSpec{{Path: "/bin/a2", Size: 1 << 20, Executable: true}}})
	reg.Push(img1)
	reg.Push(img2)
	node := NewNode()
	_, st1, err := reg.Pull(clock, node, "app1:v1")
	if err != nil {
		t.Fatal(err)
	}
	if st1.LayersFetched != 2 || st1.BytesFetched != 6<<20 {
		t.Fatalf("first pull: %+v", st1)
	}
	_, st2, err := reg.Pull(clock, node, "app2:v1")
	if err != nil {
		t.Fatal(err)
	}
	if st2.LayersFetched != 1 || st2.LayersCached != 1 {
		t.Fatalf("second pull should reuse base: %+v", st2)
	}
	if st2.Elapsed >= st1.Elapsed {
		t.Fatal("cached pull must be faster")
	}
	if _, _, err := reg.Pull(clock, node, "ghost:v0"); vfs.ToErrno(err) != vfs.ENOENT {
		t.Fatalf("missing image: %v", err)
	}
}

func TestPullTimeProportionalToSize(t *testing.T) {
	clock := sim.NewClock()
	reg := NewRegistry()
	big, _ := BuildImage("big", "v1", ImageConfig{},
		LayerSpec{ID: "big", Files: []FileSpec{{Path: "/blob", Size: 100 << 20}}})
	small, _ := BuildImage("small", "v1", ImageConfig{},
		LayerSpec{ID: "small", Files: []FileSpec{{Path: "/blob2", Size: 10 << 20}}})
	reg.Push(big)
	reg.Push(small)
	_, stBig, _ := reg.Pull(clock, NewNode(), "big:v1")
	_, stSmall, _ := reg.Pull(clock, NewNode(), "small:v1")
	ratio := float64(stBig.Elapsed) / float64(stSmall.Elapsed)
	if ratio < 5 {
		t.Fatalf("10x size should be ~10x time, got %.1fx", ratio)
	}
}

func TestDuplicateContainerName(t *testing.T) {
	rt, _ := newWorld(t)
	img := simpleImage(t, "dup")
	rt.Create("same", img, CreateOpts{})
	if _, err := rt.Create("same", img, CreateOpts{}); vfs.ToErrno(err) != vfs.EEXIST {
		t.Fatalf("dup create: %v", err)
	}
}

func TestRemoveRunningFails(t *testing.T) {
	rt, _ := newWorld(t)
	img := simpleImage(t, "rm")
	c, _ := rt.Create("r", img, CreateOpts{})
	rt.Start(c)
	if err := rt.Remove("r"); vfs.ToErrno(err) != vfs.EBUSY {
		t.Fatalf("remove running: %v", err)
	}
}

func TestUnknownEngine(t *testing.T) {
	rt, _ := newWorld(t)
	img := simpleImage(t, "bad")
	if _, err := rt.Create("x", img, CreateOpts{Engine: "podman"}); err == nil {
		t.Fatal("unknown engine should fail")
	}
	if !strings.Contains(simString(rt.Engines()), "rkt") {
		t.Fatal("rkt engine missing")
	}
}

func simString(ss []string) string { return strings.Join(ss, ",") }

package proc

import (
	"slices"
	"strings"
	"testing"

	"cntr/internal/cgroup"
	"cntr/internal/memfs"
	"cntr/internal/namespace"
	"cntr/internal/vfs"
)

func newTable(t *testing.T) *Table {
	t.Helper()
	return NewTable(namespace.New(namespace.NewMountNS(memfs.New(memfs.Options{})), "host"))
}

func TestInitExists(t *testing.T) {
	tb := newTable(t)
	init, err := tb.Get(1)
	if err != nil || init.Comm != "init" {
		t.Fatalf("init: %+v %v", init, err)
	}
}

func TestSpawnInherits(t *testing.T) {
	tb := newTable(t)
	init, _ := tb.Get(1)
	init.Env = []string{"KEY=VAL"}
	p, err := tb.Spawn(1, "child", []string{"/bin/child", "-x"})
	if err != nil {
		t.Fatal(err)
	}
	if p.PID != 2 || p.PPID != 1 {
		t.Fatalf("pids: %d/%d", p.PID, p.PPID)
	}
	if !slices.Contains(p.Env, "KEY=VAL") {
		t.Fatal("env not inherited")
	}
	if p.Namespaces.Mount != init.Namespaces.Mount {
		t.Fatal("namespaces shared on fork")
	}
	// Mutating the child's env must not affect the parent.
	p.Env = append(p.Env, "NEW=1")
	if slices.Contains(init.Env, "NEW=1") {
		t.Fatal("env aliased between processes")
	}
}

func TestSpawnFromDeadParent(t *testing.T) {
	tb := newTable(t)
	p, _ := tb.Spawn(1, "a", nil)
	tb.Exit(p.PID)
	if _, err := tb.Spawn(p.PID, "b", nil); vfs.ToErrno(err) != vfs.ESRCH {
		t.Fatalf("spawn from dead: %v", err)
	}
}

func TestExitCleansUp(t *testing.T) {
	tb := newTable(t)
	p, _ := tb.Spawn(1, "x", nil)
	pid := p.PID
	tb.Cgroups.Create("/g", cgroup.Limits{})
	tb.Cgroups.Attach(pid, "/g")
	if err := tb.Exit(pid); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Get(pid); vfs.ToErrno(err) != vfs.ESRCH {
		t.Fatal("process still present")
	}
	if tb.Cgroups.Of(pid) != "/" {
		t.Fatal("cgroup membership not cleaned")
	}
	if err := tb.Exit(pid); vfs.ToErrno(err) != vfs.ESRCH {
		t.Fatalf("double exit: %v", err)
	}
}

// TestInSameNamespace: siblings share their parent's mount namespace
// until one unshares it by assigning a new one.
func TestInSameNamespace(t *testing.T) {
	tb := newTable(t)
	a, _ := tb.Spawn(1, "a", nil)
	b, _ := tb.Spawn(1, "b", nil)
	if a.Namespaces.ID(namespace.KindMount) != b.Namespaces.ID(namespace.KindMount) {
		t.Fatal("siblings share mount ns")
	}
	b.Namespaces.Mount = namespace.NewMountNS(memfs.New(memfs.Options{}))
	if a.Namespaces.ID(namespace.KindMount) == b.Namespaces.ID(namespace.KindMount) {
		t.Fatal("after unshare they must differ")
	}
}

func TestSnapshotRendersProc(t *testing.T) {
	tb := newTable(t)
	p, _ := tb.Spawn(1, "mysqld", []string{"/usr/sbin/mysqld", "--port=3306"})
	p.Env = []string{"HOME=/root"}
	snap := tb.Snapshot()
	cli := vfs.NewClient(snap, vfs.Root())
	status, err := cli.ReadFile("/2/status")
	if err != nil || !strings.Contains(string(status), "Name:\tmysqld") {
		t.Fatalf("status: %q %v", status, err)
	}
	cmdline, _ := cli.ReadFile("/2/cmdline")
	if !strings.Contains(string(cmdline), "--port=3306") {
		t.Fatalf("cmdline: %q", cmdline)
	}
	environ, _ := cli.ReadFile("/2/environ")
	if !strings.Contains(string(environ), "HOME=/root") {
		t.Fatalf("environ: %q", environ)
	}
	nsLink, err := cli.ReadFile("/2/ns/mnt")
	if err != nil || !strings.HasPrefix(string(nsLink), "mnt:[") {
		t.Fatalf("ns file: %q %v", nsLink, err)
	}
	mounts, _ := cli.ReadFile("/2/mounts")
	if !strings.Contains(string(mounts), "none / vfs rw") {
		t.Fatalf("mounts: %q", mounts)
	}
	cgroupF, _ := cli.ReadFile("/2/cgroup")
	if !strings.HasPrefix(string(cgroupF), "0::/") {
		t.Fatalf("cgroup: %q", cgroupF)
	}
	// Each pid directory holds exactly the files Cntr reads (§3.2.1),
	// its mount table and its status.
	want := []string{"attr_current", "cgroup", "cmdline", "environ", "mounts", "ns", "status"}
	for _, dir := range []string{"/1", "/2"} {
		ents, err := cli.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			if e.Name != "." && e.Name != ".." {
				names = append(names, e.Name)
			}
		}
		slices.Sort(names)
		if !slices.Equal(names, want) {
			t.Fatalf("%s holds %v, want %v", dir, names, want)
		}
	}
}

func TestProcessCredAndClient(t *testing.T) {
	tb := newTable(t)
	p, _ := tb.Spawn(1, "u", nil)
	p.UID, p.GID = 1000, 1000
	p.FSizeLimit = 4096
	cred := p.Cred()
	if cred.FSUID != 1000 || cred.FSizeLimit != 4096 {
		t.Fatalf("cred = %+v", cred)
	}
	cli := namespace.NewClient(p.Namespaces.Mount, p.Cred())
	if cli.Mounts != vfs.MountTable(p.Namespaces.Mount) {
		t.Fatal("client bound to wrong namespace")
	}
}

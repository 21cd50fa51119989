package proc

import (
	"strings"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/memfs"
	"cntr/internal/namespace"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// TestSnapshotRendersIOCounters: registered I/O sources are summed and
// rendered as /proc/<pid>/io.
func TestSnapshotRendersIOCounters(t *testing.T) {
	tb := newTable(t)
	p, err := tb.Spawn(1, "worker", []string{"/bin/worker"})
	if err != nil {
		t.Fatal(err)
	}
	tb.AddIOSource(func() map[uint32]IOCounters {
		return map[uint32]IOCounters{
			uint32(p.PID): {ReadBytes: 100, WriteBytes: 20, ReadOps: 3, WriteOps: 2, Ops: 9},
		}
	})
	tb.AddIOSource(func() map[uint32]IOCounters {
		return map[uint32]IOCounters{
			uint32(p.PID): {ReadBytes: 1, Ops: 1},
		}
	})
	snap := tb.Snapshot()
	cli := vfs.NewClient(snap, vfs.Root())
	io, err := cli.ReadFile("/2/io")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"rchar: 101", "wchar: 20", "syscr: 3", "syscw: 2", "syscalls: 10"} {
		if !strings.Contains(string(io), want) {
			t.Fatalf("io = %q, missing %q", io, want)
		}
	}
	// Processes with no counters still get a zeroed io file.
	io1, err := cli.ReadFile("/1/io")
	if err != nil || !strings.Contains(string(io1), "rchar: 0") {
		t.Fatalf("init io = %q %v", io1, err)
	}
}

// TestFuseOriginStatsFeedProcIO is the end-to-end accounting path: ops
// stamped with a process's PID cross the FUSE wire, land in the request
// table's per-origin counters, and surface in /proc/<pid>/io.
func TestFuseOriginStatsFeedProcIO(t *testing.T) {
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	back := memfs.New(memfs.Options{})
	conn, srv := Mount(back, clock, model)
	defer func() {
		conn.Unmount()
		srv.Wait()
	}()

	tb := NewTable(namespace.New(namespace.NewMountNS(conn), "host"))
	p, err := tb.Spawn(1, "dd", []string{"dd"})
	if err != nil {
		t.Fatal(err)
	}
	tb.AddIOSource(func() map[uint32]IOCounters {
		stats := srv.OriginStats()
		out := make(map[uint32]IOCounters, len(stats))
		for pid, s := range stats {
			out[pid] = IOCounters{
				ReadBytes: s.ReadBytes, WriteBytes: s.WriteBytes,
				ReadOps: s.ReadOps, WriteOps: s.WriteOps, Ops: s.Ops,
			}
		}
		return out
	})

	cli := p.Client()
	if err := cli.WriteFile("/data", make([]byte, 8192), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.ReadFile("/data"); err != nil {
		t.Fatal(err)
	}

	snap := tb.Snapshot()
	io, err := vfs.NewClient(snap, vfs.Root()).ReadFile("/2/io")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(io), "wchar: 8192") {
		t.Fatalf("io = %q, want wchar: 8192", io)
	}
	if !strings.Contains(string(io), "rchar: 8192") {
		t.Fatalf("io = %q, want rchar: 8192", io)
	}
}

// Mount adapts fuse.Mount for this package's tests.
func Mount(fs vfs.FS, clock *sim.Clock, model *sim.CostModel) (*fuse.Conn, *fuse.Server) {
	return fuse.Mount(fs, clock, model, fuse.DefaultMountOptions())
}

package fuse

import (
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// TestRetireOriginBoundsStats is the pruning regression test: the
// per-origin stats map must not keep an entry for every PID the mount
// has ever served once those processes exit — retiring folds them into
// the aggregate bucket.
func TestRetireOriginBoundsStats(t *testing.T) {
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	conn, srv := Mount(memfs.New(memfs.Options{}), clock, model, DefaultMountOptions())
	defer func() {
		conn.Unmount()
		srv.Wait()
	}()

	const pids = 50
	for pid := uint32(1); pid <= pids; pid++ {
		cli := vfs.NewClient(conn, vfs.Root())
		cli.Op.PID = pid
		if err := cli.WriteFile("/scratch", []byte("x"), 0o644); err != nil {
			t.Fatalf("pid %d write: %v", pid, err)
		}
	}
	// Only the clients' origins are summed: their requests are awaited, so
	// each is counted before its caller returns. Origin 0 carries the
	// one-way RELEASEs, which a worker may still be completing.
	before := srv.OriginStats()
	var total int64
	for pid := uint32(1); pid <= pids; pid++ {
		s, ok := before[pid]
		if !ok {
			t.Fatalf("origin %d not live before retiring", pid)
		}
		total += s.Ops
	}
	for pid := uint32(1); pid <= pids; pid++ {
		srv.RetireOrigin(pid)
	}
	stats := srv.OriginStats()
	for pid := uint32(1); pid <= pids; pid++ {
		if _, ok := stats[pid]; ok {
			t.Fatalf("origin %d still present after retire", pid)
		}
	}
	retired := srv.RetiredOriginStats()
	if retired.Ops == 0 || retired.WriteOps == 0 {
		t.Fatalf("retired aggregate empty: %+v", retired)
	}
	if retired.Ops != total {
		t.Fatalf("accounting lost ops: retired %d, the retired origins had %d", retired.Ops, total)
	}
	// A recycled PID starts a fresh entry rather than resurrecting the
	// retired counters.
	cli := vfs.NewClient(conn, vfs.Root())
	cli.Op.PID = 1
	if _, err := cli.ReadFile("/scratch"); err != nil {
		t.Fatal(err)
	}
	if s, ok := srv.OriginStats()[1]; !ok || s.WriteOps != 0 {
		t.Fatalf("recycled pid entry wrong: %+v ok=%v", s, ok)
	}
}

// TestRetireDefersUntilIdle: retiring an origin whose request is still
// in flight must not race the completion — the fold happens when the
// origin goes idle, and no stats entry is left behind for it.
func TestRetireDefersUntilIdle(t *testing.T) {
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	gate := &gateFS{FS: memfs.New(memfs.Options{}), gate: make(chan struct{})}
	opts := DefaultMountOptions()
	conn, srv := Mount(gate, clock, model, opts)
	defer func() {
		conn.Unmount()
		srv.Wait()
	}()

	cli := vfs.NewClient(conn, vfs.Root())
	cli.Op.PID = 9
	if err := cli.WriteFile("/f", []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := cli.Open("/f", vfs.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := f.ReadAt(make([]byte, 8), 0)
		done <- err
	}()
	waitUntil(t, "the read at the gate", func() bool { return len(gate.served()) == 1 })
	// The process exits while its read is still dispatched.
	srv.RetireOrigin(9)
	close(gate.gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The straggler's completion folded into the aggregate instead of
	// resurrecting a per-origin entry nothing will retire again. (The
	// fold runs in the worker's done() just before the reply is
	// delivered, so it is visible once the read returns.)
	if _, ok := srv.OriginStats()[9]; ok {
		t.Fatalf("origin 9 stats entry survived deferred retire: %+v", srv.OriginStats())
	}
	if r := srv.RetiredOriginStats(); r.Ops == 0 || r.ReadOps == 0 {
		t.Fatalf("straggler not folded into retired aggregate: %+v", r)
	}
	// Operations arriving after the fold (the close below) start a
	// fresh entry, exactly like a recycled PID would.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

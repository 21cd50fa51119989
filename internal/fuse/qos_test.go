package fuse

import (
	"bytes"
	"slices"
	"sync"
	"testing"
	"time"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// gateFS records the PID of every Read as a worker brings it in — so in
// dispatch order, as long as at most one worker at a time is between its
// pop and the gate — and then holds the read until the gate lets it
// through: one per token sent, all once the gate is closed. It is the
// observation point for dispatch-order tests.
type gateFS struct {
	vfs.FS
	gate chan struct{}

	mu    sync.Mutex
	order []uint32
}

func (g *gateFS) Read(op *vfs.Op, h vfs.Handle, off int64, dest []byte) (int, error) {
	g.mu.Lock()
	g.order = append(g.order, op.PID)
	g.mu.Unlock()
	<-g.gate
	return g.FS.Read(op, h, off, dest)
}

func (g *gateFS) served() []uint32 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]uint32(nil), g.order...)
}

// TestMountServesArrivalOrder: a mount with four server threads reads
// the queue in arrival order, whichever process sent a request and
// whichever thread asks. All four workers are parked at the gate on a
// holder origin's reads, four origins queue a backlog behind them one
// request at a time, and the gate then lets one read through at a time:
// the worker it frees completes, pops the next request and brings it to
// the gate. The sequence the workers bring in must be the arrival order.
func TestMountServesArrivalOrder(t *testing.T) {
	const (
		threads   = 4
		holder    = 100
		origins   = 4
		perOrigin = 4
		backlog   = origins * perOrigin
	)
	gate := &gateFS{FS: memfs.New(memfs.Options{}), gate: make(chan struct{})}
	opts := DefaultMountOptions()
	opts.ServerThreads = threads
	conn, srv := Mount(gate, sim.NewClock(), sim.DefaultCostModel(), opts)
	defer func() {
		conn.Unmount()
		srv.Wait()
	}()
	cli := vfs.NewClient(conn, vfs.Root())
	if err := cli.WriteFile("/f", []byte("data"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := cli.Resolve("/f")
	if err != nil {
		t.Fatal(err)
	}
	h, err := conn.Open(vfs.RootOp(), r.Ino, vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	read := func(pid uint32) {
		op := vfs.NewOp(nil, vfs.Root())
		op.PID = pid
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := conn.Read(op, h, 0, make([]byte, 4)); err != nil {
				t.Errorf("read (pid %d): %v", pid, err)
			}
		}()
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				close(gate.gate) // let the readers go before failing
				wg.Wait()
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	for i := 0; i < threads; i++ {
		read(holder)
	}
	waitFor("every worker at the gate", func() bool { return len(gate.served()) == threads })
	var want []uint32
	for pid := uint32(1); pid <= origins; pid++ {
		for i := 0; i < perOrigin; i++ {
			read(pid)
			want = append(want, pid)
			waitFor("the read to queue", func() bool { return srv.Queued() == len(want) })
		}
	}
	for i := 1; i <= backlog; i++ {
		gate.gate <- struct{}{}
		waitFor("the next dispatch", func() bool { return len(gate.served()) == threads+i })
	}
	close(gate.gate)
	wg.Wait()

	if got := gate.served()[threads:]; !slices.Equal(got, want) {
		t.Fatalf("served order differs from arrival order\n served  %v\n arrived %v", got, want)
	}
}

// TestOriginStatsAccounting: the request table attributes completed ops
// and payload bytes to the origin PID carried in the request header.
func TestOriginStatsAccounting(t *testing.T) {
	e := mount(t, DefaultMountOptions())
	op := vfs.NewOp(nil, vfs.Root())
	op.PID = 7

	attr, _, err := e.conn.Create(op, vfs.RootIno, "f", 0o644, vfs.OWronly)
	if err != nil {
		t.Fatal(err)
	}
	_ = attr
	h, err := e.conn.Open(op, attr.Ino, vfs.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 10<<10)
	if _, err := e.conn.Write(op, h, 0, payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	if _, err := e.conn.Read(op, h, 0, buf); err != nil {
		t.Fatal(err)
	}

	stats := e.srv.OriginStats()[7]
	if stats.WriteBytes != int64(len(payload)) || stats.WriteOps != 1 {
		t.Fatalf("write accounting = %+v", stats)
	}
	if stats.ReadBytes != int64(len(payload)) || stats.ReadOps != 1 {
		t.Fatalf("read accounting = %+v", stats)
	}
	if stats.Ops < 4 { // create, open, write, read
		t.Fatalf("ops = %d, want >= 4", stats.Ops)
	}
	if _, ok := e.srv.OriginStats()[9999]; ok {
		t.Fatal("phantom origin in stats")
	}
}

// TestInterruptBookkeepingBounded is the regression test for the
// interrupt-set growth noted in PR 1: an interrupt arriving for an
// already-completed unique must be dropped, not parked forever.
func TestInterruptBookkeepingBounded(t *testing.T) {
	opts := DefaultMountOptions()
	opts.EntryTimeout = 0 // force wire traffic for every stat
	opts.AttrTimeout = 0
	e := mount(t, opts)
	if err := e.cli.WriteFile("/f", []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := e.cli.Stat("/f"); err != nil {
			t.Fatal(err)
		}
	}
	// Late interrupts for every unique issued so far: all two-way
	// requests have completed, so none of these may stick.
	last := e.conn.unique.Load()
	for u := uint64(1); u <= last; u++ {
		e.srv.interrupt(u)
	}
	if n := e.srv.pendingInterrupts(); n != 0 {
		t.Fatalf("%d interrupts parked for completed uniques, want 0", n)
	}
	// Interrupts for uniques that never existed stay bounded too.
	for u := last + 1; u < last+3*completedRing; u++ {
		e.srv.interrupt(u)
	}
	if n := e.srv.pendingInterrupts(); n > completedRing+1 {
		t.Fatalf("pending interrupt set grew to %d, bound is %d", n, completedRing+1)
	}
}

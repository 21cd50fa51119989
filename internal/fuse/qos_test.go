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

// TestSubmitAwaitPipeline: N reads submitted before any is awaited
// return correct data and cost less virtual time than N synchronous
// round trips — the overlap the submit/await split exists to model.
func TestSubmitAwaitPipeline(t *testing.T) {
	const window = 64 << 10
	const windows = 8
	data := bytes.Repeat([]byte("0123456789abcdef"), windows*window/16)

	setup := func() (*Conn, *Server, vfs.Handle, *sim.Clock) {
		clock := sim.NewClock()
		model := sim.DefaultCostModel()
		back := memfs.New(memfs.Options{})
		if err := vfs.NewClient(back, vfs.Root()).WriteFile("/big", data, 0o644); err != nil {
			t.Fatal(err)
		}
		conn, srv := Mount(back, clock, model, DefaultMountOptions())
		cli := vfs.NewClient(conn, vfs.Root())
		r, err := cli.Resolve("/big")
		if err != nil {
			t.Fatal(err)
		}
		h, err := conn.Open(vfs.RootOp(), r.Ino, vfs.ORdonly)
		if err != nil {
			t.Fatal(err)
		}
		return conn, srv, h, clock
	}

	// Pipelined: submit all windows, then await them.
	conn, srv, h, clock := setup()
	op := vfs.RootOp()
	reqs := make([]vfs.IOReq, windows)
	for i := range reqs {
		reqs[i] = vfs.IOReq{Off: int64(i * window), Buf: make([]byte, window)}
	}
	start := clock.Now()
	for i, p := range conn.Submit(op, h, vfs.KindRead, reqs) {
		n, err := p.Await(op)
		if err != nil || n != window {
			t.Fatalf("window %d: n=%d err=%v", i, n, err)
		}
	}
	asyncTime := clock.Now() - start
	var got []byte
	for _, r := range reqs {
		got = append(got, r.Buf...)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("pipelined reads returned wrong data")
	}
	conn.Unmount()
	srv.Wait()

	// Synchronous: one blocking round trip per window.
	conn, srv, h, clock = setup()
	start = clock.Now()
	buf := make([]byte, window)
	for i := 0; i < windows; i++ {
		if _, err := conn.Read(vfs.RootOp(), h, int64(i*window), buf); err != nil {
			t.Fatal(err)
		}
	}
	syncTime := clock.Now() - start
	conn.Unmount()
	srv.Wait()

	if asyncTime >= syncTime {
		t.Fatalf("pipelined reads (%v) should cost less than synchronous (%v)", asyncTime, syncTime)
	}
}

// TestSubmitWriteRoundTrip: an asynchronous write larger than MaxWrite
// is split, pipelined, and lands intact.
func TestSubmitWriteRoundTrip(t *testing.T) {
	opts := DefaultMountOptions()
	opts.MaxWrite = 64 << 10
	e := mount(t, opts)
	data := bytes.Repeat([]byte("w"), 200<<10)
	f, err := e.cli.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	op := vfs.RootOp()
	p := e.conn.Submit(op, f.Handle(), vfs.KindWrite, []vfs.IOReq{{Off: 0, Buf: data}})
	if len(p) != 1 {
		t.Fatalf("futures = %d, want 1", len(p))
	}
	n, err := p[0].Await(op)
	if err != nil || n != len(data) {
		t.Fatalf("async write: n=%d err=%v", n, err)
	}
	// Validation at the boundary: a kind that is not a data transfer
	// fails with EINVAL and an empty window yields no futures — neither
	// puts a frame on the queue.
	before := e.conn.Stats().Requests
	for _, bad := range e.conn.Submit(op, f.Handle(), vfs.KindFsync, []vfs.IOReq{{Buf: data}, {Buf: data}}) {
		if n, err := bad.Await(op); n != 0 || vfs.ToErrno(err) != vfs.EINVAL {
			t.Fatalf("bad kind: n=%d err=%v, want EINVAL", n, err)
		}
	}
	if got := e.conn.Submit(op, f.Handle(), vfs.KindWrite, nil); got != nil {
		t.Fatalf("empty window returned %d futures", len(got))
	}
	if after := e.conn.Stats().Requests; after != before {
		t.Fatalf("rejected windows sent %d requests", after-before)
	}
	f.Close()
	got, err := e.cli.ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read back %d bytes, err=%v", len(got), err)
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

// TestCongestionChargesAsyncSubmitters: past the congestion threshold a
// pipelined submission pays a wakeup on top of its enqueue. The one server
// thread is parked at the gate, so nothing is read while a window is
// submitted and its i-th submission finds i requests queued: a 160-request
// window stays under the threshold, a 224-request one crosses it with its
// last 32.
func TestCongestionChargesAsyncSubmitters(t *testing.T) {
	const under, over = 160, 224
	model := sim.DefaultCostModel()
	run := func(window int) time.Duration {
		clock := sim.NewClock()
		gate := &gateFS{FS: memfs.New(memfs.Options{}), gate: make(chan struct{})}
		opts := DefaultMountOptions()
		opts.ServerThreads = 1
		conn, srv := Mount(gate, clock, model, opts)
		cli := vfs.NewClient(conn, vfs.Root())
		if err := cli.WriteFile("/f", bytes.Repeat([]byte("x"), 4096), 0o644); err != nil {
			t.Fatal(err)
		}
		r, _ := cli.Resolve("/f")
		h, err := conn.Open(vfs.RootOp(), r.Ino, vfs.ORdonly)
		if err != nil {
			t.Fatal(err)
		}
		op := vfs.RootOp()
		holder := conn.Submit(op, h, vfs.KindRead, []vfs.IOReq{{Buf: make([]byte, 512)}})
		waitUntil(t, "the server thread at the gate", func() bool { return len(gate.served()) == 1 })
		reqs := make([]vfs.IOReq, window)
		for i := range reqs {
			reqs[i].Buf = make([]byte, 512)
		}
		start := clock.Now()
		pendings := conn.Submit(op, h, vfs.KindRead, reqs)
		submitted := clock.Now() - start
		close(gate.gate)
		for _, p := range append(holder, pendings...) {
			if _, err := p.Await(op); err != nil {
				t.Fatal(err)
			}
		}
		conn.Unmount()
		srv.Wait()
		return submitted
	}
	uncongested, congested := run(under), run(over)
	perSubmit := uncongested / under
	want := over*perSubmit + (over-congestionThreshold)*model.WakeupLatency
	if congested != want {
		t.Fatalf("%d submissions cost %v, want %v: %v each, plus %v for each of the %d that found more than %d queued",
			over, congested, want, perSubmit, model.WakeupLatency, over-congestionThreshold, congestionThreshold)
	}
}

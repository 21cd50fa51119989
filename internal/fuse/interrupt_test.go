package fuse

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// openFIFOPair opens both ends of a FIFO through the connection
// concurrently: under fifo(7)'s open-until-peer semantics neither
// blocking single-direction open completes alone, so the two opens must
// be in flight together (each occupies a server worker until its peer
// registers).
func openFIFOPair(t *testing.T, conn *Conn, ino vfs.Ino) (rh, wh vfs.Handle) {
	t.Helper()
	type res struct {
		h   vfs.Handle
		err error
	}
	rc := make(chan res, 1)
	go func() {
		h, err := conn.Open(vfs.RootOp(), ino, vfs.ORdonly)
		rc <- res{h, err}
	}()
	wh, err := conn.Open(vfs.RootOp(), ino, vfs.OWronly)
	if err != nil {
		t.Fatal(err)
	}
	r := <-rc
	if r.err != nil {
		t.Fatal(r.err)
	}
	return r.h, wh
}

// TestInterruptAbortsBlockedRead is the FUSE_INTERRUPT round trip: a read
// of an empty FIFO blocks inside the server-side filesystem; canceling
// the caller's Op context forwards an INTERRUPT frame naming the in-
// flight request, the server cancels the request's context, the blocked
// read unwinds with EINTR, and the errno travels back to the caller.
func TestInterruptAbortsBlockedRead(t *testing.T) {
	opts := DefaultMountOptions()
	// One worker blocks in the FIFO read; a sibling must be free to
	// process the INTERRUPT frame.
	opts.ServerThreads = 2
	e := mount(t, opts)

	root := vfs.RootOp()
	if _, err := e.conn.Mknod(root, vfs.RootIno, "pipe", vfs.TypeFIFO, 0o644, 0); err != nil {
		t.Fatal(err)
	}
	attr, err := e.conn.Lookup(root, vfs.RootIno, "pipe")
	if err != nil {
		t.Fatal(err)
	}
	h, wh := openFIFOPair(t, e.conn, attr.Ino)
	defer e.conn.Release(root, wh)

	ctx, cancel := context.WithCancel(context.Background())
	op := vfs.NewOp(ctx, vfs.Root())
	type result struct {
		n   int
		err error
	}
	done := make(chan result, 1)
	go func() {
		buf := make([]byte, 16)
		n, rerr := e.conn.Read(op, h, 0, buf)
		done <- result{n, rerr}
	}()

	// Give the read time to reach the server and block, then interrupt.
	time.Sleep(20 * time.Millisecond)
	select {
	case r := <-done:
		t.Fatalf("read returned before interrupt: n=%d err=%v", r.n, r.err)
	default:
	}
	cancel()

	select {
	case r := <-done:
		if vfs.ToErrno(r.err) != vfs.EINTR {
			t.Fatalf("interrupted read: n=%d err=%v, want EINTR", r.n, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("interrupt did not unblock the read")
	}
	if e.conn.Stats().Frames[OpInterrupt] == 0 {
		t.Fatal("the canceled read sent no INTERRUPT frame")
	}

	// The connection must stay fully usable after an interrupt.
	if err := e.cli.WriteFile("/after", []byte("ok"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := e.cli.ReadFile("/after"); err != nil || string(got) != "ok" {
		t.Fatalf("post-interrupt traffic: %q, %v", got, err)
	}
	if err := e.conn.Release(root, h); err != nil {
		t.Fatal(err)
	}
}

// TestInterruptDataStillFlows: writing into the FIFO after an interrupted
// read wakes a fresh (non-canceled) read normally.
func TestInterruptedFIFOStaysUsable(t *testing.T) {
	opts := DefaultMountOptions()
	opts.ServerThreads = 2
	e := mount(t, opts)

	root := vfs.RootOp()
	if _, err := e.conn.Mknod(root, vfs.RootIno, "pipe", vfs.TypeFIFO, 0o644, 0); err != nil {
		t.Fatal(err)
	}
	attr, err := e.conn.Lookup(root, vfs.RootIno, "pipe")
	if err != nil {
		t.Fatal(err)
	}
	rh, wh := openFIFOPair(t, e.conn, attr.Ino)

	// Interrupt one read.
	ctx, cancel := context.WithCancel(context.Background())
	op := vfs.NewOp(ctx, vfs.Root())
	done := make(chan error, 1)
	go func() {
		_, rerr := e.conn.Read(op, rh, 0, make([]byte, 4))
		done <- rerr
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if rerr := <-done; vfs.ToErrno(rerr) != vfs.EINTR {
		t.Fatalf("interrupted read: %v, want EINTR", rerr)
	}

	// A subsequent read sees data written into the FIFO.
	go func() {
		buf := make([]byte, 4)
		n, rerr := e.conn.Read(root, rh, 0, buf)
		if rerr == nil && string(buf[:n]) != "ping" {
			rerr = vfs.EIO
		}
		done <- rerr
	}()
	time.Sleep(10 * time.Millisecond)
	if _, err := e.conn.Write(root, wh, 0, []byte("ping")); err != nil {
		t.Fatal(err)
	}
	select {
	case rerr := <-done:
		if rerr != nil {
			t.Fatalf("read after write: %v", rerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("FIFO write did not wake the reader")
	}
}

// TestUnmountCancelsBlockedRequests: tearing the stack down while a
// non-cancelable request is blocked inside the filesystem must not hang
// — Server.Wait cancels in-flight operations.
func TestUnmountCancelsBlockedRequests(t *testing.T) {
	opts := DefaultMountOptions()
	opts.ServerThreads = 2
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	back := memfs.New(memfs.Options{})
	conn, srv := Mount(back, clock, model, opts)

	root := vfs.RootOp()
	if _, err := conn.Mknod(root, vfs.RootIno, "pipe", vfs.TypeFIFO, 0o644, 0); err != nil {
		t.Fatal(err)
	}
	attr, err := conn.Lookup(root, vfs.RootIno, "pipe")
	if err != nil {
		t.Fatal(err)
	}
	h, wh := openFIFOPair(t, conn, attr.Ino)
	_ = wh
	done := make(chan error, 1)
	go func() {
		// A non-cancelable op: nobody will ever write or interrupt it.
		_, rerr := conn.Read(vfs.RootOp(), h, 0, make([]byte, 4))
		done <- rerr
	}()
	// A second victim: a FIFO open parked waiting for a peer that will
	// never arrive (the writer end of a *different* FIFO).
	if _, err := conn.Mknod(root, vfs.RootIno, "pipe2", vfs.TypeFIFO, 0o644, 0); err != nil {
		t.Fatal(err)
	}
	attr2, err := conn.Lookup(root, vfs.RootIno, "pipe2")
	if err != nil {
		t.Fatal(err)
	}
	openDone := make(chan error, 1)
	go func() {
		_, oerr := conn.Open(vfs.RootOp(), attr2.Ino, vfs.ORdonly)
		openDone <- oerr
	}()
	time.Sleep(10 * time.Millisecond)

	closed := make(chan struct{})
	go func() {
		conn.Unmount()
		srv.Wait()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Unmount+Wait hung on a blocked request")
	}
	if rerr := <-done; vfs.ToErrno(rerr) != vfs.EINTR {
		t.Fatalf("teardown-canceled read: %v, want EINTR", rerr)
	}
	if oerr := <-openDone; vfs.ToErrno(oerr) != vfs.EINTR {
		t.Fatalf("teardown-canceled FIFO open: %v, want EINTR", oerr)
	}
}

// TestInterruptAbortsParkedOpen: FUSE_INTERRUPT reaches an open(2)
// parked on a peerless FIFO — the open-until-peer park is cancelable
// end-to-end, and the aborted open leaves no phantom reader behind.
func TestInterruptAbortsParkedOpen(t *testing.T) {
	opts := DefaultMountOptions()
	opts.ServerThreads = 2
	e := mount(t, opts)

	root := vfs.RootOp()
	if _, err := e.conn.Mknod(root, vfs.RootIno, "pipe", vfs.TypeFIFO, 0o644, 0); err != nil {
		t.Fatal(err)
	}
	attr, err := e.conn.Lookup(root, vfs.RootIno, "pipe")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	op := vfs.NewOp(ctx, vfs.Root())
	done := make(chan error, 1)
	go func() {
		_, oerr := e.conn.Open(op, attr.Ino, vfs.ORdonly)
		done <- oerr
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case oerr := <-done:
		t.Fatalf("peerless FIFO open returned early: %v", oerr)
	default:
	}
	cancel()
	select {
	case oerr := <-done:
		if vfs.ToErrno(oerr) != vfs.EINTR {
			t.Fatalf("interrupted open: %v, want EINTR", oerr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("interrupt did not unwind the parked open")
	}

	// No reader was left registered: a nonblocking write-only open must
	// still see a readerless FIFO (ENXIO), and the pair path still works.
	if _, err := e.conn.Open(root, attr.Ino, vfs.OWronly|vfs.ONonblock); vfs.ToErrno(err) != vfs.ENXIO {
		t.Fatalf("write-only open after aborted reader: %v, want ENXIO", err)
	}
	rh, wh := openFIFOPair(t, e.conn, attr.Ino)
	if _, err := e.conn.Write(root, wh, 0, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if n, err := e.conn.Read(root, rh, 0, buf); err != nil || string(buf[:n]) != "ok" {
		t.Fatalf("FIFO after aborted open: %q %v", buf[:n], err)
	}
}

// hookFS runs hook, when one is set, inside the server-side Getattr —
// the observation point for what a request's Op looks like from below
// the server.
type hookFS struct {
	vfs.FS
	hook atomic.Pointer[func(op *vfs.Op) error]
}

func (f *hookFS) Getattr(op *vfs.Op, ino vfs.Ino) (vfs.Attr, error) {
	if hook := f.hook.Load(); hook != nil {
		if err := (*hook)(op); err != nil {
			return vfs.Attr{}, err
		}
	}
	return f.FS.Getattr(op, ino)
}

// TestInterruptDoesNotCrossRecycledRequest: with one server thread and
// one caller at a time every request runs on the same recycled Op and on
// a recycled request with its cancellation context, so a cancellation
// aimed at request A must never reach B, the struct's next tenant — not
// a FUSE_INTERRUPT that names A after A was answered, and not the
// teardown sweep that canceled A while it was in flight.
func TestInterruptDoesNotCrossRecycledRequest(t *testing.T) {
	opts := DefaultMountOptions()
	opts.ServerThreads = 1
	opts.AttrTimeout = 0 // every Getattr is a round trip
	fs := &hookFS{FS: memfs.New(memfs.Options{})}
	conn, srv := Mount(fs, sim.NewClock(), sim.DefaultCostModel(), opts)
	t.Cleanup(func() {
		conn.Unmount()
		srv.Wait()
	})
	root := vfs.RootOp()
	parked := make(chan struct{})
	resume := make(chan struct{})
	var seen error
	// B parks inside the filesystem, then reports what its Op says.
	park := func(op *vfs.Op) error {
		parked <- struct{}{}
		<-resume
		seen = op.Err()
		return nil
	}
	runB := func(disturb func()) {
		t.Helper()
		fs.hook.Store(&park)
		done := make(chan error, 1)
		go func() {
			_, err := conn.Getattr(root, vfs.RootIno)
			done <- err
		}()
		<-parked
		disturb()
		resume <- struct{}{}
		if err := <-done; err != nil || seen != nil {
			t.Fatalf("B on the recycled struct: reply %v, Op.Err inside the filesystem %v; want neither canceled", err, seen)
		}
	}

	// A late INTERRUPT: A is answered, then interrupted by name while B
	// occupies the struct A ran on.
	fs.hook.Store(nil)
	if _, err := conn.Getattr(root, vfs.RootIno); err != nil {
		t.Fatal(err)
	}
	a := conn.unique.Load()
	runB(func() { srv.table.interrupt(a) })

	// The teardown sweep: A blocks on its context until the sweep cancels
	// it, and answers EINTR; B then runs on the struct that was canceled.
	untilCanceled := func(op *vfs.Op) error {
		parked <- struct{}{}
		<-op.Context().Done()
		return op.Err()
	}
	fs.hook.Store(&untilCanceled)
	done := make(chan error, 1)
	go func() {
		_, err := conn.Getattr(root, vfs.RootIno)
		done <- err
	}()
	<-parked
	srv.table.cancelAll()
	if err := <-done; vfs.ToErrno(err) != vfs.EINTR {
		t.Fatalf("swept request: %v, want EINTR", err)
	}
	runB(func() {})
}

// waitUntil polls cond, failing the test when it has not come true within
// five seconds.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// statfsGateFS announces every Read on entered and holds every Statfs at
// a gate, one through per token sent: a way to park one server thread in
// a blocking read and another behind a backlog.
type statfsGateFS struct {
	vfs.FS
	entered chan struct{}
	gate    chan struct{}
	atGate  atomic.Int64
}

func (g *statfsGateFS) Read(op *vfs.Op, h vfs.Handle, off int64, dest []byte) (int, error) {
	g.entered <- struct{}{}
	return g.FS.Read(op, h, off, dest)
}

func (g *statfsGateFS) Statfs(op *vfs.Op, ino vfs.Ino) (vfs.StatfsOut, error) {
	g.atGate.Add(1)
	<-g.gate
	return g.FS.Statfs(op, ino)
}

// TestInterruptOvertakesBacklog: an INTERRUPT is the first frame the next
// read of the queue returns, whatever its caller had queued before it.
// Two server threads: one blocks in a read of an empty FIFO, the other is
// parked at a gate in Statfs with four more Statfs queued behind it. The
// reader is
// canceled and the gate lets one Statfs through: the thread it frees must
// bring in the interrupt, not the next Statfs.
func TestInterruptOvertakesBacklog(t *testing.T) {
	const backlog = 4
	opts := DefaultMountOptions()
	opts.ServerThreads = 2
	fs := &statfsGateFS{
		FS:      memfs.New(memfs.Options{}),
		entered: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
	conn, srv := Mount(fs, sim.NewClock(), sim.DefaultCostModel(), opts)
	statfsDone := make(chan error, backlog+1)
	t.Cleanup(func() {
		close(fs.gate)
		for i := 0; i < backlog+1; i++ {
			<-statfsDone
		}
		conn.Unmount()
		srv.Wait()
	})
	statfs := func() {
		go func() {
			_, err := conn.Statfs(vfs.RootOp(), vfs.RootIno)
			statfsDone <- err
		}()
	}

	root := vfs.RootOp()
	if _, err := conn.Mknod(root, vfs.RootIno, "pipe", vfs.TypeFIFO, 0o644, 0); err != nil {
		t.Fatal(err)
	}
	attr, err := conn.Lookup(root, vfs.RootIno, "pipe")
	if err != nil {
		t.Fatal(err)
	}
	h, _ := openFIFOPair(t, conn, attr.Ino)

	ctx, cancel := context.WithCancel(context.Background())
	readDone := make(chan error, 1)
	go func() {
		_, err := conn.Read(vfs.NewOp(ctx, vfs.Root()), h, 0, make([]byte, 16))
		readDone <- err
	}()
	<-fs.entered
	statfs()
	waitUntil(t, "a Statfs at the gate", func() bool { return fs.atGate.Load() == 1 })
	for i := 0; i < backlog; i++ {
		statfs()
	}
	waitUntil(t, "the backlog to queue", func() bool { return srv.table.depth() == backlog })
	cancel()
	waitUntil(t, "the INTERRUPT to queue", func() bool { return srv.table.depth() == backlog+1 })

	fs.gate <- struct{}{}
	select {
	case err := <-readDone:
		if vfs.ToErrno(err) != vfs.EINTR {
			t.Fatalf("interrupted read: %v, want EINTR", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("the read is still blocked: its INTERRUPT waits behind %d queued requests", srv.table.depth()-1)
	}
}

// TestReqTableReadsInterruptsFirst is the same rule on a bare table: an
// interrupt's push does not wait for space in a full table, and pop
// returns it ahead of everything queued before it — then the backlog, in
// order. Served, the backlog leaves the table's unique map.
func TestReqTableReadsInterruptsFirst(t *testing.T) {
	tab := newReqTable(3)
	backlog := []*request{{unique: 1}, {unique: 2}, {unique: 3}}
	for _, m := range backlog {
		tab.push(m)
	}
	intr := &request{}
	pushed := make(chan bool, 1)
	go func() { pushed <- tab.pushInterrupt(intr) }()
	select {
	case ok := <-pushed:
		if !ok {
			t.Fatal("pushInterrupt failed on an open table")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("an interrupt's push waits for space in a full table")
	}
	if got := tab.depth(); got != 4 {
		t.Fatalf("depth = %d, want 4", got)
	}
	for i, want := range append([]*request{intr}, backlog...) {
		m, ok := tab.pop()
		if !ok || m != want {
			t.Fatalf("pop %d returned the wrong frame (ok=%v)", i, ok)
		}
		tab.done(m.unique)
	}
	if got := tab.depth(); got != 0 {
		t.Fatalf("depth = %d after serving everything, want 0", got)
	}
	tab.mu.Lock()
	live := len(tab.live)
	tab.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d requests left mapped, want 0", live)
	}
	tab.close()
	if tab.pushInterrupt(&request{}) {
		t.Fatal("pushInterrupt succeeded on a closed table")
	}
}

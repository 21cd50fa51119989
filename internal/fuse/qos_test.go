package fuse

import (
	"slices"
	"sync"
	"testing"
	"time"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// gateFS records the offset of every Read as a worker brings it in — so in
// dispatch order, as long as at most one worker at a time is between its
// pop and the gate — and then holds the read until the gate lets it
// through: one per token sent, all once the gate is closed. It is the
// observation point for dispatch-order tests.
type gateFS struct {
	vfs.FS
	gate chan struct{}

	mu    sync.Mutex
	order []int64
}

func (g *gateFS) Read(op *vfs.Op, h vfs.Handle, off int64, dest []byte) (int, error) {
	g.mu.Lock()
	g.order = append(g.order, off)
	g.mu.Unlock()
	<-g.gate
	return g.FS.Read(op, h, off, dest)
}

func (g *gateFS) served() []int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int64(nil), g.order...)
}

// TestMountServesArrivalOrder: a mount with four server threads reads
// the queue in arrival order, whichever thread asks. Each read is
// tagged by its offset. All four workers are parked at the gate on
// holder reads, a backlog of reads with four tags queues behind them one
// request at a time, and the gate then lets one read through at a time:
// the worker it frees completes, pops the next request and brings it to
// the gate. The sequence the workers bring in must be the arrival order.
func TestMountServesArrivalOrder(t *testing.T) {
	const (
		threads = 4
		holder  = 100
		tags    = 4
		perTag  = 4
		backlog = tags * perTag
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
	read := func(off int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := conn.Read(vfs.RootOp(), h, off, make([]byte, 4)); err != nil {
				t.Errorf("read at %d: %v", off, err)
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
	var want []int64
	for tag := int64(1); tag <= tags; tag++ {
		for i := 0; i < perTag; i++ {
			read(tag)
			want = append(want, tag)
			waitFor("the read to queue", func() bool { return srv.table.depth() == len(want) })
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

// TestInterruptBookkeepingBounded: an INTERRUPT resolves through the
// request table, which maps a request only until it is answered. Late
// interrupts for answered requests and interrupts for uniques that never
// existed are dropped: nothing is parked, and the table maps no request.
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
	// Late interrupts for every unique issued so far, then interrupts
	// for uniques that never existed.
	last := e.conn.unique.Load()
	for u := uint64(1); u <= last+3000; u++ {
		e.srv.table.interrupt(u)
	}
	e.srv.table.mu.Lock()
	mapped := len(e.srv.table.live)
	e.srv.table.mu.Unlock()
	if mapped != 0 {
		t.Fatalf("the table maps %d requests after every request was answered, want 0", mapped)
	}
	if _, err := e.cli.Stat("/f"); err != nil {
		t.Fatalf("a request after the dropped interrupts: %v", err)
	}
}

package fuse

import (
	"fmt"
	"maps"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"cntr/internal/allocs"
	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// raceBuild reports whether the test binary was built with -race: the
// detector makes sync.Pool drop a share of what is put back, so a pooled
// request no longer costs zero and the budgets below do not apply.
func raceBuild() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestRoundTripAllocBudget pins what one FUSE frame costs the host in
// heap objects, end to end: testing.AllocsPerRun reads the process-wide
// malloc count, so the server's workers are included. Mounted over memfs
// with the default four server threads and no dentry or attribute cache
// (every call is a round trip), each case measured after a warm-up that
// fills the request pool, the table's spare queues and the maps.
//
// The budgets are testdata/allocs.golden's fuse lines. When this test was
// written a frame cost LOOKUP miss 15 objects (now none: the name is
// interned on the server, nameTable), GETATTR 20, CREATE 21 (memfs's own share subtracted),
// READ 128 KiB 18 and RELEASE 13: a buf, a frame, a Pending, a message, a
// reply channel and two readers on the kernel side; an Op, a Cred, a
// cancel context, a reply copy and a buffer grown append by append on the
// server's; and an origin queue with its message slice in the table. READ
// and WRITE (memfs's share subtracted) stay under 4 KiB a frame. The
// budgets leave room for the pool refilling after a collection. The
// payload rows have no pool to refill: until their reply storage and
// frame went back to the Conn (Conn.frames) each cost one payload-sized
// object, 139 455 bytes a READ and 139 289 a WRITE; 4 KiB is below any
// payload a transient could hold.
func TestRoundTripAllocBudget(t *testing.T) {
	opts := DefaultMountOptions()
	opts.ServerThreads = 4
	opts.EntryTimeout, opts.AttrTimeout = 0, 0
	spy := &releaseSpy{FS: memfs.New(memfs.Options{})}
	conn, srv := Mount(spy, sim.NewClock(), sim.DefaultCostModel(), opts)
	t.Cleanup(func() {
		conn.Unmount()
		srv.Wait()
	})
	e := &env{conn: conn, srv: srv}
	op := vfs.RootOp()

	const payload = 128 << 10
	attr, h, err := e.conn.Create(op, vfs.RootIno, "data", 0o644, vfs.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.conn.Write(op, h, 0, make([]byte, payload)); err != nil {
		t.Fatal(err)
	}
	dest := make([]byte, payload)

	const warmup, runs = 64, 200
	names := make([]string, warmup+runs+1)
	for i := range names {
		names[i] = fmt.Sprintf("f%04d", i)
	}
	// CREATE has to make a file and WRITE to store the payload, which
	// memfs charges for itself: the same calls straight into a second
	// memfs are the baseline.
	direct := memfs.New(memfs.Options{})
	next := 0
	createDirect := func() {
		if _, _, err := direct.Create(op, vfs.RootIno, names[next], 0o644, vfs.ORdwr); err != nil {
			t.Fatal(err)
		}
		next++
	}
	_, dh, err := direct.Create(op, vfs.RootIno, "data", 0o644, vfs.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	writeDirect := func() {
		if _, err := direct.Write(op, dh, 0, dest); err != nil {
			t.Fatal(err)
		}
	}

	cases := []struct {
		name     string
		maxBytes float64 // per frame; 0 leaves bytes unchecked
		baseline func()  // the backing filesystem's share, if any
		run      func()
	}{
		{"LOOKUP miss", 0, nil, func() {
			if _, err := e.conn.Lookup(op, vfs.RootIno, "absent"); vfs.ToErrno(err) != vfs.ENOENT {
				t.Fatal(err)
			}
		}},
		{"GETATTR", 0, nil, func() {
			if _, err := e.conn.Getattr(op, attr.Ino); err != nil {
				t.Fatal(err)
			}
		}},
		{"CREATE", 0, createDirect, func() {
			if _, _, err := e.conn.Create(op, vfs.RootIno, names[next], 0o644, vfs.ORdwr); err != nil {
				t.Fatal(err)
			}
			next++
		}},
		{"READ 128 KiB", 4 << 10, nil, func() {
			if n, err := e.conn.Read(op, h, 0, dest); err != nil || n != payload {
				t.Fatal(n, err)
			}
		}},
		{"WRITE 128 KiB", 4 << 10, writeDirect, func() {
			if n, err := e.conn.Write(op, h, 0, dest); err != nil || n != payload {
				t.Fatal(n, err)
			}
		}},
		{"RELEASE", 0, nil, func() {
			// One-way: wait for the server to have dispatched the frame, so
			// its share lands inside the measurement. The handle is bogus
			// (EBADF below the server); the frame is what is measured.
			before := spy.releases.Load()
			e.conn.Release(op, 1<<40)
			for spy.releases.Load() == before {
				runtime.Gosched()
			}
		}},
	}
	measure := func(f func()) (objects, bytes float64) {
		for i := 0; i < warmup; i++ {
			f()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		objects = testing.AllocsPerRun(runs, f)
		runtime.ReadMemStats(&after)
		return objects, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	}
	for _, tc := range cases {
		got, bytes := measure(tc.run)
		if tc.baseline != nil {
			next = 0
			base, baseBytes := measure(tc.baseline)
			got, bytes = got-base, bytes-baseBytes
		}
		allocs.Check(t, tc.name, got)
		t.Logf("%-13s %7.0f bytes per frame", tc.name, bytes)
		if raceBuild() {
			continue
		}
		if tc.maxBytes > 0 && bytes > tc.maxBytes {
			t.Errorf("%s: %.0f bytes per round trip, budget %v: a payload-sized buffer was made", tc.name, bytes, tc.maxBytes)
		}
	}
}

// releaseSpy counts the RELEASE calls that reach the filesystem under a
// server: the only sign a one-way frame gives that it was served.
type releaseSpy struct {
	vfs.FS
	releases atomic.Int64
}

func (s *releaseSpy) Release(op *vfs.Op, h vfs.Handle) error {
	err := s.FS.Release(op, h)
	s.releases.Add(1)
	return err
}

// TestForgetBatchAllocBudget pins what a FUSE_BATCH_FORGET batch costs
// the host, both sides, in heap objects: the pending batch starts at
// ForgetBatchSize, so ForgetBatchSize forgets make the one slice the frame
// is encoded from. A batch regrown from nil made seven.
func TestForgetBatchAllocBudget(t *testing.T) {
	spy := &forgetSpy{FS: memfs.New(memfs.Options{})}
	conn, srv := Mount(spy, sim.NewClock(), sim.DefaultCostModel(), DefaultMountOptions())
	t.Cleanup(func() {
		conn.Unmount()
		srv.Wait()
	})
	batch := func() {
		before := spy.forgets.Load()
		for i := 0; i < ForgetBatchSize; i++ {
			conn.Forget(nil, vfs.Ino(1000+i), 1)
		}
		for spy.forgets.Load() < before+ForgetBatchSize {
			runtime.Gosched()
		}
	}
	for i := 0; i < 8; i++ {
		batch()
	}
	allocs.Check(t, "one BATCH_FORGET of ForgetBatchSize forgets", testing.AllocsPerRun(100, batch))
}

// forgetSpy counts the forgets that reach the filesystem under a server.
type forgetSpy struct {
	vfs.FS
	forgets atomic.Int64
}

func (s *forgetSpy) Forget(op *vfs.Op, ino vfs.Ino, nlookup uint64) {
	s.FS.Forget(op, ino, nlookup)
	s.forgets.Add(1)
}

// TestPayloadFramesBounded: a Conn keeps at most ServerThreads of the
// payload-sized buffers its requests give back, however many were in
// flight at once, and a mount that never moved a payload keeps none.
// Eight readers of 128 KiB each are all in flight together: the two
// server threads are parked at a gate on two of them and the other six
// wait in the queue.
func TestPayloadFramesBounded(t *testing.T) {
	const readers, size = 8, 128 << 10
	back := memfs.New(memfs.Options{})
	if err := vfs.NewClient(back, vfs.Root()).WriteFile("/big", make([]byte, readers*size), 0o644); err != nil {
		t.Fatal(err)
	}
	gate := &gateFS{FS: back, gate: make(chan struct{})}
	opts := DefaultMountOptions()
	opts.ServerThreads = 2
	conn, srv := Mount(gate, sim.NewClock(), sim.DefaultCostModel(), opts)
	defer func() {
		conn.Unmount()
		srv.Wait()
	}()
	op := vfs.RootOp()
	held := func() int {
		conn.framesMu.Lock()
		defer conn.framesMu.Unlock()
		return len(conn.frames)
	}
	_, h, err := conn.Create(op, vfs.RootIno, "f", 0o644, vfs.ORdwr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(op, h, 0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if n := held(); n != 0 {
		t.Fatalf("after a create and a 100-byte write the Conn holds %d payload buffers, want 0", n)
	}
	big, err := conn.Lookup(op, vfs.RootIno, "big")
	if err != nil {
		t.Fatal(err)
	}
	bh, err := conn.Open(op, big.Ino, vfs.ORdonly)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(off int64) {
			defer wg.Done()
			if _, err := conn.Read(vfs.RootOp(), bh, off, make([]byte, size)); err != nil {
				t.Errorf("read at %d: %v", off, err)
			}
		}(int64(i) * size)
	}
	waitUntil(t, "every READ in flight", func() bool {
		return len(gate.served()) == opts.ServerThreads && srv.table.depth() == readers-opts.ServerThreads
	})
	close(gate.gate)
	wg.Wait()
	if n := held(); n != opts.ServerThreads {
		t.Fatalf("after %d READs in flight the Conn holds %d payload buffers, want %d", readers, n, opts.ServerThreads)
	}
	before := HeldFrames(conn)
	if _, err := conn.Read(op, bh, 0, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(HeldFrames(conn), before) || held() != opts.ServerThreads {
		t.Fatalf("a READ after them: %d buffers held, not all of them the ones held before; want one of those reused and %d held",
			held(), opts.ServerThreads)
	}
}

// TestNameSeenBeforeAllocBudget pins what a name the connection has seen
// before costs the host: nothing, on either end (nameTable). A LOOKUP of
// an existing name is dispatched by hand on a server over memfs, its reply
// storage reused, so the count is the server's alone; before the table it
// was the name's copy, 1. A READDIRPLUS of a 12-file directory listed
// before is a round trip, with no dentry or attribute cache so that every
// entry is installed again; what is left is the Conn's entry slice and
// memfs's. Before the table it was 15: the Conn copied every name but "."
// (Go keeps one-byte strings static).
func TestNameSeenBeforeAllocBudget(t *testing.T) {
	op := vfs.RootOp()
	t.Run("lookup", func(t *testing.T) {
		opts := DefaultMountOptions()
		opts.ServerThreads = 0 // dispatch by hand
		back := memfs.New(memfs.Options{})
		if err := vfs.NewClient(back, vfs.Root()).WriteFile("/seen.before", nil, 0o644); err != nil {
			t.Fatal(err)
		}
		srv := newServer(back, sim.NewClock(), sim.DefaultCostModel(), opts, newReqTable(16))
		wk := &worker{s: srv}
		var w buf
		encodeReqHeader(&w, OpLookup, 1, uint64(vfs.RootIno), op)
		w.str("seen.before")
		msg := &request{frame: buf{b: finishFrame(&w)}}
		lookup := func() {
			msg.out = wk.dispatch(msg)
			if _, errno, _, err := decodeReply(msg.out); err != nil || errno != vfs.OK {
				t.Fatal(errno, err)
			}
		}
		lookup()
		allocs.Check(t, "server LOOKUP of a name seen before", testing.AllocsPerRun(200, lookup))
	})
	t.Run("readdirplus", func(t *testing.T) {
		opts := DefaultMountOptions()
		opts.EntryTimeout, opts.AttrTimeout = 0, 0
		e := mount(t, opts)
		cli := vfs.NewClient(e.back, vfs.Root())
		for i := range 12 {
			if err := cli.WriteFile(fmt.Sprintf("/f%02d", i), nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fh, err := e.conn.Opendir(op, vfs.RootIno)
		if err != nil {
			t.Fatal(err)
		}
		list := func() {
			if ents, err := e.conn.readdirCall(op, OpReaddirplus, vfs.RootIno, fh, 0); err != nil || len(ents) != 14 {
				t.Fatal(len(ents), err)
			}
		}
		for range 64 {
			list()
		}
		allocs.Check(t, "READDIRPLUS of a 12-file listing seen before", testing.AllocsPerRun(200, list))
	})
}

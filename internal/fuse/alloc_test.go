package fuse

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

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
// Objects per frame:   before   now   budget
//
//	LOOKUP miss          15       1      4   (the server's name string)
//	GETATTR              20       0      4
//	CREATE               21       1      4   (memfs's own share subtracted)
//	READ 128 KiB         18       0      0   and under 4 KiB a frame
//	WRITE 128 KiB         -       0      0   and under 4 KiB (memfs's share subtracted)
//	RELEASE (one-way)    13       0      3
//
// "before" is this test when it was written, where a frame cost a buf,
// a frame, a Pending, a message, a reply channel and two readers on the
// kernel side; an Op, a Cred, a cancel context, a reply copy and a
// buffer grown append by append on the server's; and an origin queue
// with its message slice in the table. The budgets leave room for the
// pool refilling after a collection. The payload rows have no pool to
// refill: until their reply storage and frame went back to the Conn
// (Conn.frames) each cost one payload-sized object, 139 455 bytes a READ
// and 139 289 a WRITE; 4 KiB is below any payload a transient could
// hold.
func TestRoundTripAllocBudget(t *testing.T) {
	opts := DefaultMountOptions()
	opts.ServerThreads = 4
	opts.EntryTimeout, opts.AttrTimeout = 0, 0
	e := mount(t, opts)
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
		budget   float64
		maxBytes float64 // per frame; 0 leaves bytes unchecked
		baseline func()  // the backing filesystem's share, if any
		run      func()
	}{
		{"LOOKUP miss", 4, 0, nil, func() {
			if _, err := e.conn.Lookup(op, vfs.RootIno, "absent"); vfs.ToErrno(err) != vfs.ENOENT {
				t.Fatal(err)
			}
		}},
		{"GETATTR", 4, 0, nil, func() {
			if _, err := e.conn.Getattr(op, attr.Ino); err != nil {
				t.Fatal(err)
			}
		}},
		{"CREATE", 4, 0, createDirect, func() {
			if _, _, err := e.conn.Create(op, vfs.RootIno, names[next], 0o644, vfs.ORdwr); err != nil {
				t.Fatal(err)
			}
			next++
		}},
		{"READ 128 KiB", 0, 4 << 10, nil, func() {
			if n, err := e.conn.Read(op, h, 0, dest); err != nil || n != payload {
				t.Fatal(n, err)
			}
		}},
		{"WRITE 128 KiB", 0, 4 << 10, writeDirect, func() {
			if n, err := e.conn.Write(op, h, 0, dest); err != nil || n != payload {
				t.Fatal(n, err)
			}
		}},
		{"RELEASE", 3, 0, nil, func() {
			// One-way: wait for the server to have dispatched the frame, so
			// its share lands inside the measurement. The handle is bogus
			// (EBADF below the server); the frame is what is measured.
			served := e.srv.Served()
			e.conn.Release(op, 1<<40)
			for e.srv.Served() == served {
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
		t.Logf("%-13s %5.2f objects, %7.0f bytes per frame (budget %v objects)", tc.name, got, bytes, tc.budget)
		if raceBuild() {
			continue
		}
		if got > tc.budget {
			t.Errorf("%s: %.2f heap objects per round trip, budget %v", tc.name, got, tc.budget)
		}
		if tc.maxBytes > 0 && bytes > tc.maxBytes {
			t.Errorf("%s: %.0f bytes per round trip, budget %v: a payload-sized buffer was made", tc.name, bytes, tc.maxBytes)
		}
	}
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
		return len(gate.served()) == opts.ServerThreads && srv.Queued() == readers-opts.ServerThreads
	})
	close(gate.gate)
	wg.Wait()
	if n := held(); n != opts.ServerThreads {
		t.Fatalf("after %d READs in flight the Conn holds %d payload buffers, want %d", readers, n, opts.ServerThreads)
	}
	reused := FramesReused(conn)
	if _, err := conn.Read(op, bh, 0, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	if n := FramesReused(conn) - reused; n != 1 || held() != opts.ServerThreads {
		t.Fatalf("a READ after them: %d reuses, %d held; want one reuse, %d held", n, held(), opts.ServerThreads)
	}
}

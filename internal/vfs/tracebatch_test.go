package vfs_test

import (
	"sync"
	"testing"
	"time"

	"cntr/internal/vfs"
)

// traceOp pushes one synthetic operation through a tracer.
func traceOp(tr *vfs.Tracer, id uint64) {
	op := vfs.RootOp()
	op.ID = id
	tr.Intercept(&vfs.OpInfo{Kind: vfs.KindRead, Op: op, Ino: vfs.RootIno, Bytes: 1},
		func() error { return nil })
}

// TestTracerBatchSinkDelivers: batched mode hands the sink every entry,
// in order, in batches — and supersedes the synchronous Sink callback
// while active.
func TestTracerBatchSinkDelivers(t *testing.T) {
	tr := vfs.NewTracer(0)
	syncCalls := 0
	tr.Sink = func(vfs.TraceEntry) { syncCalls++ }

	var mu sync.Mutex
	var got []uint64
	batches := 0
	stop := tr.StartBatchSinkSized(func(batch []vfs.TraceEntry) {
		mu.Lock()
		batches++
		for _, e := range batch {
			got = append(got, e.ID)
		}
		mu.Unlock()
	}, 8, 128, time.Hour)

	// Two waves with a wait between them, so the flush-size kick provably
	// produces more than one batch (a single wave can coalesce into one
	// swap if the flusher wakes late).
	const ops = 100
	for i := 0; i < ops/2; i++ {
		traceOp(tr, uint64(i+1))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("size kick never flushed the first wave")
		}
		time.Sleep(time.Millisecond)
	}
	for i := ops / 2; i < ops; i++ {
		traceOp(tr, uint64(i+1))
	}
	stop() // flushes the tail

	mu.Lock()
	defer mu.Unlock()
	if len(got) != ops {
		t.Fatalf("sink received %d entries, want %d (dropped=%d)",
			len(got), ops, tr.DroppedEntries())
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("entry %d: id=%d, want %d (order not preserved)", i, id, i+1)
		}
	}
	if batches < 2 {
		t.Fatalf("everything arrived in %d batch(es); flush size 8 over %d ops should batch", batches, ops)
	}
	if syncCalls != 0 {
		t.Fatalf("synchronous Sink ran %d times while batch mode was active", syncCalls)
	}
	// After stop, synchronous delivery resumes.
	traceOp(tr, 999)
	if syncCalls != 1 {
		t.Fatalf("synchronous Sink after stop: %d calls, want 1", syncCalls)
	}
}

// TestTracerBatchSinkInterval: entries below the flush size still reach
// the sink once the interval elapses — no stop required.
func TestTracerBatchSinkInterval(t *testing.T) {
	tr := vfs.NewTracer(0)
	delivered := make(chan int, 16)
	stop := tr.StartBatchSinkSized(func(batch []vfs.TraceEntry) {
		delivered <- len(batch)
	}, 1<<20, 1<<20, 2*time.Millisecond)
	defer stop()

	for i := 0; i < 3; i++ {
		traceOp(tr, uint64(i+1))
	}
	total := 0
	deadline := time.After(5 * time.Second)
	for total < 3 {
		select {
		case n := <-delivered:
			total += n
		case <-deadline:
			t.Fatalf("interval flush delivered %d of 3 entries", total)
		}
	}
}

// TestTracerBatchSinkLossless: a full buffer makes the data path wait
// for the flusher instead of shedding — every entry reaches the sink,
// in order, even when the producer outruns a slow consumer by far.
func TestTracerBatchSinkLossless(t *testing.T) {
	tr := vfs.NewTracer(0)
	var mu sync.Mutex
	var got []uint64
	stop := tr.StartBatchSinkSized(func(batch []vfs.TraceEntry) {
		time.Sleep(100 * time.Microsecond) // slow consumer
		mu.Lock()
		for _, e := range batch {
			got = append(got, e.ID)
		}
		mu.Unlock()
	}, 4, 8, time.Hour)

	const ops = 500
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < ops; i++ {
			traceOp(tr, uint64(i+1))
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("lossless producer wedged")
	}
	stop()

	if n := tr.DroppedEntries(); n != 0 {
		t.Fatalf("batched delivery dropped %d entries", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != ops {
		t.Fatalf("sink received %d entries, want %d", len(got), ops)
	}
	for i, id := range got {
		if id != uint64(i+1) {
			t.Fatalf("entry %d: id=%d, want %d", i, id, i+1)
		}
	}
}

// TestTracerBatchStopReleasesProducers: stopping the sink while a
// producer waits on a full buffer wakes it, and every entry is either
// delivered (in a batch, or synchronously once the sink has stopped) or
// counted in DroppedEntries — none is unaccounted for.
func TestTracerBatchStopReleasesProducers(t *testing.T) {
	tr := vfs.NewTracer(0)
	release := make(chan struct{})
	wedged := make(chan struct{}, 1)
	var mu sync.Mutex
	delivered := 0
	tr.Sink = func(vfs.TraceEntry) {
		mu.Lock()
		delivered++
		mu.Unlock()
	}
	stop := tr.StartBatchSinkSized(func(batch []vfs.TraceEntry) {
		select {
		case wedged <- struct{}{}:
			<-release // wedge the consumer on its first batch
		default:
		}
		mu.Lock()
		delivered += len(batch)
		mu.Unlock()
	}, 4, 8, time.Hour)

	const ops = 200
	produced := make(chan struct{})
	go func() {
		defer close(produced)
		for i := 0; i < ops; i++ {
			traceOp(tr, uint64(i+1))
		}
	}()
	<-wedged // the producer now fills the buffer and blocks
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		stop()
	}()
	close(release)
	for _, ch := range []chan struct{}{stopped, produced} {
		select {
		case <-ch:
		case <-time.After(30 * time.Second):
			t.Fatal("stop stranded a producer on the full buffer")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if got := int64(delivered) + tr.DroppedEntries(); got != ops {
		t.Fatalf("delivered %d + dropped %d = %d, want %d", delivered, tr.DroppedEntries(), got, ops)
	}
}

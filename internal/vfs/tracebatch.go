package vfs

import (
	"sync"
	"time"
)

// Batched trace delivery has fixed sizes; tests reach others through
// startBatchSink.
const (
	// traceFlushSize is the entry count that triggers an immediate flush.
	// Batches delivered to the sink are at most this large plus whatever
	// accumulated while the flusher was busy.
	traceFlushSize = 256
	// traceFlushInterval bounds how long an entry may sit buffered before
	// the timer flushes it.
	traceFlushInterval = 5 * time.Millisecond
	// traceBatchCapacity bounds the buffered entries between flushes; a
	// producer that finds the buffer full waits for the flusher.
	traceBatchCapacity = 16 * traceFlushSize
)

// batchState is the tracer's batched-delivery machinery: a buffer the
// data path appends to under the tracer's lock, and a flusher goroutine
// that swaps the buffer out and hands batches to the sink. The data
// path never invokes the sink; it waits for the flusher only when the
// buffer is full.
type batchState struct {
	sink      func([]TraceEntry)
	flushSize int
	capacity  int
	kick      chan struct{}
	stop      chan struct{}
	done      chan struct{}
	spare     []TraceEntry // recycled buffer, owned by the flusher between swaps
	// room (on the tracer's mutex) wakes producers blocked on a full
	// buffer when the flusher swaps it out or the sink stops.
	room *sync.Cond
}

// StartBatchSink switches the tracer into batched delivery: every
// traced operation appends its entry to a bounded buffer, and a flusher
// goroutine delivers batches to sink whenever traceFlushSize entries
// accumulate or traceFlushInterval elapses. While batch mode is active
// the synchronous Sink callback is not invoked — the data path pays an
// append instead of a callback per operation. The returned stop
// function flushes whatever is buffered, stops the flusher, and
// restores synchronous delivery; it is safe to call once.
//
// Delivery is lossless: when the buffer is full the traced operation
// waits for the flusher instead of shedding the entry, because the
// batches feed policy generation, where a shed entry silently weakens
// the profile (a lost Lookup unlearns a path; lost Reads undercount the
// byte ceilings). Stopping the sink wakes blocked producers; entries
// they could not queue are counted in DroppedEntries. The ring buffer
// behind Entries still records every operation regardless.
func (t *Tracer) StartBatchSink(sink func([]TraceEntry)) (stop func()) {
	return t.startBatchSink(sink, traceFlushSize, traceBatchCapacity, traceFlushInterval)
}

func (t *Tracer) startBatchSink(sink func([]TraceEntry), flushSize, capacity int, interval time.Duration) (stop func()) {
	b := &batchState{
		sink:      sink,
		flushSize: flushSize,
		capacity:  capacity,
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	b.room = sync.NewCond(&t.mu)
	t.mu.Lock()
	if t.batch != nil {
		t.mu.Unlock()
		panic("vfs: Tracer.StartBatchSink called while a batch sink is active")
	}
	t.batch = b
	t.buf = make([]TraceEntry, 0, flushSize)
	b.spare = make([]TraceEntry, 0, flushSize)
	t.mu.Unlock()

	go t.flushLoop(b, interval)

	var once sync.Once
	return func() {
		once.Do(func() {
			close(b.stop)
			<-b.done
			// A producer may have appended between the flusher's final
			// flush and this point; hand the tail to the sink rather than
			// discarding it — stop() promises everything buffered is
			// delivered.
			t.mu.Lock()
			t.batch = nil
			tail := t.buf
			t.buf = nil
			b.room.Broadcast() // release blocked producers; they count as dropped
			t.mu.Unlock()
			if len(tail) > 0 {
				b.sink(tail)
			}
		})
	}
}

// flushLoop is the flusher goroutine: it drains the buffer on size
// kicks, on the interval timer, and once more on stop.
func (t *Tracer) flushLoop(b *batchState, interval time.Duration) {
	defer close(b.done)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-b.stop:
			t.flushBatch(b)
			return
		case <-b.kick:
		case <-ticker.C:
		}
		t.flushBatch(b)
	}
}

// flushBatch swaps the live buffer for the spare and delivers the
// entries outside the tracer's lock, so the data path keeps appending
// while the sink runs.
func (t *Tracer) flushBatch(b *batchState) {
	t.mu.Lock()
	batch := t.buf
	t.buf = b.spare[:0]
	b.room.Broadcast() // the buffer has room again
	t.mu.Unlock()
	if len(batch) > 0 {
		b.sink(batch)
	}
	b.spare = batch[:0]
}

// appendBatchLocked queues one entry for batched delivery; caller holds
// t.mu and has checked t.batch != nil. A full buffer waits for the
// flusher to make room.
func (t *Tracer) appendBatchLocked(e TraceEntry) {
	b := t.batch
	for len(t.buf) >= b.capacity && t.batch == b {
		b.room.Wait()
	}
	if t.batch != b {
		// The sink stopped while we waited; the entry has nowhere to go.
		t.dropped++
		return
	}
	t.buf = append(t.buf, e)
	if len(t.buf) >= b.flushSize {
		select {
		case b.kick <- struct{}{}:
		default: // a kick is already pending
		}
	}
}

// DroppedEntries reports how many entries never reached a batch sink:
// their producers were waiting on a full buffer when the sink stopped.
// A recording is trustworthy for policy generation only when it is zero.
func (t *Tracer) DroppedEntries() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

package sim

import (
	"sync"
	"sync/atomic"
	"time"
)

// Disk models a single block device with fixed per-request latency and
// finite bandwidth, fronted by a FIFO queue. It reproduces the two
// first-order properties benchmarks care about: small random I/O is
// latency-bound (seek dominated) and large sequential I/O is
// bandwidth-bound. Requests issued concurrently serialize on the device,
// so a flood of small writes takes far longer than one batched large
// write of the same total size — the effect behind the paper's writeback
// results (FIO 0.2x, pgbench 0.4x).
type Disk struct {
	clock *Clock
	model *CostModel

	mu   sync.Mutex
	free time.Duration // virtual instant at which the device becomes idle
	// depth is the effective queue depth: with depth n, per-request
	// latency is amortized n-fold, modelling NCQ/iodepth overlap for
	// asynchronous direct I/O (aio-stress, fio). Default 1.
	depth int64

	reads      atomic.Int64
	writes     atomic.Int64
	bytesRead  atomic.Int64
	bytesWrite atomic.Int64
}

// NewDisk returns a disk bound to the given clock and cost model.
func NewDisk(clock *Clock, model *CostModel) *Disk {
	return &Disk{clock: clock, model: model}
}

// DiskStats reports cumulative request and byte counts.
type DiskStats struct {
	Reads, Writes         int64
	BytesRead, BytesWrite int64
}

// Stats returns a snapshot of the disk's counters.
func (d *Disk) Stats() DiskStats {
	return DiskStats{
		Reads:      d.reads.Load(),
		Writes:     d.writes.Load(),
		BytesRead:  d.bytesRead.Load(),
		BytesWrite: d.bytesWrite.Load(),
	}
}

// Read accounts one read request of n bytes and advances the clock to the
// request's completion time. A nil disk is unmetered: layers that charge
// an optional disk call through without guarding.
func (d *Disk) Read(n int) {
	if d == nil {
		return
	}
	d.reads.Add(1)
	d.bytesRead.Add(int64(n))
	d.submit(n)
}

// Write accounts one write request of n bytes and advances the clock to
// the request's completion time; a nil disk is unmetered.
func (d *Disk) Write(n int) {
	if d == nil {
		return
	}
	d.writes.Add(1)
	d.bytesWrite.Add(int64(n))
	d.submit(n)
}

// SetQueueDepth configures async-overlap amortization of per-request
// latency (1 = fully synchronous).
func (d *Disk) SetQueueDepth(depth int) {
	d.mu.Lock()
	if depth < 1 {
		depth = 1
	}
	d.depth = int64(depth)
	d.mu.Unlock()
}

// QueueDepth returns the depth per-request latency is amortized over:
// the SetQueueDepth value, 1 when unset. A nil disk is synchronous, so
// layers that share a window with an optional disk divide by it unguarded.
func (d *Disk) QueueDepth() int {
	if d == nil {
		return 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return int(max(d.depth, 1))
}

// submit serializes the request on the device queue and blocks (in
// virtual time) until it completes.
func (d *Disk) submit(n int) {
	d.mu.Lock()
	depth := d.depth
	if depth < 1 {
		depth = 1
	}
	cost := d.model.DiskSeek/time.Duration(depth) +
		time.Duration(int64(d.model.DiskPerKB)*int64(n)/1024)
	start := d.clock.Now()
	if d.free > start {
		start = d.free
	}
	done := start + cost
	d.free = done
	d.mu.Unlock()
	d.clock.AdvanceTo(done)
}

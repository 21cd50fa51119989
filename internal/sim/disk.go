package sim

import (
	"sync/atomic"
	"time"
)

// Disk models a single block device with fixed per-request latency and
// finite bandwidth. It reproduces the two first-order properties
// benchmarks care about: small random I/O is latency-bound (seek
// dominated) and large sequential I/O is bandwidth-bound. Each request
// charges the clock its own seek and transfer, so a flood of small writes
// costs a seek each and takes far longer than one batched large write of
// the same total size — the effect behind the paper's writeback results
// (FIO 0.2x, pgbench 0.4x).
type Disk struct {
	clock *Clock
	model *CostModel

	// depth is the effective queue depth: with depth n, per-request
	// latency is amortized n-fold, modelling NCQ/iodepth overlap for
	// asynchronous direct I/O (aio-stress, fio). 0 reads as 1.
	depth atomic.Int64

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

// Read accounts one read request of n bytes and charges the clock its
// cost. A nil disk is unmetered: layers that charge an optional disk
// call through without guarding.
func (d *Disk) Read(n int) {
	if d == nil {
		return
	}
	d.reads.Add(1)
	d.bytesRead.Add(int64(n))
	d.submit(n)
}

// Write accounts one write request of n bytes and charges the clock its
// cost; a nil disk is unmetered.
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
	d.depth.Store(int64(max(depth, 1)))
}

// QueueDepth returns the depth per-request latency is amortized over:
// the SetQueueDepth value, 1 when unset. A nil disk is synchronous, so
// layers that share a window with an optional disk divide by it unguarded.
func (d *Disk) QueueDepth() int {
	if d == nil {
		return 1
	}
	return int(max(d.depth.Load(), 1))
}

// submit charges the clock one request's seek, amortized over the queue
// depth, plus its transfer.
func (d *Disk) submit(n int) {
	d.clock.Charge(LayerDisk, d.model.DiskSeek/time.Duration(d.QueueDepth())+
		time.Duration(int64(d.model.DiskPerKB)*int64(n)/1024))
}

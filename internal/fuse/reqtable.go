package fuse

import (
	"container/heap"
	"sync"
)

// reqTable is the connection's input queue, shared by the kernel-side
// Conn and the userspace Server — what Linux calls the fuse_iqueue behind
// /dev/fuse, which every CntrFS thread of the paper reads. Incoming frames
// land in per-origin queues (keyed by the requesting process id carried in
// Op.PID), and workers pull them with weighted fair queueing, so one chatty
// container cannot starve its neighbours of server threads. The table is
// also the accounting vantage point: it knows, per origin, how many
// operations are queued, dispatched and completed, and how many payload
// bytes moved — the per-container view BEACON-style policy generation
// needs.
//
// One mutex guards everything below it, as one spinlock guards the
// kernel's queue. The contention Figure 4 measures on that queue is
// charged in virtual time by the cost model (LockContention per sibling
// thread, in worker.run); the host lock is not asked to avoid or re-enact
// it. A mount serves a handful of origins, and under one lock dispatch
// order is strict WFQ across all of them — behind the INTERRUPT frames,
// which every read of the queue takes first, as Linux reads
// fiq->interrupts before fiq->pending.
type reqTable struct {
	mu sync.Mutex
	// space parks pushers while the table holds maxQueued requests; work
	// parks workers while no origin is eligible. Each new slot or request
	// signals one waiter; close, and the drain of a closed table, wake
	// them all.
	space *sync.Cond
	work  *sync.Cond

	queues map[uint32]*originQueue
	stats  map[uint32]OriginStats
	// retired aggregates the counters of origins whose processes have
	// exited (see retire); without it, stats grows by one entry per PID
	// the mount has ever served.
	retired OriginStats
	// spare is the queue object most recently pruned, kept for the next
	// origin that needs one: a closed-loop client goes idle after every
	// request, and must not pay for a new queue (and a new msgs array) on
	// each.
	spare *originQueue

	// eligible holds exactly the origins the table may dispatch from:
	// queues with pending messages and (when a cap is set) spare in-flight
	// budget. Idle origins are pruned in done() so the heap and queues
	// stay proportional to current load; their accounting survives in
	// stats.
	eligible originHeap
	// interrupts are the INTERRUPT frames not yet read, oldest first. They
	// belong to no origin's queue: an interrupt that waited its turn behind
	// its caller's backlog — or for a slot in a full table — would arrive
	// after the request it is meant to abort had been served the slow way.
	interrupts []*request

	// vclock is the WFQ virtual clock: the virtual start time of the most
	// recently dispatched request. Origins whose queues were empty rejoin
	// at the current virtual time, so they compete fairly from now on
	// without collecting credit for their idle past.
	vclock float64

	queued int // requests pending across all origins
	closed bool

	maxQueued         int
	maxOriginInflight int
	weights           map[uint32]int
	defaultWeight     int
}

// originQueue is one origin's pending requests plus its scheduling and
// accounting state, all guarded by the table's lock. A queue is reachable
// through the table's map and, while eligible, its heap; pruning removes
// it from both, after which the object is the table's spare and may serve
// a different origin.
type originQueue struct {
	origin uint32
	weight int

	// msgs[head:] are the pending requests, oldest first. Popping
	// advances head instead of re-slicing, so the array is reused from
	// its start once the queue drains.
	msgs     []*request
	head     int
	inflight int
	// heapIdx is the queue's position in the eligible heap, -1 when the
	// origin is not currently dispatchable.
	heapIdx int
	// retireOnIdle marks an origin whose process exited while requests
	// were still queued or in flight: folding its stats is deferred to
	// the moment it goes idle, so a straggling completion cannot
	// resurrect a stats entry that was already folded away.
	retireOnIdle bool
	// vstart is the virtual start time of the queue's head request; it
	// advances by 1/weight per dispatched request, which is what makes
	// dispatch ratios track configured weights under saturation.
	vstart float64
}

// originHeap is the indexed min-heap of eligible origins, ordered by
// (vstart, origin): the origin id makes the order total, so ties break
// the same way on every run.
type originHeap []*originQueue

func (h originHeap) Len() int { return len(h) }

func (h originHeap) Less(i, j int) bool {
	if h[i].vstart != h[j].vstart {
		return h[i].vstart < h[j].vstart
	}
	return h[i].origin < h[j].origin
}

func (h originHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (h *originHeap) Push(x any) {
	q := x.(*originQueue)
	q.heapIdx = len(*h)
	*h = append(*h, q)
}

func (h *originHeap) Pop() any {
	old := *h
	n := len(old)
	q := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	q.heapIdx = -1
	return q
}

// OriginStats is the per-origin accounting the request table maintains:
// completed operations and payload bytes, keyed by the originating
// process id (Op.PID; zero for kernel-internal traffic such as forgets,
// releases and writeback).
type OriginStats struct {
	Ops        int64
	ReadOps    int64
	WriteOps   int64
	ReadBytes  int64
	WriteBytes int64
}

// Add accumulates o into s.
func (s *OriginStats) Add(o OriginStats) {
	s.Ops += o.Ops
	s.ReadOps += o.ReadOps
	s.WriteOps += o.WriteOps
	s.ReadBytes += o.ReadBytes
	s.WriteBytes += o.WriteBytes
}

// newReqTable builds an empty table holding at most maxQueued requests.
func newReqTable(maxQueued, maxOriginInflight, defaultWeight int, weights map[uint32]int) *reqTable {
	t := &reqTable{
		queues:            make(map[uint32]*originQueue),
		stats:             make(map[uint32]OriginStats),
		maxQueued:         maxQueued,
		maxOriginInflight: maxOriginInflight,
		weights:           weights,
		defaultWeight:     defaultWeight,
	}
	t.space = sync.NewCond(&t.mu)
	t.work = sync.NewCond(&t.mu)
	return t
}

// weightFor resolves an origin's configured WFQ weight.
func (t *reqTable) weightFor(origin uint32) int {
	w := t.defaultWeight
	if cw, ok := t.weights[origin]; ok && cw > 0 {
		w = cw
	}
	if w <= 0 {
		w = 1
	}
	return w
}

// pending reports how many requests are queued on q.
func (q *originQueue) pending() int { return len(q.msgs) - q.head }

// enqueue appends msg, first sliding the pending requests back to the
// start of a full array whose head has advanced.
func (q *originQueue) enqueue(msg *request) {
	if q.head > 0 && len(q.msgs) == cap(q.msgs) {
		n := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[n:])
		q.msgs, q.head = q.msgs[:n], 0
	}
	q.msgs = append(q.msgs, msg)
}

// dequeue removes and returns the oldest pending request.
func (q *originQueue) dequeue() *request {
	m := q.msgs[q.head]
	q.msgs[q.head] = nil
	q.head++
	if q.head == len(q.msgs) {
		q.msgs, q.head = q.msgs[:0], 0
	}
	return m
}

// eligibleQueue reports whether q may be dispatched from: it has work
// and spare in-flight budget.
func (t *reqTable) eligibleQueue(q *originQueue) bool {
	if q.pending() == 0 {
		return false
	}
	return t.maxOriginInflight <= 0 || q.inflight < t.maxOriginInflight
}

// push enqueues msg for origin, blocking while the table is at capacity
// (the congestion backpressure a real /dev/fuse queue applies). It
// reports false when the table has been closed — the connection is gone
// and the frame must be dropped (one-way) or failed (two-way). The
// returned depth is the total queued count after the insert, for the
// submitter's congestion accounting.
func (t *reqTable) push(origin uint32, msg *request) (depth int, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.queued >= t.maxQueued && !t.closed {
		t.space.Wait()
	}
	if t.closed {
		return 0, false
	}
	t.queued++
	q := t.queueLocked(origin)
	// A request arriving after retire() marked the draining queue means
	// the PID was recycled: the origin is live again, so its counters
	// must not be folded away when the old stragglers finish.
	q.retireOnIdle = false
	if q.pending() == 0 && q.vstart < t.vclock {
		// Idle rejoin: compete from the current virtual time, with no
		// credit for the idle past.
		q.vstart = t.vclock
	}
	q.enqueue(msg)
	if t.eligibleQueue(q) {
		if q.heapIdx < 0 {
			heap.Push(&t.eligible, q)
		}
		t.work.Signal()
	}
	return t.queued, true
}

// queueLocked returns origin's queue, making one (out of the spare, when
// there is one) for an origin that has none. Caller holds the lock.
func (t *reqTable) queueLocked(origin uint32) *originQueue {
	q := t.queues[origin]
	if q == nil {
		if q = t.spare; q != nil {
			t.spare = nil
			*q = originQueue{origin: origin, msgs: q.msgs}
		} else {
			q = &originQueue{origin: origin}
		}
		q.weight, q.heapIdx = t.weightFor(origin), -1
		t.queues[origin] = q
	}
	return q
}

// pushInterrupt enqueues an INTERRUPT frame where the next read of the
// queue finds it, ahead of every origin's backlog. It never waits for
// space: the frame is what frees a slot. It reports false when the table
// has been closed.
func (t *reqTable) pushInterrupt(msg *request) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.interrupts = append(t.interrupts, msg)
	t.work.Signal()
	return true
}

// dispatchLocked dequeues q's head message and advances the WFQ state:
// the virtual clock catches up to the dispatched request's virtual start
// time, and q's vstart advances by 1/weight. The heap is fixed in
// O(log origins). Caller holds the lock and q must be in the heap.
func (t *reqTable) dispatchLocked(q *originQueue) *request {
	m := q.dequeue()
	q.inflight++
	if q.vstart > t.vclock {
		t.vclock = q.vstart
	}
	q.vstart += 1 / float64(q.weight)
	if t.eligibleQueue(q) {
		heap.Fix(&t.eligible, q.heapIdx)
	} else {
		heap.Remove(&t.eligible, q.heapIdx)
	}
	t.queued--
	t.space.Signal()
	if t.queued == 0 && t.closed {
		// Drained: parked workers must see it and exit.
		t.work.Broadcast()
	}
	return m
}

// pop dequeues the oldest unread interrupt or, when there is none, the
// next request under weighted fair queueing: the heap root is the
// (vstart, origin) minimum across every eligible origin. It blocks until a
// message is available and returns ok == false once the table is closed
// and fully drained.
func (t *reqTable) pop() (msg *request, origin uint32, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.interrupts) == 0 && len(t.eligible) == 0 {
		if t.closed && t.queued == 0 {
			return nil, 0, false
		}
		t.work.Wait()
	}
	if len(t.interrupts) > 0 {
		return t.popInterruptLocked(), 0, true
	}
	q := t.eligible[0]
	return t.dispatchLocked(q), q.origin, true
}

// popInterruptLocked takes the oldest interrupt. It is accounted like any
// other kernel-internal frame — one of origin 0's requests in flight until
// done — so it holds one of that origin's slots, which may use up the
// origin's in-flight budget. Caller holds the lock.
func (t *reqTable) popInterruptLocked() *request {
	m := t.interrupts[0]
	n := copy(t.interrupts, t.interrupts[1:])
	t.interrupts[n] = nil
	t.interrupts = t.interrupts[:n]
	q := t.queueLocked(0)
	q.inflight++
	if q.heapIdx >= 0 && !t.eligibleQueue(q) {
		heap.Remove(&t.eligible, q.heapIdx)
	}
	return m
}

// done records the completion of a request popped for origin, folding the
// transferred byte counts into the origin's accounting and freeing its
// in-flight slot (which may unblock a capped origin's next dispatch).
func (t *reqTable) done(origin uint32, readBytes, writeBytes int64, isRead, isWrite bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stats[origin]
	s.Ops++
	if isRead {
		s.ReadOps++
		s.ReadBytes += readBytes
	}
	if isWrite {
		s.WriteOps++
		s.WriteBytes += writeBytes
	}
	t.stats[origin] = s

	q, ok := t.queues[origin]
	if !ok {
		return
	}
	q.inflight--
	if q.inflight == 0 && q.pending() == 0 {
		// The origin went idle: drop its scheduler queue. It rejoins at
		// the current virtual time on its next request, the same
		// idle-rejoin rule push applies. The object becomes the spare.
		if q.retireOnIdle {
			t.foldLocked(origin)
		}
		if q.heapIdx >= 0 {
			heap.Remove(&t.eligible, q.heapIdx)
		}
		delete(t.queues, origin)
		t.spare = q
	} else if q.heapIdx < 0 && t.eligibleQueue(q) {
		// A capped origin's freed slot makes it dispatchable again; it
		// re-enters the heap with its existing vstart, so a backlog it
		// accumulated while capped is not forgotten.
		heap.Push(&t.eligible, q)
		t.work.Signal()
	}
}

// close marks the table closed and wakes everyone: blocked pushers fail,
// workers drain what is queued and exit.
func (t *reqTable) close() {
	t.mu.Lock()
	t.closed = true
	t.space.Broadcast()
	t.work.Broadcast()
	t.mu.Unlock()
}

// depth reports how many frames are waiting to be read, interrupts
// included.
func (t *reqTable) depth() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.queued + len(t.interrupts)
}

// originStats snapshots the per-origin completion counters.
func (t *reqTable) originStats() map[uint32]OriginStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[uint32]OriginStats, len(t.stats))
	for origin, s := range t.stats {
		out[origin] = s
	}
	return out
}

// retire folds an exited origin's counters into the aggregate retired
// bucket and drops its stats entry — the pruning counterpart of done's
// queue cleanup, driven by the process table's exit notifications. An
// origin with requests still queued or in flight is folded when it
// goes idle instead, so a straggling done() cannot leave behind a
// stats entry nothing will ever retire. A request from a recycled PID
// simply starts a fresh entry.
func (t *reqTable) retire(origin uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if q, ok := t.queues[origin]; ok {
		q.retireOnIdle = true
	} else {
		t.foldLocked(origin)
	}
}

// foldLocked moves an origin's counters into the retired aggregate.
// Caller holds the lock.
func (t *reqTable) foldLocked(origin uint32) {
	if s, ok := t.stats[origin]; ok {
		t.retired.Add(s)
		delete(t.stats, origin)
	}
}

// retiredStats snapshots the aggregate counters of retired origins.
func (t *reqTable) retiredStats() OriginStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retired
}

package fuse

import (
	"container/heap"
	"sync"
	"sync/atomic"
)

// reqShards is the number of origin-map shards in the request table; a
// power of two so shard selection is a mask. Sixteen keeps per-shard
// maps small at thousands of live origins while the array itself stays
// cheap to embed.
const reqShards = 16

// reqTable is the request queue shared by the kernel-side Conn and the
// userspace Server. It replaces the bare channel the server used to read:
// incoming frames land in per-origin queues (keyed by the requesting
// process id carried in Op.PID), and workers pull them with weighted fair
// queueing, so one chatty container cannot starve its neighbours of
// server threads. The table is also the accounting vantage point: it
// knows, per origin, how many operations are queued, dispatched and
// completed, and how many payload bytes moved — the per-container view
// BEACON-style policy generation needs.
//
// The table is built for mounts serving thousands of live origins from
// many worker threads:
//
//   - Dispatch state is split into per-worker run queues (runQueue),
//     each with its own lock, WFQ virtual clock and indexed min-heap of
//     *eligible* origins (pending messages and spare in-flight budget).
//     Origins are assigned to run queues by shard, so under balanced
//     load each worker pops from its own heap and never crosses another
//     worker's lock — the single global heap lock PR 5 left behind is
//     gone.
//   - An idle worker steals the most-backlogged eligible origin from a
//     victim run queue (locking the pair in index order), so imbalance
//     cannot strand work behind a busy worker. A stolen origin's WFQ
//     lag (vstart − vclock) travels with it, so migration neither
//     grants credit nor forfeits backlog standing.
//   - The origin→queue and origin→stats maps are sharded reqShards
//     ways, so push and done resolve and account an origin under one
//     shard's lock.
//   - Global state is reduced to atomics (queued, closed, steals) plus
//     two slow-path condition variables: space (pushers blocked at
//     capacity) and idle (workers parked with no eligible work
//     anywhere). Neither is touched on the saturated fast path.
//
// Lock order where multiple are held: shard lock → run-queue lock(s, in
// index order) → the leaf spaceMu/idleMu. Per-origin scheduling state
// (msgs, head, inflight, vstart, heapIdx, retireOnIdle) is guarded by
// the owning run queue's lock; the shard lock guards its maps and
// counters, and which queue object an origin currently has.
type reqTable struct {
	shards [reqShards]reqShard

	// rqs are the per-worker run queues. Length 1 reproduces the PR 5
	// single-heap scheduler bit for bit — that configuration is retained
	// as the differential reference for the fairness tests.
	rqs []*runQueue

	queued atomic.Int64 // total messages queued across all run queues
	closed atomic.Bool
	steals atomic.Int64 // origins migrated between run queues

	// seq versions "new work may be visible": push, done and close bump
	// it after publishing, and a worker about to park re-checks it under
	// idleMu, so an enqueue between its (lock-free) scan and its sleep
	// cannot be lost.
	seq atomic.Uint64

	// idleMu/idleCond park workers that found no eligible work in any
	// run queue; idleWaiters lets the enqueue side skip the lock when
	// nobody is parked (the common, saturated case).
	idleMu      sync.Mutex
	idleCond    *sync.Cond
	idleWaiters atomic.Int32

	// spaceMu/space park pushers while the table is at capacity;
	// spaceWaiters lets the dispatch side skip the lock when nobody is
	// blocked.
	spaceMu      sync.Mutex
	space        *sync.Cond
	spaceWaiters atomic.Int32

	maxQueued         int
	maxOriginInflight int
	weights           map[uint32]int
	defaultWeight     int
}

// runQueue is one worker's slice of the scheduler: an independent WFQ
// domain with its own lock, virtual clock and eligible-origin heap.
// Origins are homed to a run queue by shard and migrate only by
// stealing.
type runQueue struct {
	idx int

	mu sync.Mutex

	// eligible holds exactly the origins this queue may dispatch from:
	// queues with pending messages and (when a cap is set) spare
	// in-flight budget. Idle origins are pruned in done() so the heaps
	// and the shard maps stay proportional to current load; their
	// accounting survives in the shard's stats.
	eligible originHeap

	// vclock is this queue's WFQ virtual clock: the virtual start time
	// of its most recently dispatched request. Origins whose queues were
	// empty rejoin at the current virtual time, so they compete fairly
	// from now on without collecting credit for their idle past.
	vclock float64

	// backlog counts the pending messages across origins owned by this
	// queue — the steal heuristic's victim-ranking signal.
	backlog int
}

// reqShard is one slice of the origin maps, with its own lock so pushes
// and completions for different origins do not serialize on map access.
type reqShard struct {
	mu     sync.Mutex
	queues map[uint32]*originQueue
	stats  map[uint32]OriginStats
	// retired aggregates the counters of origins whose processes have
	// exited (see retire); without it, stats grows by one entry per PID
	// the mount has ever served.
	retired OriginStats
	// spare is the queue object most recently pruned from this shard,
	// kept for the next origin that needs one: a closed-loop client goes
	// idle after every request, and must not pay for a new queue (and a
	// new msgs array) on each.
	spare *originQueue
}

// originQueue is one origin's pending requests plus its scheduling and
// accounting state. origin and weight are immutable while the queue is
// in its shard's map; owner names the run queue whose lock guards
// everything else, and is itself only rewritten under the previous
// owner's lock (see steal), so lock-then-recheck acquires the current
// owner race-free. A queue is reachable only through its shard's map
// (under the shard lock) and its owner's heap (under the owner's lock);
// pruning removes it from both, after which the object is the shard's
// spare and may serve a different origin.
type originQueue struct {
	origin uint32
	weight int
	owner  atomic.Pointer[runQueue]

	// msgs[head:] are the pending requests, oldest first. Popping
	// advances head instead of re-slicing, so the array is reused from
	// its start once the queue drains.
	msgs     []*request
	head     int
	inflight int
	// heapIdx is the queue's position in its owner's eligible heap, -1
	// when the origin is not currently dispatchable.
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
// (vstart, origin) — the same total order the pre-heap linear scan used,
// so dispatch order (including the deterministic tie-break) is
// unchanged.
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

// newReqTable builds a table with the given number of run queues.
// queues == 1 is the single-heap reference scheduler (every worker pops
// the same heap, exactly the PR 5 behaviour); queues == workers gives
// each worker its own dispatch domain with stealing.
func newReqTable(maxQueued, maxOriginInflight, defaultWeight int, weights map[uint32]int, queues int) *reqTable {
	if queues < 1 {
		queues = 1
	}
	t := &reqTable{
		maxQueued:         maxQueued,
		maxOriginInflight: maxOriginInflight,
		weights:           weights,
		defaultWeight:     defaultWeight,
	}
	for i := range t.shards {
		t.shards[i].queues = make(map[uint32]*originQueue)
		t.shards[i].stats = make(map[uint32]OriginStats)
	}
	t.rqs = make([]*runQueue, queues)
	for i := range t.rqs {
		t.rqs[i] = &runQueue{idx: i}
	}
	t.idleCond = sync.NewCond(&t.idleMu)
	t.space = sync.NewCond(&t.spaceMu)
	return t
}

// shard returns the shard owning an origin.
func (t *reqTable) shard(origin uint32) *reqShard {
	return &t.shards[origin&(reqShards-1)]
}

// home returns the run queue an origin is assigned to at creation:
// shard index folded onto the queue count, so origins spread across
// workers the same way they spread across shards.
func (t *reqTable) home(origin uint32) *runQueue {
	return t.rqs[int(origin&(reqShards-1))%len(t.rqs)]
}

// lockOwner acquires the lock of q's current owning run queue,
// re-checking ownership after the acquire: a steal may have migrated q
// between the load and the lock. Owner rewrites happen only under the
// old owner's lock, so the recheck converges.
func (t *reqTable) lockOwner(q *originQueue) *runQueue {
	for {
		rq := q.owner.Load()
		rq.mu.Lock()
		if q.owner.Load() == rq {
			return rq
		}
		rq.mu.Unlock()
	}
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
// and spare in-flight budget. Caller holds q's owner lock.
func (t *reqTable) eligibleQueue(q *originQueue) bool {
	if q.pending() == 0 {
		return false
	}
	return t.maxOriginInflight <= 0 || q.inflight < t.maxOriginInflight
}

// notify versions new-work visibility and wakes parked workers, if any.
// On the saturated fast path (no parked workers) it is one atomic add
// and one atomic load.
func (t *reqTable) notify() {
	t.seq.Add(1)
	if t.idleWaiters.Load() > 0 {
		t.idleMu.Lock()
		t.idleCond.Broadcast()
		t.idleMu.Unlock()
	}
}

// reserve claims one slot of global queue capacity, blocking while the
// table is full (the congestion backpressure a real /dev/fuse queue
// applies). It reports false when the table has been closed.
func (t *reqTable) reserve() bool {
	for {
		if t.closed.Load() {
			return false
		}
		cur := t.queued.Load()
		if cur < int64(t.maxQueued) {
			if t.queued.CompareAndSwap(cur, cur+1) {
				return true
			}
			continue
		}
		t.spaceMu.Lock()
		t.spaceWaiters.Add(1)
		if t.queued.Load() >= int64(t.maxQueued) && !t.closed.Load() {
			t.space.Wait()
		}
		t.spaceWaiters.Add(-1)
		t.spaceMu.Unlock()
	}
}

// releaseSlot returns one slot of queue capacity, waking blocked
// pushers, and — when a closed table just drained — parked workers, so
// they can observe the drain and exit.
func (t *reqTable) releaseSlot() {
	n := t.queued.Add(-1)
	if t.spaceWaiters.Load() > 0 {
		t.spaceMu.Lock()
		t.space.Broadcast()
		t.spaceMu.Unlock()
	}
	if n == 0 && t.closed.Load() {
		t.notify()
	}
}

// push enqueues msg for origin, blocking while the table is at capacity.
// It reports false when the table has been closed — the connection is
// gone and the frame must be dropped (one-way) or failed (two-way). The
// returned depth is the total queued count after the insert, for the
// submitter's congestion accounting.
func (t *reqTable) push(origin uint32, msg *request) (depth int, ok bool) {
	if !t.reserve() {
		return 0, false
	}
	// The shard lock is held across the enqueue: done prunes an idle
	// origin's queue under it, so the queue looked up here cannot be
	// pruned — and recycled for another origin — before msg is on it.
	sh := t.shard(origin)
	sh.mu.Lock()
	q := sh.queues[origin]
	if q == nil {
		if q = sh.spare; q != nil {
			sh.spare = nil
			*q = originQueue{origin: origin, msgs: q.msgs}
		} else {
			q = &originQueue{origin: origin}
		}
		q.weight, q.heapIdx = t.weightFor(origin), -1
		q.owner.Store(t.home(origin))
		sh.queues[origin] = q
	}
	rq := t.lockOwner(q)
	// A request arriving after retire() marked the draining queue means
	// the PID was recycled: the origin is live again, so its counters
	// must not be folded away when the old stragglers finish.
	q.retireOnIdle = false
	if q.pending() == 0 && q.vstart < rq.vclock {
		// Idle rejoin: compete from the current virtual time, with no
		// credit for the idle past.
		q.vstart = rq.vclock
	}
	q.enqueue(msg)
	rq.backlog++
	if q.heapIdx < 0 && t.eligibleQueue(q) {
		heap.Push(&rq.eligible, q)
	}
	depth = int(t.queued.Load())
	rq.mu.Unlock()
	sh.mu.Unlock()
	t.notify()
	return depth, true
}

// dispatchLocked dequeues q's head message and advances rq's WFQ state:
// the virtual clock catches up to the dispatched request's virtual start
// time, and q's vstart advances by 1/weight. The heap is fixed in
// O(log origins). Caller holds rq's lock and q must be owned by rq and
// in its heap.
func (t *reqTable) dispatchLocked(rq *runQueue, q *originQueue) *request {
	m := q.dequeue()
	rq.backlog--
	q.inflight++
	if q.vstart > rq.vclock {
		rq.vclock = q.vstart
	}
	q.vstart += 1 / float64(q.weight)
	if t.eligibleQueue(q) {
		heap.Fix(&rq.eligible, q.heapIdx)
	} else {
		heap.Remove(&rq.eligible, q.heapIdx)
	}
	t.releaseSlot()
	return m
}

// tryDispatch pops the WFQ winner of one run queue, if it has one.
func (t *reqTable) tryDispatch(rq *runQueue) (msg *request, origin uint32, ok bool) {
	rq.mu.Lock()
	if len(rq.eligible) > 0 {
		q := rq.eligible[0]
		m := t.dispatchLocked(rq, q)
		rq.mu.Unlock()
		return m, q.origin, true
	}
	rq.mu.Unlock()
	return nil, 0, false
}

// steal migrates the most-backlogged eligible origin from another run
// queue onto thief and dispatches from it. Victims are probed in index
// order starting after the thief; the victim/thief pair is locked in
// index order so concurrent steals cannot deadlock. The stolen origin's
// WFQ lag relative to its old queue's clock is preserved relative to
// the thief's (vstart − vclock travels), so migration neither grants
// credit nor forfeits backlog standing; ties on backlog break on the
// smaller origin id for determinism.
func (t *reqTable) steal(thief *runQueue) (msg *request, origin uint32, ok bool) {
	n := len(t.rqs)
	for i := 1; i < n; i++ {
		victim := t.rqs[(thief.idx+i)%n]
		lo, hi := thief, victim
		if victim.idx < thief.idx {
			lo, hi = victim, thief
		}
		lo.mu.Lock()
		hi.mu.Lock()
		if len(thief.eligible) > 0 {
			// Work arrived on our own queue while we were acquiring the
			// pair; prefer it — no migration needed.
			q := thief.eligible[0]
			m := t.dispatchLocked(thief, q)
			hi.mu.Unlock()
			lo.mu.Unlock()
			return m, q.origin, true
		}
		var best *originQueue
		for _, q := range victim.eligible {
			if best == nil || q.pending() > best.pending() ||
				(q.pending() == best.pending() && q.origin < best.origin) {
				best = q
			}
		}
		if best == nil {
			hi.mu.Unlock()
			lo.mu.Unlock()
			continue
		}
		heap.Remove(&victim.eligible, best.heapIdx)
		victim.backlog -= best.pending()
		lag := best.vstart - victim.vclock
		if lag < 0 {
			lag = 0
		}
		best.vstart = thief.vclock + lag
		best.owner.Store(thief)
		thief.backlog += best.pending()
		heap.Push(&thief.eligible, best)
		t.steals.Add(1)
		m := t.dispatchLocked(thief, best)
		hi.mu.Unlock()
		lo.mu.Unlock()
		return m, best.origin, true
	}
	return nil, 0, false
}

// pop dequeues the next request for worker wid under weighted fair
// queueing. The worker first pops its own run queue's heap root — the
// (vstart, origin) minimum of its domain, found in O(1) and fixed in
// O(log origins) under a lock no other busy worker touches. If its own
// queue is empty it steals from a victim, and if no queue has eligible
// work anywhere it parks on the table's idle list. It blocks until a
// message is available and returns ok == false once the table is closed
// and fully drained.
func (t *reqTable) pop(wid int) (msg *request, origin uint32, ok bool) {
	rq := t.rqs[wid%len(t.rqs)]
	for {
		s0 := t.seq.Load()
		if m, o, ok := t.tryDispatch(rq); ok {
			return m, o, true
		}
		if len(t.rqs) > 1 {
			if m, o, ok := t.steal(rq); ok {
				return m, o, true
			}
		}
		if t.closed.Load() && t.queued.Load() == 0 {
			return nil, 0, false
		}
		t.idleMu.Lock()
		t.idleWaiters.Add(1)
		if t.seq.Load() == s0 && !(t.closed.Load() && t.queued.Load() == 0) {
			t.idleCond.Wait()
		}
		t.idleWaiters.Add(-1)
		t.idleMu.Unlock()
	}
}

// done records the completion of a request popped for origin, folding the
// transferred byte counts into the origin's accounting and freeing its
// in-flight slot (which may unblock a capped origin's next dispatch).
// Stats land under the origin's shard lock; the owner run queue's lock
// is taken only for the in-flight bookkeeping and heap fix-up.
func (t *reqTable) done(origin uint32, readBytes, writeBytes int64, isRead, isWrite bool) {
	sh := t.shard(origin)
	sh.mu.Lock()
	s := sh.stats[origin]
	s.Ops++
	if isRead {
		s.ReadOps++
		s.ReadBytes += readBytes
	}
	if isWrite {
		s.WriteOps++
		s.WriteBytes += writeBytes
	}
	sh.stats[origin] = s

	requeued := false
	if q, ok := sh.queues[origin]; ok {
		rq := t.lockOwner(q)
		q.inflight--
		if q.inflight == 0 && q.pending() == 0 {
			// The origin went idle: drop its scheduler queue. It rejoins
			// at the current virtual time on its next request, the same
			// idle-rejoin rule push applies (re-homed by shard, so a
			// stolen origin returns to its home queue once idle). The
			// object becomes the shard's spare.
			if q.retireOnIdle {
				sh.foldLocked(origin)
			}
			if q.heapIdx >= 0 {
				heap.Remove(&rq.eligible, q.heapIdx)
			}
			delete(sh.queues, origin)
			sh.spare = q
		} else if q.heapIdx < 0 && t.eligibleQueue(q) {
			// A capped origin's freed slot makes it dispatchable again; it
			// re-enters the heap with its existing vstart, so a backlog it
			// accumulated while capped is not forgotten.
			heap.Push(&rq.eligible, q)
			requeued = true
		}
		rq.mu.Unlock()
	}
	sh.mu.Unlock()
	if requeued {
		t.notify()
	}
}

// close marks the table closed and wakes everyone: blocked pushers fail,
// workers drain what is queued and exit.
func (t *reqTable) close() {
	t.closed.Store(true)
	t.spaceMu.Lock()
	t.space.Broadcast()
	t.spaceMu.Unlock()
	t.seq.Add(1)
	t.idleMu.Lock()
	t.idleCond.Broadcast()
	t.idleMu.Unlock()
}

// depth reports the current queued count.
func (t *reqTable) depth() int {
	return int(t.queued.Load())
}

// stealCount reports how many origin migrations the table has performed.
func (t *reqTable) stealCount() int64 {
	return t.steals.Load()
}

// originStats snapshots the per-origin completion counters across all
// shards.
func (t *reqTable) originStats() map[uint32]OriginStats {
	out := make(map[uint32]OriginStats)
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for origin, s := range sh.stats {
			out[origin] = s
		}
		sh.mu.Unlock()
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
	sh := t.shard(origin)
	sh.mu.Lock()
	if q, ok := sh.queues[origin]; ok {
		rq := t.lockOwner(q)
		q.retireOnIdle = true
		rq.mu.Unlock()
	} else {
		sh.foldLocked(origin)
	}
	sh.mu.Unlock()
}

// foldLocked moves an origin's counters into the shard's retired
// aggregate. Caller holds the shard's lock.
func (sh *reqShard) foldLocked(origin uint32) {
	if s, ok := sh.stats[origin]; ok {
		sh.retired.Add(s)
		delete(sh.stats, origin)
	}
}

// retiredStats snapshots the aggregate counters of retired origins.
func (t *reqTable) retiredStats() OriginStats {
	var out OriginStats
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out.Add(sh.retired)
		sh.mu.Unlock()
	}
	return out
}

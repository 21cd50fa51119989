package fuse

import "sync"

// reqTable is the connection's input queue, shared by the kernel-side
// Conn and the userspace Server — what Linux calls the fuse_iqueue behind
// /dev/fuse, which every CntrFS thread of the paper reads. It is one FIFO:
// workers read requests in the order they arrived, whichever process sent
// them, behind the INTERRUPT frames, which every read of the queue takes
// first, as Linux reads fiq->interrupts before fiq->pending. The table is
// also the accounting vantage point: each request is queued with its
// origin (the requesting process id carried in Op.PID), and the table
// counts, per origin, the completed operations and the payload bytes they
// moved — the per-container view /proc/<pid>/io and BEACON-style policy
// generation read. And it is where an INTERRUPT finds its target: a
// two-way request is mapped by its unique from push to done.
//
// One mutex guards everything below it, as one spinlock guards the
// kernel's queue. The contention Figure 4 measures on that queue is
// charged in virtual time by the cost model (LockContention per sibling
// thread, in worker.run); the host lock is not asked to avoid or re-enact
// it.
type reqTable struct {
	mu sync.Mutex
	// space parks pushers while the ring is full; work parks workers
	// while nothing is queued. Each new slot or request signals one
	// waiter; close, and the drain of a closed table, wake them all.
	space *sync.Cond
	work  *sync.Cond

	// ring holds the queued requests, oldest at head, n of them; its
	// length is the table's capacity.
	ring    []queued
	head, n int
	// interrupts are the INTERRUPT frames not yet read, oldest first. They
	// are not in the ring: an interrupt that waited its turn behind its
	// caller's backlog — or for a slot in a full table — would arrive after
	// the request it is meant to abort had been served the slow way.
	interrupts []*request
	// live maps each two-way request's unique to the request, from push
	// to done: the span in which its awaiter may send an INTERRUPT for
	// it and the request is not yet answered, so not yet recycled.
	// One-way requests carry no unique of their own and are not mapped.
	live map[uint64]*request

	// origins holds exactly the origins with a request queued or in
	// flight; an origin leaves it when it goes idle, so the map stays
	// proportional to current load. Its accounting survives in stats
	// until its process exits (see retire).
	origins map[uint32]originState
	stats   map[uint32]OriginStats

	closed bool
}

// queued is one request in the ring with the origin it is accounted to.
type queued struct {
	msg    *request
	origin uint32
}

// originState is what the table knows of an origin with work outstanding.
type originState struct {
	// outstanding counts the origin's requests queued or in flight.
	outstanding int
	// retireOnIdle marks an origin whose process exited while requests
	// were still outstanding: dropping its stats is deferred to the moment
	// it goes idle, so a straggling completion cannot resurrect a stats
	// entry that was already dropped.
	retireOnIdle bool
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
func newReqTable(maxQueued int) *reqTable {
	t := &reqTable{
		ring:    make([]queued, maxQueued),
		live:    make(map[uint64]*request),
		origins: make(map[uint32]originState),
		stats:   make(map[uint32]OriginStats),
	}
	t.space = sync.NewCond(&t.mu)
	t.work = sync.NewCond(&t.mu)
	return t
}

// push appends msg for origin, blocking while the table is at capacity
// (the congestion backpressure a real /dev/fuse queue applies). It
// reports false when the table has been closed — the connection is gone
// and the frame must be dropped (one-way) or failed (two-way).
func (t *reqTable) push(origin uint32, msg *request) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.n == len(t.ring) && !t.closed {
		t.space.Wait()
	}
	if t.closed {
		return false
	}
	// A request arriving after retire() marked the origin means the PID
	// was recycled: the origin is live again, so its counters must not be
	// folded away when the old stragglers finish.
	t.origins[origin] = originState{outstanding: t.origins[origin].outstanding + 1}
	if msg.unique != 0 {
		t.live[msg.unique] = msg
	}
	t.ring[(t.head+t.n)%len(t.ring)] = queued{msg, origin}
	t.n++
	t.work.Signal()
	return true
}

// pushInterrupt queues an INTERRUPT frame where the next read of the
// queue finds it, ahead of every queued request. It never waits for
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

// pop takes the oldest unread interrupt or, when there is none, the
// oldest queued request, with the origin it is accounted to. An interrupt
// is accounted like any other kernel-internal frame, to origin 0. pop
// blocks until a message is available and returns ok == false once the
// table is closed and fully drained.
func (t *reqTable) pop() (msg *request, origin uint32, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.interrupts) == 0 && t.n == 0 {
		if t.closed {
			return nil, 0, false
		}
		t.work.Wait()
	}
	if len(t.interrupts) > 0 {
		msg = t.interrupts[0]
		n := copy(t.interrupts, t.interrupts[1:])
		t.interrupts[n] = nil
		t.interrupts = t.interrupts[:n]
		o := t.origins[0]
		o.outstanding++
		t.origins[0] = o
		return msg, 0, true
	}
	e := t.ring[t.head]
	t.ring[t.head] = queued{}
	t.head = (t.head + 1) % len(t.ring)
	t.n--
	t.space.Signal()
	if t.n == 0 && t.closed {
		// Drained: parked workers must see it and exit.
		t.work.Broadcast()
	}
	return e.msg, e.origin, true
}

// done records the completion of a request popped for origin: it
// unmaps the request's unique (zero for a one-way request), folds the
// transferred byte counts into the origin's accounting and ends its
// outstanding count; an origin that goes idle leaves the origins map,
// dropping its stats too if its process has exited. Every frame a
// worker pops ends here, one-way frames and interrupts included, so the
// origins' Ops sum to the frames served since the last retire.
func (t *reqTable) done(origin uint32, unique uint64, acct ioAcct) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.live, unique)
	s := t.stats[origin]
	s.Ops++
	if acct.isRead {
		s.ReadOps++
		s.ReadBytes += acct.readBytes
	}
	if acct.isWrite {
		s.WriteOps++
		s.WriteBytes += acct.writeBytes
	}
	t.stats[origin] = s

	o, ok := t.origins[origin]
	if !ok {
		return
	}
	if o.outstanding--; o.outstanding > 0 {
		t.origins[origin] = o
		return
	}
	if o.retireOnIdle {
		delete(t.stats, origin)
	}
	delete(t.origins, origin)
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

// interrupt cancels the request mapped to unique. An unmapped unique was
// already answered — the awaiter sends an INTERRUPT only after its push
// succeeded — so the frame is dropped, as the kernel drops one whose
// request has left the processing list.
func (t *reqTable) interrupt(unique uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if msg := t.live[unique]; msg != nil {
		msg.ctx.cancel()
	}
}

// cancelAll cancels every mapped request: queued or in flight, none is
// answered yet. On a closed table nothing new is mapped, so one sweep
// reaches every request that will ever be served.
func (t *reqTable) cancelAll() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, msg := range t.live {
		msg.ctx.cancel()
	}
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

// retire drops an exited origin's stats entry, driven by the process
// table's exit notifications, so the stats map stays bounded by the
// live processes rather than every PID the mount has served. An origin
// with requests still queued or in flight is dropped when it goes idle
// instead, so a straggling done() cannot leave behind a stats entry
// nothing will ever retire. A request from a recycled PID simply starts
// a fresh entry.
func (t *reqTable) retire(origin uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if o, ok := t.origins[origin]; ok {
		o.retireOnIdle = true
		t.origins[origin] = o
	} else {
		delete(t.stats, origin)
	}
}

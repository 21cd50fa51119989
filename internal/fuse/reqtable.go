package fuse

import "sync"

// reqTable is the connection's input queue, shared by the kernel-side
// Conn and the userspace Server — what Linux calls the fuse_iqueue behind
// /dev/fuse, which every CntrFS thread of the paper reads. It is one FIFO:
// workers read requests in the order they arrived, whichever process sent
// them, behind the INTERRUPT frames, which every read of the queue takes
// first, as Linux reads fiq->interrupts before fiq->pending. And it is
// where an INTERRUPT finds its target: a two-way request is mapped by its
// unique from push to done.
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
	ring    []*request
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

	closed bool
}

// newReqTable builds an empty table holding at most maxQueued requests.
func newReqTable(maxQueued int) *reqTable {
	t := &reqTable{
		ring: make([]*request, maxQueued),
		live: make(map[uint64]*request),
	}
	t.space = sync.NewCond(&t.mu)
	t.work = sync.NewCond(&t.mu)
	return t
}

// push appends msg, blocking while the table is at capacity (the
// congestion backpressure a real /dev/fuse queue applies). It reports
// false when the table has been closed — the connection is gone
// and the frame must be dropped (one-way) or failed (two-way).
func (t *reqTable) push(msg *request) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.n == len(t.ring) && !t.closed {
		t.space.Wait()
	}
	if t.closed {
		return false
	}
	if msg.unique != 0 {
		t.live[msg.unique] = msg
	}
	t.ring[(t.head+t.n)%len(t.ring)] = msg
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
// oldest queued request. It blocks until a message is available and
// returns ok == false once the table is closed and fully drained.
func (t *reqTable) pop() (msg *request, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.interrupts) == 0 && t.n == 0 {
		if t.closed {
			return nil, false
		}
		t.work.Wait()
	}
	if len(t.interrupts) > 0 {
		msg = t.interrupts[0]
		n := copy(t.interrupts, t.interrupts[1:])
		t.interrupts[n] = nil
		t.interrupts = t.interrupts[:n]
		return msg, true
	}
	msg = t.ring[t.head]
	t.ring[t.head] = nil
	t.head = (t.head + 1) % len(t.ring)
	t.n--
	t.space.Signal()
	if t.n == 0 && t.closed {
		// Drained: parked workers must see it and exit.
		t.work.Broadcast()
	}
	return msg, true
}

// done unmaps a served request's unique before its reply is sent: from
// here an INTERRUPT for it finds nothing to cancel. One-way frames and
// interrupts were never mapped.
func (t *reqTable) done(unique uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.live, unique)
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

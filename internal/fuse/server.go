package fuse

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// Server is the userspace side of the FUSE transport: a pool of worker
// threads pulling from the request table and dispatching to a filesystem
// implementation. In the paper this is the CNTRFS server process running
// in the fat container or on the host. All workers read the one request
// table, as the paper's threads read one /dev/fuse: it hands them
// requests in arrival order, interrupts first, and keeps the per-origin
// accounting (see reqTable).
type Server struct {
	fs      vfs.FS
	clock   *sim.Clock
	model   *sim.CostModel
	opts    MountOptions
	table   *reqTable
	wg      sync.WaitGroup
	served  atomic.Int64
	errors  atomic.Int64
	stopped atomic.Bool

	// inflight maps a request's unique id to its operation context;
	// FUSE_INTERRUPT frames resolve through it. The contexts are recycled
	// (one per worker), so cancellation is keyed by unique and happens
	// under inflightMu: an entry is only ever canceled while its request
	// is still registered, and untrack removes it under the same lock
	// before the context gets its next tenant — a late interrupt or a
	// teardown sweep can never reach the wrong request.
	// pending records interrupts that raced ahead of their target's
	// registration (a sibling worker may process the INTERRUPT frame
	// before the target request's worker registers it); track consumes
	// them, so no interleaving loses an interrupt. completed remembers
	// the last completedRing finished uniques so a late interrupt for an
	// already-answered request is dropped instead of leaking a pending
	// entry — this is what keeps the set bounded.
	inflightMu    sync.Mutex
	inflight      map[uint64]*reqCtx
	pending       map[uint64]bool
	completed     map[uint64]struct{}
	completedFifo [completedRing]uint64 // ring of the uniques in completed
	completedN    uint64                // uniques ever completed
	interrupts    atomic.Int64
}

// reqCtx is the cancellation context of one dispatched request: what
// context.WithCancel provided, minus its allocations. The Done channel is
// made only when something asks for it — a FIFO read or a parked open
// blocks on it, an ordinary request only polls Err — and the struct is
// recycled by its worker from one request to the next.
type reqCtx struct {
	canceled atomic.Bool
	mu       sync.Mutex
	done     chan struct{} // nil until Done is first called
}

// Deadline implements context.Context: requests carry none.
func (c *reqCtx) Deadline() (time.Time, bool) { return time.Time{}, false }

// Value implements context.Context: requests carry none.
func (c *reqCtx) Value(any) any { return nil }

// Err implements context.Context.
func (c *reqCtx) Err() error {
	if c.canceled.Load() {
		return context.Canceled
	}
	return nil
}

// Done implements context.Context.
func (c *reqCtx) Done() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done == nil {
		c.done = make(chan struct{})
		if c.canceled.Load() {
			close(c.done)
		}
	}
	return c.done
}

// cancel marks the request interrupted and wakes whatever blocks on it.
func (c *reqCtx) cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.canceled.Swap(true) && c.done != nil {
		close(c.done)
	}
}

// reset ends the current request's tenancy: a Done channel handed out
// but never closed is closed, so nothing stays parked on a finished
// request, and the context is blank for the next one.
func (c *reqCtx) reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done != nil && !c.canceled.Load() {
		close(c.done)
	}
	c.done = nil
	c.canceled.Store(false)
}

// completedRing bounds the completed-unique memory: old entries fall out
// first. Uniques older than the ring can no longer race an interrupt in
// practice; a spurious interrupt for one is additionally bounded by the
// pending-set reset.
const completedRing = 1024

// newServer starts the worker pool. Workers exit when the table closes.
func newServer(fs vfs.FS, clock *sim.Clock, model *sim.CostModel, opts MountOptions, table *reqTable) *Server {
	s := &Server{
		fs: fs, clock: clock, model: model, opts: opts, table: table,
		inflight:  make(map[uint64]*reqCtx),
		pending:   make(map[uint64]bool),
		completed: make(map[uint64]struct{}),
	}
	for i := 0; i < opts.ServerThreads; i++ {
		s.wg.Add(1)
		go (&worker{s: s}).run()
	}
	return s
}

// Wait blocks until all workers have drained the queue and exited.
// Requests still blocked inside the filesystem (e.g. a FIFO read with no
// writer) are canceled, so teardown cannot hang on an operation nobody
// will ever complete; the cancellation repeats until every worker is
// out, covering requests dispatched after the first sweep.
func (s *Server) Wait() {
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	for {
		select {
		case <-done:
			s.stopped.Store(true)
			return
		case <-time.After(10 * time.Millisecond):
			s.cancelInflight()
		}
	}
}

// cancelInflight aborts every registered request.
func (s *Server) cancelInflight() {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	for _, ctx := range s.inflight {
		ctx.cancel()
	}
}

// Served reports the number of requests processed.
func (s *Server) Served() int64 { return s.served.Load() }

// Interrupts reports how many FUSE_INTERRUPT frames were processed.
func (s *Server) Interrupts() int64 { return s.interrupts.Load() }

// track registers a request's context for interrupt delivery, consuming
// any interrupt that arrived before the registration.
func (s *Server) track(unique uint64, ctx *reqCtx) {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	s.inflight[unique] = ctx
	if s.pending[unique] {
		delete(s.pending, unique)
		ctx.cancel()
	}
}

// untrack removes a finished request, clears any interrupt that raced in
// for it, and records the unique as completed so a later interrupt for
// it is recognized and dropped rather than parked forever.
func (s *Server) untrack(unique uint64) {
	s.inflightMu.Lock()
	delete(s.inflight, unique)
	delete(s.pending, unique)
	slot := &s.completedFifo[s.completedN%completedRing]
	if s.completedN >= completedRing {
		delete(s.completed, *slot)
	}
	*slot = unique
	s.completedN++
	s.completed[unique] = struct{}{}
	s.inflightMu.Unlock()
}

// interrupt cancels the in-flight request with the given unique id. An
// id that is not registered yet is remembered so the registration can
// consume it — unless the request already completed, in which case the
// interrupt is dropped (the real protocol has the same race; tracking
// completed uniques is what keeps the pending set from growing without
// bound). Spurious interrupts for uniques that never existed are bounded
// by resetting the set when it grows past the ring size.
func (s *Server) interrupt(target uint64) {
	s.interrupts.Add(1)
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if ctx := s.inflight[target]; ctx != nil {
		ctx.cancel()
		return
	}
	if _, done := s.completed[target]; done {
		return
	}
	if len(s.pending) > completedRing {
		s.pending = make(map[uint64]bool)
	}
	s.pending[target] = true
}

// pendingInterrupts reports the interrupts parked for unregistered
// uniques (regression hook: the set must stay bounded).
func (s *Server) pendingInterrupts() int {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	return len(s.pending)
}

// Queued reports the requests currently waiting in the request table.
func (s *Server) Queued() int { return s.table.depth() }

// OriginStats snapshots the request table's per-origin (Op.PID)
// completion counters — the data source for /proc-style per-process I/O
// accounting and for policy generation.
func (s *Server) OriginStats() map[uint32]OriginStats {
	return s.table.originStats()
}

// RetireOrigin folds the counters of an exited origin (Op.PID) into the
// aggregate retired bucket, so per-origin accounting stays bounded by
// the number of *live* processes rather than every PID ever served.
// The process table's exit hooks call it when a process unregisters.
func (s *Server) RetireOrigin(origin uint32) {
	s.table.retire(origin)
}

// RetiredOriginStats reports the aggregate counters of retired origins;
// total traffic through the mount is this plus the sum of OriginStats.
func (s *Server) RetiredOriginStats() OriginStats {
	return s.table.retiredStats()
}

// Steals is always zero: the request table is one queue, so there is
// nothing to steal. It remains for its one caller, bench/trace.go's
// fuse.steals counter, and goes when that does.
func (s *Server) Steals() int64 { return 0 }

// worker is one server thread together with the per-request state it
// recycles: the decoded header, the request reader, the reply encoder,
// and the Op, Cred and cancellation context the filesystem is called
// with. A thread serves one request at a time, so the state needs no
// pool — it is overwritten by the next request, which is why nothing
// below the server may keep an *Op, a *Cred or a frame slice past the
// call that received it.
type worker struct {
	s    *Server
	hdr  ReqHeader
	r    rdr
	w    buf
	ctx  reqCtx
	cred vfs.Cred
	op   vfs.Op
}

// run is the thread's loop: pop the request table's next request,
// dispatch it, account it, reply.
//
// A request someone awaits pays the per-request server cost: the worker
// wakeup plus cacheline contention on the shared device queue, growing
// with the number of sibling threads (Figure 4). A one-way frame
// (RELEASE, RELEASEDIR, FORGET, BATCH_FORGET, INTERRUPT) pays nothing
// here: its sender does not wait, so the thread serves it beside the
// application rather than on its clock, and the sender's enqueue is its
// whole cost. The approximation: a thread busy with a one-way frame does
// not delay the next request — queueing is counted for awaited requests
// only.
func (wk *worker) run() {
	s := wk.s
	defer s.wg.Done()
	for {
		msg, origin, ok := s.table.pop()
		if !ok {
			return
		}
		s.served.Add(1)
		if !msg.oneWay {
			cost := s.model.WakeupLatency
			if n := s.opts.ServerThreads; n > 1 {
				cost += time.Duration(n-1) * s.model.LockContention
			}
			s.clock.Advance(cost)
		}
		reply, acct := wk.dispatch(msg.frame.b, msg.out)
		// Account completion before delivering the reply, so a caller
		// that awaited the request observes its own operation in the
		// origin counters.
		s.table.done(origin, acct.readBytes, acct.writeBytes, acct.isRead, acct.isWrite)
		if msg.oneWay {
			msg.release() // nobody awaits it: the server is its last owner
			continue
		}
		// The send hands the request back to its awaiter; it must be the
		// worker's last touch.
		msg.out = reply
		msg.reply <- reply
	}
}

// ioAcct is the per-request accounting dispatch reports to the table.
type ioAcct struct {
	readBytes  int64
	writeBytes int64
	isRead     bool
	isWrite    bool
}

// serverCred reconstructs the credential the server impersonates for a
// request. The CNTRFS server runs privileged and switches its filesystem
// uid/gid to the caller's via setfsuid/setfsgid (§5.1); for non-root
// callers the DAC-override capabilities therefore stop applying and the
// underlying filesystem performs ordinary permission checks. Crucially
// the server *keeps* CAP_FSETID — which is why delegated chmod does not
// clear SGID bits and xfstests #375 fails. The caller's RLIMIT_FSIZE is
// not part of the protocol at all (xfstests #228).
func serverCred(c *vfs.Cred, h *ReqHeader) {
	*c = vfs.Cred{FSUID: h.UID, FSGID: h.GID, Groups: h.Groups, Caps: vfs.FullCapSet()}
	if h.UID != 0 {
		c.Caps = vfs.NewCapSet(vfs.CapFsetid)
	}
}

// hostFlags is the server's one decision on the flags of its own host
// descriptor, for an OPEN or a CREATE with the caller's flags. Each rule
// follows the mount options alone (MountOptions.DirectRead, SyncByFsync).
func (s *Server) hostFlags(opcode Opcode, flags vfs.OpenFlags) vfs.OpenFlags {
	if opcode == OpOpen && s.opts.DirectRead && s.opts.KeepCache &&
		flags.AccessMode() == vfs.ORdonly && flags&(vfs.OTrunc|vfs.OCreat|vfs.OAppend) == 0 {
		// Read-only, and the kernel keeps what it reads: the host's page
		// cache would only hold a second copy.
		flags |= vfs.ODirect
	}
	if s.opts.SyncByFsync && s.opts.WritebackCache && flags&vfs.OSync == vfs.OSync {
		// The kernel's own test for following a write with FSYNC: that
		// FSYNC makes the write durable, and a synchronous host write
		// before it would only add a barrier.
		flags &^= vfs.OSync
	}
	return flags
}

// dispatch decodes one request frame, invokes the filesystem, and
// encodes the reply frame in place into out's storage (or a larger
// buffer when the reply does not fit), returning it; nil means the
// opcode has no reply. Each request runs under its own cancelable
// context, registered by unique id so FUSE_INTERRUPT frames (processed
// by a sibling worker) can abort it mid-flight.
func (wk *worker) dispatch(frame, out []byte) ([]byte, ioAcct) {
	s, h, r, w := wk.s, &wk.hdr, &wk.r, &wk.w
	defer wk.clear()
	var acct ioAcct
	w.b = frameBuf(out, 0)
	beginReply(w)
	if err := decodeReqHeader(frame, h, r); err != nil {
		s.errors.Add(1)
		return finishReply(w, h.Unique, vfs.EINVAL), acct
	}
	if h.Opcode == OpInterrupt {
		if target := r.u64(); !r.bad {
			s.interrupt(target)
		}
		return nil, acct // one-way
	}
	s.track(h.Unique, &wk.ctx)
	defer s.untrack(h.Unique)
	serverCred(&wk.cred, h)
	op := &wk.op
	op.Init(&wk.ctx, &wk.cred, h.Unique, h.PID)
	ino := vfs.Ino(h.NodeID)
	var opErr error

	switch h.Opcode {
	case OpLookup:
		name := r.str()
		if r.bad {
			break
		}
		attr, err := s.fs.Lookup(op, ino, name)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpForget:
		if nlookup := r.u64(); !r.bad {
			s.fs.Forget(op, ino, nlookup)
		}
		return nil, acct // one-way

	case OpBatchForget:
		n := int(r.u32())
		if !r.fits(n, 16) {
			break // the count is not backed by the frame: EINVAL below
		}
		for i := 0; i < n; i++ {
			target := vfs.Ino(r.u64())
			nlookup := r.u64()
			s.fs.Forget(op, target, nlookup)
		}
		return nil, acct // one-way

	case OpGetattr:
		attr, err := s.fs.Getattr(op, ino)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpSetattr:
		mask := vfs.SetattrMask(r.u32())
		in := decodeAttr(r)
		if r.bad {
			break
		}
		attr, err := s.fs.Setattr(op, ino, mask, in)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpMknod:
		name := r.str()
		typ := vfs.FileType(r.u8())
		mode := vfs.Mode(r.u32())
		rdev := r.u32()
		if r.bad {
			break
		}
		attr, err := s.fs.Mknod(op, ino, name, typ, mode, rdev)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpMkdir:
		name := r.str()
		mode := vfs.Mode(r.u32())
		if r.bad {
			break
		}
		attr, err := s.fs.Mkdir(op, ino, name, mode)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpSymlink:
		name := r.str()
		target := r.str()
		if r.bad {
			break
		}
		attr, err := s.fs.Symlink(op, ino, name, target)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpReadlink:
		target, err := s.fs.Readlink(op, ino)
		if err == nil {
			w.str(target)
		}
		opErr = err

	case OpUnlink:
		if name := r.str(); !r.bad {
			opErr = s.fs.Unlink(op, ino, name)
		}

	case OpRmdir:
		if name := r.str(); !r.bad {
			opErr = s.fs.Rmdir(op, ino, name)
		}

	case OpRename2:
		oldName := r.str()
		newParent := vfs.Ino(r.u64())
		newName := r.str()
		flags := vfs.RenameFlags(r.u32())
		if r.bad {
			break
		}
		opErr = s.fs.Rename(op, ino, oldName, newParent, newName, flags)

	case OpLink:
		parent := vfs.Ino(r.u64())
		name := r.str()
		if r.bad {
			break
		}
		attr, err := s.fs.Link(op, ino, parent, name)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpCreate:
		name := r.str()
		mode := vfs.Mode(r.u32())
		flags := vfs.OpenFlags(r.u32())
		if r.bad {
			break
		}
		attr, handle, err := s.fs.Create(op, ino, name, mode, s.hostFlags(OpCreate, flags))
		if err == nil {
			encodeAttr(w, &attr)
			w.u64(uint64(handle))
		}
		opErr = err

	case OpOpen:
		flags := vfs.OpenFlags(r.u32())
		if r.bad {
			break
		}
		handle, err := s.fs.Open(op, ino, s.hostFlags(OpOpen, flags))
		if err == nil {
			w.u64(uint64(handle))
		}
		opErr = err

	case OpRead:
		handle := vfs.Handle(r.u64())
		off := r.i64()
		size := int(r.u32())
		if r.bad || size > s.opts.MaxWrite {
			opErr = vfs.EINVAL // cut short, or beyond the negotiated read size
			break
		}
		// Read straight into the reply frame, behind the length prefix.
		data := respHeaderLen + 4
		if cap(w.b) < data+size {
			w.b = make([]byte, respHeaderLen, data+size)
		}
		n, err := s.fs.Read(op, handle, off, w.b[data:data+size])
		if err == nil {
			w.u32(uint32(n))
			w.b = w.b[:data+n]
			acct.isRead, acct.readBytes = true, int64(n)
		}
		opErr = err

	case OpWrite:
		handle := vfs.Handle(r.u64())
		off := r.i64()
		data := r.rawBytes()
		if r.bad {
			break
		}
		n, err := s.fs.Write(op, handle, off, data)
		if err == nil {
			w.u32(uint32(n))
			acct.isWrite, acct.writeBytes = true, int64(n)
		}
		opErr = err

	case OpFlush:
		if handle := vfs.Handle(r.u64()); !r.bad {
			if s.opts.NoFlush {
				opErr = vfs.ENOSYS // not implemented: the kernel stops asking
				break
			}
			opErr = s.fs.Flush(op, handle)
		}

	case OpFsync:
		handle := vfs.Handle(r.u64())
		datasync := r.u8() == 1
		if r.bad {
			break
		}
		opErr = s.fs.Fsync(op, handle, datasync)

	case OpRelease:
		if handle := vfs.Handle(r.u64()); !r.bad {
			opErr = s.fs.Release(op, handle)
		}

	case OpOpendir:
		handle, err := s.fs.Opendir(op, ino)
		if err == nil {
			w.u64(uint64(handle))
		}
		opErr = err

	case OpReaddir:
		handle := vfs.Handle(r.u64())
		off := r.i64()
		if r.bad {
			break
		}
		ents, err := s.fs.Readdir(op, handle, off)
		if err == nil {
			w.u32(uint32(len(ents)))
			for _, d := range ents {
				w.str(d.Name)
				w.u64(uint64(d.Ino))
				w.u8(uint8(d.Type))
				w.i64(d.Off)
			}
		}
		opErr = err

	case OpReleasedir:
		if handle := vfs.Handle(r.u64()); !r.bad {
			opErr = s.fs.Releasedir(op, handle)
		}

	case OpStatfs:
		st, err := s.fs.Statfs(op, ino)
		if err == nil {
			w.u32(st.BlockSize)
			w.u64(st.Blocks)
			w.u64(st.BlocksFree)
			w.u64(st.Files)
			w.u64(st.FilesFree)
			w.u32(st.NameMax)
		}
		opErr = err

	case OpSetxattr:
		name := r.str()
		value := r.rawBytes()
		flags := vfs.XattrFlags(r.u32())
		if r.bad {
			break
		}
		opErr = s.fs.Setxattr(op, ino, name, value, flags)

	case OpGetxattr:
		name := r.str()
		if r.bad {
			break
		}
		value, err := s.fs.Getxattr(op, ino, name)
		if err == nil {
			w.bytes(value)
		}
		opErr = err

	case OpListxattr:
		names, err := s.fs.Listxattr(op, ino)
		if err == nil {
			w.u32(uint32(len(names)))
			for _, n := range names {
				w.str(n)
			}
		}
		opErr = err

	case OpRemovexattr:
		if name := r.str(); !r.bad {
			opErr = s.fs.Removexattr(op, ino, name)
		}

	case OpAccess:
		if mask := r.u32(); !r.bad {
			opErr = s.fs.Access(op, ino, mask)
		}

	case OpFallocate:
		handle := vfs.Handle(r.u64())
		mode := r.u32()
		off := r.i64()
		length := r.i64()
		if r.bad {
			break
		}
		opErr = s.fs.Fallocate(op, handle, mode, off, length)

	default:
		opErr = vfs.ENOSYS
	}

	if r.bad {
		// A body cut inside its fixed fields: every case above checked
		// before calling the filesystem, which never saw the request.
		opErr = vfs.EINVAL
	}
	if opErr != nil {
		s.errors.Add(1)
		w.b = w.b[:respHeaderLen]
		return finishReply(w, h.Unique, vfs.ToErrno(opErr)), ioAcct{}
	}
	return finishReply(w, h.Unique, vfs.OK), acct
}

// clear ends a dispatch: the context is closed out for whoever still
// held its Done channel, and no reference to the request's frames, nor
// any of its identity, outlives it in the worker.
func (wk *worker) clear() {
	wk.ctx.reset()
	wk.r, wk.w.b = rdr{}, nil
	wk.op, wk.cred = vfs.Op{}, vfs.Cred{}
	if cap(wk.hdr.Groups) > maxRecycledFrame/4 {
		wk.hdr.Groups = nil // like an oversized frame: not kept
	}
}

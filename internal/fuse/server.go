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
// requests in arrival order, interrupts first.
type Server struct {
	fs    vfs.FS
	clock *sim.Clock
	model *sim.CostModel
	opts  MountOptions
	table *reqTable
	wg    sync.WaitGroup

	// files holds, per inode, the host descriptors its fh-0 frames are
	// served through (MountOptions.NoOpen, worker.hostFile).
	filesMu sync.Mutex
	files   map[vfs.Ino]hostFiles

	// names interns the names requests carry (nameTable).
	names nameTable
}

// hostFiles is an inode's read-side and write-side host descriptor; zero
// is one not opened yet. A read side opened before the file may have been
// copied up (by the write side's open, or a SETATTR of its size, on a
// union filesystem) may no longer read what the file holds: it is
// retired, still open for a READ in flight on it, and the next READ opens
// a new one. Retired descriptors close with the others. copyUps counts
// those two events, so that a read side whose open raced one is retired
// too.
type hostFiles struct {
	rd, wr  vfs.Handle
	retired []vfs.Handle
	copyUps int
}

// reqCtx is the cancellation context of one request: what
// context.WithCancel provided, minus its allocations. The Done channel is
// made only when something asks for it — a FIFO read or a parked open
// blocks on it, an ordinary request only polls Err — and the struct is
// recycled with its request, whose release wipes it. It is canceled only
// through the request table, and only while the table maps the request,
// so a cancellation never reaches the struct's next tenant.
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

// newServer starts the worker pool. Workers exit when the table closes.
func newServer(fs vfs.FS, clock *sim.Clock, model *sim.CostModel, opts MountOptions, table *reqTable) *Server {
	s := &Server{
		fs: fs, clock: clock, model: model, opts: opts, table: table,
		files: make(map[vfs.Ino]hostFiles),
	}
	for i := 0; i < opts.ServerThreads; i++ {
		s.wg.Add(1)
		go (&worker{s: s}).run()
	}
	return s
}

// Wait blocks until all workers have drained the queue and exited; call
// it after Conn.Unmount has closed the request table. Every request not
// yet answered is canceled first, so a request blocked inside the
// filesystem (e.g. a FIFO read with no writer) cannot hang the teardown.
func (s *Server) Wait() {
	s.table.cancelAll()
	s.wg.Wait()
	op := vfs.RootOp()
	for ino := range s.files { // the workers are gone
		s.closeFiles(op, ino)
	}
}

// Steals is always zero: the request table is one queue, so there is
// nothing to steal. It remains for its one caller, bench/trace.go's
// fuse.steals counter, and goes when that does.
func (s *Server) Steals() int64 { return 0 }

// worker is one server thread together with the per-request state it
// recycles: the decoded header, the request reader, the reply encoder,
// and the Op and Cred the filesystem is called with (the Op's context is
// the request's own). A thread serves one request at a time, so the state
// needs no pool — it is overwritten by the next request, which is why
// nothing below the server may keep an *Op, a *Cred or a frame slice past
// the call that received it.
type worker struct {
	s    *Server
	hdr  ReqHeader
	r    rdr
	w    buf
	cred vfs.Cred
	op   vfs.Op
}

// run is the thread's loop: pop the request table's next request,
// dispatch it, reply.
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
		msg, ok := s.table.pop()
		if !ok {
			return
		}
		if !msg.oneWay {
			cost := s.model.WakeupLatency
			if n := s.opts.ServerThreads; n > 1 {
				cost += time.Duration(n-1) * s.model.LockContention
			}
			s.clock.Charge(sim.LayerFuse, cost)
		}
		reply := wk.dispatch(msg)
		if msg.oneWay {
			msg.release() // nobody awaits it: the server is its last owner
			continue
		}
		// Unmap the request while it is still the worker's: once
		// answered, it may be recycled under a new unique.
		s.table.done(msg.unique)
		// The send hands the request back to its awaiter; it must be the
		// worker's last touch.
		msg.out = reply
		msg.reply <- reply
	}
}

// serverCred reconstructs the credential the server impersonates for a
// request from its header's uid, gid and groups. The CNTRFS server runs
// privileged and switches its filesystem uid/gid to the caller's via
// setfsuid/setfsgid (§5.1); for non-root callers the DAC-override
// capabilities therefore stop applying and the underlying filesystem
// performs ordinary permission checks. Crucially the server *keeps*
// CAP_FSETID — which is why delegated chmod does not clear SGID bits and
// xfstests #375 fails. The caller's RLIMIT_FSIZE is not part of the
// protocol at all (xfstests #228).
func serverCred(c *vfs.Cred, uid, gid uint32, groups []uint32) {
	*c = vfs.Cred{FSUID: uid, FSGID: gid, Groups: groups, Caps: vfs.FullCapSet()}
	if uid != 0 {
		c.Caps = vfs.NewCapSet(vfs.CapFsetid)
	}
}

// serverSelf is the server's own credential, which it opens its per-inode
// host descriptors with: the kernel checked the caller's access when it
// opened the file (Conn.openLocal).
var serverSelf = vfs.Root()

// hostFile resolves a data frame's handle fh. A nonzero fh is the server's
// own handle, and so is every fh on a server that does not answer OPEN
// (MountOptions.NoOpen). Otherwise fh 0 names a file the kernel opened
// without a message, by its inode: the frame is served through the
// inode's host descriptor, read-only for a READ (with the flags an
// O_RDONLY OPEN gets, so DirectRead holds) and read-write for a WRITE or a
// FALLOCATE, which the kernel sends only on a file it opened for writing
// (Conn.Fallocate). A descriptor not open yet is opened here, inside this
// request and at its cost.
func (wk *worker) hostFile(ino vfs.Ino, fh vfs.Handle, write bool) (vfs.Handle, error) {
	s := wk.s
	if fh != 0 || !s.opts.noOpen() {
		return fh, nil
	}
	h, copyUps := s.descriptor(ino, write)
	if h != 0 {
		return h, nil
	}
	flags := vfs.ORdwr
	if !write {
		flags = s.hostFlags(OpOpen, vfs.ORdonly)
	}
	op := &wk.op
	caller := op.Cred
	op.Cred = serverSelf
	h, err := s.fs.Open(op, ino, flags)
	op.Cred = caller
	if err != nil {
		return 0, err
	}
	if held := s.install(ino, write, h, copyUps); held != h {
		s.fs.Release(op, h) // a sibling thread opened one first
		return held, nil
	}
	return h, nil
}

// descriptor returns ino's host descriptor on the write or the read side,
// zero if there is none, and its count of copy-ups so far.
func (s *Server) descriptor(ino vfs.Ino, write bool) (vfs.Handle, int) {
	s.filesMu.Lock()
	defer s.filesMu.Unlock()
	f := s.files[ino]
	if write {
		return f.wr, f.copyUps
	}
	return f.rd, f.copyUps
}

// install makes h, opened when ino had seen copyUps copy-ups, its
// descriptor on the write or the read side if that side has none, and
// returns the side's descriptor. A write side installed so is a copy-up.
// A read side opened across one serves only the READ that opened it.
func (s *Server) install(ino vfs.Ino, write bool, h vfs.Handle, copyUps int) vfs.Handle {
	s.filesMu.Lock()
	defer s.filesMu.Unlock()
	f := s.files[ino]
	defer func() { s.files[ino] = f }()
	switch {
	case write:
		if f.wr == 0 {
			f.wr = h
			f.copiedUp()
		}
		return f.wr
	case f.copyUps != copyUps:
		f.retired = append(f.retired, h)
		return h
	case f.rd == 0:
		f.rd = h
	}
	return f.rd
}

// copiedUp counts a copy-up and retires the read side, if there is one.
func (f *hostFiles) copiedUp() {
	f.copyUps++
	if f.rd != 0 {
		f.retired = append(f.retired, f.rd)
		f.rd = 0
	}
}

// resized counts the SETATTR of ino's size just served as a copy-up,
// unless the write side is open: the file was copied up when that opened,
// before any read side it has now.
func (s *Server) resized(ino vfs.Ino) {
	s.filesMu.Lock()
	defer s.filesMu.Unlock()
	if f := s.files[ino]; f.wr == 0 {
		f.copiedUp()
		s.files[ino] = f
	}
}

// closeFiles closes ino's host descriptors: its FORGET ends them, and so
// does the unmount.
func (s *Server) closeFiles(op *vfs.Op, ino vfs.Ino) {
	s.filesMu.Lock()
	f, ok := s.files[ino]
	delete(s.files, ino)
	s.filesMu.Unlock()
	if !ok {
		return
	}
	for _, h := range append(f.retired, f.rd, f.wr) {
		if h != 0 {
			s.fs.Release(op, h)
		}
	}
}

// readdir lists a directory from cookie off. A nonzero fh is the server's
// own handle, and so is every fh on a server that answers OPENDIR
// (MountOptions.NoOpendir). Otherwise fh 0 names a directory the kernel
// opened without a message, by its inode: it is opened here as the
// caller, so the filesystem checks the caller's access as on OPENDIR, read
// and closed again, inside this request and at its cost.
func (wk *worker) readdir(ino vfs.Ino, fh vfs.Handle, off int64) ([]vfs.Dirent, error) {
	s, op := wk.s, &wk.op
	if fh != 0 || !s.opts.noOpendir() {
		return s.fs.Readdir(op, fh, off)
	}
	h, err := s.fs.Opendir(op, ino)
	if err != nil {
		return nil, err
	}
	defer s.fs.Releasedir(op, h)
	return s.fs.Readdir(op, h, off)
}

// plusPage is what a READDIRPLUS reply holds at most: one page of Linux's
// records (fuse_readdir_uncached asks for PAGE_SIZE).
const plusPage = 4096

// direntPlusSize is FUSE_DIRENTPLUS_SIZE for an entry named name: the
// fuse_entry_out and fuse_dirent ahead of the name, 8-byte aligned.
func direntPlusSize(name string) int { return (152 + len(name) + 7) &^ 7 }

// noAttr is the all-zero record of an entry without attributes.
var noAttr [attrLen]byte

// direntsPlus encodes a READDIRPLUS reply: as many of ents, directory
// dir's listing, as one page holds (at least one), each but "." and ".."
// with the attributes a LOOKUP as the caller returns, at its whole cost
// (CntrFS's open+stat pair), or with none (nodeid 0) where that fails.
func (wk *worker) direntsPlus(dir vfs.Ino, ents []vfs.Dirent) {
	n, size := 0, 0
	for n < len(ents) {
		if size += direntPlusSize(ents[n].Name); size > plusPage && n > 0 {
			break
		}
		n++
	}
	w := &wk.w
	w.u32(uint32(n))
	for i := range ents[:n] {
		d := &ents[i]
		encodeDirent(w, d)
		if d.Name != "." && d.Name != ".." {
			if attr, err := wk.s.fs.Lookup(&wk.op, dir, d.Name); err == nil {
				encodeAttr(w, &attr)
				continue
			}
		}
		w.b = append(w.b, noAttr[:]...)
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

// dispatch decodes msg's request frame, invokes the filesystem, and
// encodes the reply frame in place into msg.out's storage (or a larger
// buffer when the reply does not fit), returning it; nil means the
// opcode has no reply. The filesystem is called under msg's own
// context, which an INTERRUPT frame (processed by a sibling worker)
// cancels through the request table.
func (wk *worker) dispatch(msg *request) []byte {
	s, h, r, w := wk.s, &wk.hdr, &wk.r, &wk.w
	defer wk.clear()
	w.b = frameBuf(msg.out, 0)
	beginReply(w)
	if err := decodeReqHeader(msg.frame.b, h, r); err != nil {
		return finishReply(w, h.Unique, vfs.EINVAL)
	}
	if h.Opcode == OpInterrupt {
		if target := r.u64(); !r.bad {
			s.table.interrupt(target)
		}
		return nil // one-way
	}
	serverCred(&wk.cred, h.UID, h.GID, h.Groups)
	op := &wk.op
	op.Init(&msg.ctx, &wk.cred, h.Unique)
	ino := vfs.Ino(h.NodeID)
	var opErr error

	switch h.Opcode {
	case OpLookup:
		name := r.name(&s.names)
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
			s.closeFiles(op, ino)
			s.fs.Forget(op, ino, nlookup)
		}
		return nil // one-way

	case OpBatchForget:
		n := int(r.u32())
		if !r.fits(n, 16) {
			break // the count is not backed by the frame: EINVAL below
		}
		for i := 0; i < n; i++ {
			target := vfs.Ino(r.u64())
			nlookup := r.u64()
			s.closeFiles(op, target)
			s.fs.Forget(op, target, nlookup)
		}
		return nil // one-way

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
			if mask&vfs.SetSize != 0 && s.opts.noOpen() {
				s.resized(ino)
			}
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpMknod:
		name := r.name(&s.names)
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
		name := r.name(&s.names)
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
		name := r.name(&s.names)
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
		if name := r.name(&s.names); !r.bad {
			opErr = s.fs.Unlink(op, ino, name)
		}

	case OpRmdir:
		if name := r.name(&s.names); !r.bad {
			opErr = s.fs.Rmdir(op, ino, name)
		}

	case OpRename2:
		oldName := r.name(&s.names)
		newParent := vfs.Ino(r.u64())
		newName := r.name(&s.names)
		flags := vfs.RenameFlags(r.u32())
		if r.bad {
			break
		}
		opErr = s.fs.Rename(op, ino, oldName, newParent, newName, flags)

	case OpLink:
		parent := vfs.Ino(r.u64())
		name := r.name(&s.names)
		if r.bad {
			break
		}
		attr, err := s.fs.Link(op, ino, parent, name)
		if err == nil {
			encodeAttr(w, &attr)
		}
		opErr = err

	case OpCreate:
		name := r.name(&s.names)
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
		if s.opts.noOpen() {
			// A regular file the kernel opens itself, fh 0 from then on
			// (MountOptions.NoOpen); anything else is opened here.
			attr, err := s.fs.Getattr(op, ino)
			if err == nil && attr.Type == vfs.TypeRegular {
				err = vfs.ENOSYS
			}
			if err != nil {
				opErr = err
				break
			}
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
		if handle, opErr = wk.hostFile(ino, handle, false); opErr != nil {
			break
		}
		if size == 0 {
			w.u32(0) // nothing to read: an fh-0 frame has opened the file, all Conn.holdOpen asks
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
		}
		opErr = err

	case OpWrite:
		handle := vfs.Handle(r.u64())
		off := r.i64()
		data := r.rawBytes()
		if r.bad || len(data) > s.opts.MaxWrite {
			opErr = vfs.EINVAL // cut short, or beyond the negotiated write size
			break
		}
		if handle, opErr = wk.hostFile(ino, handle, true); opErr != nil {
			break
		}
		n, err := s.fs.Write(op, handle, off, data)
		if err == nil {
			w.u32(uint32(n))
		}
		opErr = err

	case OpFlush:
		if handle := vfs.Handle(r.u64()); !r.bad {
			if s.opts.NoFlush {
				opErr = vfs.ENOSYS // not implemented: the kernel stops asking
				break
			}
			if handle == 0 && s.opts.noOpen() {
				// Flush what of the file is open here; with nothing, nothing to flush.
				if handle, _ = s.descriptor(ino, true); handle == 0 {
					handle, _ = s.descriptor(ino, false)
				}
				if handle == 0 {
					break
				}
			}
			opErr = s.fs.Flush(op, handle)
		}

	case OpFsync:
		handle := vfs.Handle(r.u64())
		datasync := r.u8() == 1
		if r.bad {
			break
		}
		// An fsync writes nothing: it goes through the write side only if
		// that is open, and never opens one (a union filesystem copies a
		// file up when it is opened for writing).
		wr, _ := s.descriptor(ino, true)
		if handle, opErr = wk.hostFile(ino, handle, wr != 0); opErr != nil {
			break
		}
		opErr = s.fs.Fsync(op, handle, datasync)

	case OpRelease:
		if handle := vfs.Handle(r.u64()); !r.bad {
			opErr = s.fs.Release(op, handle)
		}

	case OpOpendir:
		if s.opts.noOpendir() {
			// A directory the kernel opens itself, listed by fh 0 from
			// then on (MountOptions.NoOpendir); anything else is refused
			// by the filesystem.
			attr, err := s.fs.Getattr(op, ino)
			if err == nil && attr.Type == vfs.TypeDirectory {
				err = vfs.ENOSYS
			}
			if err != nil {
				opErr = err
				break
			}
		}
		handle, err := s.fs.Opendir(op, ino)
		if err == nil {
			w.u64(uint64(handle))
		}
		opErr = err

	case OpReaddir, OpReaddirplus:
		handle := vfs.Handle(r.u64())
		off := r.i64()
		if r.bad {
			break
		}
		plus := h.Opcode == OpReaddirplus
		if plus && ino == 0 {
			opErr = vfs.EINVAL // the entries are looked up under the nodeid
			break
		}
		ents, err := wk.readdir(ino, handle, off)
		if err == nil && plus {
			wk.direntsPlus(ino, ents)
		} else if err == nil {
			w.u32(uint32(len(ents)))
			for i := range ents {
				encodeDirent(w, &ents[i])
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
		name := r.name(&s.names)
		value := r.rawBytes()
		flags := vfs.XattrFlags(r.u32())
		if r.bad {
			break
		}
		opErr = s.fs.Setxattr(op, ino, name, value, flags)

	case OpGetxattr:
		name := r.name(&s.names)
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
		if name := r.name(&s.names); !r.bad {
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
		if handle, opErr = wk.hostFile(ino, handle, true); opErr != nil {
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
		w.b = w.b[:respHeaderLen]
		return finishReply(w, h.Unique, vfs.ToErrno(opErr))
	}
	return finishReply(w, h.Unique, vfs.OK)
}

// clear ends a dispatch: no reference to the request's frames or
// context, nor any of its identity, outlives it in the worker.
func (wk *worker) clear() {
	wk.r, wk.w.b = rdr{}, nil
	wk.op, wk.cred = vfs.Op{}, vfs.Cred{}
	if cap(wk.hdr.Groups) > maxRecycledFrame/4 {
		wk.hdr.Groups = nil // like an oversized frame: not kept
	}
}

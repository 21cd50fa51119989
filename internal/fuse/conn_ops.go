package fuse

import (
	"cntr/internal/vfs"
)

// Lookup implements vfs.FS over the wire, with dentry caching. A dentry
// hit resolves the name to an inode without a round trip; attributes are
// then served from the attribute cache or revalidated with GETATTR.
func (c *Conn) Lookup(op *vfs.Op, parent vfs.Ino, name string) (vfs.Attr, error) {
	if ino, ok := c.lookupCached(parent, name); ok {
		c.clock.Advance(c.model.InodeOp) // dcache hit still does hash work
		if attr, ok := c.attrCached(ino); ok {
			return attr, nil
		}
		attr, err := c.getattrWire(op, ino)
		if vfs.ToErrno(err) != vfs.ESTALE {
			return attr, err
		}
		// The server forgot this inode (dentry revalidation failure):
		// drop the stale dentry and re-lookup over the wire.
		c.invalidateEntry(parent, name)
	}
	r, err := c.call(OpLookup, parent, op, func(w *buf) { w.str(name) }, 0, 0)
	if err != nil {
		return vfs.Attr{}, err
	}
	return c.entryReply(r, parent, name)
}

// entryReply decodes the reply of a request that found or made
// parent/name and caches the dentry and its attributes. A short reply is
// EIO and caches nothing: a truncated frame must not install a dentry
// for inode 0.
func (c *Conn) entryReply(r *rdr, parent vfs.Ino, name string) (vfs.Attr, error) {
	attr := decodeAttr(r)
	if r.bad {
		return vfs.Attr{}, vfs.EIO
	}
	c.cacheEntry(parent, name, attr.Ino)
	c.cacheAttr(attr)
	return attr, nil
}

// getattrWire fetches fresh attributes and refreshes the cache.
func (c *Conn) getattrWire(op *vfs.Op, ino vfs.Ino) (vfs.Attr, error) {
	r, err := c.call(OpGetattr, ino, op, nil, 0, 0)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr := decodeAttr(r)
	if r.bad {
		return vfs.Attr{}, vfs.EIO
	}
	c.cacheAttr(attr)
	return attr, nil
}

// Forget implements vfs.FS. Forgets are one-way messages; with
// BatchForget they are coalesced into FUSE_BATCH_FORGET frames.
func (c *Conn) Forget(op *vfs.Op, ino vfs.Ino, nlookup uint64) {
	c.mu.Lock()
	if c.unmounted {
		c.mu.Unlock()
		return
	}
	// While the attribute cache references the inode, the kernel's own
	// caches are keeping it alive: withhold the forget so the server
	// does not drop the inode out from under a cached dentry.
	if _, cached := c.attrs[ino]; cached {
		c.held[ino] += nlookup
		c.mu.Unlock()
		return
	}
	if extra := c.held[ino]; extra > 0 {
		nlookup += extra
		delete(c.held, ino)
	}
	c.stats.ForgetsSent++
	if c.opts.BatchForget {
		c.forgets = append(c.forgets, forgetItem{ino, nlookup})
		if len(c.forgets) < ForgetBatchSize {
			c.mu.Unlock()
			return
		}
		batch := c.forgets
		c.forgets = nil
		c.mu.Unlock()
		c.sendForgetBatch(batch)
		return
	}
	c.mu.Unlock()
	// Unbatched: one one-way frame per forget (half a round trip).
	c.clock.Advance(c.model.ContextSwitch)
	w := &buf{}
	encodeReqHeader(w, OpForget, c.unique.Add(1), uint64(ino), nil)
	w.u64(nlookup)
	c.enqueueOneWay(finishFrame(w))
}

func (c *Conn) sendForgetBatch(batch []forgetItem) {
	c.clock.Advance(c.model.ContextSwitch) // one transition for the batch
	w := &buf{}
	encodeReqHeader(w, OpBatchForget, c.unique.Add(1), 0, nil)
	w.u32(uint32(len(batch)))
	for _, f := range batch {
		w.u64(uint64(f.ino))
		w.u64(f.nlookup)
	}
	c.mu.Lock()
	c.stats.BatchFrames++
	c.mu.Unlock()
	c.enqueueOneWay(finishFrame(w))
}

func (c *Conn) enqueueOneWay(frame []byte) {
	// One-way messages sent during or after unmount are dropped, as the
	// kernel drops forgets once the connection is gone. Kernel-internal
	// traffic (forgets, releases, interrupts) queues under origin 0.
	c.table.push(0, &message{frame: frame})
}

// Getattr implements vfs.FS with attribute caching.
func (c *Conn) Getattr(op *vfs.Op, ino vfs.Ino) (vfs.Attr, error) {
	if attr, ok := c.attrCached(ino); ok {
		c.clock.Advance(c.model.InodeOp)
		return attr, nil
	}
	return c.getattrWire(op, ino)
}

// Setattr implements vfs.FS. chown by a caller without CAP_FSETID must
// clear setuid/setgid; the kernel computes this (ATTR_KILL_SUID /
// ATTR_KILL_SGID) with the *caller's* credentials and folds the mode
// change into the request, because the server-side replay runs with the
// server's capabilities and would not clear the bits itself.
func (c *Conn) Setattr(op *vfs.Op, ino vfs.Ino, mask vfs.SetattrMask, attr vfs.Attr) (vfs.Attr, error) {
	if (mask.Has(vfs.SetUID) || mask.Has(vfs.SetGID)) && op.Cred != nil && !op.Cred.Caps.Has(vfs.CapFsetid) {
		if cur, err := c.Getattr(op, ino); err == nil && cur.Type == vfs.TypeRegular {
			mode := cur.Mode
			if mask.Has(vfs.SetMode) {
				mode = attr.Mode
			}
			kill := mode&vfs.ModeSetUID != 0 || (mode&vfs.ModeSetGID != 0 && mode&0o010 != 0)
			if kill {
				mode &^= vfs.ModeSetUID
				if mode&0o010 != 0 {
					mode &^= vfs.ModeSetGID
				}
				mask |= vfs.SetMode
				attr.Mode = mode
			}
		}
	}
	r, err := c.call(OpSetattr, ino, op, func(w *buf) {
		w.u32(uint32(mask))
		encodeAttr(w, &attr)
	}, 0, 0)
	if err != nil {
		return vfs.Attr{}, err
	}
	out := decodeAttr(r)
	if r.bad {
		return vfs.Attr{}, vfs.EIO
	}
	c.cacheAttr(out)
	return out, nil
}

// Mknod implements vfs.FS.
func (c *Conn) Mknod(op *vfs.Op, parent vfs.Ino, name string, typ vfs.FileType, mode vfs.Mode, rdev uint32) (vfs.Attr, error) {
	r, err := c.call(OpMknod, parent, op, func(w *buf) {
		w.str(name)
		w.u8(uint8(typ))
		w.u32(uint32(mode))
		w.u32(rdev)
	}, 0, 0)
	if err != nil {
		return vfs.Attr{}, err
	}
	return c.entryReply(r, parent, name)
}

// Mkdir implements vfs.FS.
func (c *Conn) Mkdir(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode) (vfs.Attr, error) {
	r, err := c.call(OpMkdir, parent, op, func(w *buf) {
		w.str(name)
		w.u32(uint32(mode))
	}, 0, 0)
	if err != nil {
		return vfs.Attr{}, err
	}
	return c.entryReply(r, parent, name)
}

// Symlink implements vfs.FS.
func (c *Conn) Symlink(op *vfs.Op, parent vfs.Ino, name, target string) (vfs.Attr, error) {
	r, err := c.call(OpSymlink, parent, op, func(w *buf) {
		w.str(name)
		w.str(target)
	}, 0, 0)
	if err != nil {
		return vfs.Attr{}, err
	}
	return c.entryReply(r, parent, name)
}

// Readlink implements vfs.FS.
func (c *Conn) Readlink(op *vfs.Op, ino vfs.Ino) (string, error) {
	r, err := c.call(OpReadlink, ino, op, nil, 0, 0)
	if err != nil {
		return "", err
	}
	target := r.str()
	if r.bad {
		return "", vfs.EIO
	}
	return target, nil
}

// Unlink implements vfs.FS.
func (c *Conn) Unlink(op *vfs.Op, parent vfs.Ino, name string) error {
	if ino, ok := c.lookupCached(parent, name); ok {
		c.invalidateAttr(ino) // nlink drops; other links see it too
	}
	_, err := c.call(OpUnlink, parent, op, func(w *buf) { w.str(name) }, 0, 0)
	c.invalidateEntry(parent, name)
	return err
}

// Rmdir implements vfs.FS.
func (c *Conn) Rmdir(op *vfs.Op, parent vfs.Ino, name string) error {
	_, err := c.call(OpRmdir, parent, op, func(w *buf) { w.str(name) }, 0, 0)
	c.invalidateEntry(parent, name)
	return err
}

// Rename implements vfs.FS.
func (c *Conn) Rename(op *vfs.Op, oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string, flags vfs.RenameFlags) error {
	_, err := c.call(OpRename2, oldParent, op, func(w *buf) {
		w.str(oldName)
		w.u64(uint64(newParent))
		w.str(newName)
		w.u32(uint32(flags))
	}, 0, 0)
	c.invalidateEntry(oldParent, oldName)
	c.invalidateEntry(newParent, newName)
	return err
}

// Link implements vfs.FS.
func (c *Conn) Link(op *vfs.Op, ino vfs.Ino, parent vfs.Ino, name string) (vfs.Attr, error) {
	r, err := c.call(OpLink, ino, op, func(w *buf) {
		w.u64(uint64(parent))
		w.str(name)
	}, 0, 0)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr := decodeAttr(r)
	if r.bad {
		return vfs.Attr{}, vfs.EIO
	}
	c.cacheEntry(parent, name, attr.Ino)
	c.invalidateAttr(ino) // nlink changed on the cntr-level inode
	c.invalidateAttr(attr.Ino)
	return attr, nil
}

// Create implements vfs.FS. Like Open, O_DIRECT is refused (§5.1 #391).
func (c *Conn) Create(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode, flags vfs.OpenFlags) (vfs.Attr, vfs.Handle, error) {
	if flags&vfs.ODirect != 0 {
		return vfs.Attr{}, 0, vfs.EINVAL
	}
	r, err := c.call(OpCreate, parent, op, func(w *buf) {
		w.str(name)
		w.u32(uint32(mode))
		w.u32(uint32(flags))
	}, 0, 0)
	if err != nil {
		return vfs.Attr{}, 0, err
	}
	attr := decodeAttr(r)
	h := vfs.Handle(r.u64())
	if r.bad {
		return vfs.Attr{}, 0, vfs.EIO
	}
	c.cacheEntry(parent, name, attr.Ino)
	c.cacheAttr(attr)
	c.trackHandle(h, attr.Ino)
	return attr, h, nil
}

// Open implements vfs.FS. O_DIRECT is rejected: CntrFS chose mmap support
// over direct I/O, the two being mutually exclusive in FUSE (§5.1, test
// #391).
func (c *Conn) Open(op *vfs.Op, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	if flags&vfs.ODirect != 0 {
		return 0, vfs.EINVAL
	}
	if flags&vfs.OTrunc != 0 {
		c.invalidateAttr(ino) // the open truncates server-side
	}
	r, err := c.call(OpOpen, ino, op, func(w *buf) {
		w.u32(uint32(flags))
	}, 0, 0)
	if err != nil {
		return 0, err
	}
	h := vfs.Handle(r.u64())
	if r.bad {
		return 0, vfs.EIO
	}
	c.trackHandle(h, ino)
	return h, nil
}

// Read implements vfs.FS.
func (c *Conn) Read(op *vfs.Op, h vfs.Handle, off int64, dest []byte) (int, error) {
	r, err := c.call(OpRead, 0, op, func(w *buf) {
		w.u64(uint64(h))
		w.i64(off)
		w.u32(uint32(len(dest)))
	}, 0, len(dest))
	if err != nil {
		return 0, err
	}
	data := r.rawBytes()
	if r.bad {
		return 0, vfs.EIO
	}
	return copy(dest, data), nil
}

// Submit implements vfs.AsyncFS: every request of the window is queued
// and the caller gets one future each, so N readahead windows or
// writeback extents can ride the device queue concurrently — the
// submitter pays one enqueue transition per request instead of a full
// blocking round trip (this is what FUSE_ASYNC_READ buys the kernel's
// readahead path). A kind that is not a data transfer fails with EINVAL
// before anything reaches the queue.
func (c *Conn) Submit(op *vfs.Op, h vfs.Handle, kind vfs.OpKind, reqs []vfs.IOReq) []vfs.PendingIO {
	if len(reqs) == 0 {
		return nil
	}
	out := make([]vfs.PendingIO, len(reqs))
	for i, r := range reqs {
		switch kind {
		case vfs.KindRead:
			out[i] = c.submitRead(op, h, r.Off, r.Buf)
		case vfs.KindWrite:
			out[i] = c.submitWrite(op, h, r.Off, r.Buf)
		default:
			out[i] = vfs.CompletedIO(0, vfs.EINVAL)
		}
	}
	return out
}

// submitRead queues one READ request and returns its future.
func (c *Conn) submitRead(op *vfs.Op, h vfs.Handle, off int64, dest []byte) vfs.PendingIO {
	p := c.submit(OpRead, 0, op, func(w *buf) {
		w.u64(uint64(h))
		w.i64(off)
		w.u32(uint32(len(dest)))
	}, 0, len(dest), true)
	return &pendingRead{p: p, dest: dest}
}

// pendingRead adapts a wire-level Pending to vfs.PendingIO for reads.
type pendingRead struct {
	p    *Pending
	dest []byte
}

// Await implements vfs.PendingIO.
func (pr *pendingRead) Await(op *vfs.Op) (int, error) {
	r, err := pr.p.Await(op)
	if err != nil {
		return 0, err
	}
	data := r.rawBytes()
	if r.bad {
		return 0, vfs.EIO
	}
	return copy(pr.dest, data), nil
}

// submitWrite queues one write. Payloads above the negotiated MaxWrite
// are split into several pipelined WRITE requests; Await collects them
// all.
func (c *Conn) submitWrite(op *vfs.Op, h vfs.Handle, off int64, data []byte) vfs.PendingIO {
	pw := &pendingWrite{c: c, h: h}
	for len(data) > 0 {
		chunk := data
		if len(chunk) > c.opts.MaxWrite {
			chunk = chunk[:c.opts.MaxWrite]
		}
		p := c.submit(OpWrite, 0, op, func(w *buf) {
			w.u64(uint64(h))
			w.i64(off)
			w.bytes(chunk)
		}, len(chunk), 0, true)
		pw.parts = append(pw.parts, p)
		pw.sizes = append(pw.sizes, len(chunk))
		off += int64(len(chunk))
		data = data[len(chunk):]
	}
	return pw
}

// pendingWrite is the future for a (possibly split) asynchronous write.
type pendingWrite struct {
	c     *Conn
	h     vfs.Handle
	parts []*Pending
	sizes []int
}

// Await implements vfs.PendingIO, summing the chunk counts. A short or
// failed chunk ends the collection, but every submitted part is still
// awaited so no reply slot is abandoned. Unlike the synchronous Write
// loop, every chunk was already on the queue when the failure surfaced:
// if a *later* chunk landed bytes past the failure point, a plain short
// count would describe a contiguous prefix that does not exist, so the
// error is surfaced alongside the applied-prefix count.
func (pw *pendingWrite) Await(op *vfs.Op) (int, error) {
	total, stop, holed := 0, false, false
	var firstErr error
	for i, p := range pw.parts {
		r, err := p.Await(op)
		if stop {
			// Drain the remaining replies; note any that applied bytes
			// beyond the failed chunk.
			if err == nil && !r.bad && int(r.u32()) > 0 {
				holed = true
			}
			continue
		}
		if err != nil {
			firstErr = err
			stop = true
			continue
		}
		n := int(r.u32())
		if r.bad {
			firstErr = vfs.EIO
			stop = true
			continue
		}
		total += n
		if n < pw.sizes[i] {
			stop = true
		}
	}
	if ino, ok := pw.c.handleInode(pw.h); ok {
		pw.c.invalidateAttr(ino)
	}
	if total > 0 {
		if holed {
			if firstErr == nil {
				firstErr = vfs.EIO
			}
			return total, firstErr
		}
		return total, nil
	}
	return 0, firstErr
}

// Write implements vfs.FS, splitting payloads at the negotiated MaxWrite.
func (c *Conn) Write(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	total := 0
	for len(data) > 0 {
		chunk := data
		if len(chunk) > c.opts.MaxWrite {
			chunk = chunk[:c.opts.MaxWrite]
		}
		r, err := c.call(OpWrite, 0, op, func(w *buf) {
			w.u64(uint64(h))
			w.i64(off)
			w.bytes(chunk)
		}, len(chunk), 0)
		if err != nil {
			if total > 0 {
				return total, nil
			}
			return 0, err
		}
		n := int(r.u32())
		if r.bad {
			return total, vfs.EIO
		}
		total += n
		off += int64(n)
		data = data[len(chunk):]
		if n < len(chunk) {
			break
		}
	}
	if ino, ok := c.handleInode(h); ok {
		c.invalidateAttr(ino)
	}
	return total, nil
}

// Flush implements vfs.FS.
func (c *Conn) Flush(op *vfs.Op, h vfs.Handle) error {
	_, err := c.call(OpFlush, 0, op, func(w *buf) { w.u64(uint64(h)) }, 0, 0)
	return err
}

// Fsync implements vfs.FS.
func (c *Conn) Fsync(op *vfs.Op, h vfs.Handle, datasync bool) error {
	_, err := c.call(OpFsync, 0, op, func(w *buf) {
		w.u64(uint64(h))
		if datasync {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}, 0, 0)
	return err
}

// Release implements vfs.FS. RELEASE is asynchronous in FUSE: the kernel
// does not wait for the reply, so the caller pays only the enqueue cost.
func (c *Conn) Release(op *vfs.Op, h vfs.Handle) error {
	c.dropHandle(h)
	c.clock.Advance(c.model.ContextSwitch)
	w := &buf{}
	encodeReqHeader(w, OpRelease, c.unique.Add(1), 0, nil)
	w.u64(uint64(h))
	c.enqueueOneWay(finishFrame(w))
	return nil
}

// Opendir implements vfs.FS.
func (c *Conn) Opendir(op *vfs.Op, ino vfs.Ino) (vfs.Handle, error) {
	r, err := c.call(OpOpendir, ino, op, nil, 0, 0)
	if err != nil {
		return 0, err
	}
	h := vfs.Handle(r.u64())
	if r.bad {
		return 0, vfs.EIO
	}
	c.trackHandle(h, ino)
	return h, nil
}

// Readdir implements vfs.FS.
func (c *Conn) Readdir(op *vfs.Op, h vfs.Handle, off int64) ([]vfs.Dirent, error) {
	r, err := c.call(OpReaddir, 0, op, func(w *buf) {
		w.u64(uint64(h))
		w.i64(off)
	}, 0, 0)
	if err != nil {
		return nil, err
	}
	n := int(r.u32())
	ents := make([]vfs.Dirent, 0, n)
	for i := 0; i < n; i++ {
		var d vfs.Dirent
		d.Name = r.str()
		d.Ino = vfs.Ino(r.u64())
		d.Type = vfs.FileType(r.u8())
		d.Off = r.i64()
		ents = append(ents, d)
	}
	if r.bad {
		return nil, vfs.EIO
	}
	c.clock.Advance(c.model.CopyCost(len(r.b)))
	return ents, nil
}

// Releasedir implements vfs.FS; like Release it is asynchronous.
func (c *Conn) Releasedir(op *vfs.Op, h vfs.Handle) error {
	c.dropHandle(h)
	c.clock.Advance(c.model.ContextSwitch)
	w := &buf{}
	encodeReqHeader(w, OpReleasedir, c.unique.Add(1), 0, nil)
	w.u64(uint64(h))
	c.enqueueOneWay(finishFrame(w))
	return nil
}

// Statfs implements vfs.FS.
func (c *Conn) Statfs(op *vfs.Op, ino vfs.Ino) (vfs.StatfsOut, error) {
	r, err := c.call(OpStatfs, ino, op, nil, 0, 0)
	if err != nil {
		return vfs.StatfsOut{}, err
	}
	var st vfs.StatfsOut
	st.BlockSize = r.u32()
	st.Blocks = r.u64()
	st.BlocksFree = r.u64()
	st.Files = r.u64()
	st.FilesFree = r.u64()
	st.NameMax = r.u32()
	if r.bad {
		return vfs.StatfsOut{}, vfs.EIO
	}
	return st, nil
}

// Setxattr implements vfs.FS.
func (c *Conn) Setxattr(op *vfs.Op, ino vfs.Ino, name string, value []byte, flags vfs.XattrFlags) error {
	_, err := c.call(OpSetxattr, ino, op, func(w *buf) {
		w.str(name)
		w.bytes(value)
		w.u32(uint32(flags))
	}, len(value), 0)
	c.invalidateAttr(ino) // ACL xattrs rewrite mode bits server-side
	return err
}

// Getxattr implements vfs.FS. The kernel does not cache xattr values for
// FUSE filesystems, so every call is a round trip — the source of the
// Apache and IOZone write-path overhead in §5.2.2.
func (c *Conn) Getxattr(op *vfs.Op, ino vfs.Ino, name string) ([]byte, error) {
	c.clock.Advance(c.model.XattrLookup)
	r, err := c.call(OpGetxattr, ino, op, func(w *buf) { w.str(name) }, 0, 0)
	if err != nil {
		return nil, err
	}
	v := r.rawBytes()
	if r.bad {
		return nil, vfs.EIO
	}
	return append([]byte(nil), v...), nil
}

// Listxattr implements vfs.FS.
func (c *Conn) Listxattr(op *vfs.Op, ino vfs.Ino) ([]string, error) {
	r, err := c.call(OpListxattr, ino, op, nil, 0, 0)
	if err != nil {
		return nil, err
	}
	n := int(r.u32())
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		names = append(names, r.str())
	}
	if r.bad {
		return nil, vfs.EIO
	}
	return names, nil
}

// Removexattr implements vfs.FS.
func (c *Conn) Removexattr(op *vfs.Op, ino vfs.Ino, name string) error {
	_, err := c.call(OpRemovexattr, ino, op, func(w *buf) { w.str(name) }, 0, 0)
	c.invalidateAttr(ino)
	return err
}

// Access implements vfs.FS.
func (c *Conn) Access(op *vfs.Op, ino vfs.Ino, mask uint32) error {
	_, err := c.call(OpAccess, ino, op, func(w *buf) { w.u32(mask) }, 0, 0)
	return err
}

// Fallocate implements vfs.FS.
func (c *Conn) Fallocate(op *vfs.Op, h vfs.Handle, mode uint32, off, length int64) error {
	_, err := c.call(OpFallocate, 0, op, func(w *buf) {
		w.u64(uint64(h))
		w.u32(mode)
		w.i64(off)
		w.i64(length)
	}, 0, 0)
	if ino, ok := c.handleInode(h); ok {
		c.invalidateAttr(ino)
	}
	return err
}

package fuse

import (
	"cntr/internal/vfs"
)

// Lookup implements vfs.FS over the wire, with dentry caching. A dentry
// hit resolves the name to an inode without a round trip, and its
// attributes come from the attribute cache while they are valid. A record
// a data write left data-stale still answers a path walk, as a valid
// dentry sends nothing in Linux (fuse_dentry_revalidate); only a lookup
// made for stat(2) (op.Stat) revalidates it with GETATTR, as
// fuse_update_get_attr does. A missing or expired record is revalidated
// either way.
func (c *Conn) Lookup(op *vfs.Op, parent vfs.Ino, name string) (vfs.Attr, error) {
	if ino, ok := c.lookupCached(parent, name); ok {
		c.clock.Advance(c.model.InodeOp) // dcache hit still does hash work
		if attr, ok := c.attrCached(ino, op == nil || !op.Stat); ok {
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
	return c.entryCall(OpLookup, parent, name, op, func(w *buf) { w.str(name) })
}

// entryCall runs a request that finds or makes parent/name and caches
// the dentry and its attributes from the reply. A short reply is EIO and
// caches nothing: a truncated frame must not install a dentry for
// inode 0.
func (c *Conn) entryCall(opcode Opcode, parent vfs.Ino, name string, op *vfs.Op, payload func(w *buf)) (vfs.Attr, error) {
	attr, err := c.attrCall(opcode, parent, op, payload)
	if err != nil {
		return vfs.Attr{}, err
	}
	c.cacheEntry(parent, name, attr.Ino)
	c.cacheAttr(attr)
	return attr, nil
}

// attrCall runs a request whose reply body is one attribute record.
func (c *Conn) attrCall(opcode Opcode, nodeid vfs.Ino, op *vfs.Op, payload func(w *buf)) (vfs.Attr, error) {
	var attr vfs.Attr
	err := c.call(opcode, nodeid, op, payload, 0, 0, func(r *rdr) { attr = decodeAttr(r) })
	if err != nil {
		return vfs.Attr{}, err
	}
	return attr, nil
}

// handleCall runs a request whose reply body is one handle, and
// remembers which inode the handle refers to.
func (c *Conn) handleCall(opcode Opcode, ino vfs.Ino, op *vfs.Op, payload func(w *buf)) (vfs.Handle, error) {
	var h vfs.Handle
	err := c.call(opcode, ino, op, payload, 0, 0, func(r *rdr) { h = vfs.Handle(r.u64()) })
	if err != nil {
		return 0, err
	}
	c.trackHandle(h, ino)
	return h, nil
}

// getattrWire fetches fresh attributes and refreshes the cache.
func (c *Conn) getattrWire(op *vfs.Op, ino vfs.Ino) (vfs.Attr, error) {
	attr, err := c.attrCall(OpGetattr, ino, op, nil)
	if err != nil {
		return vfs.Attr{}, err
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
	if _, marked := c.nosec[ino]; marked && !c.openLocked(ino) {
		// The kernel is dropping the inode, and its S_NOSEC bit with it.
		// An open file pins its inode, whatever the dentry walk forgets.
		c.clearNosecLocked(ino)
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
	c.oneWay(OpForget, ino, 0, func(w *buf) { w.u64(nlookup) })
}

// sendForgetBatch sends batch as one frame: one transition for the lot.
func (c *Conn) sendForgetBatch(batch []forgetItem) {
	c.mu.Lock()
	c.stats.BatchFrames++
	c.mu.Unlock()
	c.oneWay(OpBatchForget, 0, 16*len(batch), func(w *buf) {
		w.u32(uint32(len(batch)))
		for _, f := range batch {
			w.u64(uint64(f.ino))
			w.u64(f.nlookup)
		}
	})
}

// Getattr implements vfs.FS with attribute caching. Its caller may read
// every field, so a data-stale record is revalidated.
func (c *Conn) Getattr(op *vfs.Op, ino vfs.Ino) (vfs.Attr, error) {
	if attr, ok := c.attrCached(ino, false); ok {
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
	out, err := c.attrCall(OpSetattr, ino, op, func(w *buf) {
		w.u32(uint32(mask))
		encodeAttr(w, &attr)
	})
	c.clearNosec(ino) // what was learnt under the old attributes ends with them
	if err != nil {
		return vfs.Attr{}, err
	}
	c.cacheAttr(out)
	return out, nil
}

// Mknod implements vfs.FS. Like Create it makes a new inode, which is
// born S_NOSEC.
func (c *Conn) Mknod(op *vfs.Op, parent vfs.Ino, name string, typ vfs.FileType, mode vfs.Mode, rdev uint32) (vfs.Attr, error) {
	gen := c.nosecGeneration()
	attr, err := c.entryCall(OpMknod, parent, name, op, func(w *buf) {
		w.str(name)
		w.u8(uint8(typ))
		w.u32(uint32(mode))
		w.u32(rdev)
	})
	if err == nil && c.nosecOn() {
		c.markNosec(attr.Ino, gen)
	}
	return attr, err
}

// Mkdir implements vfs.FS.
func (c *Conn) Mkdir(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode) (vfs.Attr, error) {
	return c.entryCall(OpMkdir, parent, name, op, func(w *buf) {
		w.str(name)
		w.u32(uint32(mode))
	})
}

// Symlink implements vfs.FS.
func (c *Conn) Symlink(op *vfs.Op, parent vfs.Ino, name, target string) (vfs.Attr, error) {
	return c.entryCall(OpSymlink, parent, name, op, func(w *buf) {
		w.str(name)
		w.str(target)
	})
}

// Readlink implements vfs.FS.
func (c *Conn) Readlink(op *vfs.Op, ino vfs.Ino) (string, error) {
	var target string
	err := c.call(OpReadlink, ino, op, nil, 0, 0, func(r *rdr) { target = r.str() })
	if err != nil {
		return "", err
	}
	return target, nil
}

// Unlink implements vfs.FS.
func (c *Conn) Unlink(op *vfs.Op, parent vfs.Ino, name string) error {
	if ino, ok := c.lookupCached(parent, name); ok {
		c.invalidateAttr(ino) // nlink drops; other links see it too
	}
	err := c.call(OpUnlink, parent, op, func(w *buf) { w.str(name) }, 0, 0, nil)
	c.invalidateEntry(parent, name)
	return err
}

// Rmdir implements vfs.FS.
func (c *Conn) Rmdir(op *vfs.Op, parent vfs.Ino, name string) error {
	err := c.call(OpRmdir, parent, op, func(w *buf) { w.str(name) }, 0, 0, nil)
	c.invalidateEntry(parent, name)
	return err
}

// Rename implements vfs.FS. A successful plain or RENAME_NOREPLACE rename
// moves the old dentry to the new name with its inode and its expiry, as
// d_move does, so the moved file is found again without a LOOKUP. A failed
// rename and every other flag drop both names.
func (c *Conn) Rename(op *vfs.Op, oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string, flags vfs.RenameFlags) error {
	err := c.call(OpRename2, oldParent, op, func(w *buf) {
		w.str(oldName)
		w.u64(uint64(newParent))
		w.str(newName)
		w.u32(uint32(flags))
	}, 0, 0, nil)
	moved, cached := c.invalidateEntry(oldParent, oldName)
	c.invalidateEntry(newParent, newName)
	if err == nil && cached && flags&^vfs.RenameNoReplace == 0 {
		c.mu.Lock()
		c.entries[entryKey{newParent, newName}] = moved
		c.mu.Unlock()
	}
	return err
}

// Link implements vfs.FS.
func (c *Conn) Link(op *vfs.Op, ino vfs.Ino, parent vfs.Ino, name string) (vfs.Attr, error) {
	attr, err := c.attrCall(OpLink, ino, op, func(w *buf) {
		w.u64(uint64(parent))
		w.str(name)
	})
	if err != nil {
		return vfs.Attr{}, err
	}
	c.cacheEntry(parent, name, attr.Ino)
	c.invalidateAttr(ino) // nlink changed on the cntr-level inode
	c.invalidateAttr(attr.Ino)
	return attr, nil
}

// Create implements vfs.FS. Like Open, O_DIRECT is refused (§5.1 #391).
// CREATE is exclusive, so a successful reply names an inode made by this
// request, with no xattrs yet: on a NoSec mount it is born marked, and its
// first write asks the server nothing. The generation is read before the
// request is sent, so a SETXATTR that reached the new file ahead of this
// reply (another client found it by name) cancels the mark.
func (c *Conn) Create(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode, flags vfs.OpenFlags) (vfs.Attr, vfs.Handle, error) {
	if flags&vfs.ODirect != 0 {
		return vfs.Attr{}, 0, vfs.EINVAL
	}
	var attr vfs.Attr
	var h vfs.Handle
	gen := c.nosecGeneration()
	err := c.call(OpCreate, parent, op, func(w *buf) {
		w.str(name)
		w.u32(uint32(mode))
		w.u32(uint32(flags))
	}, 0, 0, func(r *rdr) {
		attr = decodeAttr(r)
		h = vfs.Handle(r.u64())
	})
	if err != nil {
		return vfs.Attr{}, 0, err
	}
	c.cacheEntry(parent, name, attr.Ino)
	c.cacheAttr(attr)
	c.trackHandle(h, attr.Ino)
	if c.nosecOn() {
		c.markNosec(attr.Ino, gen)
	}
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
	return c.handleCall(OpOpen, ino, op, func(w *buf) { w.u32(uint32(flags)) })
}

// Read implements vfs.FS. One READ request carries at most the
// negotiated MaxWrite (FUSE's max_read is bounded the same way, and the
// server refuses a larger size); a longer dest is filled by consecutive
// requests until one comes back short.
func (c *Conn) Read(op *vfs.Op, h vfs.Handle, off int64, dest []byte) (int, error) {
	total := 0
	for {
		chunk := dest[total:]
		if len(chunk) > c.opts.MaxWrite {
			chunk = chunk[:c.opts.MaxWrite]
		}
		n := 0
		err := c.submitRead(op, h, off+int64(total), chunk, false).await(op, func(r *rdr) {
			n = readInto(r, chunk)
		})
		if err != nil {
			if total > 0 {
				return total, nil
			}
			return 0, err
		}
		total += n
		if n < len(chunk) || total == len(dest) {
			return total, nil
		}
	}
}

// submitRead queues one READ request of at most MaxWrite bytes.
func (c *Conn) submitRead(op *vfs.Op, h vfs.Handle, off int64, dest []byte, async bool) *request {
	return c.submit(OpRead, 0, op, func(w *buf) {
		w.u64(uint64(h))
		w.i64(off)
		w.u32(uint32(len(dest)))
	}, 0, len(dest), async)
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
			if len(r.Buf) > c.opts.MaxWrite {
				// Wider than one READ request: no window in the stack is
				// (readahead windows are MaxWrite-sized), so it is served
				// by the synchronous split rather than a second future type.
				out[i] = vfs.CompletedIO(c.Read(op, h, r.Off, r.Buf))
				continue
			}
			out[i] = &pendingRead{p: c.submitRead(op, h, r.Off, r.Buf, true), dest: r.Buf}
		case vfs.KindWrite:
			out[i] = c.submitWrite(op, h, r.Off, r.Buf)
		default:
			out[i] = vfs.CompletedIO(0, vfs.EINVAL)
		}
	}
	return out
}

// pendingRead adapts a submitted READ request to vfs.PendingIO. The
// request is recycled by its first Await; a second one fails with EIO
// instead of touching the request's next tenant.
type pendingRead struct {
	p    *request
	dest []byte
}

// Await implements vfs.PendingIO.
func (pr *pendingRead) Await(op *vfs.Op) (int, error) {
	p := pr.p
	if p == nil {
		return 0, vfs.EIO
	}
	pr.p = nil
	n := 0
	err := p.await(op, func(r *rdr) { n = readInto(r, pr.dest) })
	return n, err
}

// readInto copies a READ reply's data into dest. More data than dest
// holds is a malformed reply (EIO): the server was asked for len(dest).
func readInto(r *rdr, dest []byte) int {
	data := r.rawBytes()
	if len(data) > len(dest) {
		r.bad = true
		return 0
	}
	return copy(dest, data)
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
		pw.parts = append(pw.parts, c.submitWriteChunk(op, h, off, chunk, true))
		pw.sizes = append(pw.sizes, len(chunk))
		off += int64(len(chunk))
		data = data[len(chunk):]
	}
	return pw
}

// submitWriteChunk queues one WRITE request of at most MaxWrite bytes.
func (c *Conn) submitWriteChunk(op *vfs.Op, h vfs.Handle, off int64, chunk []byte, async bool) *request {
	return c.submit(OpWrite, 0, op, func(w *buf) {
		w.u64(uint64(h))
		w.i64(off)
		w.bytes(chunk)
	}, len(chunk), 0, async)
}

// pendingWrite is the future for a (possibly split) asynchronous write.
// Its parts are recycled as they are awaited, so only the first Await
// collects them; a second one finds none.
type pendingWrite struct {
	c     *Conn
	h     vfs.Handle
	parts []*request
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
	parts := pw.parts
	pw.parts = nil
	for i, p := range parts {
		n := 0
		err := p.await(op, func(r *rdr) { n = writeCount(r, pw.sizes[i]) })
		if stop {
			// Drain the remaining replies; note any that applied bytes
			// beyond the failed chunk.
			if err == nil && n > 0 {
				holed = true
			}
			continue
		}
		if err != nil {
			firstErr = err
			stop = true
			continue
		}
		total += n
		if n < pw.sizes[i] {
			stop = true
		}
	}
	if ino, ok := pw.c.handleInode(pw.h); ok {
		pw.c.markDataStale(ino)
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

// writeCount decodes a WRITE reply's count of the sent bytes. A count past
// them is a malformed reply, as fuse_perform_write finds it: EIO.
func writeCount(r *rdr, sent int) int {
	n := int(r.u32())
	if n > sent {
		r.bad = true
		return 0
	}
	return n
}

// Write implements vfs.FS, splitting payloads at the negotiated MaxWrite.
func (c *Conn) Write(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	total := 0
	for len(data) > 0 {
		chunk := data
		if len(chunk) > c.opts.MaxWrite {
			chunk = chunk[:c.opts.MaxWrite]
		}
		n, bad := 0, false
		err := c.submitWriteChunk(op, h, off, chunk, false).await(op, func(r *rdr) {
			n = writeCount(r, len(chunk))
			bad = r.bad
		})
		if bad {
			return total, vfs.EIO
		}
		if err != nil {
			if total > 0 {
				return total, nil
			}
			return 0, err
		}
		total += n
		off += int64(n)
		data = data[len(chunk):]
		if n < len(chunk) {
			break
		}
	}
	if ino, ok := c.handleInode(h); ok {
		c.markDataStale(ino)
	}
	return total, nil
}

// Flush implements vfs.FS. A server that does not implement FLUSH says so
// once (ENOSYS, MountOptions.NoFlush): that close(2) succeeds, and from
// then on the request is not sent, as in fuse_flush. Dirty pages are the
// page cache's to write back before it calls here.
func (c *Conn) Flush(op *vfs.Op, h vfs.Handle) error {
	if c.noFlush.Load() {
		return nil
	}
	err := c.call(OpFlush, 0, op, func(w *buf) { w.u64(uint64(h)) }, 0, 0, nil)
	if vfs.ToErrno(err) == vfs.ENOSYS {
		c.noFlush.Store(true)
		return nil
	}
	return err
}

// Fsync implements vfs.FS.
func (c *Conn) Fsync(op *vfs.Op, h vfs.Handle, datasync bool) error {
	return c.call(OpFsync, 0, op, func(w *buf) {
		w.u64(uint64(h))
		if datasync {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}, 0, 0, nil)
}

// Release implements vfs.FS. RELEASE is asynchronous in FUSE (a
// background request, fuse_file_put): the kernel does not wait for the
// reply, so the caller pays only the enqueue cost and the server serves
// it off the caller's clock.
func (c *Conn) Release(op *vfs.Op, h vfs.Handle) error {
	c.dropHandle(h)
	c.oneWay(OpRelease, 0, 0, func(w *buf) { w.u64(uint64(h)) })
	return nil
}

// Opendir implements vfs.FS.
func (c *Conn) Opendir(op *vfs.Op, ino vfs.Ino) (vfs.Handle, error) {
	return c.handleCall(OpOpendir, ino, op, nil)
}

// Readdir implements vfs.FS.
func (c *Conn) Readdir(op *vfs.Op, h vfs.Handle, off int64) ([]vfs.Dirent, error) {
	var ents []vfs.Dirent
	var bodyLen int
	err := c.call(OpReaddir, 0, op, func(w *buf) {
		w.u64(uint64(h))
		w.i64(off)
	}, 0, 0, func(r *rdr) {
		bodyLen = len(r.b)
		n := int(r.u32())
		if !r.fits(n, direntMinLen) {
			return
		}
		ents = make([]vfs.Dirent, 0, n)
		for i := 0; i < n; i++ {
			var d vfs.Dirent
			d.Name = r.str()
			d.Ino = vfs.Ino(r.u64())
			d.Type = vfs.FileType(r.u8())
			d.Off = r.i64()
			ents = append(ents, d)
		}
	})
	if err != nil {
		return nil, err
	}
	c.clock.Advance(c.model.CopyCost(bodyLen))
	return ents, nil
}

// Releasedir implements vfs.FS; like Release it is asynchronous.
func (c *Conn) Releasedir(op *vfs.Op, h vfs.Handle) error {
	c.dropHandle(h)
	c.oneWay(OpReleasedir, 0, 0, func(w *buf) { w.u64(uint64(h)) })
	return nil
}

// Statfs implements vfs.FS.
func (c *Conn) Statfs(op *vfs.Op, ino vfs.Ino) (vfs.StatfsOut, error) {
	var st vfs.StatfsOut
	err := c.call(OpStatfs, ino, op, nil, 0, 0, func(r *rdr) {
		st.BlockSize = r.u32()
		st.Blocks = r.u64()
		st.BlocksFree = r.u64()
		st.Files = r.u64()
		st.FilesFree = r.u64()
		st.NameMax = r.u32()
	})
	if err != nil {
		return vfs.StatfsOut{}, err
	}
	return st, nil
}

// Setxattr implements vfs.FS.
func (c *Conn) Setxattr(op *vfs.Op, ino vfs.Ino, name string, value []byte, flags vfs.XattrFlags) error {
	err := c.call(OpSetxattr, ino, op, func(w *buf) {
		w.str(name)
		w.bytes(value)
		w.u32(uint32(flags))
	}, len(value), 0, nil)
	c.invalidateAttr(ino) // ACL xattrs rewrite mode bits server-side
	c.clearNosec(ino)
	return err
}

// Getxattr implements vfs.FS. The kernel does not cache xattr values for
// FUSE filesystems, so every call is a round trip — the source of the
// Apache and IOZone write-path overhead in §5.2.2. The one exception is
// the absence of security.capability on a NoSec mount: the page cache
// above asks for it on every write(2), and while the inode is marked
// S_NOSEC the answer costs neither the lookup nor the round trip.
func (c *Conn) Getxattr(op *vfs.Op, ino vfs.Ino, name string) ([]byte, error) {
	nosec := c.nosecOn() && name == vfs.XattrSecurityCapability
	var gen uint64
	if nosec {
		var marked bool
		if gen, marked = c.nosecCached(ino); marked {
			return nil, vfs.ENODATA
		}
	}
	c.clock.Advance(c.model.XattrLookup)
	var value []byte
	err := c.call(OpGetxattr, ino, op, func(w *buf) { w.str(name) }, 0, 0, func(r *rdr) {
		value = append([]byte(nil), r.rawBytes()...)
	})
	if err != nil {
		if nosec && vfs.ToErrno(err) == vfs.ENODATA {
			c.markNosec(ino, gen)
		}
		return nil, err
	}
	return value, nil
}

// Listxattr implements vfs.FS.
func (c *Conn) Listxattr(op *vfs.Op, ino vfs.Ino) ([]string, error) {
	var names []string
	err := c.call(OpListxattr, ino, op, nil, 0, 0, func(r *rdr) {
		n := int(r.u32())
		if !r.fits(n, 4) { // a name is at least its length prefix
			return
		}
		names = make([]string, 0, n)
		for i := 0; i < n; i++ {
			names = append(names, r.str())
		}
	})
	if err != nil {
		return nil, err
	}
	return names, nil
}

// Removexattr implements vfs.FS.
func (c *Conn) Removexattr(op *vfs.Op, ino vfs.Ino, name string) error {
	err := c.call(OpRemovexattr, ino, op, func(w *buf) { w.str(name) }, 0, 0, nil)
	c.invalidateAttr(ino)
	c.clearNosec(ino) // one rule for every xattr change, though a removal cannot falsify "absent"
	return err
}

// Access implements vfs.FS.
func (c *Conn) Access(op *vfs.Op, ino vfs.Ino, mask uint32) error {
	return c.call(OpAccess, ino, op, func(w *buf) { w.u32(mask) }, 0, 0, nil)
}

// Fallocate implements vfs.FS.
func (c *Conn) Fallocate(op *vfs.Op, h vfs.Handle, mode uint32, off, length int64) error {
	err := c.call(OpFallocate, 0, op, func(w *buf) {
		w.u64(uint64(h))
		w.u32(mode)
		w.i64(off)
		w.i64(length)
	}, 0, 0, nil)
	if ino, ok := c.handleInode(h); ok {
		c.invalidateAttr(ino)
	}
	return err
}

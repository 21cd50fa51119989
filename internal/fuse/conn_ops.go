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
	// While the attribute cache references the inode, or a file or a
	// directory the connection opened itself is open on it, the kernel is
	// keeping it alive: withhold the forget so the server does not drop the
	// inode out from under a cached dentry or an fh-0 frame.
	if _, cached := c.attrs[ino]; cached || c.lastLocal > 0 && c.openLocked(ino, localHandle) {
		c.held[ino] += nlookup
		c.mu.Unlock()
		return
	}
	if extra := c.held[ino]; extra > 0 {
		nlookup += extra
		delete(c.held, ino)
	}
	delete(c.dirs, ino) // the kernel drops the inode, and its listing with it
	if _, marked := c.nosec[ino]; marked && !c.openLocked(ino, 0) {
		// The kernel is dropping the inode, and its S_NOSEC bit with it.
		// An open file pins its inode, whatever the dentry walk forgets.
		c.clearNosecLocked(ino)
	}
	c.queueForget(ino, nlookup)
}

// queueForget sends a forget of nlookup on ino, in the next
// FUSE_BATCH_FORGET frame or in one of its own, unless the connection is
// gone. The caller holds c.mu, which queueForget releases.
func (c *Conn) queueForget(ino vfs.Ino, nlookup uint64) {
	if c.unmounted {
		c.mu.Unlock()
		return
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
	c.dirChanged(parent)
	if err == nil && c.nosecOn() {
		c.markNosec(attr.Ino, gen)
	}
	return attr, err
}

// Mkdir implements vfs.FS.
func (c *Conn) Mkdir(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode) (vfs.Attr, error) {
	attr, err := c.entryCall(OpMkdir, parent, name, op, func(w *buf) {
		w.str(name)
		w.u32(uint32(mode))
	})
	c.dirChanged(parent)
	return attr, err
}

// Symlink implements vfs.FS.
func (c *Conn) Symlink(op *vfs.Op, parent vfs.Ino, name, target string) (vfs.Attr, error) {
	attr, err := c.entryCall(OpSymlink, parent, name, op, func(w *buf) {
		w.str(name)
		w.str(target)
	})
	c.dirChanged(parent)
	return attr, err
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
		c.holdOpen(op, ino)
		c.invalidateAttr(ino) // nlink drops; other links see it too
	}
	err := c.call(OpUnlink, parent, op, func(w *buf) { w.str(name) }, 0, 0, nil)
	c.invalidateEntry(parent, name)
	c.dirChanged(parent)
	return err
}

// Rmdir implements vfs.FS. The directory it removes is known from its
// dentry, which the path walk ahead of an rmdir has just filled.
func (c *Conn) Rmdir(op *vfs.Op, parent vfs.Ino, name string) error {
	err := c.call(OpRmdir, parent, op, func(w *buf) { w.str(name) }, 0, 0, nil)
	removed, cached := c.invalidateEntry(parent, name)
	c.dirChanged(parent)
	if err == nil && cached {
		c.dirRemoved(removed.ino)
	}
	return err
}

// Rename implements vfs.FS. A successful plain or RENAME_NOREPLACE rename
// moves the old dentry to the new name with its inode and its expiry, as
// d_move does, so the moved file is found again without a LOOKUP. A failed
// rename and every other flag drop both names.
func (c *Conn) Rename(op *vfs.Op, oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string, flags vfs.RenameFlags) error {
	if ino, ok := c.lookupCached(newParent, newName); ok {
		c.holdOpen(op, ino) // the rename may end its last link
	}
	err := c.call(OpRename2, oldParent, op, func(w *buf) {
		w.str(oldName)
		w.u64(uint64(newParent))
		w.str(newName)
		w.u32(uint32(flags))
	}, 0, 0, nil)
	moved, cached := c.invalidateEntry(oldParent, oldName)
	replaced, existed := c.invalidateEntry(newParent, newName)
	c.dirChanged(oldParent)
	c.dirChanged(newParent)
	if err == nil && cached && flags&^vfs.RenameNoReplace == 0 {
		c.mu.Lock()
		c.entries[entryKey{newParent, newName}] = moved
		c.mu.Unlock()
	}
	if err == nil && existed && flags&vfs.RenameExchange == 0 {
		c.dirRemoved(replaced.ino)
	}
	return err
}

// Link implements vfs.FS.
func (c *Conn) Link(op *vfs.Op, ino vfs.Ino, parent vfs.Ino, name string) (vfs.Attr, error) {
	attr, err := c.attrCall(OpLink, ino, op, func(w *buf) {
		w.u64(uint64(parent))
		w.str(name)
	})
	c.dirChanged(parent)
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
	c.dirChanged(parent)
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
// #391). Once the server has answered an OPEN with ENOSYS
// (MountOptions.NoOpen), a regular file is opened without a message
// (openLocal), as fuse_file_open does after setting fc->no_open; the
// answering OPEN is opened so too. Any other file is still opened over the
// wire. That is this model's stated approximation: Linux sends a FIFO or a
// device node no OPEN at all, but here the server serves FIFOs.
func (c *Conn) Open(op *vfs.Op, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	if flags&vfs.ODirect != 0 {
		return 0, vfs.EINVAL
	}
	if c.noOpen.Load() {
		attr, err := c.openAttr(op, ino)
		if err != nil {
			return 0, err
		}
		if attr.Type == vfs.TypeRegular {
			return c.openLocal(op, attr, flags)
		}
	}
	if flags&vfs.OTrunc != 0 {
		c.invalidateAttr(ino) // the open truncates server-side
	}
	h, err := c.handleCall(OpOpen, ino, op, func(w *buf) { w.u32(uint32(flags)) })
	if vfs.ToErrno(err) != vfs.ENOSYS {
		return h, err
	}
	c.noOpen.Store(true)
	attr, err := c.openAttr(op, ino)
	if err != nil {
		return 0, err
	}
	return c.openLocal(op, attr, flags)
}

// localHandle marks a handle the connection made itself (openLocal),
// localWritable one of those opened for writing and localDir one opened on
// a directory; a server's handles never have any of these bits set.
const (
	localHandle   vfs.Handle = 1 << 63
	localWritable vfs.Handle = 1 << 62
	localDir      vfs.Handle = 1 << 61
)

// openAttr is what an open decided here reads: the cached record, whose
// type, mode and owner a data write leaves fresh, or one GETATTR.
func (c *Conn) openAttr(op *vfs.Op, ino vfs.Ino) (vfs.Attr, error) {
	if attr, ok := c.attrCached(ino, true); ok {
		return attr, nil
	}
	return c.getattrWire(op, ino)
}

// openLocal opens a regular file without a message: the access check the
// server's filesystem makes on OPEN, for the credential the server would
// impersonate (serverCred), then the truncation of a writable O_TRUNC open
// as one SETATTR (the VFS's handle_truncate), then a handle of the
// connection's own.
func (c *Conn) openLocal(op *vfs.Op, attr vfs.Attr, flags vfs.OpenFlags) (vfs.Handle, error) {
	var cred vfs.Cred
	if op != nil && op.Cred != nil {
		serverCred(&cred, op.Cred.FSUID, op.Cred.FSGID, op.Cred.Groups)
	} else {
		serverCred(&cred, 0, 0, nil)
	}
	if flags.Readable() && !cred.MayRead(&attr) || flags.Writable() && !cred.MayWrite(&attr) {
		return 0, vfs.EACCES
	}
	if flags&vfs.OTrunc != 0 && flags.Writable() {
		if _, err := c.Setattr(op, attr.Ino, vfs.SetSize, vfs.Attr{}); err != nil {
			return 0, err
		}
	}
	c.mu.Lock()
	c.lastLocal++
	h := localHandle | c.lastLocal
	if flags.Writable() {
		h |= localWritable
	}
	if attr.Type == vfs.TypeDirectory {
		h |= localDir
	}
	c.handleIno[h] = attr.Ino
	c.mu.Unlock()
	return h, nil
}

// holdOpen makes the server hold ino open ahead of a request that may
// end its last link, if a file openLocal made is open on it: that file's
// frames name the inode, and the server keeps an unlinked inode only while
// it holds it open. A READ of no bytes on fh 0 does that and nothing else.
// A server that kept a descriptor for every inode the kernel has looked up
// (CntrFS's O_PATH descriptors) would need no such frame; this model's
// CntrFS keeps none, so this is part of the stated approximation. The
// inode is known from the dentry cache, which the path walk ahead of an
// unlink or a rename has just filled: a mount that caches no dentries
// (EntryTimeout 0) keeps answering OPEN (MountOptions.NoOpen).
func (c *Conn) holdOpen(op *vfs.Op, ino vfs.Ino) {
	c.mu.Lock()
	open := c.openLocked(ino, localHandle)
	c.mu.Unlock()
	if open {
		// A failed hold leaves the request to come as it would have been.
		_ = c.call(OpRead, ino, op, func(w *buf) {
			w.u64(0)
			w.i64(0)
			w.u32(0)
		}, 0, 0, nil)
	}
}

// wireHandle is what a frame on h names: the server's handle, or for a
// handle the connection made itself fh 0 and the inode.
func (c *Conn) wireHandle(h vfs.Handle) (nodeid vfs.Ino, fh vfs.Handle) {
	if h&localHandle == 0 {
		return 0, h
	}
	ino, _ := c.handleInode(h)
	return ino, 0
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
		err := c.submitRead(op, h, off+int64(total), chunk).await(op, func(r *rdr) {
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
func (c *Conn) submitRead(op *vfs.Op, h vfs.Handle, off int64, dest []byte) *request {
	nodeid, fh := c.wireHandle(h)
	return c.submit(OpRead, nodeid, op, func(w *buf) {
		w.u64(uint64(fh))
		w.i64(off)
		w.u32(uint32(len(dest)))
	}, 0, len(dest))
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

// submitWrite queues one WRITE request of at most MaxWrite bytes.
func (c *Conn) submitWrite(op *vfs.Op, h vfs.Handle, off int64, chunk []byte) *request {
	nodeid, fh := c.wireHandle(h)
	return c.submit(OpWrite, nodeid, op, func(w *buf) {
		w.u64(uint64(fh))
		w.i64(off)
		w.bytes(chunk)
	}, len(chunk), 0)
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
		err := c.submitWrite(op, h, off, chunk).await(op, func(r *rdr) {
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
	nodeid, fh := c.wireHandle(h)
	err := c.call(OpFlush, nodeid, op, func(w *buf) { w.u64(uint64(fh)) }, 0, 0, nil)
	if vfs.ToErrno(err) == vfs.ENOSYS {
		c.noFlush.Store(true)
		return nil
	}
	return err
}

// Fsync implements vfs.FS.
func (c *Conn) Fsync(op *vfs.Op, h vfs.Handle, datasync bool) error {
	nodeid, fh := c.wireHandle(h)
	return c.call(OpFsync, nodeid, op, func(w *buf) {
		w.u64(uint64(fh))
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
// it off the caller's clock. A file or a directory opened without a
// message is closed without one; the last such close on an inode lets its
// held forgets go, and the last on a removed directory its dead listing.
func (c *Conn) Release(op *vfs.Op, h vfs.Handle) error {
	if h&localHandle == 0 {
		c.dropHandle(h)
		c.oneWay(OpRelease, 0, 0, func(w *buf) { w.u64(uint64(h)) })
		return nil
	}
	c.mu.Lock()
	ino, ok := c.handleIno[h]
	delete(c.handleIno, h)
	var held uint64
	if ok && !c.openLocked(ino, localHandle) {
		held = c.held[ino]
		delete(c.held, ino)
		if d := c.dirs[ino]; d != nil && d.dead {
			delete(c.dirs, ino)
		}
	}
	c.mu.Unlock()
	if held > 0 {
		c.Forget(nil, ino, held) // held again while the attributes are cached
	}
	return nil
}

// Opendir implements vfs.FS. Once the server has answered an OPENDIR with
// ENOSYS (MountOptions.NoOpendir), a directory is opened without a message,
// as fuse_file_open does after setting fc->no_opendir: the type and access
// checks the server's filesystem makes, against the cached attributes and
// for the credential the server would impersonate (openLocal), then a
// handle of the connection's own. The answering OPENDIR is opened so too.
func (c *Conn) Opendir(op *vfs.Op, ino vfs.Ino) (vfs.Handle, error) {
	if !c.noOpendir.Load() {
		h, err := c.handleCall(OpOpendir, ino, op, nil)
		if vfs.ToErrno(err) != vfs.ENOSYS {
			return h, err
		}
		c.noOpendir.Store(true)
	}
	attr, err := c.openAttr(op, ino)
	if err != nil {
		return 0, err
	}
	if attr.Type != vfs.TypeDirectory {
		return 0, vfs.ENOTDIR
	}
	return c.openLocal(op, attr, vfs.ORdonly)
}

// Readdir implements vfs.FS. A directory opened without a message is
// listed from its kept listing (dirListing) while it is unchanged. A
// listing from the start checks it against the directory's attributes
// first, the cached record or one GETATTR, as fuse_update_attributes does
// under FUSE_AUTO_INVAL_DATA: another mtime drops it. A complete listing
// costs one page-cache hit; any other listing goes over the wire with fh 0
// and the inode (readdirWire), and extends the kept one when it starts
// where that ends, the empty reply completing it.
func (c *Conn) Readdir(op *vfs.Op, h vfs.Handle, off int64) ([]vfs.Dirent, error) {
	if h&localHandle == 0 {
		dir, _ := c.handleInode(h)
		ents, _, err := c.readdirWire(op, dir, h, off)
		return ents, err
	}
	ino, _ := c.handleInode(h)
	if off == 0 {
		if err := c.revalidateDir(op, ino); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	d := c.dirs[ino]
	if d != nil && d.dead {
		c.mu.Unlock()
		return nil, vfs.ENOENT
	}
	if d != nil && d.complete {
		if ents, ok := d.after(off); ok {
			c.mu.Unlock()
			c.clock.Advance(c.model.PageCacheHit)
			return ents, nil
		}
	}
	c.mu.Unlock()
	ents, complete, err := c.readdirWire(op, ino, 0, off)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if d != nil && !d.complete && off == d.end() {
		d.ents = append(d.ents, ents...)
		d.complete = complete
	}
	c.mu.Unlock()
	return ents, nil
}

// revalidateDir starts a listing of ino from the start: a dead directory
// is ENOENT without a message, and a listing from before the directory's
// current mtime gives way to an empty one.
func (c *Conn) revalidateDir(op *vfs.Op, ino vfs.Ino) error {
	c.mu.Lock()
	d := c.dirs[ino]
	c.mu.Unlock()
	if d != nil && d.dead {
		return vfs.ENOENT
	}
	attr, err := c.openAttr(op, ino)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if d := c.dirs[ino]; d == nil || !d.dead && !d.mtime.Equal(attr.Mtime) {
		c.dirs[ino] = &dirListing{mtime: attr.Mtime}
	}
	c.mu.Unlock()
	return nil
}

// dirChanged drops parent's listing: an entry change through the mount
// has just been asked for, whatever its outcome (the i_version bump of
// fuse_dir_changed). The parent's cached mtime cannot say so: the mount's
// own changes leave it stale.
func (c *Conn) dirChanged(parent vfs.Ino) {
	c.mu.Lock()
	c.dirGen.Add(1)
	if d := c.dirs[parent]; d != nil && !d.dead {
		delete(c.dirs, parent)
	}
	c.mu.Unlock()
}

// dirRemoved is what a successful rmdir, or a rename over an entry, does
// to the inode it removed: its listing goes, and a directory handle still
// open on it reads as removed from then on.
func (c *Conn) dirRemoved(ino vfs.Ino) {
	c.mu.Lock()
	delete(c.dirs, ino)
	if c.openLocked(ino, localHandle|localDir) {
		c.dirs[ino] = &dirListing{dead: true}
	}
	c.mu.Unlock()
}

// readdirWire lists directory dir from cookie off, on the server's handle
// fh or with fh 0, and reports whether its last reply was the empty one
// that ends the listing. On a ReaddirPlus mount a listing from the start
// is one READDIRPLUS page (which, unlike a READDIR on fh, names dir) and,
// unless it was empty, the READDIR from its last cookie: what one READDIR
// would return.
func (c *Conn) readdirWire(op *vfs.Op, dir vfs.Ino, fh vfs.Handle, off int64) ([]vfs.Dirent, bool, error) {
	nodeid := dir
	if fh != 0 {
		nodeid = 0
	}
	if off != 0 || dir == 0 || !c.opts.readdirPlus() {
		ents, err := c.readdirCall(op, OpReaddir, nodeid, fh, off)
		return ents, len(ents) == 0, err
	}
	page, err := c.readdirCall(op, OpReaddirplus, dir, fh, 0)
	if err != nil || len(page) == 0 {
		return page, true, err
	}
	rest, err := c.readdirCall(op, OpReaddir, nodeid, fh, page[len(page)-1].Off)
	if err != nil {
		return nil, false, err
	}
	return append(page, rest...), len(rest) == 0, nil
}

// readdirCall sends one READDIR, or one READDIRPLUS whose entries it
// installs (decodePlus), and returns the entries.
func (c *Conn) readdirCall(op *vfs.Op, opcode Opcode, nodeid vfs.Ino, fh vfs.Handle, off int64) ([]vfs.Dirent, error) {
	var ents []vfs.Dirent
	var forget []vfs.Ino
	var bodyLen int
	gen := c.dirGen.Load()
	err := c.call(opcode, nodeid, op, func(w *buf) {
		w.u64(uint64(fh))
		w.i64(off)
	}, 0, 0, func(r *rdr) {
		bodyLen = len(r.b)
		if opcode == OpReaddirplus {
			ents, forget = c.decodePlus(r, nodeid, gen)
			return
		}
		n := int(r.u32())
		if !r.fits(n, direntMinLen) {
			return
		}
		ents = make([]vfs.Dirent, 0, n)
		for i := 0; i < n; i++ {
			ents = append(ents, decodeDirent(r))
		}
	})
	for _, ino := range forget {
		c.mu.Lock()
		c.queueForget(ino, 1) // fuse_force_forget: no cache holds it
	}
	if err != nil {
		return nil, err
	}
	c.clock.Advance(c.model.CopyCost(bodyLen))
	return ents, nil
}

// decodePlus decodes a READDIRPLUS reply on directory dir and installs
// each entry as fuse_direntplus_link does; a reply not whole installs
// nothing, and "." and ".." and an entry without attributes (nodeid 0) are
// skipped. Nothing is installed where the connection holds the dentry or
// the attributes valid (the attr_version check, conservatively) or after an
// entry change overtook the reply (dirGen past gen): those lookups are
// returned, to be forgotten.
func (c *Conn) decodePlus(r *rdr, dir vfs.Ino, gen uint64) (ents []vfs.Dirent, forget []vfs.Ino) {
	n := int(r.u32())
	if !r.fits(n, direntMinLen+attrLen) || !plusWhole(*r, n) {
		r.bad = true
		return nil, nil
	}
	ents = make([]vfs.Dirent, 0, n)
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.clock.Now()
	for i := 0; i < n; i++ {
		d := decodeDirent(r)
		attr := decodeAttr(r)
		ents = append(ents, d)
		if attr.Ino == 0 || d.Name == "." || d.Name == ".." {
			continue
		}
		key := entryKey{dir, d.Name}
		e, dentry := c.entries[key]
		a, cached := c.attrs[attr.Ino]
		if c.dirGen.Load() != gen || dentry && e.expiry >= now || cached && a.expires() >= now {
			forget = append(forget, attr.Ino)
			continue
		}
		c.entries[key] = entryVal{attr.Ino, now + c.opts.EntryTimeout}
		c.attrs[attr.Ino] = attrVal{attr, now + c.opts.AttrTimeout}
	}
	return ents, forget
}

// plusWhole reports whether r holds n READDIRPLUS entries whole.
func plusWhole(r rdr, n int) bool {
	for i := 0; i < n && !r.bad; i++ {
		rest := int(r.u32()) + direntMinLen - 4 + attrLen // name, ino, type, cookie, attributes
		if r.need(rest) {
			r.off += rest
		}
	}
	return !r.bad
}

// Releasedir implements vfs.FS; like Release it is asynchronous, and a
// directory opened without a message is closed without one.
func (c *Conn) Releasedir(op *vfs.Op, h vfs.Handle) error {
	if h&localHandle != 0 {
		return c.Release(op, h)
	}
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

// Fallocate implements vfs.FS. A file opened without a message and not
// for writing fails as the server's read-only handle would (EBADF): the
// server serves fh 0 through its own writable descriptor.
func (c *Conn) Fallocate(op *vfs.Op, h vfs.Handle, mode uint32, off, length int64) error {
	if h&(localHandle|localWritable) == localHandle {
		return vfs.EBADF
	}
	nodeid, fh := c.wireHandle(h)
	err := c.call(OpFallocate, nodeid, op, func(w *buf) {
		w.u64(uint64(fh))
		w.u32(mode)
		w.i64(off)
		w.i64(length)
	}, 0, 0, nil)
	if ino, ok := c.handleInode(h); ok {
		c.invalidateAttr(ino)
	}
	return err
}

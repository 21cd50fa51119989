package pagecache

import (
	"slices"
	"time"

	"cntr/internal/vfs"
)

// ensureSize makes f.size valid, fetching attributes from the backing
// filesystem if needed. Caller holds c.mu.
func (c *Cache) ensureSize(op *vfs.Op, ino vfs.Ino, f *fileCache) error {
	if f.valid {
		return nil
	}
	attr, err := c.backing.Getattr(op, ino)
	if err != nil {
		return err
	}
	f.size = attr.Size
	f.valid = true
	f.mode = attr.Mode
	f.modeKnown = true
	f.ftype = attr.Type
	return nil
}

// Read implements vfs.FS with page-granular caching. A canceled Op aborts
// between pages with EINTR, so interrupting a large read does not wait
// for the whole transfer.
func (c *Cache) Read(op *vfs.Op, h vfs.Handle, off int64, dest []byte) (int, error) {
	if err := op.Err(); err != nil {
		return 0, err
	}
	c.charge()
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.opens[h]
	if !ok {
		return 0, vfs.EBADF
	}
	if !st.flags.Readable() {
		return 0, vfs.EBADF
	}
	if st.direct {
		// Direct I/O bypasses the cache, so coherency requires writing
		// dirty pages back first (as the kernel does for O_DIRECT).
		if f, ok := c.files[st.ino]; ok {
			c.flushFileLocked(f)
		}
		// The backing read may block (a FIFO opened O_DIRECT); do not
		// hold the cache-wide mutex across it.
		c.mu.Unlock()
		n, err := c.backing.Read(op, h, off, dest)
		c.mu.Lock()
		if err == nil {
			c.opts.ChargeDisk.Read(n)
		}
		return n, err
	}
	f := c.file(st.ino)
	if err := c.ensureSize(op, st.ino, f); err != nil {
		return 0, err
	}
	if f.ftype == vfs.TypeFIFO {
		// Pipes bypass the page cache. Release the cache lock while the
		// read blocks waiting for data (or an interrupt): a stuck FIFO
		// reader must not wedge every other cached file.
		c.mu.Unlock()
		n, err := c.backing.Read(op, h, off, dest)
		c.mu.Lock()
		return n, err
	}
	if off < 0 {
		return 0, vfs.EINVAL
	}
	if off >= f.size {
		return 0, nil
	}
	want := int64(len(dest))
	if off+want > f.size {
		want = f.size - off
	}
	read := int64(0)
	for read < want {
		if err := op.Err(); err != nil {
			if read > 0 {
				break
			}
			return 0, err
		}
		pos := off + read
		idx, po := pos/PageSize, pos%PageSize
		out := dest[read : read+min(PageSize-po, want-read)]
		read += int64(len(out))
		if p := f.pages[idx]; p != nil {
			c.stats.Hits++
			c.clock.Advance(c.model.PageCacheHit)
			copy(out, p.data[po:])
			continue
		}
		c.stats.Misses++
		// A miss that continues a sequential pattern is worth a readahead
		// window; any other miss fetches its page alone — a whole window
		// per random miss would be pure read amplification.
		ahead := pos >= f.lastReadEnd-PageSize && pos <= f.lastReadEnd+PageSize
		got, err := c.fill(op, h, f, idx, ahead)
		if err != nil {
			return int(pos - off), err
		}
		// Keep the sequential detector current within this call so the
		// next miss in a long read continues the readahead.
		f.lastReadEnd = idx*PageSize + int64(len(got))
		// Served from the window, as the page was filled from it: a later
		// insert of the same window may have evicted the page and handed
		// its memory to another. Where the backing came up short is a hole
		// or a region only the cached size covers, which reads as zeros.
		served := 0
		if po < int64(len(got)) {
			served = copy(out, got[po:])
		}
		clear(out[served:])
	}
	f.lastReadEnd = off + read
	return int(read), nil
}

// windowSize is the length of the window to read at start: ReadAhead
// when reading ahead, otherwise one page, clamped to the file size.
// Caller holds c.mu.
func (c *Cache) windowSize(f *fileCache, start int64, ahead bool) int64 {
	size := int64(PageSize)
	if ahead && c.opts.ReadAhead > PageSize {
		size = c.opts.ReadAhead
	}
	return min(size, f.size-start)
}

// fill is the one way into the cache: it turns the miss on page idx into
// a blocking backing read and the bytes read into pages. The window is
// one page, or a ReadAhead window when the caller wants to read ahead.
// fill returns the bytes the backing returned from page idx on, for the
// caller to serve from until the next fill, which may reuse their
// storage. It returns no page: the pages of one window are inserted one
// after another, and under budget pressure a later one may evict an
// earlier one and take over its memory. Caller holds c.mu.
func (c *Cache) fill(op *vfs.Op, h vfs.Handle, f *fileCache, idx int64, ahead bool) ([]byte, error) {
	start := idx * PageSize
	// The read never asks for less than a page, even at the tail of the
	// file. It lands in the cache's rbuf: every caller is done with what
	// fill returns before the next fill.
	buf := scratch(&c.rbuf, int(max(c.windowSize(f, start, ahead), PageSize)))
	n, err := c.backing.Read(op, h, start, buf)
	if err != nil {
		return nil, err
	}
	c.opts.ChargeDisk.Read(n)
	// A cached page is never older than the window, so only absent pages
	// are installed, and they are allocated together. Pages dirty now stay
	// excluded even once an insert below has evicted, and thereby flushed,
	// them: the window predates that flush.
	var dirty []int64
	var absent batch
	for k := idx; (k-idx)*PageSize < int64(n); k++ {
		if q := f.pages[k]; q == nil {
			absent.coming++
		} else if q.dirty > 0 {
			dirty = append(dirty, k)
		}
	}
	for k := idx; (k-idx)*PageSize < int64(n); k++ {
		if f.pages[k] != nil || slices.Contains(dirty, k) {
			continue
		}
		lo := (k - idx) * PageSize
		c.insertPage(f, k, buf[lo:min(lo+PageSize, int64(n))], &absent)
	}
	return buf[:n], nil
}

// fillForWrite fetches page idx for a read-modify-write on the handle h.
// The kernel reads such a page through the mapping, not through the
// writer's descriptor, so a handle opened O_WRONLY, which the backing
// would refuse to read from, borrows a read-only one opened as the
// kernel: the caller's access mode was checked when h was opened and is
// not widened. Like fill, it returns the bytes read. Caller holds c.mu.
func (c *Cache) fillForWrite(op *vfs.Op, h vfs.Handle, st openState, f *fileCache, idx int64) ([]byte, error) {
	if !st.flags.Readable() {
		rh, err := c.backing.Open(wbOp, st.ino, vfs.ORdonly)
		if err != nil {
			return nil, err
		}
		defer c.backing.Release(wbOp, rh)
		op, h = wbOp, rh
	}
	return c.fill(op, h, f, idx, false)
}

// Write implements vfs.FS. In writeback mode dirty data accumulates in
// cache pages and is flushed in batched extents; otherwise writes pass
// through. Either way the security.capability xattr is consulted first,
// mirroring the kernel's file-capability check on every write(2) — the
// lookup the paper identifies as the Apache/IOZone write overhead when the
// backing filesystem is FUSE.
func (c *Cache) Write(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	if err := op.Err(); err != nil {
		return 0, err
	}
	c.charge()
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.opens[h]
	if !ok {
		return 0, vfs.EBADF
	}
	if !st.flags.Writable() {
		return 0, vfs.EBADF
	}
	_, err := c.backing.Getxattr(op, st.ino, vfs.XattrSecurityCapability)
	if err != nil {
		if e := vfs.ToErrno(err); e != vfs.ENODATA && e != vfs.EOPNOTSUPP {
			return 0, err
		}
	}
	if err := c.killPrivsLocked(op, st, err == nil); err != nil {
		return 0, err
	}
	f := c.file(st.ino)
	if st.direct || !c.opts.Writeback {
		if st.flags&vfs.OAppend != 0 {
			return c.appendThrough(op, h, f, off, data)
		}
		n, err := c.writeOut(op, h, off, data)
		if err != nil {
			return n, err
		}
		c.wrote(f, off, data[:n])
		return n, nil
	}
	if err := c.ensureSize(op, st.ino, f); err != nil {
		return 0, err
	}
	if f.ftype == vfs.TypeFIFO {
		// Pipe writes go straight through so blocked readers wake now,
		// not at writeback time.
		c.mu.Unlock()
		n, err := c.backing.Write(op, h, off, data)
		c.mu.Lock()
		return n, err
	}
	if st.flags&vfs.OAppend != 0 {
		off = f.size
	}
	if off < 0 {
		return 0, vfs.EINVAL
	}
	if limit := op.Cred.FSizeLimit; limit > 0 {
		if off >= limit {
			return 0, vfs.EFBIG
		}
		if off+int64(len(data)) > limit {
			data = data[:limit-off]
		}
	}
	// h can carry writeback from here on: an insert below may have to
	// evict, and so flush, a page this very call dirtied.
	f.wbHandle, f.wbValid = h, true
	// A write whose one blank page is at or past the cached end of file is
	// a growth step. One that goes on where the last left off, on the same
	// file, cuts its page from the run the file is growing into; any other
	// starts that record afresh, with a run of one page.
	n, first := f.blankPages(off, int64(len(data)))
	blank := batch{coming: n, grow: n == 1 && first*PageSize >= f.size}
	if blank.grow && (c.grow.ino != st.ino || c.grow.next != first) {
		c.grow = growth{ino: st.ino, next: first}
	}
	written := int64(0)
	for written < int64(len(data)) {
		if err := op.Err(); err != nil {
			if written > 0 {
				break
			}
			return 0, err
		}
		pos := off + written
		idx, po := pos/PageSize, pos%PageSize
		chunk := data[written : written+min(PageSize-po, int64(len(data))-written)]
		p := f.pages[idx]
		if p == nil {
			// A partial page overlapping existing data is fetched first
			// (read-modify-write); fully covered or beyond-EOF pages are
			// created blank, all of them together. The fetch is a one-page
			// window, so its own insert cannot have evicted the page.
			var got []byte
			if len(chunk) != PageSize && idx*PageSize < f.size {
				var err error
				if got, err = c.fillForWrite(op, h, st, f, idx); err != nil {
					return int(written), err
				}
				c.stats.Misses++
				p = f.pages[idx]
			}
			if p == nil {
				p = c.insertPage(f, idx, got, &blank)
			}
		}
		if p != nil {
			if p.dirty == 0 {
				p.dirtyLo, p.dirtyHi = po, po
			}
			p.dirtyLo = min(p.dirtyLo, po)
			p.dirtyHi = max(p.dirtyHi, po+int64(len(chunk)))
			p.dirty += int64(len(chunk))
			f.dirtyBytes += int64(len(chunk))
		} else {
			// No cache space: this chunk goes straight to the backing.
			n, err := c.writeOut(op, h, pos, chunk)
			if err != nil {
				return int(written), err
			}
			chunk = chunk[:n]
		}
		c.wrote(f, pos, chunk)
		written += int64(len(chunk))
	}
	if blank.grow {
		c.grow.next = (off + written + PageSize - 1) / PageSize
	}
	f.mtimeBump++
	if f.dirtyBytes >= c.opts.DirtyWindow || st.flags&vfs.OSync == vfs.OSync {
		// Window overflow or O_SYNC: write back now (O_SYNC semantics
		// require the data on stable storage before write(2) returns).
		c.flushFileLocked(f)
		if st.flags&vfs.OSync == vfs.OSync {
			err := f.takeWbErr()
			if err == nil {
				// A full sync, not datasync: generic_write_sync asks for
				// datasync only without IOCB_SYNC (O_DSYNC), and O_SYNC sets
				// both bits.
				err = c.backing.Fsync(op, h, false)
			}
			if err != nil {
				return 0, err // as generic_write_sync: the error replaces the count
			}
			c.opts.ChargeDisk.Write(0) // device barrier
		}
	}
	c.clock.Advance(c.model.CopyCost(int(written)))
	return int(written), nil
}

// blankPages counts the pages a write of n bytes at off creates blank —
// absent, and wholly overwritten or at or past the cached end of file —
// and returns the index of the first. Caller holds c.mu.
func (f *fileCache) blankPages(off, n int64) (count int, first int64) {
	for idx := off / PageSize; idx*PageSize < off+n; idx++ {
		whole := idx*PageSize >= off && (idx+1)*PageSize <= off+n
		if f.pages[idx] == nil && (whole || idx*PageSize >= f.size) {
			if count == 0 {
				first = idx
			}
			count++
		}
	}
	return count, first
}

// appendThrough passes an O_APPEND write to the backing, which puts it at
// its own end of file. Dirty pages go back first, as the kernel's direct
// write path writes the range back before it, so that end is the cached
// one. The cache learns no offset, so afterwards its size, its readahead
// windows and every page from the one holding the old end on are out of
// date; when the old end was not known, every page is. Caller holds c.mu.
func (c *Cache) appendThrough(op *vfs.Op, h vfs.Handle, f *fileCache, off int64, data []byte) (int, error) {
	c.flushFileLocked(f)
	n, err := c.writeOut(op, h, off, data)
	stale := int64(0)
	if f.valid {
		stale = f.size / PageSize
	}
	for idx, p := range f.pages {
		if idx >= stale {
			c.dropPage(p)
		}
	}
	f.valid = false
	return n, err
}

// wrote is the one bookkeeping step after user bytes have landed at off,
// in a dirty page or in the backing: cached pages take the new bytes and
// the cached size grows with them. It runs per chunk, as data lands, so
// an eviction triggered by the next page's insert does not clamp this
// page's flush to a stale length. Caller holds c.mu.
func (c *Cache) wrote(f *fileCache, off int64, data []byte) {
	for done := int64(0); done < int64(len(data)); {
		pos := off + done
		chunk := min(PageSize-pos%PageSize, int64(len(data))-done)
		if p := f.pages[pos/PageSize]; p != nil {
			copy(p.data[pos%PageSize:], data[done:done+chunk])
		}
		done += chunk
	}
	f.size = max(f.size, off+int64(len(data)))
}

// killPrivsLocked emulates the kernel's file_remove_privs on write(2).
// File capabilities (hasCaps: the security.capability lookup found a
// value) are dropped whoever writes — cap_inode_killpriv asks for neither
// ownership nor CAP_FSETID, so the removal runs as the kernel — and a
// write whose capabilities cannot be dropped fails. And when an
// unprivileged caller writes a setuid/setgid file, the kernel — not the
// filesystem — clears the bits, folding a SETATTR into the write path.
// Caller holds c.mu.
func (c *Cache) killPrivsLocked(op *vfs.Op, st openState, hasCaps bool) error {
	if hasCaps {
		err := c.backing.Removexattr(wbOp, st.ino, vfs.XattrSecurityCapability)
		if e := vfs.ToErrno(err); e != vfs.OK && e != vfs.ENODATA {
			return err
		}
	}
	f := c.file(st.ino)
	if !f.modeKnown {
		if err := c.ensureSize(op, st.ino, f); err != nil {
			return nil
		}
	}
	if op.Cred.Caps.Has(vfs.CapFsetid) {
		return nil
	}
	kill := f.mode&vfs.ModeSetUID != 0 || (f.mode&vfs.ModeSetGID != 0 && f.mode&0o010 != 0)
	if !kill {
		return nil
	}
	mode := f.mode &^ vfs.ModeSetUID
	if mode&0o010 != 0 {
		mode &^= vfs.ModeSetGID
	}
	if _, err := c.backing.Setattr(op, st.ino, vfs.SetMode, vfs.Attr{Mode: mode}); err == nil {
		f.mode = mode
	}
	return nil
}

// writeOut is the one way out of the cache: a blocking backing.Write of
// data at off on op/h, what lands charged to the disk. Caller holds c.mu.
func (c *Cache) writeOut(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	n, err := c.backing.Write(op, h, off, data)
	if err == nil {
		c.opts.ChargeDisk.Write(n)
	}
	return n, err
}

// flushPagesLocked writes the dirty pages idxs of f (ascending) back in
// coalesced extents capped at MaxWriteSize and marks them clean. It is
// the only writeback: a whole-file flush passes every dirty page, an
// eviction passes one. Each extent is assembled in wbuf and written
// before the next. A failed write leaves its pages clean
// all the same, as in Linux; the first such error is kept on the file for
// the next close, fsync or O_SYNC write to report. Caller holds c.mu.
func (c *Cache) flushPagesLocked(f *fileCache, idxs []int64) {
	var err error
	for i := 0; i < len(idxs); {
		j := i
		for j+1 < len(idxs) && idxs[j+1] == idxs[j]+1 &&
			int64(j+1-i+1)*PageSize <= c.opts.MaxWriteSize {
			j++
		}
		// The extent runs from the first page's first dirty byte to the
		// last page's last, never past the file's end.
		start := idxs[i]*PageSize + f.pages[idxs[i]].dirtyLo
		end := min(idxs[j]*PageSize+f.pages[idxs[j]].dirtyHi, f.size)
		buf := scratch(&c.wbuf, int(end-start))[:0]
		for k := idxs[i]; k <= idxs[j]; k++ {
			p := f.pages[k]
			if lo, hi := max(start-k*PageSize, 0), min(end-k*PageSize, PageSize); hi > lo {
				buf = append(buf, p.data[lo:hi]...)
			}
			f.clean(p)
		}
		i = j + 1
		if len(buf) == 0 {
			continue
		}
		c.stats.FlushedExt++
		c.stats.FlushedB += int64(len(buf))
		if _, werr := c.writeOut(wbOp, f.wbHandle, start, buf); werr != nil && err == nil {
			err = werr
		}
		scrub(c.wbuf)
	}
	if err != nil && f.wbErr == nil {
		f.wbErr = err
	}
}

// flushFileLocked writes out every dirty page of f. Caller holds c.mu.
func (c *Cache) flushFileLocked(f *fileCache) {
	if f.dirtyBytes == 0 || !f.wbValid {
		return
	}
	c.dirty = c.dirty[:0]
	for idx, p := range f.pages {
		if p.dirty > 0 {
			c.dirty = append(c.dirty, idx)
		}
	}
	slices.Sort(c.dirty)
	c.flushPagesLocked(f, c.dirty)
	// Dirty data is gone: zombie handles kept for writeback can go too.
	for _, zh := range f.zombies {
		if f.wbValid && f.wbHandle == zh {
			f.wbValid = false
		}
		c.backing.Release(wbOp, zh)
	}
	f.zombies = nil
}

// backingFlags is what the backing file is opened with for the caller's
// flags. A writeback cache resolves O_APPEND itself — Write puts the data
// at the cached size — and writes dirty pages back at their own offsets
// through whichever writable handle is at hand, as the kernel writes back
// through the mapping. A backing handle that still carried the flag would
// move every such extent to the backing's end of file, so the flag stays
// up here: what a FUSE server does under FUSE_WRITEBACK_CACHE (libfuse
// passthrough_ll, lo_open). A direct handle's writes pass straight
// through, and there the backing picks the offset.
func (c *Cache) backingFlags(flags vfs.OpenFlags) vfs.OpenFlags {
	if c.opts.Writeback && flags&vfs.ODirect == 0 {
		flags &^= vfs.OAppend
	}
	return flags
}

// Open implements vfs.FS. Without KeepCache the file's pages are
// invalidated, which is what makes the cache unshareable across processes
// in stock FUSE (Figure 3a).
func (c *Cache) Open(op *vfs.Op, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	c.charge()
	h, err := c.backing.Open(op, ino, c.backingFlags(flags))
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.opts.KeepCache {
		if err := c.invalidate(ino); err != nil {
			c.file(ino).wbErr = err // for whoever syncs the file next
		}
	}
	if flags&vfs.OTrunc != 0 && flags.Writable() {
		c.invalidateNoFlush(ino)
		f := c.file(ino)
		f.size, f.valid = 0, true
	}
	c.opens[h] = openState{ino: ino, flags: flags, direct: flags&vfs.ODirect != 0}
	fc := c.file(ino)
	fc.openHandles++
	if flags.Writable() && c.opts.Writeback {
		fc.wbHandle, fc.wbValid = h, true
	}
	return h, nil
}

// Create implements vfs.FS.
func (c *Cache) Create(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode, flags vfs.OpenFlags) (vfs.Attr, vfs.Handle, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	attr, h, err := c.backing.Create(op, parent, name, mode, c.backingFlags(flags))
	if err != nil {
		return attr, h, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.opens[h] = openState{ino: attr.Ino, flags: flags, direct: flags&vfs.ODirect != 0}
	f := c.file(attr.Ino)
	f.size, f.valid = 0, true
	f.mode, f.modeKnown = attr.Mode, true
	f.ftype = attr.Type
	f.openHandles++
	if flags.Writable() && c.opts.Writeback {
		f.wbHandle, f.wbValid = h, true
	}
	return attr, h, nil
}

// Flush implements vfs.FS: called on close(2). With FlushOnClose (the
// FUSE behaviour) dirty data is written back now, and a writeback that
// failed, now or earlier, is what close reports, ahead of the backing's
// own flush as in fuse_flush; otherwise (native behaviour) it stays dirty
// for background writeback.
func (c *Cache) Flush(op *vfs.Op, h vfs.Handle) error {
	c.charge()
	if c.opts.FlushOnClose {
		if err := c.syncFile(h); err != nil {
			return err
		}
	}
	return c.backing.Flush(op, h)
}

// syncFile writes out every dirty page of the file open as h and reports
// the file's first unreported writeback error.
func (c *Cache) syncFile(h vfs.Handle) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.opens[h]
	if !ok {
		return nil
	}
	f := c.file(st.ino)
	c.flushFileLocked(f)
	return f.takeWbErr()
}

// Fsync implements vfs.FS: flush dirty pages then issue a barrier.
func (c *Cache) Fsync(op *vfs.Op, h vfs.Handle, datasync bool) error {
	c.charge()
	if err := c.syncFile(h); err != nil {
		return err
	}
	// Journal commit / cache barrier: one small device round trip.
	c.opts.ChargeDisk.Write(0)
	return c.backing.Fsync(op, h, datasync)
}

// Release implements vfs.FS.
func (c *Cache) Release(op *vfs.Op, h vfs.Handle) error {
	c.mu.Lock()
	keepBacking := false
	if st, ok := c.opens[h]; ok {
		f := c.file(st.ino)
		if f.wbValid && f.wbHandle == h {
			if c.opts.FlushOnClose {
				c.flushFileLocked(f)
				f.wbValid = false
			} else if f.dirtyBytes > 0 {
				// Keep the backing handle alive for background
				// writeback of the remaining dirty data.
				f.zombies = append(f.zombies, h)
				keepBacking = true
			} else {
				f.wbValid = false
			}
		}
		if f.openHandles > 0 {
			f.openHandles--
		}
		delete(c.opens, h)
	}
	c.mu.Unlock()
	if keepBacking {
		return nil
	}
	return c.backing.Release(op, h)
}

// Setattr implements vfs.FS; truncation invalidates pages beyond the new
// size and updates the cached length.
func (c *Cache) Setattr(op *vfs.Op, ino vfs.Ino, mask vfs.SetattrMask, attr vfs.Attr) (vfs.Attr, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	c.mu.Lock()
	if mask.Has(vfs.SetMode) {
		if f, ok := c.files[ino]; ok {
			f.mode, f.modeKnown = attr.Mode, true
		}
	}
	if mask.Has(vfs.SetSize) {
		if f, ok := c.files[ino]; ok {
			c.flushFileLocked(f)
			for idx, p := range f.pages {
				if idx*PageSize >= attr.Size {
					c.dropPage(p)
				}
			}
			// Zero the cached tail of the boundary page, as the kernel
			// does, so a later size extension reads zeros rather than
			// stale bytes.
			if attr.Size%PageSize != 0 {
				if p, ok := f.pages[attr.Size/PageSize]; ok {
					for i := attr.Size % PageSize; i < PageSize; i++ {
						p.data[i] = 0
					}
				}
			}
			f.size, f.valid = attr.Size, true
		}
	}
	c.mu.Unlock()
	return c.backing.Setattr(op, ino, mask, attr)
}

// overlayDirtyState folds writeback state the backing filesystem has not
// seen yet (size growth, timestamp advances) into attributes.
func (c *Cache) overlayDirtyState(attr *vfs.Attr) {
	c.mu.Lock()
	if f, ok := c.files[attr.Ino]; ok {
		if f.valid && f.size > attr.Size {
			attr.Size = f.size
		}
		if f.mtimeBump > 0 {
			// Dirty data in the writeback cache: the kernel owns the
			// timestamps until flush.
			bump := time.Duration(f.mtimeBump) * time.Microsecond
			attr.Mtime = attr.Mtime.Add(bump)
			attr.Ctime = attr.Ctime.Add(bump)
		}
	}
	c.mu.Unlock()
}

// Getattr implements vfs.FS, overlaying the cached (possibly dirty) size.
func (c *Cache) Getattr(op *vfs.Op, ino vfs.Ino) (vfs.Attr, error) {
	c.charge()
	attr, err := c.backing.Getattr(op, ino)
	if err != nil {
		return attr, err
	}
	c.overlayDirtyState(&attr)
	return attr, nil
}

// Lookup implements vfs.FS, with the same dirty-state overlay as Getattr.
func (c *Cache) Lookup(op *vfs.Op, parent vfs.Ino, name string) (vfs.Attr, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	attr, err := c.backing.Lookup(op, parent, name)
	if err != nil {
		return attr, err
	}
	c.overlayDirtyState(&attr)
	return attr, nil
}

// Forget implements vfs.FS.
func (c *Cache) Forget(op *vfs.Op, ino vfs.Ino, nlookup uint64) { c.backing.Forget(op, ino, nlookup) }

// Mknod implements vfs.FS.
func (c *Cache) Mknod(op *vfs.Op, parent vfs.Ino, name string, typ vfs.FileType, mode vfs.Mode, rdev uint32) (vfs.Attr, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	return c.backing.Mknod(op, parent, name, typ, mode, rdev)
}

// Mkdir implements vfs.FS.
func (c *Cache) Mkdir(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode) (vfs.Attr, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	return c.backing.Mkdir(op, parent, name, mode)
}

// Symlink implements vfs.FS.
func (c *Cache) Symlink(op *vfs.Op, parent vfs.Ino, name, target string) (vfs.Attr, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	return c.backing.Symlink(op, parent, name, target)
}

// Readlink implements vfs.FS.
func (c *Cache) Readlink(op *vfs.Op, ino vfs.Ino) (string, error) {
	c.charge()
	return c.backing.Readlink(op, ino)
}

// Unlink implements vfs.FS. Dirty pages of removed files are discarded —
// Postmark's files often die before ever reaching the disk.
func (c *Cache) Unlink(op *vfs.Op, parent vfs.Ino, name string) error {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	attr, err := c.backing.Lookup(op, parent, name)
	if err == nil {
		c.mu.Lock()
		if f, ok := c.files[attr.Ino]; ok && attr.Nlink <= 1 && f.openHandles == 0 {
			// Last link and nobody has it open: drop the pages, dirty
			// or not — Postmark's files die before reaching the disk.
			c.dropFileLocked(attr.Ino, f)
		}
		c.mu.Unlock()
		c.backing.Forget(op, attr.Ino, 1)
	}
	return c.backing.Unlink(op, parent, name)
}

// Rmdir implements vfs.FS.
func (c *Cache) Rmdir(op *vfs.Op, parent vfs.Ino, name string) error {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	return c.backing.Rmdir(op, parent, name)
}

// Rename implements vfs.FS.
func (c *Cache) Rename(op *vfs.Op, oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string, flags vfs.RenameFlags) error {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	return c.backing.Rename(op, oldParent, oldName, newParent, newName, flags)
}

// Link implements vfs.FS.
func (c *Cache) Link(op *vfs.Op, ino vfs.Ino, parent vfs.Ino, name string) (vfs.Attr, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	return c.backing.Link(op, ino, parent, name)
}

// Opendir implements vfs.FS.
func (c *Cache) Opendir(op *vfs.Op, ino vfs.Ino) (vfs.Handle, error) {
	c.charge()
	h, err := c.backing.Opendir(op, ino)
	if err == nil {
		c.mu.Lock()
		c.opens[h] = openState{ino: ino, flags: vfs.ORdonly}
		c.mu.Unlock()
	}
	return h, err
}

// Readdir implements vfs.FS.
func (c *Cache) Readdir(op *vfs.Op, h vfs.Handle, off int64) ([]vfs.Dirent, error) {
	c.charge()
	c.clock.Advance(c.model.InodeOp)
	return c.backing.Readdir(op, h, off)
}

// Releasedir implements vfs.FS.
func (c *Cache) Releasedir(op *vfs.Op, h vfs.Handle) error {
	c.mu.Lock()
	delete(c.opens, h)
	c.mu.Unlock()
	return c.backing.Releasedir(op, h)
}

// Statfs implements vfs.FS.
func (c *Cache) Statfs(op *vfs.Op, ino vfs.Ino) (vfs.StatfsOut, error) {
	c.charge()
	return c.backing.Statfs(op, ino)
}

// Setxattr implements vfs.FS.
func (c *Cache) Setxattr(op *vfs.Op, ino vfs.Ino, name string, value []byte, flags vfs.XattrFlags) error {
	c.charge()
	return c.backing.Setxattr(op, ino, name, value, flags)
}

// Getxattr implements vfs.FS.
func (c *Cache) Getxattr(op *vfs.Op, ino vfs.Ino, name string) ([]byte, error) {
	c.charge()
	return c.backing.Getxattr(op, ino, name)
}

// Listxattr implements vfs.FS.
func (c *Cache) Listxattr(op *vfs.Op, ino vfs.Ino) ([]string, error) {
	c.charge()
	return c.backing.Listxattr(op, ino)
}

// Removexattr implements vfs.FS.
func (c *Cache) Removexattr(op *vfs.Op, ino vfs.Ino, name string) error {
	c.charge()
	return c.backing.Removexattr(op, ino, name)
}

// Access implements vfs.FS.
func (c *Cache) Access(op *vfs.Op, ino vfs.Ino, mask uint32) error {
	c.charge()
	return c.backing.Access(op, ino, mask)
}

// Fallocate implements vfs.FS.
func (c *Cache) Fallocate(op *vfs.Op, h vfs.Handle, mode uint32, off, length int64) error {
	c.charge()
	c.mu.Lock()
	var err error
	if st, ok := c.opens[h]; ok {
		// Flush dirty data and drop every cached page and in-flight
		// readahead window *before* the backing extents change — the
		// kernel's flush-then-punch order. Flushing afterwards would
		// write pre-punch data back over the hole.
		err = c.invalidate(st.ino)
	}
	c.mu.Unlock()
	if err != nil {
		return err // the flush failed: nothing is punched
	}
	err = c.backing.Fallocate(op, h, mode, off, length)
	if err == nil {
		c.mu.Lock()
		if st, ok := c.opens[h]; ok {
			// Discard (without flushing) anything a racing read or write
			// repopulated while the punch was in flight; its ordering
			// against the punch is undefined and its pages may predate it.
			c.invalidateNoFlush(st.ino)
		}
		c.mu.Unlock()
	}
	return err
}

// NameToHandle implements vfs.HandleExporter by delegation: the kernel
// exports handles whenever the underlying filesystem can (ext4 can; a
// FUSE connection cannot, which is xfstests #426).
func (c *Cache) NameToHandle(ino vfs.Ino) ([]byte, error) {
	if ex, ok := c.backing.(vfs.HandleExporter); ok {
		return ex.NameToHandle(ino)
	}
	return nil, vfs.EOPNOTSUPP
}

// OpenByHandle implements vfs.HandleExporter by delegation.
func (c *Cache) OpenByHandle(handle []byte) (vfs.Ino, error) {
	if ex, ok := c.backing.(vfs.HandleExporter); ok {
		return ex.OpenByHandle(handle)
	}
	return 0, vfs.EOPNOTSUPP
}

// SyncFS flushes every dirty page (sync(2)).
func (c *Cache) SyncFS() error {
	c.mu.Lock()
	for _, f := range c.files {
		c.flushFileLocked(f)
	}
	c.mu.Unlock()
	if s, ok := c.backing.(vfs.SyncerFS); ok {
		return s.SyncFS()
	}
	return nil
}

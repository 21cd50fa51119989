package memfs

import (
	"cntr/internal/blobstore"
	"encoding/binary"
	"sort"

	"cntr/internal/vfs"
)

// Create implements vfs.FS: atomic create-and-open of a regular file.
func (fs *FS) Create(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode, flags vfs.OpenFlags) (vfs.Attr, vfs.Handle, error) {
	c := op.Cred
	fs.mu.Lock()
	defer fs.mu.Unlock()
	attr, err := fs.insertChild(c, parent, name, func(dir *inode) (*inode, error) {
		return fs.newInode(c, dir, vfs.TypeRegular, mode, 0), nil
	})
	if err != nil {
		return vfs.Attr{}, 0, err
	}
	h := fs.openLocked(attr.Ino, flags, false)
	return attr, h, nil
}

// Open implements vfs.FS.
func (fs *FS) Open(op *vfs.Op, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	c := op.Cred
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.get(ino)
	if err != nil {
		return 0, err
	}
	switch n.attr.Type {
	case vfs.TypeDirectory:
		if flags.Writable() {
			return 0, vfs.EISDIR
		}
	case vfs.TypeSymlink:
		return 0, vfs.ELOOP
	}
	if flags.Readable() && !c.MayRead(&n.attr) {
		return 0, vfs.EACCES
	}
	if flags.Writable() && !c.MayWrite(&n.attr) {
		return 0, vfs.EACCES
	}
	if flags&vfs.OTrunc != 0 && flags.Writable() && n.attr.Type == vfs.TypeRegular {
		if err := fs.truncate(n, 0); err != nil {
			return 0, err
		}
		now := fs.now()
		n.attr.Mtime, n.attr.Ctime = now, now
	}
	if n.attr.Type == vfs.TypeFIFO {
		// Count the pipe's open ends so reads see EOF once the last
		// writer closes and writes fail with EPIPE once readers are gone.
		// A nonblocking write-only open with no reader fails with ENXIO;
		// a *blocking* single-direction open parks until the peer end is
		// held, per fifo(7) — outside the filesystem lock, so a FIFO open
		// waiting for its peer cannot wedge the whole filesystem
		// (Read does the same for parked FIFO reads).
		p := n.pipeBuf()
		readable, writable := flags.Readable(), flags.Writable()
		fs.mu.Unlock()
		err := p.open(op, readable, writable, flags&vfs.ONonblock != 0)
		fs.mu.Lock()
		if err != nil {
			return 0, err
		}
		if _, gerr := fs.get(ino); gerr != nil {
			// The FIFO was unlinked and reaped while we parked; the end we
			// registered must not linger.
			p.release(readable, writable)
			return 0, gerr
		}
	}
	return fs.openLocked(ino, flags, false), nil
}

func (fs *FS) openLocked(ino vfs.Ino, flags vfs.OpenFlags, dir bool) vfs.Handle {
	h := fs.nextH
	fs.nextH++
	fs.handles[h] = openFile{ino: ino, flags: flags, dir: dir}
	fs.inodes[ino].openCount++
	return h
}

func (fs *FS) handle(h vfs.Handle) (openFile, *inode, error) {
	of, ok := fs.handles[h]
	if !ok {
		return openFile{}, nil, vfs.EBADF
	}
	n, err := fs.get(of.ino)
	if err != nil {
		return openFile{}, nil, err
	}
	return of, n, nil
}

// Read implements vfs.FS. Reads from a FIFO block until data arrives and
// unwind with EINTR when the operation is interrupted (the memfs-level
// half of FUSE_INTERRUPT support).
func (fs *FS) Read(op *vfs.Op, h vfs.Handle, off int64, dest []byte) (int, error) {
	if err := op.Err(); err != nil {
		return 0, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	of, n, err := fs.handle(h)
	if err != nil {
		return 0, err
	}
	if of.dir || n.attr.Type == vfs.TypeDirectory {
		return 0, vfs.EISDIR
	}
	if !of.flags.Readable() {
		return 0, vfs.EBADF
	}
	if n.attr.Type == vfs.TypeFIFO {
		p := n.pipeBuf()
		nonblock := of.flags&vfs.ONonblock != 0
		// Block outside the filesystem lock: a stuck FIFO reader must not
		// wedge the whole filesystem.
		fs.mu.Unlock()
		nr, rerr := p.read(op, dest, nonblock)
		fs.mu.Lock()
		return nr, rerr
	}
	if off < 0 {
		return 0, vfs.EINVAL
	}
	if off >= n.attr.Size {
		return 0, nil
	}
	want := int64(len(dest))
	if off+want > n.attr.Size {
		want = n.attr.Size - off
	}
	read := int64(0)
	for read < want {
		idx := (off + read) / blockSize
		bo := (off + read) % blockSize
		chunk := blockSize - bo
		if chunk > want-read {
			chunk = want - read
		}
		b, err := fs.readBlock(n, idx)
		if err != nil {
			// A lost or corrupted backend chunk: report what was read,
			// or the error if nothing was.
			if read > 0 {
				break
			}
			return 0, err
		}
		// The blob holds the block's written extent; holes and bytes
		// past the extent read as zeros.
		var copied int64
		if bo < int64(len(b)) {
			avail := int64(len(b)) - bo
			if avail > chunk {
				avail = chunk
			}
			copied = int64(copy(dest[read:read+avail], b[bo:bo+avail]))
		}
		for i := read + copied; i < read+chunk; i++ {
			dest[i] = 0
		}
		read += chunk
	}
	n.attr.Atime = fs.now()
	return int(read), nil
}

// Write implements vfs.FS, honouring O_APPEND, RLIMIT_FSIZE, capacity
// limits, and clearing setuid/setgid bits on writes by unprivileged
// callers.
func (fs *FS) Write(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	c := op.Cred
	if err := op.Err(); err != nil {
		return 0, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	of, n, err := fs.handle(h)
	if err != nil {
		return 0, err
	}
	if of.dir || n.attr.Type == vfs.TypeDirectory {
		return 0, vfs.EISDIR
	}
	if !of.flags.Writable() {
		return 0, vfs.EBADF
	}
	if n.attr.Type == vfs.TypeFIFO {
		return n.pipeBuf().write(data)
	}
	if off < 0 {
		return 0, vfs.EINVAL
	}
	if of.flags&vfs.OAppend != 0 {
		off = n.attr.Size
	}
	if c.FSizeLimit > 0 {
		if off >= c.FSizeLimit {
			return 0, vfs.EFBIG
		}
		if off+int64(len(data)) > c.FSizeLimit {
			data = data[:c.FSizeLimit-off]
		}
	}
	written := int64(0)
	for written < int64(len(data)) {
		idx := (off + written) / blockSize
		bo := (off + written) % blockSize
		chunk := int64(blockSize) - bo
		if chunk > int64(len(data))-written {
			chunk = int64(len(data)) - written
		}
		if err := fs.writeBlock(n, idx, bo, data[written:written+chunk]); err != nil {
			if written > 0 {
				break
			}
			return 0, err
		}
		written += chunk
	}
	if off+written > n.attr.Size {
		n.attr.Size = off + written
	}
	now := fs.now()
	n.attr.Mtime, n.attr.Ctime = now, now
	if !c.Caps.Has(vfs.CapFsetid) {
		n.attr.Mode &^= vfs.ModeSetUID
		if n.attr.Mode&0o010 != 0 {
			n.attr.Mode &^= vfs.ModeSetGID
		}
	}
	return int(written), nil
}

// Flush implements vfs.FS. memfs has no dirty state to write out.
func (fs *FS) Flush(op *vfs.Op, h vfs.Handle) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, _, err := fs.handle(h)
	return err
}

// Fsync implements vfs.FS.
func (fs *FS) Fsync(op *vfs.Op, h vfs.Handle, datasync bool) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, _, err := fs.handle(h)
	return err
}

// Release implements vfs.FS.
func (fs *FS) Release(op *vfs.Op, h vfs.Handle) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	of, ok := fs.handles[h]
	if !ok {
		return vfs.EBADF
	}
	delete(fs.handles, h)
	if n, ok := fs.inodes[of.ino]; ok {
		if n.attr.Type == vfs.TypeFIFO && !of.dir {
			n.pipeBuf().release(of.flags.Readable(), of.flags.Writable())
		}
		n.openCount--
		fs.maybeReap(of.ino, n)
	}
	return nil
}

// Opendir implements vfs.FS.
func (fs *FS) Opendir(op *vfs.Op, ino vfs.Ino) (vfs.Handle, error) {
	c := op.Cred
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.getDir(c, ino)
	if err != nil {
		return 0, err
	}
	if !c.MayRead(&n.attr) {
		return 0, vfs.EACCES
	}
	return fs.openLocked(ino, vfs.ORdonly, true), nil
}

// Readdir implements vfs.FS. Entries are returned in a stable sorted
// order; offsets are 1-based positions in that order with "." and ".."
// first, matching what getdents callers expect.
func (fs *FS) Readdir(op *vfs.Op, h vfs.Handle, off int64) ([]vfs.Dirent, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	of, n, err := fs.handle(h)
	if err != nil {
		return nil, err
	}
	if !of.dir {
		return nil, vfs.ENOTDIR
	}
	if n.attr.Nlink == 0 {
		return nil, vfs.ENOENT // removed while open (removeDir)
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	all := make([]vfs.Dirent, 0, len(names)+2)
	all = append(all,
		vfs.Dirent{Name: ".", Ino: of.ino, Type: vfs.TypeDirectory},
		vfs.Dirent{Name: "..", Ino: n.parent, Type: vfs.TypeDirectory},
	)
	for _, name := range names {
		ci := n.children[name]
		child, ok := fs.inodes[ci]
		if !ok {
			continue
		}
		all = append(all, vfs.Dirent{Name: name, Ino: ci, Type: child.attr.Type})
	}
	for i := range all {
		all[i].Off = int64(i + 1)
	}
	if off < 0 || off >= int64(len(all)) {
		return nil, nil
	}
	return all[off:], nil
}

// Releasedir implements vfs.FS.
func (fs *FS) Releasedir(op *vfs.Op, h vfs.Handle) error { return fs.Release(op, h) }

// Statfs implements vfs.FS.
func (fs *FS) Statfs(op *vfs.Op, ino vfs.Ino) (vfs.StatfsOut, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	total := uint64(fs.cap / blockSize)
	used := uint64(fs.used / blockSize)
	return vfs.StatfsOut{
		BlockSize:  blockSize,
		Blocks:     total,
		BlocksFree: total - used,
		Files:      uint64(len(fs.inodes)),
		FilesFree:  1 << 20,
		NameMax:    vfs.MaxNameLen,
	}, nil
}

// Setxattr implements vfs.FS. Setting a POSIX access ACL re-derives the
// group permission bits from the ACL mask entry, as Linux does.
func (fs *FS) Setxattr(op *vfs.Op, ino vfs.Ino, name string, value []byte, flags vfs.XattrFlags) error {
	c := op.Cred
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.get(ino)
	if err != nil {
		return err
	}
	if name == "" {
		return vfs.EINVAL
	}
	if !c.IsOwner(&n.attr) && !c.Caps.Has(vfs.CapFowner) {
		return vfs.EPERM
	}
	_, exists := n.xattrs[name]
	if flags&vfs.XattrCreate != 0 && exists {
		return vfs.EEXIST
	}
	if flags&vfs.XattrReplace != 0 && !exists {
		return vfs.ENODATA
	}
	if name == vfs.XattrPosixACLAccess {
		acl, err := vfs.DecodeACL(value)
		if err != nil {
			return err
		}
		if mask := acl.Find(vfs.ACLMask); mask != nil {
			n.attr.Mode = n.attr.Mode&^0o070 | vfs.Mode(mask.Perm&7)<<3
		}
	}
	if n.xattrs == nil {
		n.xattrs = make(map[string][]byte)
	}
	n.xattrs[name] = append([]byte(nil), value...)
	n.attr.Ctime = fs.now()
	return nil
}

// Getxattr implements vfs.FS.
func (fs *FS) Getxattr(op *vfs.Op, ino vfs.Ino, name string) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.get(ino)
	if err != nil {
		return nil, err
	}
	v, ok := n.xattrs[name]
	if !ok {
		return nil, vfs.ENODATA
	}
	return append([]byte(nil), v...), nil
}

// Listxattr implements vfs.FS.
func (fs *FS) Listxattr(op *vfs.Op, ino vfs.Ino) ([]string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.get(ino)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(n.xattrs))
	for name := range n.xattrs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// Removexattr implements vfs.FS.
func (fs *FS) Removexattr(op *vfs.Op, ino vfs.Ino, name string) error {
	c := op.Cred
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.get(ino)
	if err != nil {
		return err
	}
	if !c.IsOwner(&n.attr) && !c.Caps.Has(vfs.CapFowner) {
		return vfs.EPERM
	}
	if _, ok := n.xattrs[name]; !ok {
		return vfs.ENODATA
	}
	delete(n.xattrs, name)
	n.attr.Ctime = fs.now()
	return nil
}

// Access implements vfs.FS.
func (fs *FS) Access(op *vfs.Op, ino vfs.Ino, mask uint32) error {
	c := op.Cred
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.get(ino)
	if err != nil {
		return err
	}
	if mask&vfs.AccessRead != 0 && !c.MayRead(&n.attr) {
		return vfs.EACCES
	}
	if mask&vfs.AccessWrite != 0 && !c.MayWrite(&n.attr) {
		return vfs.EACCES
	}
	if mask&vfs.AccessExec != 0 && !c.MayExec(&n.attr) {
		return vfs.EACCES
	}
	return nil
}

// Fallocate implements vfs.FS with default (extend), FALLOC_FL_KEEP_SIZE
// and FALLOC_FL_PUNCH_HOLE behaviours.
func (fs *FS) Fallocate(op *vfs.Op, h vfs.Handle, mode uint32, off, length int64) error {
	c := op.Cred
	fs.mu.Lock()
	defer fs.mu.Unlock()
	of, n, err := fs.handle(h)
	if err != nil {
		return err
	}
	if !of.flags.Writable() {
		return vfs.EBADF
	}
	if off < 0 || length <= 0 {
		return vfs.EINVAL
	}
	if mode&vfs.FallocPunchHole != 0 {
		if mode&vfs.FallocKeepSize == 0 {
			return vfs.EINVAL // PUNCH_HOLE requires KEEP_SIZE
		}
		first := off / blockSize
		last := (off + length) / blockSize
		for idx := first; idx <= last; idx++ {
			blockStart := idx * blockSize
			blockEnd := blockStart + blockSize
			if blockStart >= off && blockEnd <= off+length {
				fs.freeBlock(n, idx)
			} else if ref, ok := n.blocks[idx]; ok {
				b, gerr := fs.getBlob(ref)
				if gerr != nil {
					return gerr
				}
				s := max64(off, blockStart) - blockStart
				e := min64(off+length, blockEnd) - blockStart
				if s >= int64(len(b)) {
					continue // the punched range is past the written extent
				}
				if e > int64(len(b)) {
					e = int64(len(b))
				}
				buf := append([]byte(nil), b...)
				for i := s; i < e; i++ {
					buf[i] = 0
				}
				if rerr := fs.replaceBlock(n, idx, ref, buf); rerr != nil {
					return rerr
				}
			}
		}
		return nil
	}
	// Preallocation: materialize zero blocks in the range (in a
	// content-addressed store they all share the one zero chunk).
	end := off + length
	if c.FSizeLimit > 0 && mode&vfs.FallocKeepSize == 0 && end > c.FSizeLimit {
		return vfs.EFBIG
	}
	var zero [blockSize]byte
	for idx := off / blockSize; idx*blockSize < end; idx++ {
		if _, ok := n.blocks[idx]; ok {
			continue
		}
		if fs.used+blockSize > fs.cap {
			return vfs.ENOSPC
		}
		ref, perr := fs.store.Put(zero[:])
		if perr != nil {
			return vfs.EIO
		}
		fs.materializeBlock(n, idx, ref)
	}
	if mode&vfs.FallocKeepSize == 0 && end > n.attr.Size {
		n.attr.Size = end
	}
	return nil
}

// UsedBytes reports the materialized data bytes — the logical view
// (blockSize per block), independent of backend deduplication.
func (fs *FS) UsedBytes() int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.used
}

// Store returns the backend blob store file content lives in.
func (fs *FS) Store() blobstore.Store { return fs.store }

// BlockRefs returns every live block reference held by the
// filesystem's inodes. Image tooling uses it for physical (deduped)
// size accounting: unique refs across a set of filesystems sharing one
// store are the bytes actually occupied.
func (fs *FS) BlockRefs() []blobstore.Ref {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	var out []blobstore.Ref
	for _, n := range fs.inodes {
		for _, ref := range n.blocks {
			out = append(out, ref)
		}
	}
	return out
}

// NameToHandle implements vfs.HandleExporter: memfs inodes are
// persistent, so the inode number itself is a durable handle.
func (fs *FS) NameToHandle(ino vfs.Ino) ([]byte, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if _, err := fs.get(ino); err != nil {
		return nil, err
	}
	h := make([]byte, 8)
	binary.LittleEndian.PutUint64(h, uint64(ino))
	return h, nil
}

// OpenByHandle implements vfs.HandleExporter.
func (fs *FS) OpenByHandle(handle []byte) (vfs.Ino, error) {
	if len(handle) != 8 {
		return 0, vfs.EINVAL
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ino := vfs.Ino(binary.LittleEndian.Uint64(handle))
	if _, err := fs.get(ino); err != nil {
		return 0, vfs.ESTALE
	}
	return ino, nil
}

// SyncFS implements vfs.SyncerFS; memfs is always consistent.
func (fs *FS) SyncFS() error { return nil }

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

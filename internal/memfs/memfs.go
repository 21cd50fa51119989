// Package memfs implements a complete in-memory POSIX filesystem over the
// vfs.FS interface. It is the repository's stand-in for tmpfs and ext4:
// the xfstests-style regression suite (internal/xfstests) runs against it
// directly as the "native" baseline and through the FUSE stack
// (internal/fuse + internal/cntrfs) as the system under test.
//
// Supported semantics include hard links, symlinks, sparse files with
// block accounting, O_APPEND/O_TRUNC/O_EXCL/O_DIRECT, setuid/setgid
// clearing on write and chown, SGID inheritance from parent directories,
// POSIX ACLs via the system.posix_acl_access xattr (including the
// chmod-clears-SGID interaction exercised by xfstests #375), RLIMIT_FSIZE
// enforcement (#228), sticky-bit deletion restrictions, renameat2 flags,
// fallocate with hole punching, and persistent exportable inodes
// (name_to_handle_at, #426).
package memfs

import (
	"strings"
	"sync"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/radix"
	"cntr/internal/slab"
	"cntr/internal/vfs"
)

const blockSize = 4096

// Options configures a filesystem instance.
type Options struct {
	// Capacity limits total data bytes; 0 means 1 TiB.
	Capacity int64
	// Store is the backend blob store file content lives in; nil uses a
	// private map-backed store (blobstore.NewMem), the historical
	// behaviour. A shared content-addressed store (blobstore.CAS) makes
	// identical blocks written by any number of files — or any number
	// of filesystems sharing the store — occupy storage once.
	Store blobstore.Store
}

// FS is the in-memory filesystem. The zero value is not usable; call New.
type FS struct {
	mu      sync.RWMutex
	inodes  map[vfs.Ino]*inode
	records slab.Slab[inode] // every inode comes from it (newInode, maybeReap)
	// nodes is the slab every inode's block index cuts its nodes from.
	nodes   radix.Nodes[blobstore.Ref]
	handles map[vfs.Handle]openFile
	nextIno vfs.Ino
	nextH   vfs.Handle
	used    int64 // materialized data bytes (logical: blockSize per block)
	cap     int64
	store   blobstore.Store
	// views is store when it shares its blobs' bytes (ViewPages).
	views   viewer
	logical time.Duration
}

// viewer is a store whose blobs keep their bytes while held, so a reader
// may keep them instead of a copy: blobstore.Mem. No other store offers
// it — CAS.CorruptForTest flips bytes in place, and a fault injector or
// a cache tier must see each read.
type viewer interface {
	View(ref blobstore.Ref) ([]byte, bool)
}

type inode struct {
	attr vfs.Attr
	// blocks indexes the backend store reference of each written block
	// by block number, a radix tree whose nodes come from fs.nodes, as
	// tmpfs keeps a file's pages in its xarray: a hole holds nothing, and
	// a sparse file costs a node per level for each run it holds. A
	// block's blob holds the written extent within the block (≤
	// blockSize); bytes past the blob's length read as zeros.
	blocks radix.Tree[blobstore.Ref]
	target string            // symlink target
	xattrs map[string][]byte // made by the first Setxattr
	// children and parent are set for directories.
	children entries
	parent   vfs.Ino
	// openCount keeps unlinked-but-open inodes alive.
	openCount int
	// pipe backs FIFO inodes: reads block on it until data arrives or the
	// operation is interrupted.
	pipe *pipeBuf
}

type openFile struct {
	ino   vfs.Ino
	flags vfs.OpenFlags
	dir   bool
}

// New creates an empty filesystem with a root directory owned by root.
func New(opts Options) *FS {
	fs := &FS{
		inodes:  make(map[vfs.Ino]*inode),
		handles: make(map[vfs.Handle]openFile),
		nextIno: vfs.RootIno + 1,
		nextH:   1,
		cap:     opts.Capacity,
		store:   opts.Store,
	}
	if fs.cap == 0 {
		fs.cap = 1 << 40
	}
	if fs.store == nil {
		fs.store = blobstore.NewMem()
	}
	fs.views, _ = fs.store.(viewer)
	t := fs.now()
	fs.inodes[vfs.RootIno] = &inode{
		attr: vfs.Attr{
			Ino: vfs.RootIno, Type: vfs.TypeDirectory, Mode: 0o755,
			Nlink: 2, Atime: t, Mtime: t, Ctime: t,
		},
		children: newEntries(),
		parent:   vfs.RootIno,
	}
	return fs
}

// now is a deterministic clock: a fixed epoch plus a strictly
// increasing logical offset, so timestamp-ordering tests are stable.
func (fs *FS) now() time.Time {
	fs.logical += time.Microsecond
	return time.Date(2018, 7, 11, 0, 0, 0, 0, time.UTC).Add(fs.logical)
}

func (fs *FS) get(ino vfs.Ino) (*inode, error) {
	n, ok := fs.inodes[ino]
	if !ok {
		return nil, vfs.ESTALE
	}
	return n, nil
}

func (fs *FS) getDir(c *vfs.Cred, ino vfs.Ino) (*inode, error) {
	n, err := fs.get(ino)
	if err != nil {
		return nil, err
	}
	if n.attr.Type != vfs.TypeDirectory {
		return nil, vfs.ENOTDIR
	}
	if n.attr.Nlink == 0 {
		return nil, vfs.ENOENT // removed, still open: nothing may enter it
	}
	return n, nil
}

func checkName(name string) error {
	switch {
	case name == "" || name == "." || name == "..":
		return vfs.EINVAL
	case len(name) > vfs.MaxNameLen:
		return vfs.ENAMETOOLONG
	case strings.ContainsRune(name, '/'):
		return vfs.EINVAL
	}
	return nil
}

// Lookup implements vfs.FS.
func (fs *FS) Lookup(op *vfs.Op, parent vfs.Ino, name string) (vfs.Attr, error) {
	c := op.Cred
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	dir, err := fs.getDir(c, parent)
	if err != nil {
		return vfs.Attr{}, err
	}
	if !c.MayExec(&dir.attr) {
		return vfs.Attr{}, vfs.EACCES
	}
	switch name {
	case ".":
		return dir.attr, nil
	case "..":
		p, err := fs.get(dir.parent)
		if err != nil {
			return vfs.Attr{}, err
		}
		return p.attr, nil
	}
	child, ok := dir.children.lookup(name)
	if !ok {
		return vfs.Attr{}, vfs.ENOENT
	}
	n, err := fs.get(child)
	if err != nil {
		return vfs.Attr{}, err
	}
	return n.attr, nil
}

// Forget implements vfs.FS; memfs inodes are persistent, so there is no
// per-lookup state to drop.
func (fs *FS) Forget(op *vfs.Op, ino vfs.Ino, nlookup uint64) {}

// Getattr implements vfs.FS.
func (fs *FS) Getattr(op *vfs.Op, ino vfs.Ino) (vfs.Attr, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.get(ino)
	if err != nil {
		return vfs.Attr{}, err
	}
	return n.attr, nil
}

// Setattr implements vfs.FS, including chmod/chown side effects on the
// setuid/setgid bits and RLIMIT_FSIZE enforcement on truncation-growth.
func (fs *FS) Setattr(op *vfs.Op, ino vfs.Ino, mask vfs.SetattrMask, attr vfs.Attr) (vfs.Attr, error) {
	c := op.Cred
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.get(ino)
	if err != nil {
		return vfs.Attr{}, err
	}
	if err := c.CheckSetattr(&n.attr, mask, &attr); err != nil {
		return vfs.Attr{}, err
	}
	now := fs.now()
	if mask.Has(vfs.SetMode) {
		mode := attr.Mode & (vfs.ModePerm | vfs.ModeSetUID | vfs.ModeSetGID | vfs.ModeSticky)
		// POSIX: chmod by a caller that is not a member of the file's
		// owning group (and lacks CAP_FSETID) must clear the SGID bit.
		// With a POSIX ACL present the owning group is still the file
		// gid; this is the semantic xfstests #375 checks and the one a
		// FUSE passthrough loses when it delegates via setfsuid.
		if mode&vfs.ModeSetGID != 0 && !c.InGroup(n.attr.GID) && !c.Caps.Has(vfs.CapFsetid) {
			mode &^= vfs.ModeSetGID
		}
		n.attr.Mode = mode
		n.attr.Ctime = now
	}
	if mask.Has(vfs.SetUID) || mask.Has(vfs.SetGID) {
		if mask.Has(vfs.SetUID) {
			n.attr.UID = attr.UID
		}
		if mask.Has(vfs.SetGID) {
			n.attr.GID = attr.GID
		}
		// chown clears setuid/setgid on regular files unless privileged.
		if n.attr.Type == vfs.TypeRegular && !c.Caps.Has(vfs.CapFsetid) {
			n.attr.Mode &^= vfs.ModeSetUID
			if n.attr.Mode&0o010 != 0 { // only when group-executable, per POSIX
				n.attr.Mode &^= vfs.ModeSetGID
			}
		}
		n.attr.Ctime = now
	}
	if mask.Has(vfs.SetSize) {
		if err := fs.truncate(n, attr.Size); err != nil {
			return vfs.Attr{}, err
		}
		n.attr.Mtime, n.attr.Ctime = now, now
	}
	if mask.Has(vfs.SetAtime) {
		n.attr.Atime = attr.Atime
		n.attr.Ctime = now
	}
	if mask.Has(vfs.SetMtime) {
		n.attr.Mtime = attr.Mtime
		n.attr.Ctime = now
	}
	if mask.Has(vfs.SetAtimeNow) {
		n.attr.Atime = now
	}
	if mask.Has(vfs.SetMtimeNow) {
		n.attr.Mtime = now
	}
	return n.attr, nil
}

func (fs *FS) truncate(n *inode, size int64) error {
	old := n.attr.Size
	if size == old {
		return nil
	}
	if size < old {
		// Drop whole blocks past the new end and trim the boundary
		// block's blob so the tail reads as zeros.
		firstDead := (size + blockSize - 1) / blockSize
		for idx := range n.blocks.All() {
			if idx >= firstDead {
				fs.freeBlock(n, idx)
			}
		}
		if keep := size % blockSize; keep != 0 {
			idx := size / blockSize
			if ref, ok := n.blocks.Get(idx); ok {
				b, err := fs.getBlob(ref)
				if err != nil {
					return err
				}
				if int64(len(b)) > keep {
					if err := fs.replaceBlock(n, idx, ref, b[:keep]); err != nil {
						return err
					}
				}
			}
		}
	}
	n.attr.Size = size
	return nil
}

// getBlob fetches a block's content from the backend store. Any store
// failure — a lost or corrupted chunk — surfaces as EIO: the reference
// is held by a live inode, so it must resolve.
func (fs *FS) getBlob(ref blobstore.Ref) ([]byte, error) {
	b, err := fs.store.Get(ref)
	if err != nil {
		return nil, vfs.EIO
	}
	return b, nil
}

// readBlock returns the stored content of block idx (nil for a hole).
func (fs *FS) readBlock(n *inode, idx int64) ([]byte, error) {
	ref, ok := n.blocks.Get(idx)
	if !ok {
		return nil, nil
	}
	return fs.getBlob(ref)
}

// ViewPages sets views[i] to the stored bytes of block first+i of the
// regular file ino when the store shares them (viewer) and the block is
// whole, a blob of blockSize bytes, and to nil otherwise: a hole, a short
// block, a file of another type or one no longer there. It is how a page
// cache right above keeps a clean page as the block it caches instead of
// a copy. The bytes never change while held, so a holder copies them
// before writing. It charges nothing, touches no timestamp and counts no
// read of the store: the page cache read the file before it asked. It
// takes an inode, not a handle, as the kernel's page cache indexes an
// inode's mapping, and it is one call for any number of blocks.
func (fs *FS) ViewPages(ino vfs.Ino, first int64, views []*[blockSize]byte) {
	clear(views)
	if fs.views == nil {
		return
	}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, ok := fs.inodes[ino]
	if !ok || n.attr.Type != vfs.TypeRegular {
		return
	}
	for i := range views {
		ref, ok := n.blocks.Get(first + int64(i))
		if !ok {
			continue
		}
		if b, ok := fs.views.View(ref); ok && len(b) == blockSize {
			views[i] = (*[blockSize]byte)(b)
		}
	}
}

// materializeBlock charges capacity for a block seen for the first time
// and records its store reference. Capacity accounting is logical —
// blockSize per materialized block regardless of backend dedup — so
// ENOSPC behaviour is independent of which store backs the filesystem.
func (fs *FS) materializeBlock(n *inode, idx int64, ref blobstore.Ref) {
	n.blocks.Set(&fs.nodes, idx, ref)
	n.attr.Blocks += blockSize / 512
	fs.used += blockSize
}

// replaceBlock swaps block idx's content for data: the new blob is
// stored first, then the old reference is dropped (crash-ordering a real
// CAS would use too).
func (fs *FS) replaceBlock(n *inode, idx int64, oldRef blobstore.Ref, data []byte) error {
	ref, err := fs.store.Put(data)
	if err != nil {
		return vfs.EIO
	}
	n.blocks.Set(&fs.nodes, idx, ref)
	fs.store.Delete(oldRef)
	return nil
}

// writeBlock writes data into block idx at offset bo, read-modify-write
// through the backend store. New blocks are charged against capacity.
func (fs *FS) writeBlock(n *inode, idx, bo int64, data []byte) error {
	oldRef, exists := n.blocks.Get(idx)
	if !exists && fs.used+blockSize > fs.cap {
		return vfs.ENOSPC
	}
	var old []byte
	if exists {
		var err error
		if old, err = fs.getBlob(oldRef); err != nil {
			return err
		}
	}
	// A write from the block's start that covers its stored extent (a
	// fresh block's is empty) leaves nothing of the old blob: it is stored
	// as given. Anything else is merged into the old extent.
	buf := data
	if bo != 0 || len(data) < len(old) {
		buf = make([]byte, max(bo+int64(len(data)), int64(len(old))))
		copy(buf, old)
		copy(buf[bo:], data)
	}
	if exists {
		return fs.replaceBlock(n, idx, oldRef, buf)
	}
	ref, err := fs.store.Put(buf)
	if err != nil {
		return vfs.EIO
	}
	fs.materializeBlock(n, idx, ref)
	return nil
}

func (fs *FS) freeBlock(n *inode, idx int64) {
	if ref, ok := n.blocks.Get(idx); ok {
		fs.store.Delete(ref)
		n.blocks.Delete(&fs.nodes, idx)
		n.attr.Blocks -= blockSize / 512
		fs.used -= blockSize
	}
}

func (fs *FS) newInode(c *vfs.Cred, dir *inode, typ vfs.FileType, mode vfs.Mode, rdev uint32) *inode {
	now := fs.now()
	gid := c.FSGID
	m := mode
	// SGID directory: children inherit the directory's group; child
	// directories inherit the SGID bit itself.
	if dir.attr.Mode&vfs.ModeSetGID != 0 {
		gid = dir.attr.GID
		if typ != vfs.TypeDirectory {
			if !c.InGroup(gid) && !c.Caps.Has(vfs.CapFsetid) {
				m &^= vfs.ModeSetGID
			}
		} else {
			m |= vfs.ModeSetGID
		}
	}
	ino := fs.nextIno
	fs.nextIno++
	n := fs.records.New()
	n.attr = vfs.Attr{
		Ino: ino, Type: typ, Mode: m, Nlink: 1,
		UID: c.FSUID, GID: gid, Rdev: rdev,
		Atime: now, Mtime: now, Ctime: now,
	}
	if typ == vfs.TypeDirectory {
		n.attr.Nlink = 2
		n.children = newEntries()
	}
	fs.inodes[ino] = n
	return n
}

func (fs *FS) insertChild(c *vfs.Cred, parent vfs.Ino, name string, build func(dir *inode) (*inode, error)) (vfs.Attr, error) {
	if err := checkName(name); err != nil {
		return vfs.Attr{}, err
	}
	dir, err := fs.getDir(c, parent)
	if err != nil {
		return vfs.Attr{}, err
	}
	if !c.MayWrite(&dir.attr) || !c.MayExec(&dir.attr) {
		return vfs.Attr{}, vfs.EACCES
	}
	if _, exists := dir.children.lookup(name); exists {
		return vfs.Attr{}, vfs.EEXIST
	}
	n, err := build(dir)
	if err != nil {
		return vfs.Attr{}, err
	}
	dir.children.link(name, n.attr.Ino)
	if n.attr.Type == vfs.TypeDirectory {
		n.parent = parent
		dir.attr.Nlink++
	}
	now := fs.now()
	dir.attr.Mtime, dir.attr.Ctime = now, now
	return n.attr, nil
}

// Mknod implements vfs.FS.
func (fs *FS) Mknod(op *vfs.Op, parent vfs.Ino, name string, typ vfs.FileType, mode vfs.Mode, rdev uint32) (vfs.Attr, error) {
	c := op.Cred
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if typ == vfs.TypeDirectory {
		return vfs.Attr{}, vfs.EINVAL
	}
	if (typ == vfs.TypeCharDev || typ == vfs.TypeBlockDev) && !c.Caps.Has(vfs.CapMknod) {
		return vfs.Attr{}, vfs.EPERM
	}
	return fs.insertChild(c, parent, name, func(dir *inode) (*inode, error) {
		return fs.newInode(c, dir, typ, mode, rdev), nil
	})
}

// Mkdir implements vfs.FS.
func (fs *FS) Mkdir(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode) (vfs.Attr, error) {
	c := op.Cred
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.insertChild(c, parent, name, func(dir *inode) (*inode, error) {
		return fs.newInode(c, dir, vfs.TypeDirectory, mode, 0), nil
	})
}

// Symlink implements vfs.FS. A target of vfs.MaxPathLen bytes or more is
// ENAMETOOLONG: no syscall passes one, but a FUSE frame may carry it.
func (fs *FS) Symlink(op *vfs.Op, parent vfs.Ino, name, target string) (vfs.Attr, error) {
	c := op.Cred
	fs.mu.Lock()
	defer fs.mu.Unlock()
	switch {
	case target == "":
		return vfs.Attr{}, vfs.ENOENT
	case len(target) >= vfs.MaxPathLen:
		return vfs.Attr{}, vfs.ENAMETOOLONG
	}
	return fs.insertChild(c, parent, name, func(dir *inode) (*inode, error) {
		n := fs.newInode(c, dir, vfs.TypeSymlink, 0o777, 0)
		n.target = target
		n.attr.Size = int64(len(target))
		return n, nil
	})
}

// Readlink implements vfs.FS.
func (fs *FS) Readlink(op *vfs.Op, ino vfs.Ino) (string, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	n, err := fs.get(ino)
	if err != nil {
		return "", err
	}
	if n.attr.Type != vfs.TypeSymlink {
		return "", vfs.EINVAL
	}
	return n.target, nil
}

// Unlink implements vfs.FS.
func (fs *FS) Unlink(op *vfs.Op, parent vfs.Ino, name string) error {
	c := op.Cred
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := checkName(name); err != nil {
		return err
	}
	dir, err := fs.getDir(c, parent)
	if err != nil {
		return err
	}
	if !c.MayWrite(&dir.attr) || !c.MayExec(&dir.attr) {
		return vfs.EACCES
	}
	child, ok := dir.children.lookup(name)
	if !ok {
		return vfs.ENOENT
	}
	n, err := fs.get(child)
	if err != nil {
		return err
	}
	if n.attr.Type == vfs.TypeDirectory {
		return vfs.EISDIR
	}
	if c.StickyDenied(&dir.attr, &n.attr) {
		return vfs.EPERM
	}
	dir.children.unlink(name)
	now := fs.now()
	dir.attr.Mtime, dir.attr.Ctime = now, now
	n.attr.Nlink--
	n.attr.Ctime = now
	fs.maybeReap(child, n)
	return nil
}

// Rmdir implements vfs.FS.
func (fs *FS) Rmdir(op *vfs.Op, parent vfs.Ino, name string) error {
	c := op.Cred
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := checkName(name); err != nil {
		return err
	}
	dir, err := fs.getDir(c, parent)
	if err != nil {
		return err
	}
	if !c.MayWrite(&dir.attr) || !c.MayExec(&dir.attr) {
		return vfs.EACCES
	}
	child, ok := dir.children.lookup(name)
	if !ok {
		return vfs.ENOENT
	}
	n, err := fs.get(child)
	if err != nil {
		return err
	}
	if n.attr.Type != vfs.TypeDirectory {
		return vfs.ENOTDIR
	}
	if n.children.len() != 0 {
		return vfs.ENOTEMPTY
	}
	if c.StickyDenied(&dir.attr, &n.attr) {
		return vfs.EPERM
	}
	dir.children.unlink(name)
	dir.attr.Nlink--
	now := fs.now()
	dir.attr.Mtime, dir.attr.Ctime = now, now
	fs.removeDir(child, n)
	return nil
}

// removeDir unlinks a directory from the tree. Like Linux's S_DEAD
// directory, one still open stays until its last Releasedir, and reads as
// removed: its link count is 0, nothing can be made in it, and Readdir
// answers ENOENT.
func (fs *FS) removeDir(ino vfs.Ino, n *inode) {
	n.attr.Nlink = 0
	fs.maybeReap(ino, n)
}

// maybeReap frees an inode's storage once it has no links and no open
// handles, dropping its store references so shared chunks lose one
// count (and private ones are freed), and its record goes back to the
// slab: no caller uses n after it.
func (fs *FS) maybeReap(ino vfs.Ino, n *inode) {
	if n.attr.Nlink == 0 && n.openCount == 0 {
		for idx := range n.blocks.All() {
			fs.freeBlock(n, idx)
		}
		delete(fs.inodes, ino)
		fs.records.Free(n)
	}
}

// isAncestor reports whether a is an ancestor of (or equal to) b.
func (fs *FS) isAncestor(a, b vfs.Ino) bool {
	for {
		if a == b {
			return true
		}
		n, ok := fs.inodes[b]
		if !ok || n.parent == b {
			return false
		}
		b = n.parent
	}
}

// Rename implements vfs.FS including RENAME_NOREPLACE and RENAME_EXCHANGE.
func (fs *FS) Rename(op *vfs.Op, oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string, flags vfs.RenameFlags) error {
	c := op.Cred
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if err := checkName(oldName); err != nil {
		return err
	}
	if err := checkName(newName); err != nil {
		return err
	}
	od, err := fs.getDir(c, oldParent)
	if err != nil {
		return err
	}
	nd, err := fs.getDir(c, newParent)
	if err != nil {
		return err
	}
	for _, d := range []*inode{od, nd} {
		if !c.MayWrite(&d.attr) || !c.MayExec(&d.attr) {
			return vfs.EACCES
		}
	}
	srcIno, ok := od.children.lookup(oldName)
	if !ok {
		return vfs.ENOENT
	}
	src, err := fs.get(srcIno)
	if err != nil {
		return err
	}
	if c.StickyDenied(&od.attr, &src.attr) {
		return vfs.EPERM
	}
	dstIno, dstExists := nd.children.lookup(newName)
	if oldParent == newParent && oldName == newName {
		return nil
	}
	if src.attr.Type == vfs.TypeDirectory && fs.isAncestor(srcIno, newParent) {
		return vfs.EINVAL
	}
	switch {
	case flags&vfs.RenameExchange != 0 && !dstExists:
		return vfs.ENOENT
	case flags&vfs.RenameNoReplace != 0 && dstExists:
		return vfs.EEXIST
	case dstExists && dstIno == srcIno:
		// Two links of one inode: both names stay (vfs_rename, source ==
		// target).
		return nil
	}
	if flags&vfs.RenameExchange != 0 {
		dst, err := fs.get(dstIno)
		if err != nil {
			return err
		}
		od.children.relink(oldName, dstIno)
		nd.children.relink(newName, srcIno)
		fs.fixupDirParent(src, newParent, od, nd)
		fs.fixupDirParent(dst, oldParent, nd, od)
		now := fs.now()
		od.attr.Mtime, od.attr.Ctime = now, now
		nd.attr.Mtime, nd.attr.Ctime = now, now
		return nil
	}
	if dstExists {
		dst, err := fs.get(dstIno)
		if err != nil {
			return err
		}
		if c.StickyDenied(&nd.attr, &dst.attr) {
			return vfs.EPERM
		}
		if dst.attr.Type == vfs.TypeDirectory {
			if src.attr.Type != vfs.TypeDirectory {
				return vfs.EISDIR
			}
			if dst.children.len() != 0 {
				return vfs.ENOTEMPTY
			}
			nd.attr.Nlink--
			fs.removeDir(dstIno, dst)
		} else {
			if src.attr.Type == vfs.TypeDirectory {
				return vfs.ENOTDIR
			}
			dst.attr.Nlink--
			fs.maybeReap(dstIno, dst)
		}
		nd.children.unlink(newName)
	}
	od.children.unlink(oldName)
	nd.children.link(newName, srcIno)
	if src.attr.Type == vfs.TypeDirectory && oldParent != newParent {
		od.attr.Nlink--
		nd.attr.Nlink++
		src.parent = newParent
	}
	now := fs.now()
	od.attr.Mtime, od.attr.Ctime = now, now
	nd.attr.Mtime, nd.attr.Ctime = now, now
	src.attr.Ctime = now
	return nil
}

func (fs *FS) fixupDirParent(n *inode, newParent vfs.Ino, from, to *inode) {
	if n.attr.Type != vfs.TypeDirectory {
		return
	}
	if n.parent != newParent {
		from.attr.Nlink--
		to.attr.Nlink++
	}
	n.parent = newParent
}

// Link implements vfs.FS.
func (fs *FS) Link(op *vfs.Op, ino vfs.Ino, parent vfs.Ino, name string) (vfs.Attr, error) {
	c := op.Cred
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, err := fs.get(ino)
	if err != nil {
		return vfs.Attr{}, err
	}
	if n.attr.Type == vfs.TypeDirectory {
		return vfs.Attr{}, vfs.EPERM
	}
	return fs.insertChild(c, parent, name, func(dir *inode) (*inode, error) {
		n.attr.Nlink++
		n.attr.Ctime = fs.now()
		return n, nil
	})
}

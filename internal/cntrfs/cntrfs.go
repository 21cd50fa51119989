// Package cntrfs implements CntrFS, the FUSE passthrough filesystem at
// the heart of the paper: it serves the file tree of the "fat" container
// (or the host) to processes inside the "slim" container's nested mount
// namespace.
//
// CntrFS maintains an inode table translating its own inode numbers to
// inodes of the backing filesystem. Inodes are created on demand by
// LOOKUP and destroyed by FORGET — they are *not* persistent, which is
// why name_to_handle_at cannot be supported (xfstests #426). Each cold
// lookup performs an open()+stat() pair against the backing filesystem to
// detect hard links that reach the same backing inode through different
// paths; the paper identifies this as the dominant cost of
// metadata-heavy workloads (compilebench-read's 13.3x, §5.2.2).
//
// Credential handling mirrors the Rust implementation: the server is
// privileged and impersonates callers via setfsuid/setfsgid, keeping its
// own capability set. POSIX ACL enforcement is therefore delegated to
// the backing filesystem (xfstests #375), and the caller's RLIMIT_FSIZE
// never propagates (#228).
package cntrfs

import (
	"sync"

	"cntr/internal/vfs"
)

// Options configures a CntrFS instance.
type Options struct {
	// DedupHardlinks enables the open+stat lookup path that maps every
	// backing inode to exactly one CntrFS inode. Disabling it (ablation)
	// makes lookups cheaper but breaks hard-link identity.
	DedupHardlinks bool
}

// FS is the passthrough filesystem. It implements vfs.FS and is served
// by a fuse.Server.
type FS struct {
	backing vfs.FS
	opts    Options

	mu        sync.Mutex
	nodes     map[vfs.Ino]node    // CntrFS ino -> node, held by value
	byBacking map[vfs.Ino]vfs.Ino // backing ino -> CntrFS ino
	nextIno   vfs.Ino
}

type node struct {
	backIno vfs.Ino
	nlookup uint64
}

// New builds a CntrFS that serves backing from its root. The root inode
// is registered permanently (the kernel never forgets the root).
func New(backing vfs.FS, opts Options) *FS {
	fs := &FS{
		backing:   backing,
		opts:      opts,
		nodes:     make(map[vfs.Ino]node),
		byBacking: make(map[vfs.Ino]vfs.Ino),
		nextIno:   vfs.RootIno + 1,
	}
	fs.nodes[vfs.RootIno] = node{backIno: vfs.RootIno, nlookup: 1}
	fs.byBacking[vfs.RootIno] = vfs.RootIno
	return fs
}

// resolve translates a CntrFS inode to the backing inode.
func (fs *FS) resolve(ino vfs.Ino) (vfs.Ino, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[ino]
	if !ok {
		return 0, vfs.ESTALE
	}
	return n.backIno, nil
}

// register maps a backing inode to a CntrFS inode, allocating one if the
// backing inode has not been seen (or if deduplication is disabled).
// It increments the lookup count, which FORGET later decrements.
func (fs *FS) register(backIno vfs.Ino) vfs.Ino {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.opts.DedupHardlinks {
		if ino, ok := fs.byBacking[backIno]; ok {
			n := fs.nodes[ino]
			n.nlookup++
			fs.nodes[ino] = n
			return ino
		}
	}
	ino := fs.nextIno
	fs.nextIno++
	fs.nodes[ino] = node{backIno: backIno, nlookup: 1}
	if fs.opts.DedupHardlinks {
		fs.byBacking[backIno] = ino
	}
	return ino
}

// Lookup implements vfs.FS. The cold path is deliberately expensive: one
// lookup on the backing filesystem, then an open+stat pair to obtain a
// stable identity for hard-link deduplication.
func (fs *FS) Lookup(op *vfs.Op, parent vfs.Ino, name string) (vfs.Attr, error) {
	backParent, err := fs.resolve(parent)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr, err := fs.backing.Lookup(op, backParent, name)
	if err != nil {
		return vfs.Attr{}, err
	}
	if fs.opts.DedupHardlinks {
		// open(O_PATH)-equivalent: revalidate access, then stat to learn
		// whether this backing inode is already in the table under a
		// different name (hard link).
		if aerr := fs.backing.Access(op, attr.Ino, 0); aerr != nil {
			return vfs.Attr{}, aerr
		}
		st, serr := fs.backing.Getattr(op, attr.Ino)
		if serr != nil {
			return vfs.Attr{}, serr
		}
		attr = st
	}
	ino := fs.register(attr.Ino)
	attr.Ino = ino
	return attr, nil
}

// Forget implements vfs.FS: drop nlookup references; at zero the inode
// vanishes from the table (hence #426: handles cannot outlive lookups).
func (fs *FS) Forget(op *vfs.Op, ino vfs.Ino, nlookup uint64) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	n, ok := fs.nodes[ino]
	if !ok || ino == vfs.RootIno {
		return
	}
	if n.nlookup <= nlookup {
		delete(fs.nodes, ino)
		if fs.opts.DedupHardlinks {
			if cur, ok := fs.byBacking[n.backIno]; ok && cur == ino {
				delete(fs.byBacking, n.backIno)
			}
		}
		// Each lookup counted here made one of the backing's.
		fs.backing.Forget(op, n.backIno, n.nlookup)
		return
	}
	n.nlookup -= nlookup
	fs.nodes[ino] = n
}

// Getattr implements vfs.FS.
func (fs *FS) Getattr(op *vfs.Op, ino vfs.Ino) (vfs.Attr, error) {
	back, err := fs.resolve(ino)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr, err := fs.backing.Getattr(op, back)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr.Ino = ino
	return attr, nil
}

// Setattr implements vfs.FS. Note the caller's credential arrives with
// the server's capability set (setfsuid semantics), so mode-bit side
// effects that depend on missing capabilities do not fire — this is the
// xfstests #375 behaviour.
func (fs *FS) Setattr(op *vfs.Op, ino vfs.Ino, mask vfs.SetattrMask, attr vfs.Attr) (vfs.Attr, error) {
	back, err := fs.resolve(ino)
	if err != nil {
		return vfs.Attr{}, err
	}
	out, err := fs.backing.Setattr(op, back, mask, attr)
	if err != nil {
		return vfs.Attr{}, err
	}
	out.Ino = ino
	return out, nil
}

// Mknod implements vfs.FS.
func (fs *FS) Mknod(op *vfs.Op, parent vfs.Ino, name string, typ vfs.FileType, mode vfs.Mode, rdev uint32) (vfs.Attr, error) {
	back, err := fs.resolve(parent)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr, err := fs.backing.Mknod(op, back, name, typ, mode, rdev)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr.Ino = fs.register(attr.Ino)
	return attr, nil
}

// Mkdir implements vfs.FS.
func (fs *FS) Mkdir(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode) (vfs.Attr, error) {
	back, err := fs.resolve(parent)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr, err := fs.backing.Mkdir(op, back, name, mode)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr.Ino = fs.register(attr.Ino)
	return attr, nil
}

// Symlink implements vfs.FS.
func (fs *FS) Symlink(op *vfs.Op, parent vfs.Ino, name, target string) (vfs.Attr, error) {
	back, err := fs.resolve(parent)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr, err := fs.backing.Symlink(op, back, name, target)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr.Ino = fs.register(attr.Ino)
	return attr, nil
}

// Readlink implements vfs.FS.
func (fs *FS) Readlink(op *vfs.Op, ino vfs.Ino) (string, error) {
	back, err := fs.resolve(ino)
	if err != nil {
		return "", err
	}
	return fs.backing.Readlink(op, back)
}

// Unlink implements vfs.FS.
func (fs *FS) Unlink(op *vfs.Op, parent vfs.Ino, name string) error {
	back, err := fs.resolve(parent)
	if err != nil {
		return err
	}
	return fs.backing.Unlink(op, back, name)
}

// Rmdir implements vfs.FS.
func (fs *FS) Rmdir(op *vfs.Op, parent vfs.Ino, name string) error {
	back, err := fs.resolve(parent)
	if err != nil {
		return err
	}
	return fs.backing.Rmdir(op, back, name)
}

// Rename implements vfs.FS.
func (fs *FS) Rename(op *vfs.Op, oldParent vfs.Ino, oldName string, newParent vfs.Ino, newName string, flags vfs.RenameFlags) error {
	backOld, err := fs.resolve(oldParent)
	if err != nil {
		return err
	}
	backNew, err := fs.resolve(newParent)
	if err != nil {
		return err
	}
	return fs.backing.Rename(op, backOld, oldName, backNew, newName, flags)
}

// Link implements vfs.FS.
func (fs *FS) Link(op *vfs.Op, ino vfs.Ino, parent vfs.Ino, name string) (vfs.Attr, error) {
	backIno, err := fs.resolve(ino)
	if err != nil {
		return vfs.Attr{}, err
	}
	backParent, err := fs.resolve(parent)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr, err := fs.backing.Link(op, backIno, backParent, name)
	if err != nil {
		return vfs.Attr{}, err
	}
	attr.Ino = fs.register(attr.Ino)
	return attr, nil
}

// Create implements vfs.FS.
func (fs *FS) Create(op *vfs.Op, parent vfs.Ino, name string, mode vfs.Mode, flags vfs.OpenFlags) (vfs.Attr, vfs.Handle, error) {
	back, err := fs.resolve(parent)
	if err != nil {
		return vfs.Attr{}, 0, err
	}
	attr, h, err := fs.backing.Create(op, back, name, mode, flags)
	if err != nil {
		return vfs.Attr{}, 0, err
	}
	attr.Ino = fs.register(attr.Ino)
	return attr, h, nil
}

// Open implements vfs.FS. Handles are backing handles passed through.
func (fs *FS) Open(op *vfs.Op, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	back, err := fs.resolve(ino)
	if err != nil {
		return 0, err
	}
	return fs.backing.Open(op, back, flags)
}

// Read implements vfs.FS. The caller's RLIMIT_FSIZE does not apply here;
// reads are unaffected anyway, but see Write.
func (fs *FS) Read(op *vfs.Op, h vfs.Handle, off int64, dest []byte) (int, error) {
	return fs.backing.Read(op, h, off, dest)
}

// Write implements vfs.FS. The replayed operation runs with the server's
// credential, whose RLIMIT_FSIZE is unset — the caller's limit is neither
// known nor enforced (xfstests #228).
func (fs *FS) Write(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	if op.Cred.FSizeLimit == 0 {
		// Nothing to strip: a wire request's credential never carries one.
		return fs.backing.Write(op, h, off, data)
	}
	replay := op.Cred.Clone()
	replay.FSizeLimit = 0
	return fs.backing.Write(op.WithCred(replay), h, off, data)
}

// Flush implements vfs.FS.
func (fs *FS) Flush(op *vfs.Op, h vfs.Handle) error {
	return fs.backing.Flush(op, h)
}

// Fsync implements vfs.FS.
func (fs *FS) Fsync(op *vfs.Op, h vfs.Handle, datasync bool) error {
	return fs.backing.Fsync(op, h, datasync)
}

// Release implements vfs.FS.
func (fs *FS) Release(op *vfs.Op, h vfs.Handle) error { return fs.backing.Release(op, h) }

// Opendir implements vfs.FS.
func (fs *FS) Opendir(op *vfs.Op, ino vfs.Ino) (vfs.Handle, error) {
	back, err := fs.resolve(ino)
	if err != nil {
		return 0, err
	}
	return fs.backing.Opendir(op, back)
}

// Readdir implements vfs.FS. Entry inode numbers are advisory (as in
// FUSE readdir without readdirplus) and are not registered in the table.
func (fs *FS) Readdir(op *vfs.Op, h vfs.Handle, off int64) ([]vfs.Dirent, error) {
	return fs.backing.Readdir(op, h, off)
}

// Releasedir implements vfs.FS.
func (fs *FS) Releasedir(op *vfs.Op, h vfs.Handle) error { return fs.backing.Releasedir(op, h) }

// Statfs implements vfs.FS.
func (fs *FS) Statfs(op *vfs.Op, ino vfs.Ino) (vfs.StatfsOut, error) {
	back, err := fs.resolve(ino)
	if err != nil {
		return vfs.StatfsOut{}, err
	}
	return fs.backing.Statfs(op, back)
}

// Setxattr implements vfs.FS. ACL xattrs are forwarded opaquely; CntrFS
// never parses them (§5.1 failure #375 explains why).
func (fs *FS) Setxattr(op *vfs.Op, ino vfs.Ino, name string, value []byte, flags vfs.XattrFlags) error {
	back, err := fs.resolve(ino)
	if err != nil {
		return err
	}
	return fs.backing.Setxattr(op, back, name, value, flags)
}

// Getxattr implements vfs.FS.
func (fs *FS) Getxattr(op *vfs.Op, ino vfs.Ino, name string) ([]byte, error) {
	back, err := fs.resolve(ino)
	if err != nil {
		return nil, err
	}
	return fs.backing.Getxattr(op, back, name)
}

// Listxattr implements vfs.FS.
func (fs *FS) Listxattr(op *vfs.Op, ino vfs.Ino) ([]string, error) {
	back, err := fs.resolve(ino)
	if err != nil {
		return nil, err
	}
	return fs.backing.Listxattr(op, back)
}

// Removexattr implements vfs.FS.
func (fs *FS) Removexattr(op *vfs.Op, ino vfs.Ino, name string) error {
	back, err := fs.resolve(ino)
	if err != nil {
		return err
	}
	return fs.backing.Removexattr(op, back, name)
}

// Access implements vfs.FS.
func (fs *FS) Access(op *vfs.Op, ino vfs.Ino, mask uint32) error {
	back, err := fs.resolve(ino)
	if err != nil {
		return err
	}
	return fs.backing.Access(op, back, mask)
}

// Fallocate implements vfs.FS.
func (fs *FS) Fallocate(op *vfs.Op, h vfs.Handle, mode uint32, off, length int64) error {
	return fs.backing.Fallocate(op, h, mode, off, length)
}

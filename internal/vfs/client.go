package vfs

import (
	"io"
	"strings"
	"sync"
)

// Client is the path-level layer over the filesystem interface, playing
// the role of the syscall layer for processes, workloads, tests and
// examples: open by path, read/write files, walk trees. A Client carries
// the credential its operations run with, like a process does.
type Client struct {
	// Pos is the client's root directory, served by FS: every path
	// resolves from it, ".." does not leave it, and absolute symlink
	// targets restart at it. Chroot moves it.
	Pos
	// Op is the request context client operations run with; its Cred is
	// the client's identity, like a process's credentials.
	Op *Op
	// Mounts is the mount table paths resolve across, as a process in a
	// mount namespace has one; nil when FS is the whole hierarchy.
	Mounts MountTable
}

// NewClient returns a client rooted at the filesystem root, running
// non-cancelable operations with cred.
func NewClient(fs FS, cred *Cred) *Client {
	return NewClientOp(fs, NewOp(nil, cred))
}

// NewClientOp returns a client running every operation under op —
// canceling op's context interrupts the client's in-flight calls.
func NewClientOp(fs FS, op *Op) *Client {
	return &Client{Pos: Pos{FS: fs, Ino: RootIno}, Op: op}
}

// Chroot returns a copy of the client whose root is the directory at dir.
func (c *Client) Chroot(dir string) (*Client, error) {
	r, err := c.Resolve(dir)
	if err != nil {
		return nil, err
	}
	if r.Attr.Type != TypeDirectory {
		return nil, ENOTDIR
	}
	cp := *c
	cp.Pos = r.Pos
	return &cp, nil
}

// req mints the request context for one client call: the client's
// credential and cancellation scope with a fresh request id, on a borrowed
// Op the caller releases once the call has returned — no layer may keep it
// past that (Op.Init).
func (c *Client) req() *Op {
	op := opPool.Get().(*Op)
	*op = *c.Op
	return op.again()
}

// File is an open file with a seek position, the shape workloads expect.
// It is bound to the filesystem that served the open. Open and Create
// return it as a value, so an open costs no heap object; its methods
// take a pointer, and a File must not be copied once opened — two copies
// would close one handle twice. go vet's copylocks check enforces that
// through the noCopy marker.
type File struct {
	_      noCopy
	c      *Client
	fs     FS
	h      Handle
	ino    Ino
	offset int64
	closed bool
}

// noCopy makes go vet's copylocks check reject a copy of the struct that
// embeds it, as sync does for its own types.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// walk resolves path from the client's root as one request, marked as a
// stat(2) when stat is set (Op.Stat). It is every path's entry, so it
// refuses one of MaxPathLen bytes or more as getname does.
func (c *Client) walk(path string, followLeaf, stat bool) (WalkResult, error) {
	if len(path) >= MaxPathLen {
		return WalkResult{}, ENAMETOOLONG
	}
	op := c.req()
	defer op.release()
	op.Stat = stat
	return walk(c.Pos, c.Mounts, op, path, followLeaf)
}

// Resolve walks path and returns its position and attributes, following
// symlinks.
func (c *Client) Resolve(path string) (WalkResult, error) { return c.walk(path, true, false) }

// Lresolve walks path without following a leaf symlink.
func (c *Client) Lresolve(path string) (WalkResult, error) { return c.walk(path, false, false) }

// Stat returns the attributes of path, following symlinks.
func (c *Client) Stat(path string) (Attr, error) { return c.stat(path, true) }

// Lstat returns the attributes of path without following a leaf symlink.
func (c *Client) Lstat(path string) (Attr, error) { return c.stat(path, false) }

func (c *Client) stat(path string, followLeaf bool) (Attr, error) {
	r, err := c.walk(path, followLeaf, true)
	if err != nil {
		return Attr{}, err
	}
	return r.Attr, nil
}

// Open opens path with flags; mode is used when O_CREAT creates the file.
func (c *Client) Open(path string, flags OpenFlags, mode Mode) (File, error) {
	follow := flags&ONofollow == 0
	r, err := c.walk(path, follow, false)
	op := c.req()
	defer op.release()
	if err != nil {
		if ToErrno(err) == ENOENT && flags&OCreat != 0 && r.Parent != 0 && r.Leaf != "" && r.Leaf != "." {
			if r.ReadOnly {
				return File{}, EROFS
			}
			attr, h, cerr := r.FS.Create(op, r.Parent, r.Leaf, mode, flags)
			if cerr != nil {
				return File{}, cerr
			}
			return File{c: c, fs: r.FS, h: h, ino: attr.Ino}, nil
		}
		return File{}, err
	}
	if flags&OCreat != 0 && flags&OExcl != 0 {
		return File{}, EEXIST
	}
	if !follow && r.Attr.Type == TypeSymlink {
		return File{}, ELOOP
	}
	if flags&ODirectory != 0 && r.Attr.Type != TypeDirectory {
		return File{}, ENOTDIR
	}
	if r.Attr.Type == TypeDirectory && flags.Writable() {
		return File{}, EISDIR
	}
	if r.ReadOnly && flags.Writable() {
		return File{}, EROFS
	}
	h, err := r.FS.Open(op, r.Ino, flags)
	if err != nil {
		return File{}, err
	}
	return File{c: c, fs: r.FS, h: h, ino: r.Ino}, nil
}

// Create creates (or truncates) path for writing.
func (c *Client) Create(path string, mode Mode) (File, error) {
	return c.Open(path, OWronly|OCreat|OTrunc, mode)
}

// readChunk is what each of ReadFile's reads asks for, whatever the
// file's size: a direct READ is charged on the size requested, so the op
// stream depends on it. chunkPool lends the buffer.
const readChunk = 64 << 10

var chunkPool = sync.Pool{New: func() any { return new([readChunk]byte) }}

// ReadFile returns the full contents of path.
func (c *Client) ReadFile(path string) ([]byte, error) {
	f, err := c.Open(path, ORdonly, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []byte
	buf := chunkPool.Get().(*[readChunk]byte)
	defer chunkPool.Put(buf)
	for {
		n, err := f.Read(buf[:])
		out = append(out, buf[:n]...)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// WriteFile writes data to path, creating or truncating it.
func (c *Client) WriteFile(path string, data []byte, mode Mode) error {
	f, err := c.Create(path, mode)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Mkdir creates a single directory.
func (c *Client) Mkdir(path string, mode Mode) error {
	r, err := c.Lresolve(path)
	if err == nil {
		return EEXIST
	}
	if ToErrno(err) != ENOENT || r.Leaf == "" || r.Leaf == "." {
		return err
	}
	if r.ReadOnly {
		return EROFS
	}
	op := c.req()
	defer op.release()
	_, err = r.FS.Mkdir(op, r.Parent, r.Leaf, mode)
	return err
}

// MkdirAll creates path and any missing parents.
func (c *Client) MkdirAll(path string, mode Mode) error {
	parts := SplitPath(path)
	cur := ""
	for _, p := range parts {
		cur += "/" + p
		if err := c.Mkdir(cur, mode); err != nil && ToErrno(err) != EEXIST {
			return err
		}
	}
	return nil
}

// Remove unlinks a file or removes an empty directory. Removing a mount
// point fails with EBUSY.
func (c *Client) Remove(path string) error {
	r, err := c.Lresolve(path)
	if err != nil {
		return err
	}
	return c.remove(r)
}

// remove deletes the resolved directory entry.
func (c *Client) remove(r WalkResult) error {
	if r.Parent == 0 {
		return EBUSY
	}
	if r.ReadOnly {
		return EROFS
	}
	op := c.req()
	defer op.release()
	if r.Attr.Type == TypeDirectory {
		return r.FS.Rmdir(op, r.Parent, r.Leaf)
	}
	return r.FS.Unlink(op, r.Parent, r.Leaf)
}

// RemoveAll removes path and, for directories, everything beneath it.
// It ignores ENOENT like os.RemoveAll.
func (c *Client) RemoveAll(path string) error {
	r, err := c.Lresolve(path)
	if err != nil {
		if ToErrno(err) == ENOENT {
			return nil
		}
		return err
	}
	if r.Attr.Type == TypeDirectory {
		ents, err := c.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if err := c.RemoveAll(path + "/" + e.Name); err != nil {
				return err
			}
		}
	}
	return c.remove(r)
}

// ReadDir returns the entries of the directory at path, excluding "." and
// "..".
func (c *Client) ReadDir(path string) ([]Dirent, error) {
	r, err := c.Resolve(path)
	if err != nil {
		return nil, err
	}
	op := c.req()
	defer op.release()
	h, err := r.FS.Opendir(op, r.Ino)
	if err != nil {
		return nil, err
	}
	defer func() { r.FS.Releasedir(op.again(), h) }()
	var out []Dirent
	off := int64(0)
	for {
		ents, err := r.FS.Readdir(op.again(), h, off)
		if err != nil {
			return nil, err
		}
		if len(ents) == 0 {
			return out, nil
		}
		if out == nil {
			out = make([]Dirent, 0, len(ents))
		}
		for _, e := range ents {
			off = e.Off
			if e.Name == "." || e.Name == ".." {
				continue
			}
			out = append(out, e)
		}
	}
}

// Symlink creates a symbolic link at linkPath pointing to target. The
// target is a path too: one of MaxPathLen bytes or more is refused before
// linkPath is looked at, as symlinkat(2) does.
func (c *Client) Symlink(target, linkPath string) error {
	if len(target) >= MaxPathLen {
		return ENAMETOOLONG
	}
	r, err := c.Lresolve(linkPath)
	if err == nil {
		return EEXIST
	}
	if ToErrno(err) != ENOENT || r.Leaf == "" {
		return err
	}
	if r.ReadOnly {
		return EROFS
	}
	op := c.req()
	defer op.release()
	_, err = r.FS.Symlink(op, r.Parent, r.Leaf, target)
	return err
}

// Readlink returns the target of the symlink at path.
func (c *Client) Readlink(path string) (string, error) {
	r, err := c.Lresolve(path)
	if err != nil {
		return "", err
	}
	if r.Attr.Type != TypeSymlink {
		return "", EINVAL
	}
	op := c.req()
	defer op.release()
	return r.FS.Readlink(op, r.Ino)
}

// Link creates a hard link at newPath referring to oldPath; crossing
// mounts yields EXDEV.
func (c *Client) Link(oldPath, newPath string) error {
	src, err := c.Lresolve(oldPath)
	if err != nil {
		return err
	}
	dst, err := c.Lresolve(newPath)
	if err == nil {
		return EEXIST
	}
	if ToErrno(err) != ENOENT || dst.Leaf == "" {
		return err
	}
	if src.FS != dst.FS {
		return EXDEV
	}
	if dst.ReadOnly {
		return EROFS
	}
	op := c.req()
	defer op.release()
	_, err = src.FS.Link(op, src.Ino, dst.Parent, dst.Leaf)
	return err
}

// Rename moves oldPath to newPath; crossing mounts yields EXDEV as
// rename(2) does, and a mount point cannot be moved or replaced.
func (c *Client) Rename(oldPath, newPath string) error {
	src, err := c.Lresolve(oldPath)
	if err != nil {
		return err
	}
	dst, err := c.Lresolve(newPath)
	if err != nil && ToErrno(err) != ENOENT {
		return err
	}
	if dst.Leaf == "" || dst.Leaf == "." {
		return EINVAL
	}
	if src.Parent == 0 || dst.Parent == 0 {
		return EBUSY
	}
	if src.FS != dst.FS {
		return EXDEV
	}
	if src.ReadOnly || dst.ReadOnly {
		return EROFS
	}
	op := c.req()
	defer op.release()
	return src.FS.Rename(op, src.Parent, src.Leaf, dst.Parent, dst.Leaf, 0)
}

// Truncate sets the size of the file at path.
func (c *Client) Truncate(path string, size int64) error {
	return c.setattr(path, SetSize, Attr{Size: size})
}

// Chmod changes the mode bits of path.
func (c *Client) Chmod(path string, mode Mode) error {
	return c.setattr(path, SetMode, Attr{Mode: mode})
}

// Chown changes the ownership of path.
func (c *Client) Chown(path string, uid, gid uint32) error {
	return c.setattr(path, SetUID|SetGID, Attr{UID: uid, GID: gid})
}

// setattr applies the masked fields of attr to path, following symlinks.
func (c *Client) setattr(path string, mask SetattrMask, attr Attr) error {
	r, err := c.Resolve(path)
	if err != nil {
		return err
	}
	if r.ReadOnly {
		return EROFS
	}
	op := c.req()
	defer op.release()
	_, err = r.FS.Setattr(op, r.Ino, mask, attr)
	return err
}

// WalkTree calls fn for every file and directory under root (inclusive),
// in depth-first order. fn receives the slash-joined path relative to
// root and the entry attributes.
func (c *Client) WalkTree(root string, fn func(path string, attr Attr) error) error {
	attr, err := c.Lstat(root)
	if err != nil {
		return err
	}
	if err := fn(strings.TrimSuffix(root, "/"), attr); err != nil {
		return err
	}
	if attr.Type != TypeDirectory {
		return nil
	}
	ents, err := c.ReadDir(root)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := c.WalkTree(strings.TrimSuffix(root, "/")+"/"+e.Name, fn); err != nil {
			return err
		}
	}
	return nil
}

// Read reads from the file at its current offset.
func (f *File) Read(p []byte) (int, error) {
	n, err := f.ReadAt(p, f.offset)
	f.offset += int64(n)
	return n, err
}

// ReadAt reads at an explicit offset without moving the file position.
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	op := f.c.req()
	defer op.release()
	n, err := f.fs.Read(op, f.h, off, p)
	if err != nil {
		return n, err
	}
	if n == 0 && len(p) > 0 {
		return 0, io.EOF
	}
	return n, nil
}

// Write writes at the current offset (or end of file for O_APPEND).
func (f *File) Write(p []byte) (int, error) {
	n, err := f.WriteAt(p, f.offset)
	f.offset += int64(n)
	return n, err
}

// WriteAt writes at an explicit offset without moving the file position.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	op := f.c.req()
	defer op.release()
	return f.fs.Write(op, f.h, off, p)
}

// Seek repositions the file offset per io.Seeker semantics.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		f.offset = offset
	case io.SeekCurrent:
		f.offset += offset
	case io.SeekEnd:
		attr, err := f.Stat()
		if err != nil {
			return f.offset, err
		}
		f.offset = attr.Size + offset
	default:
		return f.offset, EINVAL
	}
	if f.offset < 0 {
		f.offset = 0
		return 0, EINVAL
	}
	return f.offset, nil
}

// Sync flushes the file's data to stable storage (fsync(2)).
func (f *File) Sync() error {
	op := f.c.req()
	defer op.release()
	return f.fs.Fsync(op, f.h, false)
}

// Datasync flushes only the file's data (fdatasync(2)).
func (f *File) Datasync() error {
	op := f.c.req()
	defer op.release()
	return f.fs.Fsync(op, f.h, true)
}

// Truncate resizes the open file.
func (f *File) Truncate(size int64) error {
	op := f.c.req()
	defer op.release()
	_, err := f.fs.Setattr(op, f.ino, SetSize, Attr{Size: size})
	return err
}

// Stat returns the file's current attributes.
func (f *File) Stat() (Attr, error) {
	op := f.c.req()
	defer op.release()
	return f.fs.Getattr(op, f.ino)
}

// Ino returns the inode number of the open file.
func (f *File) Ino() Ino { return f.ino }

// Handle exposes the underlying FS handle (used by Fallocate callers).
func (f *File) Handle() Handle { return f.h }

// Close flushes and releases the file.
func (f *File) Close() error {
	if f.closed {
		return EBADF
	}
	f.closed = true
	op := f.c.req()
	defer op.release()
	ferr := f.fs.Flush(op, f.h)
	rerr := f.fs.Release(op.again(), f.h)
	if ferr != nil {
		return ferr
	}
	return rerr
}

package vfs

// FS is the inode-level filesystem interface. It deliberately mirrors the
// FUSE low-level API: the kernel (or here, the FUSE connection in
// internal/fuse and the path walker in this package) resolves paths one
// component at a time with Lookup, and refers to open files by Handle.
//
// Every method takes an *Op request context as its first argument,
// carrying the credential, a cancellation context and the request id.
// Methods perform permission checks against op.Cred;
// passing RootOp() bypasses most checks, as for a root process with full
// capabilities. Operations that can block (FIFO reads, FUSE round trips)
// observe op.Context() and return EINTR when it is canceled.
//
// All methods return Errno-compatible errors (see ToErrno).
type FS interface {
	// Lookup finds name within the directory parent.
	Lookup(op *Op, parent Ino, name string) (Attr, error)

	// Forget tells the filesystem that the caller (e.g. the FUSE kernel
	// module) has dropped nlookup references to ino obtained via Lookup,
	// Create, Mkdir, etc. Filesystems that keep per-lookup state (such as
	// CntrFS's inode table) use this to free it.
	Forget(op *Op, ino Ino, nlookup uint64)

	// Getattr returns the attributes of ino.
	Getattr(op *Op, ino Ino) (Attr, error)

	// Setattr updates the attributes selected by mask and returns the
	// resulting attributes.
	Setattr(op *Op, ino Ino, mask SetattrMask, attr Attr) (Attr, error)

	// Mknod creates a non-directory node (regular file, device, fifo or
	// socket) in parent.
	Mknod(op *Op, parent Ino, name string, typ FileType, mode Mode, rdev uint32) (Attr, error)

	// Mkdir creates a directory.
	Mkdir(op *Op, parent Ino, name string, mode Mode) (Attr, error)

	// Symlink creates a symbolic link containing target.
	Symlink(op *Op, parent Ino, name, target string) (Attr, error)

	// Readlink returns the target of a symlink.
	Readlink(op *Op, ino Ino) (string, error)

	// Unlink removes a non-directory entry.
	Unlink(op *Op, parent Ino, name string) error

	// Rmdir removes an empty directory.
	Rmdir(op *Op, parent Ino, name string) error

	// Rename moves oldName in oldParent to newName in newParent.
	Rename(op *Op, oldParent Ino, oldName string, newParent Ino, newName string, flags RenameFlags) error

	// Link creates a hard link to ino under parent/name.
	Link(op *Op, ino Ino, parent Ino, name string) (Attr, error)

	// Create atomically creates and opens a regular file.
	Create(op *Op, parent Ino, name string, mode Mode, flags OpenFlags) (Attr, Handle, error)

	// Open opens an existing file.
	Open(op *Op, ino Ino, flags OpenFlags) (Handle, error)

	// Read reads up to len(dest) bytes at off, returning the count read.
	// A short count with a nil error indicates end of file. Reads that
	// block (FIFOs, FUSE round trips) return EINTR when op is canceled.
	Read(op *Op, h Handle, off int64, dest []byte) (int, error)

	// Write writes data at off (or at end-of-file for O_APPEND handles)
	// and returns the count written.
	Write(op *Op, h Handle, off int64, data []byte) (int, error)

	// Flush is called on close(2) of each file descriptor referring to h.
	Flush(op *Op, h Handle) error

	// Fsync persists the file's data (and metadata, unless datasync).
	Fsync(op *Op, h Handle, datasync bool) error

	// Release drops the last reference to an open file handle.
	Release(op *Op, h Handle) error

	// Opendir opens a directory for reading.
	Opendir(op *Op, ino Ino) (Handle, error)

	// Readdir returns the directory's live entries whose cookie is above
	// off, in cookie order; off 0 starts a listing and an empty slice ends
	// it. A cookie (Dirent.Off) names an entry, not a position: cookies
	// strictly increase within a listing, and a call resumes at the first
	// live entry above off, so a listing that removes what it has read
	// misses nothing, and an entry untouched since the listing began is
	// returned once.
	Readdir(op *Op, h Handle, off int64) ([]Dirent, error)

	// Releasedir drops a directory handle.
	Releasedir(op *Op, h Handle) error

	// Statfs reports filesystem statistics.
	Statfs(op *Op, ino Ino) (StatfsOut, error)

	// Setxattr sets an extended attribute. flags follows setxattr(2):
	// 0 = create or replace, XattrCreate, XattrReplace.
	Setxattr(op *Op, ino Ino, name string, value []byte, flags XattrFlags) error

	// Getxattr reads an extended attribute.
	Getxattr(op *Op, ino Ino, name string) ([]byte, error)

	// Listxattr lists extended attribute names.
	Listxattr(op *Op, ino Ino) ([]string, error)

	// Removexattr deletes an extended attribute.
	Removexattr(op *Op, ino Ino, name string) error

	// Access checks accessibility per access(2) semantics.
	Access(op *Op, ino Ino, mask uint32) error

	// Fallocate manipulates file space (preallocate or punch holes).
	Fallocate(op *Op, h Handle, mode uint32, off, length int64) error
}

// XattrFlags controls Setxattr create/replace behaviour.
type XattrFlags uint32

// Setxattr flags per setxattr(2).
const (
	XattrCreate  XattrFlags = 1
	XattrReplace XattrFlags = 2
)

// OpStats counts filesystem operations. Counting lives in exactly one
// place — the Stats interceptor (see Chain) — rather than in each FS
// implementation, so benchmarks can attribute costs at any layer by
// inserting an interceptor there.
type OpStats struct {
	Lookups   int64
	Getattrs  int64
	Setattrs  int64
	Creates   int64
	Opens     int64
	Opendirs  int64
	Reads     int64
	Writes    int64
	BytesRead int64
	BytesWrit int64
	Fsyncs    int64
	Unlinks   int64
	Renames   int64
	Readdirs  int64
	Xattrs    int64
	Forgets   int64
	Releases  int64
	Statfs    int64
	Access    int64
}

// HandleExporter is the optional interface behind name_to_handle_at(2) /
// open_by_handle_at(2). Filesystems with persistent inodes (memfs)
// implement it; CntrFS does not, because its inodes are created on demand
// by lookups and invalidated by forgets — this is the cause of the
// paper's xfstests failure #426.
type HandleExporter interface {
	// NameToHandle returns an opaque, persistent handle for ino.
	NameToHandle(ino Ino) ([]byte, error)
	// OpenByHandle resolves a handle back to an inode.
	OpenByHandle(handle []byte) (Ino, error)
}

// SyncerFS is the optional interface for filesystem-wide sync (sync(2)).
type SyncerFS interface {
	SyncFS() error
}

// PageViewer is the optional interface of a filesystem that shares the
// bytes it stores for a file's whole 4 KiB pages (memfs over a private
// store): ViewPages sets views[i] to page first+i of ino as stored, or
// nil. A view's bytes never change while held. A layer that passes bytes
// on unchanged forwards the call with the inode its backing knows.
type PageViewer interface {
	ViewPages(ino Ino, first int64, views []*[4096]byte)
}

package vfs

import (
	"sync"
	"time"
)

// OpKind identifies one FS operation as seen by interceptors.
type OpKind uint8

// Operation kinds, one per FS method.
const (
	KindLookup OpKind = iota
	KindForget
	KindGetattr
	KindSetattr
	KindMknod
	KindMkdir
	KindSymlink
	KindReadlink
	KindUnlink
	KindRmdir
	KindRename
	KindLink
	KindCreate
	KindOpen
	KindRead
	KindWrite
	KindFlush
	KindFsync
	KindRelease
	KindOpendir
	KindReaddir
	KindReleasedir
	KindStatfs
	KindSetxattr
	KindGetxattr
	KindListxattr
	KindRemovexattr
	KindAccess
	KindFallocate
	numOpKinds
)

// KindAny matches every operation in fault rules.
const KindAny OpKind = numOpKinds

var kindNames = [numOpKinds]string{
	"lookup", "forget", "getattr", "setattr", "mknod", "mkdir", "symlink",
	"readlink", "unlink", "rmdir", "rename", "link", "create", "open",
	"read", "write", "flush", "fsync", "release", "opendir", "readdir",
	"releasedir", "statfs", "setxattr", "getxattr", "listxattr",
	"removexattr", "access", "fallocate",
}

// String implements fmt.Stringer.
func (k OpKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "any"
}

// KindFromString reverses OpKind.String, reporting false for unknown
// names. Policy profiles serialize kinds by name, so loading one needs
// the inverse mapping.
func KindFromString(s string) (OpKind, bool) {
	for i, n := range kindNames {
		if n == s {
			return OpKind(i), true
		}
	}
	if s == "any" {
		return KindAny, true
	}
	return 0, false
}

// OpInfo describes one operation flowing through an interceptor chain.
// The inner layer fills Bytes after the call for data operations, so
// interceptors that run code after next() see the transferred count.
type OpInfo struct {
	Kind OpKind
	Op   *Op
	// Ino is the inode (or parent directory) the operation addresses.
	// Handle-based operations (Read, Write, Flush, Fsync, Release,
	// Readdir, Releasedir, Fallocate) carry the inode the handle was
	// opened on, resolved from the chain's handle table; it is zero only
	// when the handle was opened before the chain existed.
	Ino Ino
	// Name is the directory-entry name for named operations.
	Name string
	// Bytes is the number of payload bytes actually moved (reads/writes),
	// valid after next() returns.
	Bytes int
	// ResultIno is the inode the operation resolved or created (Lookup,
	// Mknod, Mkdir, Symlink, Link, Create), valid after next() returns
	// with success. Trace consumers use it to learn ino→path bindings.
	ResultIno Ino
	// NewParentIno and NewName are the destination of a Rename (Ino and
	// Name hold the source), letting path-tracking consumers rebind.
	NewParentIno Ino
	NewName      string
	// Async marks the completion of a pipelined submission: the
	// operation was admitted by the SubmitInterceptor pass at submit
	// time, so gate-style interceptors must not re-decide it here.
	Async bool
	// BatchOps is the number of same-kind, same-inode operations a
	// single submit-time decision covers (a pipelined readahead window
	// or writeback extent batch): len(reqs) of the Submit call, so at
	// least one at a SubmitInterceptor, and zero everywhere else. Gates
	// apply the decision's accounting BatchOps times, so a window and
	// the same operations submitted one by one stay indistinguishable
	// in their outcomes.
	BatchOps int
}

// Interceptor wraps the invocation of one operation. Implementations may
// run code before and/or after next (stats, tracing), replace the result
// (fault injection: skip next and return an error), or delay it. The
// chain built by Chain applies interceptors outermost-first.
type Interceptor interface {
	Intercept(info *OpInfo, next func() error) error
}

// InterceptorFunc adapts a function to the Interceptor interface.
type InterceptorFunc func(info *OpInfo, next func() error) error

// Intercept implements Interceptor.
func (f InterceptorFunc) Intercept(info *OpInfo, next func() error) error {
	return f(info, next)
}

// SubmitInterceptor is the optional capability for interceptors that
// must decide an operation *before* it is dispatched. The interceptor
// chain runs ordinary interception around the completion (Await) of a
// pipelined submission — after the transport already carried the
// request — so a gate like the policy enforcer implements this too. It
// is called exactly once per Submit with the whole window (same kind,
// same inode, info.BatchOps = number of requests ≥ 1): one path lookup
// and one ceiling check decide it, and the gate's accounting must
// advance BatchOps times. A non-nil error fails the submission without
// dispatching it, and the completion-side Intercept sees info.Async and
// skips re-deciding.
type SubmitInterceptor interface {
	InterceptSubmit(info *OpInfo) error
}

// Chain wraps fs so every operation passes through the given interceptors
// in order (the first interceptor is outermost). With no interceptors fs
// is returned unchanged. The wrapper forwards the optional
// HandleExporter and SyncerFS interfaces by delegation, so stacking a
// chain does not change which features a stack advertises.
func Chain(fs FS, interceptors ...Interceptor) FS {
	if len(interceptors) == 0 {
		return fs
	}
	return &chainFS{fs: fs, ics: interceptors, handles: make(map[Handle]Ino)}
}

// Unwrap returns the filesystem beneath a Chain wrapper, or fs itself.
func Unwrap(fs FS) FS {
	if c, ok := fs.(*chainFS); ok {
		return c.fs
	}
	return fs
}

type chainFS struct {
	fs  FS
	ics []Interceptor

	// handles maps the open handles issued through this chain to the
	// inode they were opened on, so handle-based operations can be
	// attributed to a file in OpInfo.Ino — without it, traces (and the
	// policies generated from them) are blind to the hottest operations.
	// Data operations only read the table (RLock); open/release write.
	hmu     sync.RWMutex
	handles map[Handle]Ino
}

// trackHandle records that h refers to ino.
func (c *chainFS) trackHandle(h Handle, ino Ino) {
	c.hmu.Lock()
	c.handles[h] = ino
	c.hmu.Unlock()
}

// handleIno resolves a handle to the inode it was opened on; zero for
// handles the chain never saw open.
func (c *chainFS) handleIno(h Handle) Ino {
	c.hmu.RLock()
	ino := c.handles[h]
	c.hmu.RUnlock()
	return ino
}

// dropHandle forgets a released handle.
func (c *chainFS) dropHandle(h Handle) {
	c.hmu.Lock()
	delete(c.handles, h)
	c.hmu.Unlock()
}

// run invokes call through the interceptor chain.
func (c *chainFS) run(info *OpInfo, call func() error) error {
	next := call
	for i := len(c.ics) - 1; i >= 0; i-- {
		ic, inner := c.ics[i], next
		next = func() error { return ic.Intercept(info, inner) }
	}
	return next()
}

func (c *chainFS) Lookup(op *Op, parent Ino, name string) (Attr, error) {
	info := &OpInfo{Kind: KindLookup, Op: op, Ino: parent, Name: name}
	var attr Attr
	err := c.run(info, func() error {
		var err error
		attr, err = c.fs.Lookup(op, parent, name)
		if err == nil {
			info.ResultIno = attr.Ino
		}
		return err
	})
	return attr, err
}

func (c *chainFS) Forget(op *Op, ino Ino, nlookup uint64) {
	info := &OpInfo{Kind: KindForget, Op: op, Ino: ino}
	_ = c.run(info, func() error {
		c.fs.Forget(op, ino, nlookup)
		return nil
	})
}

func (c *chainFS) Getattr(op *Op, ino Ino) (Attr, error) {
	info := &OpInfo{Kind: KindGetattr, Op: op, Ino: ino}
	var attr Attr
	err := c.run(info, func() error {
		var err error
		attr, err = c.fs.Getattr(op, ino)
		return err
	})
	return attr, err
}

func (c *chainFS) Setattr(op *Op, ino Ino, mask SetattrMask, attr Attr) (Attr, error) {
	info := &OpInfo{Kind: KindSetattr, Op: op, Ino: ino}
	var out Attr
	err := c.run(info, func() error {
		var err error
		out, err = c.fs.Setattr(op, ino, mask, attr)
		return err
	})
	return out, err
}

func (c *chainFS) Mknod(op *Op, parent Ino, name string, typ FileType, mode Mode, rdev uint32) (Attr, error) {
	info := &OpInfo{Kind: KindMknod, Op: op, Ino: parent, Name: name}
	var attr Attr
	err := c.run(info, func() error {
		var err error
		attr, err = c.fs.Mknod(op, parent, name, typ, mode, rdev)
		if err == nil {
			info.ResultIno = attr.Ino
		}
		return err
	})
	return attr, err
}

func (c *chainFS) Mkdir(op *Op, parent Ino, name string, mode Mode) (Attr, error) {
	info := &OpInfo{Kind: KindMkdir, Op: op, Ino: parent, Name: name}
	var attr Attr
	err := c.run(info, func() error {
		var err error
		attr, err = c.fs.Mkdir(op, parent, name, mode)
		if err == nil {
			info.ResultIno = attr.Ino
		}
		return err
	})
	return attr, err
}

func (c *chainFS) Symlink(op *Op, parent Ino, name, target string) (Attr, error) {
	info := &OpInfo{Kind: KindSymlink, Op: op, Ino: parent, Name: name}
	var attr Attr
	err := c.run(info, func() error {
		var err error
		attr, err = c.fs.Symlink(op, parent, name, target)
		if err == nil {
			info.ResultIno = attr.Ino
		}
		return err
	})
	return attr, err
}

func (c *chainFS) Readlink(op *Op, ino Ino) (string, error) {
	info := &OpInfo{Kind: KindReadlink, Op: op, Ino: ino}
	var target string
	err := c.run(info, func() error {
		var err error
		target, err = c.fs.Readlink(op, ino)
		return err
	})
	return target, err
}

func (c *chainFS) Unlink(op *Op, parent Ino, name string) error {
	info := &OpInfo{Kind: KindUnlink, Op: op, Ino: parent, Name: name}
	return c.run(info, func() error { return c.fs.Unlink(op, parent, name) })
}

func (c *chainFS) Rmdir(op *Op, parent Ino, name string) error {
	info := &OpInfo{Kind: KindRmdir, Op: op, Ino: parent, Name: name}
	return c.run(info, func() error { return c.fs.Rmdir(op, parent, name) })
}

func (c *chainFS) Rename(op *Op, oldParent Ino, oldName string, newParent Ino, newName string, flags RenameFlags) error {
	info := &OpInfo{Kind: KindRename, Op: op, Ino: oldParent, Name: oldName,
		NewParentIno: newParent, NewName: newName}
	return c.run(info, func() error {
		return c.fs.Rename(op, oldParent, oldName, newParent, newName, flags)
	})
}

func (c *chainFS) Link(op *Op, ino Ino, parent Ino, name string) (Attr, error) {
	info := &OpInfo{Kind: KindLink, Op: op, Ino: parent, Name: name}
	var attr Attr
	err := c.run(info, func() error {
		var err error
		attr, err = c.fs.Link(op, ino, parent, name)
		if err == nil {
			info.ResultIno = attr.Ino
		}
		return err
	})
	return attr, err
}

func (c *chainFS) Create(op *Op, parent Ino, name string, mode Mode, flags OpenFlags) (Attr, Handle, error) {
	info := &OpInfo{Kind: KindCreate, Op: op, Ino: parent, Name: name}
	var attr Attr
	var h Handle
	err := c.run(info, func() error {
		var err error
		attr, h, err = c.fs.Create(op, parent, name, mode, flags)
		if err == nil {
			info.ResultIno = attr.Ino
			c.trackHandle(h, attr.Ino)
		}
		return err
	})
	return attr, h, err
}

func (c *chainFS) Open(op *Op, ino Ino, flags OpenFlags) (Handle, error) {
	info := &OpInfo{Kind: KindOpen, Op: op, Ino: ino}
	var h Handle
	err := c.run(info, func() error {
		var err error
		h, err = c.fs.Open(op, ino, flags)
		if err == nil {
			c.trackHandle(h, ino)
		}
		return err
	})
	return h, err
}

func (c *chainFS) Read(op *Op, h Handle, off int64, dest []byte) (int, error) {
	info := &OpInfo{Kind: KindRead, Op: op, Ino: c.handleIno(h)}
	var n int
	err := c.run(info, func() error {
		var err error
		n, err = c.fs.Read(op, h, off, dest)
		info.Bytes = n
		return err
	})
	return n, err
}

func (c *chainFS) Write(op *Op, h Handle, off int64, data []byte) (int, error) {
	info := &OpInfo{Kind: KindWrite, Op: op, Ino: c.handleIno(h)}
	var n int
	err := c.run(info, func() error {
		var err error
		n, err = c.fs.Write(op, h, off, data)
		info.Bytes = n
		return err
	})
	return n, err
}

func (c *chainFS) Flush(op *Op, h Handle) error {
	info := &OpInfo{Kind: KindFlush, Op: op, Ino: c.handleIno(h)}
	return c.run(info, func() error { return c.fs.Flush(op, h) })
}

func (c *chainFS) Fsync(op *Op, h Handle, datasync bool) error {
	info := &OpInfo{Kind: KindFsync, Op: op, Ino: c.handleIno(h)}
	return c.run(info, func() error { return c.fs.Fsync(op, h, datasync) })
}

func (c *chainFS) Release(op *Op, h Handle) error {
	info := &OpInfo{Kind: KindRelease, Op: op, Ino: c.handleIno(h)}
	err := c.run(info, func() error { return c.fs.Release(op, h) })
	c.dropHandle(h)
	return err
}

func (c *chainFS) Opendir(op *Op, ino Ino) (Handle, error) {
	info := &OpInfo{Kind: KindOpendir, Op: op, Ino: ino}
	var h Handle
	err := c.run(info, func() error {
		var err error
		h, err = c.fs.Opendir(op, ino)
		if err == nil {
			c.trackHandle(h, ino)
		}
		return err
	})
	return h, err
}

func (c *chainFS) Readdir(op *Op, h Handle, off int64) ([]Dirent, error) {
	info := &OpInfo{Kind: KindReaddir, Op: op, Ino: c.handleIno(h)}
	var ents []Dirent
	err := c.run(info, func() error {
		var err error
		ents, err = c.fs.Readdir(op, h, off)
		return err
	})
	return ents, err
}

func (c *chainFS) Releasedir(op *Op, h Handle) error {
	info := &OpInfo{Kind: KindReleasedir, Op: op, Ino: c.handleIno(h)}
	err := c.run(info, func() error { return c.fs.Releasedir(op, h) })
	c.dropHandle(h)
	return err
}

func (c *chainFS) Statfs(op *Op, ino Ino) (StatfsOut, error) {
	info := &OpInfo{Kind: KindStatfs, Op: op, Ino: ino}
	var st StatfsOut
	err := c.run(info, func() error {
		var err error
		st, err = c.fs.Statfs(op, ino)
		return err
	})
	return st, err
}

func (c *chainFS) Setxattr(op *Op, ino Ino, name string, value []byte, flags XattrFlags) error {
	info := &OpInfo{Kind: KindSetxattr, Op: op, Ino: ino, Name: name}
	return c.run(info, func() error {
		return c.fs.Setxattr(op, ino, name, value, flags)
	})
}

func (c *chainFS) Getxattr(op *Op, ino Ino, name string) ([]byte, error) {
	info := &OpInfo{Kind: KindGetxattr, Op: op, Ino: ino, Name: name}
	var v []byte
	err := c.run(info, func() error {
		var err error
		v, err = c.fs.Getxattr(op, ino, name)
		return err
	})
	return v, err
}

func (c *chainFS) Listxattr(op *Op, ino Ino) ([]string, error) {
	info := &OpInfo{Kind: KindListxattr, Op: op, Ino: ino}
	var names []string
	err := c.run(info, func() error {
		var err error
		names, err = c.fs.Listxattr(op, ino)
		return err
	})
	return names, err
}

func (c *chainFS) Removexattr(op *Op, ino Ino, name string) error {
	info := &OpInfo{Kind: KindRemovexattr, Op: op, Ino: ino, Name: name}
	return c.run(info, func() error { return c.fs.Removexattr(op, ino, name) })
}

func (c *chainFS) Access(op *Op, ino Ino, mask uint32) error {
	info := &OpInfo{Kind: KindAccess, Op: op, Ino: ino}
	return c.run(info, func() error { return c.fs.Access(op, ino, mask) })
}

func (c *chainFS) Fallocate(op *Op, h Handle, mode uint32, off, length int64) error {
	info := &OpInfo{Kind: KindFallocate, Op: op, Ino: c.handleIno(h)}
	return c.run(info, func() error {
		return c.fs.Fallocate(op, h, mode, off, length)
	})
}

// Unwrap exposes the chained filesystem so capability probes
// (vfs.IsAsync) can see through the wrapper.
func (c *chainFS) Unwrap() FS { return c.fs }

// admitSubmit runs the chain's submit-time gates over one pipelined
// window (info.BatchOps same-kind operations on one inode), one call
// per gate; a non-nil error means the submission must fail without
// dispatching anything. A denied submission is still routed through
// the ordinary interceptor chain once with its error pre-resolved
// (info.Async set, so the denying gate does not re-decide; BatchOps
// preserved, so observers know the scope of what was refused) — outer
// interceptors such as a tracer observe the denial exactly as they
// would on the synchronous path.
func (c *chainFS) admitSubmit(info *OpInfo) error {
	for _, ic := range c.ics {
		si, ok := ic.(SubmitInterceptor)
		if !ok {
			continue
		}
		if err := si.InterceptSubmit(info); err != nil {
			info.Async = true
			if rerr := c.run(info, func() error { return err }); rerr != nil {
				return rerr
			}
			// An interceptor swallowed the error; the gate's denial
			// still stands — nothing was dispatched.
			return err
		}
	}
	return nil
}

// Submit implements vfs.AsyncFS, and is the one place that knows how a
// pipelined window is admitted and dispatched. Gate-style interceptors
// (SubmitInterceptor) decide here, before anything is dispatched — a
// denial at Await would come after the I/O already ran — and a denial
// fails every future of the window. The interceptor chain proper runs
// around each *completion* (Await), not the submission, so stats and
// fault rules observe every operation exactly once with its final byte
// count — the same point at which the synchronous path reports it.
func (c *chainFS) Submit(op *Op, h Handle, kind OpKind, reqs []IOReq) []PendingIO {
	a, ok := c.fs.(AsyncFS)
	if !ok {
		return submitInline(c, op, h, kind, reqs)
	}
	if out, rejected := rejectWindow(kind, len(reqs)); rejected {
		return out
	}
	info := &OpInfo{Kind: kind, Op: op, Ino: c.handleIno(h), BatchOps: len(reqs)}
	if err := c.admitSubmit(info); err != nil {
		return failedWindow(len(reqs), err)
	}
	out := a.Submit(op, h, kind, reqs)
	for i, p := range out {
		out[i] = &chainPending{c: c, kind: kind, ino: info.Ino, inner: p}
	}
	return out
}

// chainPending routes an asynchronous completion through the interceptor
// chain when it is awaited.
type chainPending struct {
	c     *chainFS
	kind  OpKind
	ino   Ino // resolved from the handle at submit time
	inner PendingIO
}

// Await implements PendingIO.
func (p *chainPending) Await(op *Op) (int, error) {
	info := &OpInfo{Kind: p.kind, Op: op, Ino: p.ino, Async: true}
	var n int
	reached := false
	err := p.c.run(info, func() error {
		reached = true
		var err error
		n, err = p.inner.Await(op)
		info.Bytes = n
		return err
	})
	if !reached {
		// An interceptor short-circuited (e.g. an injected fault) without
		// calling through: the wire future must still be reaped — a reply
		// slot is never abandoned, and the transport's pipelining
		// accounting balances at Await.
		p.inner.Await(op)
	}
	return n, err
}

// NameToHandle implements vfs.HandleExporter by delegation, preserving
// the wrapped filesystem's exportability (xfstests #426 depends on the
// answer differing between memfs and a FUSE connection).
func (c *chainFS) NameToHandle(ino Ino) ([]byte, error) {
	if ex, ok := c.fs.(HandleExporter); ok {
		return ex.NameToHandle(ino)
	}
	return nil, EOPNOTSUPP
}

// OpenByHandle implements vfs.HandleExporter by delegation.
func (c *chainFS) OpenByHandle(handle []byte) (Ino, error) {
	if ex, ok := c.fs.(HandleExporter); ok {
		return ex.OpenByHandle(handle)
	}
	return 0, EOPNOTSUPP
}

// SyncFS implements vfs.SyncerFS by delegation.
func (c *chainFS) SyncFS() error {
	if s, ok := c.fs.(SyncerFS); ok {
		return s.SyncFS()
	}
	return nil
}

// Stats is the one place operation counters live: an interceptor that
// accumulates an OpStats across every operation passing through it. It
// replaces the per-filesystem counting memfs, cntrfs, unionfs and
// fuse.Conn used to duplicate.
type Stats struct {
	mu sync.Mutex
	s  OpStats
}

// NewStats returns an empty stats interceptor.
func NewStats() *Stats { return &Stats{} }

// Intercept implements Interceptor. Counting happens after next() so
// Bytes is valid for data operations; failed operations are still
// counted, matching the seed's per-FS counters which incremented on
// entry.
func (st *Stats) Intercept(info *OpInfo, next func() error) error {
	err := next()
	st.mu.Lock()
	switch info.Kind {
	case KindLookup:
		st.s.Lookups++
	case KindForget:
		st.s.Forgets++
	case KindGetattr:
		st.s.Getattrs++
	case KindSetattr:
		st.s.Setattrs++
	case KindMknod, KindMkdir, KindSymlink, KindLink, KindCreate:
		st.s.Creates++
	case KindOpen:
		st.s.Opens++
	case KindOpendir:
		st.s.Opendirs++
	case KindRead:
		st.s.Reads++
		st.s.BytesRead += int64(info.Bytes)
	case KindWrite:
		st.s.Writes++
		st.s.BytesWrit += int64(info.Bytes)
	case KindFsync:
		st.s.Fsyncs++
	case KindUnlink, KindRmdir:
		st.s.Unlinks++
	case KindRename:
		st.s.Renames++
	case KindReaddir:
		st.s.Readdirs++
	case KindSetxattr, KindGetxattr, KindListxattr, KindRemovexattr:
		st.s.Xattrs++
	case KindRelease, KindReleasedir:
		st.s.Releases++
	case KindStatfs:
		st.s.Statfs++
	case KindAccess:
		st.s.Access++
	}
	st.mu.Unlock()
	return err
}

// Snapshot returns a copy of the accumulated counters.
func (st *Stats) Snapshot() OpStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.s
}

// Reset zeroes the counters.
func (st *Stats) Reset() {
	st.mu.Lock()
	st.s = OpStats{}
	st.mu.Unlock()
}

// TraceEntry is one record emitted by a Tracer.
type TraceEntry struct {
	Kind OpKind
	ID   uint64
	PID  uint32
	Ino  Ino
	// ResultIno is the inode the operation resolved or created (see
	// OpInfo.ResultIno); policy collectors use the (Ino, Name, ResultIno)
	// triple to learn the inode→path mapping from the trace itself.
	ResultIno Ino
	Name      string
	// NewParentIno/NewName carry a Rename's destination so path
	// tracking can rebind the moved subtree.
	NewParentIno Ino
	NewName      string
	Bytes        int
	Errno        Errno
}

// Tracer records every operation in a bounded ring buffer and/or a sink
// callback — the uniform per-operation hook point policy tooling (BEACON-
// style trace collection) builds on.
type Tracer struct {
	mu   sync.Mutex
	ring []TraceEntry
	next int
	full bool
	// Sink, when set, receives every entry synchronously, on the
	// goroutine of the traced operation and after it has run.
	Sink func(TraceEntry)
}

// NewTracer returns a tracer keeping the last capacity entries
// (capacity <= 0 means 1024).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Tracer{ring: make([]TraceEntry, capacity)}
}

// Intercept implements Interceptor.
func (t *Tracer) Intercept(info *OpInfo, next func() error) error {
	err := next()
	e := TraceEntry{
		Kind:         info.Kind,
		Ino:          info.Ino,
		ResultIno:    info.ResultIno,
		Name:         info.Name,
		NewParentIno: info.NewParentIno,
		NewName:      info.NewName,
		Bytes:        info.Bytes,
		Errno:        ToErrno(err),
	}
	if info.Op != nil {
		e.ID, e.PID = info.Op.ID, info.Op.PID
	}
	t.mu.Lock()
	t.ring[t.next] = e
	t.next++
	if t.next == len(t.ring) {
		t.next, t.full = 0, true
	}
	sink := t.Sink
	t.mu.Unlock()
	if sink != nil {
		sink(e)
	}
	return err
}

// Entries returns the recorded operations, oldest first.
func (t *Tracer) Entries() []TraceEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]TraceEntry(nil), t.ring[:t.next]...)
	}
	out := make([]TraceEntry, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// FaultRule selects operations for fault or latency injection.
type FaultRule struct {
	// Kind restricts the rule to one operation kind; KindAny matches all.
	Kind OpKind
	// Errno, when non-zero, is returned instead of running the operation.
	Errno Errno
	// Delay is injected before the operation runs (via the injector's
	// Sleep hook, so simulated clocks work too).
	Delay time.Duration
	// EveryN fires the rule on every Nth matching operation; 0 or 1 means
	// every match.
	EveryN int64
}

// FaultInjector is an interceptor that injects errors and latency
// according to a rule list — the test double for flaky backing stores and
// slow transports.
type FaultInjector struct {
	mu     sync.Mutex
	rules  []FaultRule
	counts []int64
	// Sleep implements Delay; defaults to time.Sleep. Simulation callers
	// point it at their virtual clock.
	Sleep func(time.Duration)
}

// NewFaultInjector builds an injector with the given rules.
func NewFaultInjector(rules ...FaultRule) *FaultInjector {
	return &FaultInjector{rules: rules, counts: make([]int64, len(rules)), Sleep: time.Sleep}
}

// Intercept implements Interceptor.
func (f *FaultInjector) Intercept(info *OpInfo, next func() error) error {
	var delay time.Duration
	var inject Errno
	f.mu.Lock()
	for i := range f.rules {
		r := &f.rules[i]
		if r.Kind != KindAny && r.Kind != info.Kind {
			continue
		}
		f.counts[i]++
		n := r.EveryN
		if n <= 1 {
			n = 1
		}
		if f.counts[i]%n != 0 {
			continue
		}
		delay += r.Delay
		if inject == OK && r.Errno != OK {
			inject = r.Errno
		}
	}
	sleep := f.Sleep
	f.mu.Unlock()
	if delay > 0 && sleep != nil {
		sleep(delay)
	}
	if inject != OK {
		return inject
	}
	return next()
}

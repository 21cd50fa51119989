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
// It is the chain's, lent for the call: it is recycled when the call
// returns, so an interceptor copies what it keeps (as policy.Run does
// into its aggregates) and leaves Kind and Op, which name the call,
// alone.
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
	// with success. Path-tracking consumers use it to learn ino→path
	// bindings.
	ResultIno Ino
	// NewParentIno and NewName are the destination of a Rename (Ino and
	// Name hold the source), letting path-tracking consumers rebind.
	NewParentIno Ino
	NewName      string
}

// Interceptor wraps the invocation of one operation. Implementations may
// run code before and/or after next (stats, tracing), replace the result
// (fault injection: skip next and return an error), or delay it. The
// chain built by Chain applies interceptors outermost-first. info, next
// and info.Op are lent until Intercept returns: none may be kept, and
// next may not be called later or from a goroutine that outlives the call.
type Interceptor interface {
	Intercept(info *OpInfo, next func() error) error
}

// InterceptorFunc adapts a function to the Interceptor interface.
type InterceptorFunc func(info *OpInfo, next func() error) error

// Intercept implements Interceptor.
func (f InterceptorFunc) Intercept(info *OpInfo, next func() error) error {
	return f(info, next)
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

type chainFS struct {
	fs     FS
	ics    []Interceptor
	frames sync.Pool // of *frame: a call through the chain allocates nothing

	// handles maps the open handles issued through this chain to the
	// inode they were opened on, so handle-based operations can be
	// attributed to a file in OpInfo.Ino — without it, traces (and the
	// policies generated from them) are blind to the hottest operations.
	// Data operations only read the table (RLock); open/release write.
	hmu     sync.RWMutex
	handles map[Handle]Ino
}

// handleIno resolves a handle to the inode it was opened on; zero for
// handles the chain never saw open.
func (c *chainFS) handleIno(h Handle) Ino {
	c.hmu.RLock()
	ino := c.handles[h]
	c.hmu.RUnlock()
	return ino
}

// args is what the wrapped method of one call takes and results what it
// returns; each kind uses the fields its signature has.
type args struct {
	ino, src, newParent   Ino // ino is what OpInfo.Ino shows: a handle's inode for the handle kinds
	name, newName, target string
	h                     Handle
	off, length           int64
	buf                   []byte // Read's dest, Write's data, Setxattr's value
	attr                  Attr
	mask                  SetattrMask
	typ                   FileType
	mode                  Mode
	flags                 uint32 // open, rename or xattr flags; Mknod's rdev, Access's mask, Fallocate's mode
	nlookup               uint64
	datasync              bool
}

type results struct {
	attr  Attr
	h     Handle
	n     int
	str   string
	ents  []Dirent
	names []string
	val   []byte
	st    StatfsOut
	err   error
}

func (r results) attrErr() (Attr, error)     { return r.attr, r.err }
func (r results) handleErr() (Handle, error) { return r.h, r.err }
func (r results) countErr() (int, error)     { return r.n, r.err }

// frame is one call on its way through a chain, recycled when the call
// returns: info and next, all an interceptor is handed, are its until then.
type frame struct {
	c     *chainFS
	info  OpInfo
	depth int          // the interceptor next() enters; len(c.ics) is the wrapped filesystem
	next  func() error // f.step, bound when the frame is first made
	args
	results
}

// enter takes a frame for one call.
func (c *chainFS) enter(kind OpKind, op *Op, a *args) *frame {
	f, _ := c.frames.Get().(*frame)
	if f == nil {
		f = &frame{c: c}
		f.next = f.step
	}
	f.info = OpInfo{Kind: kind, Op: op, Ino: a.ino, Name: a.name,
		NewParentIno: a.newParent, NewName: a.newName}
	f.args = *a
	return f
}

// leave wipes a frame whose call has returned — the next call must not
// find this one's results — and recycles it. A call that panics never
// gets here: its frame is left to the collector.
func (c *chainFS) leave(f *frame) {
	*f = frame{c: c, next: f.next}
	if p := poison.Load(); p != nil {
		f.info = *p
	}
	c.frames.Put(f)
}

// do runs one call through the chain.
func (c *chainFS) do(kind OpKind, op *Op, a *args) results {
	f := c.enter(kind, op, a)
	f.err = f.step()
	r := f.results
	c.leave(f)
	if kind == KindRelease || kind == KindReleasedir { // whether or not the call got through
		c.hmu.Lock()
		delete(c.handles, a.h)
		c.hmu.Unlock()
	}
	return r
}

// step is every interceptor's next: it enters the interceptor at the
// frame's depth or, past the last, the wrapped filesystem, and restores
// the depth on the way out — next may be called never, once, or again.
func (f *frame) step() error {
	d := f.depth
	if d == len(f.c.ics) {
		return f.call()
	}
	f.depth = d + 1
	err := f.c.ics[d].Intercept(&f.info, f.next)
	f.depth = d
	return err
}

// call is the innermost step.
func (f *frame) call() (err error) {
	fs, op, a, r := f.c.fs, f.info.Op, &f.args, &f.results
	switch f.info.Kind {
	case KindLookup:
		r.attr, err = fs.Lookup(op, a.ino, a.name)
	case KindForget:
		fs.Forget(op, a.ino, a.nlookup)
	case KindGetattr:
		r.attr, err = fs.Getattr(op, a.ino)
	case KindSetattr:
		r.attr, err = fs.Setattr(op, a.ino, a.mask, a.attr)
	case KindMknod:
		r.attr, err = fs.Mknod(op, a.ino, a.name, a.typ, a.mode, a.flags)
	case KindMkdir:
		r.attr, err = fs.Mkdir(op, a.ino, a.name, a.mode)
	case KindSymlink:
		r.attr, err = fs.Symlink(op, a.ino, a.name, a.target)
	case KindReadlink:
		r.str, err = fs.Readlink(op, a.ino)
	case KindUnlink:
		err = fs.Unlink(op, a.ino, a.name)
	case KindRmdir:
		err = fs.Rmdir(op, a.ino, a.name)
	case KindRename:
		err = fs.Rename(op, a.ino, a.name, a.newParent, a.newName, RenameFlags(a.flags))
	case KindLink:
		r.attr, err = fs.Link(op, a.src, a.ino, a.name)
	case KindCreate:
		r.attr, r.h, err = fs.Create(op, a.ino, a.name, a.mode, OpenFlags(a.flags))
	case KindOpen:
		r.h, err = fs.Open(op, a.ino, OpenFlags(a.flags))
	case KindRead:
		r.n, err = fs.Read(op, a.h, a.off, a.buf)
		f.info.Bytes = r.n
	case KindWrite:
		r.n, err = fs.Write(op, a.h, a.off, a.buf)
		f.info.Bytes = r.n
	case KindFlush:
		err = fs.Flush(op, a.h)
	case KindFsync:
		err = fs.Fsync(op, a.h, a.datasync)
	case KindRelease:
		err = fs.Release(op, a.h)
	case KindOpendir:
		r.h, err = fs.Opendir(op, a.ino)
	case KindReaddir:
		r.ents, err = fs.Readdir(op, a.h, a.off)
	case KindReleasedir:
		err = fs.Releasedir(op, a.h)
	case KindStatfs:
		r.st, err = fs.Statfs(op, a.ino)
	case KindSetxattr:
		err = fs.Setxattr(op, a.ino, a.name, a.buf, XattrFlags(a.flags))
	case KindGetxattr:
		r.val, err = fs.Getxattr(op, a.ino, a.name)
	case KindListxattr:
		r.names, err = fs.Listxattr(op, a.ino)
	case KindRemovexattr:
		err = fs.Removexattr(op, a.ino, a.name)
	case KindAccess:
		err = fs.Access(op, a.ino, a.flags)
	case KindFallocate:
		err = fs.Fallocate(op, a.h, a.flags, a.off, a.length)
	}
	if err != nil {
		return err
	}
	switch ino := a.ino; f.info.Kind {
	case KindLookup, KindMknod, KindMkdir, KindSymlink, KindLink:
		f.info.ResultIno = r.attr.Ino
	case KindCreate:
		f.info.ResultIno, ino = r.attr.Ino, r.attr.Ino
		fallthrough
	case KindOpen, KindOpendir:
		f.c.hmu.Lock()
		f.c.handles[r.h] = ino
		f.c.hmu.Unlock()
	}
	return nil
}

func (c *chainFS) Lookup(op *Op, parent Ino, name string) (Attr, error) {
	return c.do(KindLookup, op, &args{ino: parent, name: name}).attrErr()
}

func (c *chainFS) Forget(op *Op, ino Ino, nlookup uint64) {
	c.do(KindForget, op, &args{ino: ino, nlookup: nlookup})
}

func (c *chainFS) Getattr(op *Op, ino Ino) (Attr, error) {
	return c.do(KindGetattr, op, &args{ino: ino}).attrErr()
}

func (c *chainFS) Setattr(op *Op, ino Ino, mask SetattrMask, attr Attr) (Attr, error) {
	return c.do(KindSetattr, op, &args{ino: ino, mask: mask, attr: attr}).attrErr()
}

func (c *chainFS) Mknod(op *Op, parent Ino, name string, typ FileType, mode Mode, rdev uint32) (Attr, error) {
	return c.do(KindMknod, op, &args{ino: parent, name: name, typ: typ, mode: mode, flags: rdev}).attrErr()
}

func (c *chainFS) Mkdir(op *Op, parent Ino, name string, mode Mode) (Attr, error) {
	return c.do(KindMkdir, op, &args{ino: parent, name: name, mode: mode}).attrErr()
}

func (c *chainFS) Symlink(op *Op, parent Ino, name, target string) (Attr, error) {
	return c.do(KindSymlink, op, &args{ino: parent, name: name, target: target}).attrErr()
}

func (c *chainFS) Readlink(op *Op, ino Ino) (string, error) {
	r := c.do(KindReadlink, op, &args{ino: ino})
	return r.str, r.err
}

func (c *chainFS) Unlink(op *Op, parent Ino, name string) error {
	return c.do(KindUnlink, op, &args{ino: parent, name: name}).err
}

func (c *chainFS) Rmdir(op *Op, parent Ino, name string) error {
	return c.do(KindRmdir, op, &args{ino: parent, name: name}).err
}

func (c *chainFS) Rename(op *Op, oldParent Ino, oldName string, newParent Ino, newName string, flags RenameFlags) error {
	return c.do(KindRename, op, &args{ino: oldParent, name: oldName,
		newParent: newParent, newName: newName, flags: uint32(flags)}).err
}

func (c *chainFS) Link(op *Op, ino Ino, parent Ino, name string) (Attr, error) {
	return c.do(KindLink, op, &args{ino: parent, name: name, src: ino}).attrErr()
}

func (c *chainFS) Create(op *Op, parent Ino, name string, mode Mode, flags OpenFlags) (Attr, Handle, error) {
	r := c.do(KindCreate, op, &args{ino: parent, name: name, mode: mode, flags: uint32(flags)})
	return r.attr, r.h, r.err
}

func (c *chainFS) Open(op *Op, ino Ino, flags OpenFlags) (Handle, error) {
	return c.do(KindOpen, op, &args{ino: ino, flags: uint32(flags)}).handleErr()
}

func (c *chainFS) Read(op *Op, h Handle, off int64, dest []byte) (int, error) {
	return c.do(KindRead, op, &args{ino: c.handleIno(h), h: h, off: off, buf: dest}).countErr()
}

func (c *chainFS) Write(op *Op, h Handle, off int64, data []byte) (int, error) {
	return c.do(KindWrite, op, &args{ino: c.handleIno(h), h: h, off: off, buf: data}).countErr()
}

func (c *chainFS) Flush(op *Op, h Handle) error {
	return c.do(KindFlush, op, &args{ino: c.handleIno(h), h: h}).err
}

func (c *chainFS) Fsync(op *Op, h Handle, datasync bool) error {
	return c.do(KindFsync, op, &args{ino: c.handleIno(h), h: h, datasync: datasync}).err
}

func (c *chainFS) Release(op *Op, h Handle) error {
	return c.do(KindRelease, op, &args{ino: c.handleIno(h), h: h}).err
}

func (c *chainFS) Opendir(op *Op, ino Ino) (Handle, error) {
	return c.do(KindOpendir, op, &args{ino: ino}).handleErr()
}

func (c *chainFS) Readdir(op *Op, h Handle, off int64) ([]Dirent, error) {
	r := c.do(KindReaddir, op, &args{ino: c.handleIno(h), h: h, off: off})
	return r.ents, r.err
}

func (c *chainFS) Releasedir(op *Op, h Handle) error {
	return c.do(KindReleasedir, op, &args{ino: c.handleIno(h), h: h}).err
}

func (c *chainFS) Statfs(op *Op, ino Ino) (StatfsOut, error) {
	r := c.do(KindStatfs, op, &args{ino: ino})
	return r.st, r.err
}

func (c *chainFS) Setxattr(op *Op, ino Ino, name string, value []byte, flags XattrFlags) error {
	return c.do(KindSetxattr, op, &args{ino: ino, name: name, buf: value, flags: uint32(flags)}).err
}

func (c *chainFS) Getxattr(op *Op, ino Ino, name string) ([]byte, error) {
	r := c.do(KindGetxattr, op, &args{ino: ino, name: name})
	return r.val, r.err
}

func (c *chainFS) Listxattr(op *Op, ino Ino) ([]string, error) {
	r := c.do(KindListxattr, op, &args{ino: ino})
	return r.names, r.err
}

func (c *chainFS) Removexattr(op *Op, ino Ino, name string) error {
	return c.do(KindRemovexattr, op, &args{ino: ino, name: name}).err
}

func (c *chainFS) Access(op *Op, ino Ino, mask uint32) error {
	return c.do(KindAccess, op, &args{ino: ino, flags: mask}).err
}

func (c *chainFS) Fallocate(op *Op, h Handle, mode uint32, off, length int64) error {
	return c.do(KindFallocate, op, &args{ino: c.handleIno(h), h: h, flags: mode, off: off, length: length}).err
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

package fuse

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// MountOptions selects the protocol features negotiated at INIT time.
// KeepCache through BatchForget are the paper's §3.3 optimizations, and
// MaxWrite, the two timeouts and ServerThreads the settings its CntrFS
// mounts with: PaperMountOptions is that configuration. Eight rules are
// beyond the paper (on in DefaultMountOptions only): NoSec, NoFlush,
// DirectRead, SyncByFsync, NoOpen, NoOpendir, ReaddirPlus and a 1 MiB
// MaxWrite.
type MountOptions struct {
	// KeepCache sets FOPEN_KEEP_CACHE on every open, letting the page
	// cache above survive re-opens (read-cache optimization, Fig. 3a).
	KeepCache bool
	// WritebackCache enables FUSE_WRITEBACK_CACHE (Fig. 3b). The flag is
	// consumed by the page cache stacked above the connection; it is
	// carried here because it is negotiated at mount time.
	WritebackCache bool
	// ParallelDirops enables FUSE_PARALLEL_DIROPS: concurrent directory
	// lookups are batched to the server instead of serialized, which
	// amortizes round trips during tree scans (Fig. 3c).
	ParallelDirops bool
	// AsyncRead enables FUSE_ASYNC_READ, letting the kernel issue large
	// batched read requests (readahead) instead of page-sized ones.
	AsyncRead bool
	// SpliceRead moves read payloads through a kernel pipe instead of
	// copying them to userspace (Fig. 3d).
	SpliceRead bool
	// SpliceWrite moves write payloads by reference, but forces an extra
	// context switch on *every* request because the header cannot be read
	// without the data; the paper leaves it off by default (§3.3).
	SpliceWrite bool
	// BatchForget coalesces forget messages into FUSE_BATCH_FORGET
	// frames of up to ForgetBatchSize.
	BatchForget bool
	// MaxWrite caps the payload of one WRITE request and the size of one
	// READ, and with it one writeback extent of the kernel-side cache
	// (fc->max_write). The paper's CntrFS sends 128 KiB, the FUSE limit of
	// its day (32 pages, PaperMountOptions). Beyond the paper, Linux 4.20's
	// FUSE_MAX_PAGES lets INIT raise it to FUSE_MAX_MAX_PAGES, 256 pages:
	// DefaultMountOptions sends 1 MiB. Readahead does not follow: Linux's
	// ra_pages is the minimum of the bdi default and INIT's max_readahead,
	// so READs stay at stack.Config.ReadAhead. Mount takes zero as 128 KiB.
	MaxWrite int
	// EntryTimeout is how long (virtual time) the kernel may cache a
	// dentry from LOOKUP before revalidating. Zero disables caching.
	EntryTimeout time.Duration
	// AttrTimeout is the analogous attribute-cache lifetime. A change made
	// behind the mount's back (directly on the host filesystem) may go
	// unseen for this long: the mode bits always had that window.
	AttrTimeout time.Duration
	// NoSec is beyond the paper, whose CntrFS pays a GETXATTR round trip
	// for security.capability on every write(2) (§5.2.2). It models a
	// mount that negotiates FUSE_HANDLE_KILLPRIV_V2, for which Linux sets
	// SB_NOSEC: the first write to an inode asks the server, and an
	// ENODATA answer marks the inode "nothing to kill" (S_NOSEC) for
	// AttrTimeout, so later writes cost neither the lookup nor the round
	// trip — what a native filesystem pays. Every xattr or attribute
	// change made through the mount clears the mark; one made behind its
	// back shares AttrTimeout's staleness window. A file made through the
	// mount by CREATE or MKNOD is born marked: the request is exclusive and
	// a new inode inherits no security.capability, which is what xfs, gfs2
	// and ocfs2 conclude natively for an inode instantiated without xattrs
	// (inode_has_no_xattr). Off in PaperMountOptions.
	NoSec bool
	// NoFlush is beyond the paper, whose CntrFS answers every close(2)'s
	// FLUSH by dup+close on the host file. It is the server's side of the
	// kernel's fc->no_flush: the server replies ENOSYS to FLUSH without
	// calling the filesystem, and the connection, on the first such reply,
	// stops sending the request for good. close(2) still writes the file's
	// dirty pages back (the page cache's FlushOnClose) and still reports
	// their failure; what it no longer reports is what only the
	// filesystem's own flush could find, and no vfs.FS here has more to
	// find than a handle it does not know. Off in PaperMountOptions.
	NoFlush bool
	// DirectRead is beyond the paper, whose large reads are cached on both
	// sides of /dev/fuse so that the effective page cache halves (§5.2.1).
	// It is the server's choice of flags for its own host descriptor: an
	// OPEN whose access mode is O_RDONLY (and that neither truncates,
	// creates nor appends) opens the host file O_DIRECT, so the mount's
	// READs go past the host page cache — which writes the file's dirty
	// host pages back first, as Linux does for O_DIRECT — and the data is
	// held once, in the kernel-side cache. Only a mount that keeps those
	// pages across opens can afford it: without KeepCache the host copy is
	// the only one a re-open finds, and the rule is inert. Writable opens
	// stay buffered on both sides (the host writeback window is what the
	// rows where CNTR beats native are made of). The application's own
	// O_DIRECT is still refused (Conn.Open), and mmap is unaffected: the
	// flag is on the server's descriptor, not FOPEN_DIRECT_IO in the
	// reply. Off in PaperMountOptions.
	DirectRead bool
	// SyncByFsync is beyond the paper, whose CntrFS, a passthrough server
	// like libfuse's passthrough_ll, opens the host file with the
	// application's flags, O_SYNC included. Under WritebackCache the kernel
	// already follows every O_SYNC write with FSYNC (generic_write_sync →
	// fuse_fsync), so each such write paid two device barriers: one for the
	// host's synchronous write and one for the host fsync after it, which
	// follows no new data. It is the server's choice of flags for its own
	// host descriptor: an OPEN or CREATE carrying O_SYNC opens the host file
	// without it, and the FSYNC alone makes the write durable before
	// write(2) returns. Without WritebackCache the kernel writes through and
	// sends no FSYNC, so the host descriptor keeps O_SYNC and the rule is
	// inert. Off in PaperMountOptions.
	SyncByFsync bool
	// NoOpen is beyond the paper, whose CntrFS answers every open(2) with
	// an OPEN round trip and every last close with a RELEASE. It is the
	// server's side of the kernel's fc->no_open (FUSE_NO_OPEN_SUPPORT): the
	// server answers a regular file's OPEN with ENOSYS, and the connection,
	// on the first such reply, opens regular files without a message
	// (Conn.Open): it checks access against the cached attributes as the
	// server would, truncates an O_TRUNC open with one SETATTR, and hands
	// out a handle of its own whose data frames carry fh 0 and the inode,
	// and whose close sends nothing. The server serves those frames through
	// a host descriptor per inode, opened by the inode's first such frame
	// and closed by its FORGET or the unmount. A zero-message open is
	// FOPEN_KEEP_CACHE, and the host descriptor carries neither O_APPEND
	// nor O_SYNC, which only the kernel's writeback cache resolves itself:
	// without KeepCache and WritebackCache the server keeps answering OPEN
	// and the rule is inert. So it is without EntryTimeout: the connection
	// finds the file an unlink may end through its dentry (Conn.holdOpen).
	// Off in PaperMountOptions.
	NoOpen bool
	// NoOpendir is beyond the paper, whose CntrFS answers every opendir(3)
	// with an OPENDIR round trip, every listing with READDIRs and every
	// closedir(3) with a RELEASEDIR. It is the server's side of the
	// kernel's fc->no_opendir (FUSE_NO_OPENDIR_SUPPORT, Linux 5.1): the
	// server answers a directory's OPENDIR with ENOSYS, and the connection,
	// on the first such reply, opens directories without a message
	// (Conn.Opendir) and closes them without one. Such a directory is
	// opened FOPEN_KEEP_CACHE|FOPEN_CACHE_DIR, so the kernel keeps its
	// listing (fuse_readdir_cached) and serves every later listing of the
	// unchanged directory itself; a listing it does not hold is filled by
	// READDIRs that carry fh 0 and the inode, which the server answers
	// through a host directory it opens and closes within the request. The
	// listing is kept while the directory's mtime is, and every entry change
	// made through the mount drops it, but a change made behind the mount's
	// back (directly on the host filesystem) stays hidden from listings for
	// up to AttrTimeout: a listing is checked against the cached attributes,
	// and without them each listing from the start costs one GETATTR. The
	// connection knows which directory an rmdir or a rename removes from
	// its dentry: without EntryTimeout the server keeps answering OPENDIR
	// and the rule is inert. Off in PaperMountOptions.
	NoOpendir bool
	// ReaddirPlus is beyond the paper, whose CntrFS answers a tree scan's
	// listing with READDIRs and each stat after it with a LOOKUP, the
	// per-file lookups §5.2.2 blames for its worst metadata rows. It is the
	// kernel's FUSE_DO_READDIRPLUS with FUSE_READDIRPLUS_AUTO (Linux 3.9):
	// fuse_use_readdirplus sends READDIRPLUS for a listing at position 0,
	// the server answers one page (fuse_readdir_uncached asks for PAGE_SIZE)
	// of entries with the attributes a LOOKUP returns, and
	// fuse_direntplus_link makes each a dentry, so the stats send nothing.
	// Plain READDIRs bring the rest in the same Conn.Readdir call and stay
	// uncapped: the model answers a directory in one READDIR, and a page cap
	// would change the op stream above the mount. The FUSE_I_ADVISE_RDPLUS
	// re-arm (a lookup during a listing makes its next page plus too) is not
	// modelled: vfs.Client.ReadDir never interleaves lookups with a listing.
	// Without EntryTimeout and AttrTimeout the rule is inert. Off in
	// PaperMountOptions.
	ReaddirPlus bool
	// ServerThreads is the number of userspace server threads reading
	// the request queue (Fig. 4). A FUSE_INTERRUPT frame is the first
	// thing the next read of the queue returns, but a thread has to read
	// it: with a single thread blocked inside a long operation (a FIFO
	// read), nobody is left to process the interrupt until that
	// operation finishes — just like a real single-threaded FUSE server.
	// Use >= 2 threads when workloads can block indefinitely.
	ServerThreads int
}

// PaperMountOptions returns the configuration the paper's CNTR ships
// with: every §3.3 optimization it keeps on, nothing beyond them. It is
// what Figure 2 was measured on.
func PaperMountOptions() MountOptions {
	return MountOptions{
		KeepCache:      true,
		WritebackCache: true,
		ParallelDirops: true,
		AsyncRead:      true,
		SpliceRead:     true,
		SpliceWrite:    false,
		BatchForget:    true,
		MaxWrite:       128 << 10,
		EntryTimeout:   time.Second,
		AttrTimeout:    time.Second,
		ServerThreads:  4,
	}
}

// DefaultMountOptions returns the fully optimized configuration: the
// paper's, plus the eight rules beyond it — NoSec, NoFlush, DirectRead,
// SyncByFsync, NoOpen, NoOpendir, ReaddirPlus and 1 MiB writes
// (FUSE_MAX_PAGES).
func DefaultMountOptions() MountOptions {
	opts := PaperMountOptions()
	opts.MaxWrite = 1 << 20
	opts.NoSec = true
	opts.NoFlush = true
	opts.DirectRead = true
	opts.SyncByFsync = true
	opts.NoOpen = true
	opts.NoOpendir = true
	opts.ReaddirPlus = true
	return opts
}

// noOpen reports whether a server with these options answers a regular
// file's OPEN with ENOSYS (NoOpen).
func (o *MountOptions) noOpen() bool {
	return o.NoOpen && o.KeepCache && o.WritebackCache && o.EntryTimeout > 0
}

// noOpendir reports whether a server with these options answers a
// directory's OPENDIR with ENOSYS (NoOpendir).
func (o *MountOptions) noOpendir() bool {
	return o.NoOpendir && o.EntryTimeout > 0
}

// readdirPlus reports whether a listing from the start sends READDIRPLUS
// (ReaddirPlus).
func (o *MountOptions) readdirPlus() bool {
	return o.ReaddirPlus && o.EntryTimeout > 0 && o.AttrTimeout > 0
}

// ForgetBatchSize is how many forgets a FUSE_BATCH_FORGET frame carries.
const ForgetBatchSize = 64

// maxBackground caps the requests queued on the device (FUSE's
// max_background): submitters block once the request table is full, the
// backpressure a real /dev/fuse applies.
const maxBackground = 256

// ConnStats counts protocol activity on the kernel side.
type ConnStats struct {
	Requests    int64
	BytesOut    int64 // request frame bytes (kernel -> server)
	BytesIn     int64 // reply frame bytes (server -> kernel)
	EntryHits   int64
	EntryMisses int64
	AttrHits    int64
	NoSecHits   int64 // security.capability lookups answered from the S_NOSEC mark
	ForgetsSent int64
	BatchFrames int64
	// Frames counts the frames sent, by opcode, one-way frames included.
	Frames [opcodeLimit]int64
}

// opcodeLimit is one past the largest opcode a Conn sends.
const opcodeLimit = OpRename2 + 1

// request is one round trip on the simulated /dev/fuse queue, from
// Conn.submit to the server's reply: the encoded request frame, the
// buffer the server encodes the reply into, the 1-slot channel the reply
// is announced on, the reply decoder, and the request's bookkeeping. It is
// the one object a frame costs, and it is recycled: buffers and channel
// survive from one tenant to the next.
//
// Ownership. The submitter owns a request until table.push; from pop to
// the send on reply it is the serving worker's (which reads frame and
// encodes into out in place); from the receive on it is the awaiter's
// again, until await has run the caller's decode func and releases it —
// the single release point of a two-way request. A one-way request
// (RELEASE, RELEASEDIR, FORGET, BATCH_FORGET, INTERRUPT) is never
// awaited: the worker releases it after dispatch. Nothing may keep frame,
// out or a slice of either past the call that was handed it.
type request struct {
	frame  buf         // encoded request
	out    []byte      // reply frame storage, written by the server
	spare  []byte      // the small buffer a payload-sized frame or out displaced
	reply  chan []byte // announces the reply frame; unused when oneWay
	r      rdr         // reply body decoder handed to the decode func (a local would escape)
	oneWay bool

	c      *Conn
	unique uint64
	dataIn int
	// err is a submission-time failure (connection torn down).
	err error
}

// maxRecycledFrame is the largest buffer a released request keeps. A
// payload-sized frame (a WRITE request, a READ reply) goes back to the
// request's own Conn instead (Conn.frames), so the global pool never
// pins 128 KiB buffers in the live heap of a metadata workload.
const maxRecycledFrame = 4 << 10

// minFrameCap is the capacity a frame buffer starts with: every request
// and reply without a data payload fits (a header, an attribute, a name).
// frameHeadroom is what a request frame needs beyond its data payload.
const (
	minFrameCap   = 256
	frameHeadroom = 128
)

var requestPool = sync.Pool{New: func() any {
	return &request{reply: make(chan []byte, 1)}
}}

// poisonReleased is the recycling guard rail's test hook: when set, a
// released request's buffers are filled with 0xDB, so a layer that kept
// a frame slice past its call serves garbage at once instead of the next
// tenant's data some day. (The server-side counterpart needs no switch:
// a worker wipes its Op and Cred after every dispatch.)
var poisonReleased atomic.Bool

const poisonByte = 0xDB

// frameBuf returns b emptied, or a fresh buffer when b cannot hold need
// bytes: frames are sized up front instead of grown append by append.
func frameBuf(b []byte, need int) []byte {
	if need < minFrameCap {
		need = minFrameCap
	}
	if cap(b) < need {
		return make([]byte, 0, need)
	}
	return b[:0]
}

// newRequest takes a request from the pool, its frame empty and sized
// for a payload of dataOut bytes, its reply storage for one of dataIn:
// like the kernel, the submitter supplies the pages a READ reply lands in.
func newRequest(c *Conn, dataOut, dataIn int) *request {
	p := requestPool.Get().(*request)
	p.c = c
	p.frame.b = p.frameBuf(p.frame.b, frameHeadroom+dataOut)
	p.out = p.frameBuf(p.out, respHeaderLen+4+dataIn)
	return p
}

// release returns the request to the pool and its payload-sized buffers
// to its Conn. The caller is its last owner: no reply may be outstanding
// on it.
func (p *request) release() {
	if poisonReleased.Load() {
		poison(p.frame.b[:cap(p.frame.b)])
		poison(p.out[:cap(p.out)])
	}
	frame, out := p.frame.b, p.out
	if cap(frame) > maxRecycledFrame {
		p.c.keepFrame(frame)
		frame, p.spare = p.spare, nil
	}
	if cap(out) > maxRecycledFrame {
		p.c.keepFrame(out)
		out, p.spare = p.spare, nil
	}
	*p = request{frame: buf{b: frame}, out: out, reply: p.reply}
	requestPool.Put(p)
}

// frameBuf is frameBuf for p, except that a payload-sized frame takes
// the buffer p's Conn had back last, and b waits as p's spare. One too
// small for need goes to the collector and need is made instead, so a
// mount served one request at a time holds one buffer, as large as its
// largest payload so far.
func (p *request) frameBuf(b []byte, need int) []byte {
	if need <= maxRecycledFrame || cap(b) >= need {
		return frameBuf(b, need)
	}
	if cap(b) > 0 {
		p.spare = b
	}
	c := p.c
	c.framesMu.Lock()
	if n := len(c.frames); n > 0 {
		b = c.frames[n-1]
		c.frames[n-1] = nil
		c.frames = c.frames[:n-1]
		if cap(b) >= need {
			c.framesReused++
			c.framesMu.Unlock()
			return b[:0]
		}
	}
	c.framesMu.Unlock()
	return make([]byte, 0, need)
}

// keepFrame takes back a released payload-sized buffer, unless c already
// holds ServerThreads of them: that one goes to the collector.
func (c *Conn) keepFrame(b []byte) {
	c.framesMu.Lock()
	if len(c.frames) < c.opts.ServerThreads {
		c.frames = append(c.frames, b)
	}
	c.framesMu.Unlock()
}

func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}

// Conn is the kernel side of the FUSE transport. It implements vfs.FS;
// stacking a pagecache.Cache on top of a Conn reproduces the full kernel
// I/O path of the paper's CntrFS mounts.
type Conn struct {
	clock *sim.Clock
	model *sim.CostModel
	opts  MountOptions
	table *reqTable

	unique   atomic.Uint64
	inflight atomic.Int64
	// noFlush is the kernel's fc->no_flush: set by the first FLUSH the
	// server answers with ENOSYS, never reset. noOpen is fc->no_open, set
	// by the first OPEN answered so, and noOpendir fc->no_opendir, set by
	// the first OPENDIR answered so.
	noFlush   atomic.Bool
	noOpen    atomic.Bool
	noOpendir atomic.Bool

	mu        sync.Mutex
	entries   map[entryKey]entryVal
	attrs     map[vfs.Ino]attrVal
	handleIno map[vfs.Handle]vfs.Ino
	// nosec holds, per inode, until when the server's "no
	// security.capability" answer is trusted (MountOptions.NoSec);
	// nosecGen counts the clears, so an answer that was in flight across
	// one is not recorded.
	nosec    map[vfs.Ino]time.Duration
	nosecGen uint64
	// held withholds forget counts for inodes the attribute/dentry
	// caches still reference: the kernel only sends FORGET once its own
	// caches have dropped the inode, and so do we. Withheld counts are
	// flushed when the cache entry is invalidated or expires. An open
	// file pins its inode too: the forgets of an inode a handle the
	// connection made itself (openLocal) is open on are held until the
	// last of those closes. lastLocal numbers those handles.
	held      map[vfs.Ino]uint64
	lastLocal vfs.Handle
	// dirs holds the listings of directories opened without a message
	// (MountOptions.NoOpendir), the kernel's readdir cache. dirGen counts
	// entry changes through the mount (dirChanged, invalidateEntry): a
	// READDIRPLUS reply one overtook installs nothing.
	dirs      map[vfs.Ino]*dirListing
	dirGen    atomic.Uint64
	forgets   []forgetItem
	streak    int
	stats     ConnStats
	unmounted bool

	// frames holds the payload-sized buffers (over maxRecycledFrame) of
	// released requests for the next WRITE frame or READ reply: at most
	// ServerThreads, so a data mount reuses its frames and a metadata
	// mount that never made one holds none. framesReused counts the
	// requests they served.
	framesMu     sync.Mutex
	frames       [][]byte
	framesReused int64
}

type entryKey struct {
	parent vfs.Ino
	name   string
}

// entryVal is a cached dentry: name → inode. Attributes live in the
// separate attribute cache, as in the kernel (dcache vs. inode cache),
// so that attribute mutations cannot leave stale copies behind dentries.
type entryVal struct {
	ino    vfs.Ino
	expiry time.Duration
}

// attrVal is a cached attribute record. A data write makes its size,
// times and blocks stale (the kernel's FUSE_STATX_MODSIZE in
// fi->inval_mask) without dropping it: a path walk still reads its type,
// mode and owner, and only stat(2) needs the rest fresh. That mark is the
// sign of expiry, not a field: the struct is exactly Go's 128-byte inline
// map element, and one byte more costs an allocation per insert
// (TestAttrValFitsMapSlot).
type attrVal struct {
	attr   vfs.Attr
	expiry time.Duration // negated once a write made the data fields stale
}

// expires returns the instant the record stops being trusted at all.
func (v attrVal) expires() time.Duration {
	if v.expiry < 0 {
		return -v.expiry
	}
	return v.expiry
}

// dataStale reports whether a write made the record's size, times and
// blocks stale.
func (v attrVal) dataStale() bool { return v.expiry < 0 }

// dirListing is the kernel's listing of one directory opened without a
// message (fuse_readdir_cached): the entries READDIR has returned so far,
// whether the empty reply that ends them has come back, and the
// directory's mtime when the listing began. A removed directory that is
// still open keeps a dead listing with no entries until its last close:
// reading it is ENOENT (IS_DEADDIR).
type dirListing struct {
	ents     []vfs.Dirent
	complete bool
	dead     bool
	mtime    time.Time
}

// end is the cookie a READDIR that extends the listing starts from.
func (d *dirListing) end() int64 {
	if len(d.ents) == 0 {
		return 0
	}
	return d.ents[len(d.ents)-1].Off
}

// after returns a copy of the entries past the one whose cookie is off (0
// being the start), and whether the listing holds that cookie.
func (d *dirListing) after(off int64) ([]vfs.Dirent, bool) {
	i := 0
	if off != 0 {
		for i < len(d.ents) && d.ents[i].Off != off {
			i++
		}
		if i == len(d.ents) {
			return nil, false
		}
		i++
	}
	if i == len(d.ents) {
		return nil, true
	}
	return slices.Clone(d.ents[i:]), true
}

type forgetItem struct {
	ino     vfs.Ino
	nlookup uint64
}

// Mount connects a new kernel-side Conn to a Server running fs. It
// returns the connection; the caller stacks a page cache above it with
// the options implied by opts.
func Mount(fs vfs.FS, clock *sim.Clock, model *sim.CostModel, opts MountOptions) (*Conn, *Server) {
	if opts.MaxWrite == 0 {
		opts.MaxWrite = 128 << 10
	}
	if opts.ServerThreads <= 0 {
		opts.ServerThreads = 1
	}
	table := newReqTable(maxBackground)
	return newConn(clock, model, opts, table), newServer(fs, clock, model, opts, table)
}

// newConn builds the kernel side over table; whoever pops the table is
// the server.
func newConn(clock *sim.Clock, model *sim.CostModel, opts MountOptions, table *reqTable) *Conn {
	return &Conn{
		clock:     clock,
		model:     model,
		opts:      opts,
		table:     table,
		entries:   make(map[entryKey]entryVal),
		attrs:     make(map[vfs.Ino]attrVal),
		nosec:     make(map[vfs.Ino]time.Duration),
		handleIno: make(map[vfs.Handle]vfs.Ino),
		held:      make(map[vfs.Ino]uint64),
		dirs:      make(map[vfs.Ino]*dirListing),
	}
}

// Unmount flushes pending forgets and closes the request table, stopping
// the server's workers once drained.
func (c *Conn) Unmount() {
	c.mu.Lock()
	if c.unmounted {
		c.mu.Unlock()
		return
	}
	c.unmounted = true
	forgets := c.forgets
	c.forgets = nil
	c.mu.Unlock()
	if len(forgets) > 0 {
		c.sendForgetBatch(forgets)
	}
	c.table.close()
}

// Stats returns a snapshot of connection counters.
func (c *Conn) Stats() ConnStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// submit encodes one request into a recycled request object, charges the
// transport's round-trip and queue-wakeup costs, and enqueues it in the
// request table under the requesting origin (req.PID). The caller awaits
// the returned request.
func (c *Conn) submit(op Opcode, nodeid vfs.Ino, req *vfs.Op, payload func(w *buf), dataOut, dataIn int) *request {
	p := newRequest(c, dataOut, dataIn)
	p.unique = c.unique.Add(1)
	p.dataIn = dataIn
	encodeReqHeader(&p.frame, op, p.unique, uint64(nodeid), req)
	if payload != nil {
		payload(&p.frame)
	}
	frame := finishFrame(&p.frame)

	cost := c.model.FuseRoundTrip()
	if c.opts.SpliceWrite {
		// The header must be spliced to a pipe and re-read before the
		// opcode is known, penalizing every request (§3.3).
		cost += c.model.ContextSwitch
	}
	c.mu.Lock()
	if op == OpLookup && c.opts.ParallelDirops {
		// With FUSE_PARALLEL_DIROPS, pending directory lookups are not
		// serialized on the parent's mutex and share round trips; after
		// the first lookup of a scan, subsequent ones ride along. The
		// streak survives interleaved data ops (a tree walk mixes
		// lookups with opens and reads) and resets once the scan moves
		// on for good.
		if c.streak > 0 {
			cost = cost / 4
		}
		c.streak = 16
	} else if c.streak > 0 {
		c.streak--
	}
	c.stats.Requests++
	c.stats.Frames[op]++
	c.stats.BytesOut += int64(len(frame))
	c.mu.Unlock()

	if dataOut > 0 {
		if c.opts.SpliceWrite {
			cost += c.model.SpliceCost(dataOut)
		} else {
			cost += c.model.CopyCost(dataOut)
		}
	}

	// Queueing: more outstanding requests than server threads means
	// the request waits for a worker wakeup.
	in := c.inflight.Add(1)
	if over := in - int64(c.opts.ServerThreads); over > 0 {
		cost += time.Duration(over) * c.model.WakeupLatency
	}
	c.clock.Advance(cost)

	var origin uint32
	if req != nil {
		origin = req.PID
	}
	if !c.table.push(origin, p) {
		c.inflight.Add(-1)
		p.err = vfs.EIO // connection torn down
	}
	return p
}

// await collects the reply for a submitted request, charging the
// reception-side costs and decoding the errno; on success decode (if
// any) reads the reply body, and a body it runs short on is EIO — the
// wire is a trust boundary. Interrupt forwarding lives here: if op's
// context is canceled while the request is in flight, a FUSE_INTERRUPT
// frame naming the request's unique id is forwarded to the server, and
// await keeps waiting for the (typically EINTR) reply, because the reply
// slot must never be abandoned — exactly the kernel's behaviour.
//
// await must be called exactly once: it releases the request, so neither
// p nor anything decode was handed may be touched afterwards.
func (p *request) await(op *vfs.Op, decode func(r *rdr)) error {
	defer p.release()
	if p.err != nil {
		return p.err
	}
	c := p.c
	var replyFrame []byte
	select {
	case replyFrame = <-p.reply:
	case <-op.Context().Done():
		c.oneWay(OpInterrupt, 0, 0, func(w *buf) { w.u64(p.unique) })
		replyFrame = <-p.reply
	}
	c.inflight.Add(-1)

	if p.dataIn > 0 {
		if c.opts.SpliceRead {
			c.clock.Advance(c.model.SpliceCost(p.dataIn))
		} else {
			c.clock.Advance(c.model.CopyCost(p.dataIn))
		}
	}

	_, errno, body, err := decodeReply(replyFrame)
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.stats.BytesIn += int64(len(replyFrame))
	c.mu.Unlock()
	if errno != vfs.OK {
		return errno
	}
	if decode != nil {
		p.r = rdr{b: body}
		decode(&p.r)
		if p.r.bad {
			return vfs.EIO
		}
	}
	return nil
}

// call performs one synchronous round trip: submit, then await.
//
// dataOut/dataIn are payload byte counts used for copy-cost accounting
// (write data flowing out of the kernel, read data flowing back in).
// decode must copy out whatever it wants to keep: the reply frame is
// recycled when call returns.
func (c *Conn) call(op Opcode, nodeid vfs.Ino, req *vfs.Op, payload func(w *buf), dataOut, dataIn int, decode func(r *rdr)) error {
	err := c.submit(op, nodeid, req, payload, dataOut, dataIn).await(req, decode)
	if vfs.ToErrno(err) == vfs.ESTALE {
		c.clearNosec(nodeid) // the server no longer knows the inode
	}
	return err
}

// oneWay queues a kernel-internal frame nobody awaits (forgets, releases,
// interrupts; origin 0): the caller pays only the enqueue transition, and
// that is the frame's whole cost on the clock — the server thread that
// serves it charges nothing (see worker.run) and recycles the request
// after dispatch. An INTERRUPT goes to the head of the queue, past every
// backlog and past a full table's wait for space. One-way messages sent
// during or after unmount are dropped, as the kernel drops forgets once
// the connection is gone.
func (c *Conn) oneWay(op Opcode, nodeid vfs.Ino, dataOut int, payload func(w *buf)) {
	c.clock.Advance(c.model.ContextSwitch)
	p := newRequest(c, dataOut, 0)
	p.oneWay = true
	encodeReqHeader(&p.frame, op, c.unique.Add(1), uint64(nodeid), nil)
	payload(&p.frame)
	finishFrame(&p.frame)
	c.mu.Lock()
	c.stats.Frames[op]++
	c.mu.Unlock()
	var ok bool
	if op == OpInterrupt {
		ok = c.table.pushInterrupt(p)
	} else {
		ok = c.table.push(0, p)
	}
	if !ok {
		p.release()
	}
}

// --- entry/attr cache helpers ---

func (c *Conn) cacheEntry(parent vfs.Ino, name string, ino vfs.Ino) {
	if c.opts.EntryTimeout <= 0 {
		return
	}
	c.mu.Lock()
	c.entries[entryKey{parent, name}] = entryVal{ino, c.clock.Now() + c.opts.EntryTimeout}
	c.mu.Unlock()
}

func (c *Conn) lookupCached(parent vfs.Ino, name string) (vfs.Ino, bool) {
	if c.opts.EntryTimeout <= 0 {
		return 0, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.entries[entryKey{parent, name}]
	if !ok || v.expiry < c.clock.Now() {
		if ok {
			delete(c.entries, entryKey{parent, name})
		}
		c.stats.EntryMisses++
		return 0, false
	}
	c.stats.EntryHits++
	return v.ino, true
}

// trackHandle remembers which inode an open handle refers to, so data
// operations on the handle can invalidate the right attribute entry.
func (c *Conn) trackHandle(h vfs.Handle, ino vfs.Ino) {
	c.mu.Lock()
	c.handleIno[h] = ino
	c.mu.Unlock()
}

func (c *Conn) handleInode(h vfs.Handle) (vfs.Ino, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ino, ok := c.handleIno[h]
	return ino, ok
}

// openLocked reports whether any tracked handle h with h&mask == mask
// refers to ino: mask 0 asks for any, localHandle for one the connection
// made itself. Caller holds c.mu.
func (c *Conn) openLocked(ino vfs.Ino, mask vfs.Handle) bool {
	for h, open := range c.handleIno {
		if open == ino && h&mask == mask {
			return true
		}
	}
	return false
}

func (c *Conn) dropHandle(h vfs.Handle) {
	c.mu.Lock()
	delete(c.handleIno, h)
	c.mu.Unlock()
}

// invalidateEntry drops the dentry parent/name after a request that
// removed, replaced or moved it (or found it stale), and with it the
// S_NOSEC mark of the inode it named: that inode is usually gone, and
// this is what keeps the mark table from outliving the files. It bumps
// dirGen in the same step, so an older READDIRPLUS reply cannot install
// the name again. It returns the dentry it dropped, if there was one.
func (c *Conn) invalidateEntry(parent vfs.Ino, name string) (entryVal, bool) {
	c.mu.Lock()
	c.dirGen.Add(1)
	v, ok := c.entries[entryKey{parent, name}]
	if ok {
		c.clearNosecLocked(v.ino)
		delete(c.entries, entryKey{parent, name})
	}
	c.mu.Unlock()
	return v, ok
}

func (c *Conn) cacheAttr(attr vfs.Attr) {
	if c.opts.AttrTimeout <= 0 {
		return
	}
	c.mu.Lock()
	c.attrs[attr.Ino] = attrVal{attr, c.clock.Now() + c.opts.AttrTimeout}
	c.mu.Unlock()
}

// attrCached returns ino's cached attributes. A data-stale record answers
// only a path walk (walk set), which reads none of the stale fields; any
// other caller misses, and the record stays for the walks until the
// caller's GETATTR replaces it.
func (c *Conn) attrCached(ino vfs.Ino, walk bool) (vfs.Attr, bool) {
	if c.opts.AttrTimeout <= 0 {
		return vfs.Attr{}, false
	}
	c.mu.Lock()
	v, ok := c.attrs[ino]
	if !ok || v.expires() < c.clock.Now() {
		if ok {
			delete(c.attrs, ino)
		}
		c.mu.Unlock()
		return vfs.Attr{}, false
	}
	if v.dataStale() && !walk {
		c.mu.Unlock()
		return vfs.Attr{}, false
	}
	c.stats.AttrHits++
	c.mu.Unlock()
	return v.attr, true
}

// markDataStale is what a data write does to ino's cached attributes: its
// size, times and blocks are stale, the rest is not.
func (c *Conn) markDataStale(ino vfs.Ino) {
	c.mu.Lock()
	if v, ok := c.attrs[ino]; ok && !v.dataStale() {
		v.expiry = -v.expiry
		c.attrs[ino] = v
	}
	c.mu.Unlock()
}

func (c *Conn) invalidateAttr(ino vfs.Ino) {
	c.mu.Lock()
	delete(c.attrs, ino)
	held := c.held[ino]
	delete(c.held, ino)
	c.mu.Unlock()
	if held > 0 {
		c.Forget(nil, ino, held)
	}
}

// --- S_NOSEC: security.capability known absent (MountOptions.NoSec) ---

// nosecOn reports whether the mount keeps marks at all: they last as long
// as attributes do, so a mount that caches no attributes keeps none.
func (c *Conn) nosecOn() bool { return c.opts.NoSec && c.opts.AttrTimeout > 0 }

// nosecGeneration reads the clear count a later markNosec is checked
// against; a request that will mark from its reply reads it before it is
// sent.
func (c *Conn) nosecGeneration() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nosecGen
}

// nosecCached reports whether ino is marked as having no
// security.capability. Like attrCached, a hit refreshes nothing and an
// expired mark is dropped when it is next looked at. The generation it
// returns is what markNosec needs should the caller ask the server.
func (c *Conn) nosecCached(ino vfs.Ino) (gen uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	expiry, ok := c.nosec[ino]
	if ok && expiry < c.clock.Now() {
		delete(c.nosec, ino)
		ok = false
	}
	if ok {
		c.stats.NoSecHits++
	}
	return c.nosecGen, ok
}

// markNosec records that the server knows no security.capability on ino
// (its ENODATA, or a CREATE or MKNOD reply that made the inode), trusted
// for as long as its attributes are — unless a mark was cleared since gen
// was read: the answer may then predate a SETXATTR that overtook it on
// another thread.
func (c *Conn) markNosec(ino vfs.Ino, gen uint64) {
	c.mu.Lock()
	if c.nosecGen == gen {
		c.nosec[ino] = c.clock.Now() + c.opts.AttrTimeout
	}
	c.mu.Unlock()
}

// clearNosec forgets ino's mark: every request that can give the inode a
// security.capability, or that ends the inode, comes through here.
func (c *Conn) clearNosec(ino vfs.Ino) {
	c.mu.Lock()
	c.clearNosecLocked(ino)
	c.mu.Unlock()
}

func (c *Conn) clearNosecLocked(ino vfs.Ino) {
	delete(c.nosec, ino)
	c.nosecGen++
}

package fuse

import (
	"sync"
	"sync/atomic"
	"time"

	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// MountOptions selects the protocol features negotiated at INIT time.
// Each field corresponds to one of the paper's §3.3 optimizations.
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
	// MaxWrite caps the payload of one WRITE request (default 128KB).
	MaxWrite int
	// EntryTimeout is how long (virtual time) the kernel may cache a
	// dentry from LOOKUP before revalidating. Zero disables caching.
	EntryTimeout time.Duration
	// AttrTimeout is the analogous attribute-cache lifetime.
	AttrTimeout time.Duration
	// ServerThreads is the number of userspace server threads reading
	// the request queue (Fig. 4). Note that FUSE_INTERRUPT frames are
	// ordinary queue messages: with a single thread blocked inside a
	// long operation (a FIFO read), nobody is left to process the
	// interrupt until that operation finishes — just like a real
	// single-threaded FUSE server. Use >= 2 threads when workloads can
	// block indefinitely.
	ServerThreads int

	// MaxBackground caps the number of requests queued on the device
	// (mirroring FUSE's max_background): submitters block once the
	// request table is full, the backpressure a real /dev/fuse applies.
	// Zero means 256.
	MaxBackground int
	// CongestionThreshold is the queue depth beyond which asynchronous
	// submissions are charged congestion latency (the kernel marks the
	// backing device congested and throttles background I/O at
	// 3/4 * max_background; zero picks the same default here).
	CongestionThreshold int
	// QoSWeights assigns weighted-fair-queueing weights per origin
	// (Op.PID): under saturation, dispatch ratios track these weights.
	// Unlisted origins get DefaultWeight.
	QoSWeights map[uint32]int
	// DefaultWeight is the WFQ weight for origins not in QoSWeights;
	// zero means 1.
	DefaultWeight int
	// MaxOriginInflight caps how many of one origin's requests may be
	// dispatched to workers concurrently, keeping a single container
	// from occupying every server thread. Zero means unlimited.
	MaxOriginInflight int
}

// DefaultMountOptions returns the fully optimized configuration the
// paper's CNTR ships with.
func DefaultMountOptions() MountOptions {
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

// ForgetBatchSize is how many forgets a FUSE_BATCH_FORGET frame carries.
const ForgetBatchSize = 64

// ConnStats counts protocol activity on the kernel side.
type ConnStats struct {
	Requests    int64
	BytesOut    int64 // request frame bytes (kernel -> server)
	BytesIn     int64 // reply frame bytes (server -> kernel)
	EntryHits   int64
	EntryMisses int64
	AttrHits    int64
	ForgetsSent int64
	BatchFrames int64
}

// message is one frame in flight on the simulated /dev/fuse queue.
type message struct {
	frame   []byte
	reply   chan []byte // nil for one-way messages (FORGET)
	created time.Duration
}

// Conn is the kernel side of the FUSE transport. It implements vfs.FS;
// stacking a pagecache.Cache on top of a Conn reproduces the full kernel
// I/O path of the paper's CntrFS mounts. It also implements vfs.AsyncFS:
// Submit pipelines data requests through the same request table without
// blocking the submitter per round trip.
type Conn struct {
	clock *sim.Clock
	model *sim.CostModel
	opts  MountOptions
	table *reqTable

	unique   atomic.Uint64
	inflight atomic.Int64
	// asyncInflight counts submitted-but-unawaited pipelined requests;
	// it drives the overlap cost model (see Pending.Await).
	asyncInflight atomic.Int64

	mu        sync.Mutex
	entries   map[entryKey]entryVal
	attrs     map[vfs.Ino]attrVal
	handleIno map[vfs.Handle]vfs.Ino
	// held withholds forget counts for inodes the attribute/dentry
	// caches still reference: the kernel only sends FORGET once its own
	// caches have dropped the inode, and so do we. Withheld counts are
	// flushed when the cache entry is invalidated or expires.
	held      map[vfs.Ino]uint64
	forgets   []forgetItem
	lastOp    Opcode
	streak    int
	stats     ConnStats
	unmounted bool
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

type attrVal struct {
	attr   vfs.Attr
	expiry time.Duration
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
	if opts.MaxBackground <= 0 {
		opts.MaxBackground = 256
	}
	if opts.CongestionThreshold <= 0 {
		opts.CongestionThreshold = opts.MaxBackground * 3 / 4
	}
	if opts.DefaultWeight <= 0 {
		opts.DefaultWeight = 1
	}
	// One run queue per server thread: each worker pops its own WFQ heap
	// and steals when idle.
	table := newReqTable(opts.MaxBackground, opts.MaxOriginInflight,
		opts.DefaultWeight, opts.QoSWeights, opts.ServerThreads)
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
		handleIno: make(map[vfs.Handle]vfs.Ino),
		held:      make(map[vfs.Ino]uint64),
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

// Pending is the future half of a submitted request: the frame is on the
// device queue, keyed by its unique id, and Await collects the reply.
// The two-phase submit/await split is what lets callers pipeline
// requests — submit N, then await them — instead of blocking one
// goroutine per round trip. Interrupt forwarding lives in the future: if
// the awaiting operation's context is canceled, Await sends a
// FUSE_INTERRUPT naming the request and keeps waiting for the (typically
// EINTR) reply, because the reply slot must never be abandoned.
type Pending struct {
	c      *Conn
	unique uint64
	msg    *message
	dataIn int
	// async marks a pipelined submission (Conn.Submit):
	// submit charged only the enqueue, so Await owes the round trip.
	async bool
	// overlapped is set when the request was submitted while other
	// pipelined requests were outstanding: its round-trip latency hides
	// behind theirs, and Await charges only a completion-reap wakeup.
	overlapped bool
	// err is a submission-time failure (connection torn down).
	err  error
	done bool
}

// submit encodes one request, charges the submission-side transport
// costs, and enqueues the frame in the request table under the
// requesting origin (req.PID). The synchronous path (async == false)
// charges the full round-trip and queue-wakeup costs up front, exactly
// as the old blocking call did; the pipelined path charges only the
// enqueue (one kernel transition plus the payload copy) and defers the
// round-trip accounting to Await, where overlap with other in-flight
// requests is known.
func (c *Conn) submit(op Opcode, nodeid vfs.Ino, req *vfs.Op, payload func(w *buf), dataOut, dataIn int, async bool) *Pending {
	unique := c.unique.Add(1)
	w := &buf{b: make([]byte, 0, 128+dataOut)}
	encodeReqHeader(w, op, unique, uint64(nodeid), req)
	if payload != nil {
		payload(w)
	}
	frame := finishFrame(w)

	p := &Pending{c: c, unique: unique, dataIn: dataIn, async: async}

	var cost time.Duration
	if async {
		// Pipelined submission: one kernel transition to enqueue; the
		// round trip is accounted at Await time.
		cost = c.model.ContextSwitch
	} else {
		cost = c.model.FuseRoundTrip()
	}
	if c.opts.SpliceWrite {
		// The header must be spliced to a pipe and re-read before the
		// opcode is known, penalizing every request (§3.3).
		cost += c.model.ContextSwitch
	}
	c.mu.Lock()
	if !async {
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
	}
	c.lastOp = op
	c.stats.Requests++
	c.stats.BytesOut += int64(len(frame))
	c.mu.Unlock()

	if dataOut > 0 {
		if c.opts.SpliceWrite {
			cost += c.model.SpliceCost(dataOut)
		} else {
			cost += c.model.CopyCost(dataOut)
		}
	}

	if async {
		p.overlapped = c.asyncInflight.Add(1) > 1
	} else {
		// Queueing: more outstanding requests than server threads means
		// the request waits for a worker wakeup.
		in := c.inflight.Add(1)
		if over := in - int64(c.opts.ServerThreads); over > 0 {
			cost += time.Duration(over) * c.model.WakeupLatency
		}
	}
	c.clock.Advance(cost)

	var origin uint32
	if req != nil {
		origin = req.PID
	}
	msg := &message{frame: frame, reply: make(chan []byte, 1), created: c.clock.Now()}
	depth, ok := c.table.push(origin, msg)
	if !ok {
		if async {
			c.asyncInflight.Add(-1)
		} else {
			c.inflight.Add(-1)
		}
		p.err = vfs.EIO // connection torn down
		return p
	}
	if async && depth > c.opts.CongestionThreshold {
		// The device is congested (more background requests queued than
		// the threshold): background submitters are throttled, as the
		// kernel throttles writeback/readahead past congestion_threshold.
		c.clock.Advance(c.model.WakeupLatency)
	}
	p.msg = msg
	return p
}

// Await collects the reply for a submitted request, charging the
// reception-side costs and decoding the errno. A canceled op forwards
// FUSE_INTERRUPT and keeps waiting. Await must be called exactly once.
func (p *Pending) Await(op *vfs.Op) (*rdr, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.done {
		return nil, vfs.EIO
	}
	p.done = true
	c := p.c
	var replyFrame []byte
	select {
	case replyFrame = <-p.msg.reply:
	case <-op.Context().Done():
		c.sendInterrupt(p.unique)
		replyFrame = <-p.msg.reply
	}
	if p.async {
		c.asyncInflight.Add(-1)
		if p.overlapped {
			// The reply arrived while we were (virtually) waiting on an
			// earlier request: its round trip overlapped, and reaping the
			// completion costs one scheduler wakeup.
			c.clock.Advance(c.model.WakeupLatency)
		} else {
			c.clock.Advance(c.model.FuseRoundTrip())
		}
	} else {
		c.inflight.Add(-1)
	}

	if p.dataIn > 0 {
		if c.opts.SpliceRead {
			c.clock.Advance(c.model.SpliceCost(p.dataIn))
		} else {
			c.clock.Advance(c.model.CopyCost(p.dataIn))
		}
	}

	_, errno, body, err := decodeReply(replyFrame)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.BytesIn += int64(len(replyFrame))
	c.mu.Unlock()
	if errno != vfs.OK {
		return nil, errno
	}
	return &rdr{b: body}, nil
}

// call performs one synchronous round trip: submit, then await. If req's
// context is canceled while the request is in flight, a FUSE_INTERRUPT
// frame naming the request's unique id is forwarded to the server, and
// call keeps waiting for the (typically EINTR) reply — exactly the
// kernel's behaviour.
//
// dataOut/dataIn are payload byte counts used for copy-cost accounting
// (write data flowing out of the kernel, read data flowing back in).
func (c *Conn) call(op Opcode, nodeid vfs.Ino, req *vfs.Op, payload func(w *buf), dataOut, dataIn int) (*rdr, error) {
	return c.submit(op, nodeid, req, payload, dataOut, dataIn, false).Await(req)
}

// sendInterrupt forwards a cancellation to the server as a one-way
// FUSE_INTERRUPT frame naming the interrupted request.
func (c *Conn) sendInterrupt(target uint64) {
	c.clock.Advance(c.model.ContextSwitch)
	w := &buf{}
	encodeReqHeader(w, OpInterrupt, c.unique.Add(1), 0, nil)
	w.u64(target)
	c.enqueueOneWay(finishFrame(w))
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

func (c *Conn) dropHandle(h vfs.Handle) {
	c.mu.Lock()
	delete(c.handleIno, h)
	c.mu.Unlock()
}

func (c *Conn) invalidateEntry(parent vfs.Ino, name string) {
	c.mu.Lock()
	delete(c.entries, entryKey{parent, name})
	c.mu.Unlock()
}

func (c *Conn) cacheAttr(attr vfs.Attr) {
	if c.opts.AttrTimeout <= 0 {
		return
	}
	c.mu.Lock()
	c.attrs[attr.Ino] = attrVal{attr, c.clock.Now() + c.opts.AttrTimeout}
	c.mu.Unlock()
}

func (c *Conn) attrCached(ino vfs.Ino) (vfs.Attr, bool) {
	if c.opts.AttrTimeout <= 0 {
		return vfs.Attr{}, false
	}
	c.mu.Lock()
	v, ok := c.attrs[ino]
	if !ok || v.expiry < c.clock.Now() {
		if ok {
			delete(c.attrs, ino)
		}
		c.mu.Unlock()
		return vfs.Attr{}, false
	}
	c.stats.AttrHits++
	c.mu.Unlock()
	return v.attr, true
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

// Package pagecache implements a simulated kernel page cache layered over
// any vfs.FS. It models the three properties that dominate the paper's
// performance results:
//
//   - Read caching: pages served from cache cost nanoseconds; misses go to
//     the backing filesystem (and, when configured, the disk model).
//     FOPEN_KEEP_CACHE controls whether cached pages survive re-opens —
//     without it, every open invalidates the file's pages and the cache
//     cannot be shared across processes (Figure 3a).
//   - Writeback caching: dirty pages accumulate up to a window and are
//     flushed in large batched extents, converting many small writes into
//     few large disk requests (Figures 2 and 3b: FIO and pgbench run
//     *faster* through CntrFS because its writeback window is deeper than
//     the native filesystem's).
//   - A shared memory budget: when two caches are stacked (the kernel page
//     cache above FUSE plus the page cache of the filesystem backing the
//     CntrFS server), the same data is buffered twice and the effective
//     cache size halves — the "double buffering" bottleneck of §5.2.1.
//     That is the paper's configuration; a handle opened O_DIRECT goes
//     past the cache it was opened on, which is how the default mount's
//     server holds what is only read once (fuse.MountOptions.DirectRead).
package pagecache

import (
	"sync"
	"sync/atomic"

	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// PageSize is the granularity of caching, matching the kernel's 4KB pages.
const PageSize = 4096

// MemBudget is a byte budget shared by any number of caches, standing in
// for machine RAM available to the page cache.
type MemBudget struct {
	mu    sync.Mutex
	total int64
	used  int64
}

// NewMemBudget returns a budget of the given size in bytes.
func NewMemBudget(total int64) *MemBudget {
	return &MemBudget{total: total}
}

// tryCharge reserves n bytes, reporting whether the reservation fit. A
// nil budget is unlimited, so callers never guard.
func (b *MemBudget) tryCharge(n int64) bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.used+n > b.total {
		return false
	}
	b.used += n
	return true
}

func (b *MemBudget) release(n int64) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.used -= n
	if b.used < 0 {
		b.used = 0
	}
	b.mu.Unlock()
}

// Used reports the currently reserved bytes.
func (b *MemBudget) Used() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used
}

// Options configures a Cache.
type Options struct {
	// KeepCache corresponds to FOPEN_KEEP_CACHE: when false, opening a
	// file invalidates its cached pages (the FUSE default).
	KeepCache bool
	// Writeback enables the writeback cache (FUSE_WRITEBACK_CACHE);
	// when false writes go straight through to the backing filesystem.
	Writeback bool
	// DirtyWindow is the number of dirty bytes per file that triggers a
	// background flush. Deeper windows batch better. Defaults to 256KB.
	DirtyWindow int64
	// MaxWriteSize caps the size of one flushed extent (the FUSE
	// max_write limit). Defaults to 128KB.
	MaxWriteSize int64
	// ReadAhead is the readahead window for sequential reads: on a miss
	// that continues a sequential pattern, this many bytes are fetched
	// from the backing filesystem in one request. Over FUSE this is what
	// FUSE_ASYNC_READ enables (batched concurrent reads); over a disk it
	// models the kernel's readahead. Zero disables readahead.
	ReadAhead int64
	// FlushOnClose writes dirty pages back when a file is closed, as the
	// FUSE kernel module does (fuse_flush → write_inode_now). Native
	// filesystems leave dirty data for background writeback instead;
	// this asymmetry is why unsynced create-heavy workloads cost CntrFS
	// a flush per file while ext4 defers them all.
	FlushOnClose bool
	// ChargeDisk routes miss/flush traffic to the disk model, for caches
	// that sit directly above a disk-backed filesystem.
	ChargeDisk *sim.Disk
	// Budget is the shared RAM budget; nil means unlimited.
	Budget *MemBudget
}

// Stats counts cache activity.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	FlushedExt int64
	FlushedB   int64
	Invalidate int64
}

// HitRatio is hits over lookups; a cache that has seen no lookups
// reports 0. Same convention as cachesvc.Stats.HitRatio, so per-mount
// page-cache and shared-tier ratios compare directly in experiments.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a page cache over a backing filesystem. It implements vfs.FS.
type Cache struct {
	backing vfs.FS
	clock   *sim.Clock
	model   *sim.CostModel
	opts    Options

	mu    sync.Mutex
	files map[vfs.Ino]*fileCache
	opens map[vfs.Handle]openState
	// oldest and newest are the ends of the list every cached page is on,
	// in the order inserted: insertPage appends, dropPage unlinks and
	// evictOne drops the oldest. A hit does not move a page, so eviction
	// is in insertion order, not least recently used.
	oldest, newest *page
	stats          Stats
	// Scratch of the synchronous path, reused under mu: wbuf holds the
	// extent a flush is writing back, rbuf the window a blocking fill
	// read, dirty the dirty page indices of the file being flushed. Each
	// grows to the largest use so far and nothing larger.
	wbuf, rbuf []byte
	dirty      []int64
	// free holds up to maxHdrBlock dropped pages, header and buffer, for
	// newPage to hand out again; grow is the file lone writes are growing.
	free []*page
	grow growth
}

// growth is the record of a file growing a page per write: the next
// growth step continues it when it is on ino at page next, and takes its
// page from tail, the rest of the last run, which held last pages.
type growth struct {
	ino  vfs.Ino
	next int64
	tail []byte
	last int
}

// poisonScratch is the scratch guard rail's test hook: when set, a
// scratch buffer is filled with 0xDB whenever it is handed out and after
// every extent written from it, and so is a dropped page put on the free
// list, so a layer below that keeps a buffer past its call, a backing that
// reports bytes it did not write, or a holder of a dropped page, sees 0xDB
// at once instead of another file's data some day.
var poisonScratch atomic.Bool

// scratch returns *b resliced to n bytes, replacing it first with a
// buffer of exactly n when it is shorter.
func scratch(b *[]byte, n int) []byte {
	if cap(*b) < n {
		*b = make([]byte, n)
	}
	scrub(*b)
	return (*b)[:n]
}

// scrub poisons all of b's storage under the guard rail.
func scrub(b []byte) {
	if poisonScratch.Load() {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xDB
		}
	}
}

// wbOp is the request context for kernel-internal I/O (writeback,
// eviction): root credentials, not cancelable — background writeback does
// not belong to any one process and must not be interrupted by one.
var wbOp = vfs.RootOp()

type fileCache struct {
	// pages is made with the file's first insert. hdrs is the block the
	// next page header is cut from (see newPage).
	pages map[int64]*page
	hdrs  []page
	size  int64 // cached view of the file size
	valid bool  // whether size is known
	// mode caches the file's mode bits for the kernel-side
	// setuid-clearing check on write.
	mode      vfs.Mode
	modeKnown bool
	// ftype is the file's type, learned with the size; pipes (FIFOs)
	// bypass the page cache entirely, as in the kernel.
	ftype vfs.FileType
	// mtimeBump counts writeback-cached writes not yet reflected in the
	// backing filesystem's timestamps; Getattr overlays it so mtime stays
	// monotonic even while dirty data sits in the cache.
	mtimeBump int64
	// openHandles counts live opens, to keep pages of unlinked-but-open
	// files alive.
	openHandles int

	dirtyBytes int64
	// wbHandle is a backing handle usable for writeback flushes; it is
	// the most recent writable open of the file.
	wbHandle vfs.Handle
	wbValid  bool
	// wbErr is the first writeback error nobody has been told of yet (the
	// kernel's mapping_set_error): the pages it cost are clean, so the
	// next close, fsync or O_SYNC write of the file is the only report.
	wbErr error
	// zombies are backing handles whose user-side files were closed
	// while dirty data remained (no flush-on-close): the handle is kept
	// alive for background writeback and released after the next flush.
	zombies []vfs.Handle
	// lastReadEnd tracks the end offset of the previous read for
	// sequential-pattern detection (readahead).
	lastReadEnd int64
}

// openState is what an open handle was opened as. It never changes, so
// opens holds it by value.
type openState struct {
	ino    vfs.Ino
	flags  vfs.OpenFlags
	direct bool
}

type page struct {
	data []byte // always PageSize long
	// dirty counts the bytes written into the page since it was last
	// clean — its share of fileCache.dirtyBytes; nonzero means dirty.
	dirty int64
	// dirtyLo/dirtyHi bound the modified byte range within the page so
	// flushes write only what changed.
	dirtyLo, dirtyHi int64
	// f holds the page as page idx, and prev and next are its neighbours
	// on the cache's list; a dropped page has no f and no neighbours.
	f          *fileCache
	idx        int64
	prev, next *page
}

// clean marks p clean, its dirty bytes written back or discarded, and
// takes them out of the file's count, so dirtyBytes is zero exactly when
// no page is dirty.
func (f *fileCache) clean(p *page) {
	f.dirtyBytes -= p.dirty
	p.dirty, p.dirtyLo, p.dirtyHi = 0, 0, 0
}

// takeWbErr returns the file's unreported writeback error and forgets it
// (filemap_check_errors): one failure is reported once.
func (f *fileCache) takeWbErr() error {
	err := f.wbErr
	f.wbErr = nil
	return err
}

// New builds a cache over backing. clock and model must be non-nil.
func New(backing vfs.FS, clock *sim.Clock, model *sim.CostModel, opts Options) *Cache {
	if opts.DirtyWindow == 0 {
		opts.DirtyWindow = 256 << 10
	}
	if opts.MaxWriteSize == 0 {
		opts.MaxWriteSize = 128 << 10
	}
	return &Cache{
		backing: backing,
		clock:   clock,
		model:   model,
		opts:    opts,
		files:   make(map[vfs.Ino]*fileCache),
		opens:   make(map[vfs.Handle]openState),
	}
}

// Stats returns a snapshot of cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Backing exposes the wrapped filesystem (used by experiment harnesses).
func (c *Cache) Backing() vfs.FS { return c.backing }

// charge accounts the fixed cost of one syscall entering this layer.
func (c *Cache) charge() {
	c.clock.Advance(c.model.Syscall)
}

func (c *Cache) file(ino vfs.Ino) *fileCache {
	f, ok := c.files[ino]
	if !ok {
		f = &fileCache{}
		c.files[ino] = f
	}
	return f
}

// maxHdrBlock caps the pages of one header block, of one run and of the
// free list. A block or run lives while any of its pages is reachable,
// keeping the header and bytes of its dropped pages with it, so the cap
// bounds what one cached page can pin.
const maxHdrBlock = 64

// batch is what the pages one call inserts together share: how many of
// them are still coming and the run their buffers are cut from. grow marks
// a growth step's lone page (see Cache.grow).
type batch struct {
	coming int
	run    []byte
	grow   bool
}

// newPage returns a zeroed page for f, the next of b, and is the one place
// that decides where its memory comes from. In order: a page this cache
// dropped (the free list, last in first out); for a growth step, the run
// the growing file is cut from, twice the last when it is used up, up to
// maxHdrBlock pages; otherwise the run of b, made when the first of its
// pages needs it and sized to the pages coming, so a window's or a
// write's fresh pages are one allocation. A new header
// is cut from a per-file block sized to max(pages held, pages coming), so
// a growing file's blocks double and a window's headers are one block.
// Runs are only ever cut forward, so no byte is handed out twice; a page
// is handed out again only once dropped, so nothing may hold a page across
// an insert.
func (c *Cache) newPage(f *fileCache, b *batch) *page {
	coming := b.coming
	b.coming--
	if n := len(c.free); n > 0 {
		p := c.free[n-1]
		c.free = c.free[:n-1]
		clear(p.data)
		return p
	}
	if len(f.hdrs) == cap(f.hdrs) {
		f.hdrs = make([]page, 0, min(max(len(f.pages), coming, 1), maxHdrBlock))
	}
	f.hdrs = f.hdrs[:len(f.hdrs)+1]
	p := &f.hdrs[len(f.hdrs)-1]
	run := &b.run
	if b.grow {
		run = &c.grow.tail
		if len(*run) == 0 {
			c.grow.last = min(max(2*c.grow.last, 1), maxHdrBlock)
			*run = make([]byte, c.grow.last*PageSize)
		}
	} else if len(*run) == 0 {
		*run = make([]byte, min(max(coming, 1), maxHdrBlock)*PageSize)
	}
	p.data, *run = (*run)[:PageSize:PageSize], (*run)[PageSize:]
	return p
}

// insertPage caches data, zero-padded to a page, as page idx of f, which
// must not hold that page yet, evicting under budget pressure. The page is
// the next of b, which also sizes the page map f is made with, and the
// newest on the list. It returns nil when the budget is exhausted and
// nothing can be evicted: the caller serves uncached. Caller holds c.mu.
func (c *Cache) insertPage(f *fileCache, idx int64, data []byte, b *batch) *page {
	for !c.opts.Budget.tryCharge(PageSize) {
		if !c.evictOne() {
			return nil
		}
	}
	if f.pages == nil {
		f.pages = make(map[int64]*page, max(b.coming, 1))
	}
	p := c.newPage(f, b)
	copy(p.data, data)
	f.pages[idx] = p
	p.f, p.idx, p.prev = f, idx, c.newest
	if c.newest != nil {
		c.newest.next = p
	} else {
		c.oldest = p
	}
	c.newest = p
	return p
}

// dropPage removes one cached page from its file and the list and returns
// its memory to the budget: the single page removal behind eviction,
// truncate, unlink and invalidate. Bytes still dirty are discarded with
// it. The page goes on the free list while that has room (poisoned under
// the scratch guard rail); past that it is left to the collector. Caller
// holds c.mu.
func (c *Cache) dropPage(p *page) {
	p.f.clean(p)
	delete(p.f.pages, p.idx)
	if p.prev != nil {
		p.prev.next = p.next
	} else {
		c.oldest = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else {
		c.newest = p.prev
	}
	p.f, p.prev, p.next = nil, nil, nil
	c.opts.Budget.release(PageSize)
	if len(c.free) < maxHdrBlock {
		if c.free == nil {
			c.free = make([]*page, 0, maxHdrBlock)
		}
		scrub(p.data)
		c.free = append(c.free, p)
	}
}

// evictOne drops the oldest cached page; a dirty one is flushed first.
// Caller holds c.mu. Returns false when nothing is cached.
func (c *Cache) evictOne() bool {
	p := c.oldest
	if p == nil {
		return false
	}
	if p.dirty > 0 && p.f.wbValid {
		c.flushPagesLocked(p.f, []int64{p.idx})
	}
	c.dropPage(p)
	c.stats.Evictions++
	return true
}

// invalidate drops all cached pages of ino, writing dirty data back
// first, and returns the file's unreported writeback error: the record
// it was kept in goes with the pages. Caller holds c.mu.
func (c *Cache) invalidate(ino vfs.Ino) error {
	f, ok := c.files[ino]
	if !ok {
		return nil
	}
	c.flushFileLocked(f)
	c.dropFileLocked(ino, f)
	return f.takeWbErr()
}

// invalidateNoFlush discards pages *without* writeback — for O_TRUNC
// opens, where the data is being destroyed anyway. Caller holds c.mu.
func (c *Cache) invalidateNoFlush(ino vfs.Ino) {
	f, ok := c.files[ino]
	if !ok {
		return
	}
	// Zombie handles were only kept for writeback of now-discarded data.
	for _, zh := range f.zombies {
		c.backing.Release(wbOp, zh)
	}
	f.zombies = nil
	c.dropFileLocked(ino, f)
}

// dropFileLocked forgets everything cached of the file but how many
// handles are open on it: the pages of an unlinked file live until the
// last of them closes, whatever was invalidated in between. Caller holds
// c.mu.
func (c *Cache) dropFileLocked(ino vfs.Ino, f *fileCache) {
	for _, p := range f.pages {
		c.dropPage(p)
	}
	delete(c.files, ino)
	if f.openHandles > 0 {
		c.file(ino).openHandles = f.openHandles
	}
	c.stats.Invalidate++
}

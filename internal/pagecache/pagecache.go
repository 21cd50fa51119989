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
//
// What the cache holds costs the host no heap object per file: its file
// records, page headers, pages' bytes and the nodes of the radix trees
// that index pages past a file's first few (internal/radix, the kernel's
// xarray) each come from one slab of the cache (internal/slab), cut from
// blocks every file shares and handed out again once dropped, as the
// kernel cuts its inodes, pages and xarray nodes from per-type slab
// caches. A dirty page carries a mark in its file's index, as
// PAGECACHE_TAG_DIRTY does, so a flush visits only the dirty pages.
//
// Over memfs on its private store (blobstore.Mem) a clean page holds no
// bytes of its own either: when the block memfs stores for it is whole
// and equal to the page, the page points at the stored bytes, which Mem
// never writes or reuses (memfs.FS.ViewPages). A page read in shares them
// from the start, and a written one from the writeback that stored them,
// when its buffer goes back to the slab. The first write into a shared
// page copies it into a buffer of its own (copy-on-write), and dropping
// it frees nothing. Only the host heap moves: a shared page is charged to
// the budget as any other, and every read of the backing happens as
// before. The views pass through every layer that hands a file's bytes on
// unchanged (vfs.PageViewer): this cache, CntrFS, and a FUSE connection
// that splices its READ replies, whose pages Linux moves into the page
// cache rather than copies. So a clean page above the mount is memfs's
// stored block too, and the simulator keeps one copy of the disk's bytes
// where it kept three. A page cache over any other backing — unionfs, a
// content-addressed or a fault-injecting store, a mount that copies its
// replies — keeps its copies.
package pagecache

import (
	"bytes"
	"iter"
	"math/bits"
	"sync"
	"sync/atomic"

	"cntr/internal/radix"
	"cntr/internal/sim"
	"cntr/internal/slab"
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
	// Layer is the clock's ledger bucket the cache charges; zero is
	// sim.LayerOther. One file serves the kernel-side and the host cache,
	// so the stack tags each.
	Layer sim.Layer
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
	// read. Each grows to the largest use so far and nothing larger.
	wbuf, rbuf []byte
	// records, pages and bufs are the slabs every file record, page header
	// and page's own bytes come from (see insertPage); nodes is the one
	// every file's index of pages past lowPages cuts its nodes from.
	records slab.Slab[fileCache]
	pages   slab.Slab[page]
	bufs    slab.Slab[[PageSize]byte]
	nodes   radix.Nodes[*page]
	// viewer is the backing when it lets a clean page share the bytes it
	// stores, found once by New; vbuf is the scratch its views land in,
	// reused under mu as rbuf is.
	viewer vfs.PageViewer
	vbuf   []*[PageSize]byte
}

// poisonScratch is the scratch guard rail's test hook: when set, a
// scratch buffer is filled with 0xDB whenever it is handed out and after
// every extent written from it, a dropped page's bytes are 0xDB and a
// dropped file record holds poisonedFile, so a layer below that keeps a
// buffer past its call, a backing that reports bytes it did not write, or
// a holder of a dropped page or record, sees poison at once instead of
// another file's data some day.
var poisonScratch atomic.Bool

var (
	poisonedPage = [PageSize]byte(bytes.Repeat([]byte{0xDB}, PageSize))
	// poisonedFile holds counts no live record can have.
	poisonedFile = fileCache{size: -0xDB, valid: true, npages: -0xDB, openHandles: -0xDB, dirtyBytes: -0xDB}
)

// take returns a zeroed record of s; under the guard rail one the free
// list held was poisoned by release, so it is zeroed again.
func take[T any](s *slab.Slab[T]) *T {
	p := s.New()
	if poisonScratch.Load() {
		*p = *new(T)
	}
	return p
}

// release returns p to s, to hold poison under the guard rail.
func release[T any](s *slab.Slab[T], p, poison *T) {
	s.Free(p)
	if poisonScratch.Load() {
		*p = *poison
	}
}

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

// lowPages is how many of a file's first pages it holds in place: 64 KiB,
// a vfs.Client.ReadFile chunk and the largest file of the bench's meta
// and fleet workloads, so a small file's pages cost no tree node, and
// lowDirty's bits fit a uint16. 8 would cut nodes for fleet's files; 32
// adds to every record and saves meta nothing. A prototype that kept
// every page in the tree raised fleet's heap objects per operation by
// 1.2 % and meta's by 0.5 %.
const lowPages = 16

type fileCache struct {
	// ino is the file's inode number, which the viewer knows it by.
	ino vfs.Ino
	// low holds pages 0 to lowPages-1 in place and lowDirty has a bit for
	// each of them that is dirty; high holds page lowPages+i at i, marked
	// when dirty; npages counts both. Reach them through at, set, del,
	// all, markDirty and dirtyPages.
	low      [lowPages]*page
	lowDirty uint16
	high     radix.Tree[*page]
	npages   int
	size     int64 // cached view of the file size
	valid    bool  // whether size is known
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
	// unlinked marks a file whose last link Unlink removed while it was
	// open: its last close drops everything cached of it (Release).
	unlinked bool

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
	// The first is kept in zbuf.
	zombies []vfs.Handle
	zbuf    [1]vfs.Handle
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
	// data is the page's bytes: a buffer of the cache's bufs slab, or,
	// when shared, the bytes the backing stores for the page (viewer),
	// which are never written through it (own) nor freed with it.
	data   *[PageSize]byte
	shared bool
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

// markDirty counts n more bytes written into p since it was last clean
// and marks it dirty in f's index.
func (f *fileCache) markDirty(p *page, n int64) {
	p.dirty += n
	f.dirtyBytes += n
	if p.idx < lowPages {
		f.lowDirty |= 1 << p.idx
	} else {
		f.high.Mark(p.idx - lowPages)
	}
}

// clean marks p clean, its dirty bytes written back or discarded, and
// takes them out of the file's count and its mark out of the index, so
// dirtyBytes is zero exactly when no page is dirty.
func (f *fileCache) clean(p *page) {
	f.dirtyBytes -= p.dirty
	p.dirty, p.dirtyLo, p.dirtyHi = 0, 0, 0
	if p.idx < lowPages {
		f.lowDirty &^= 1 << p.idx
	} else {
		f.high.Unmark(p.idx - lowPages)
	}
}

// at returns page idx of f, or nil when it is not cached.
func (f *fileCache) at(idx int64) *page {
	if uint64(idx) < lowPages {
		return f.low[idx]
	}
	p, _ := f.high.Get(idx - lowPages)
	return p
}

// set caches p as page idx of f, which must not hold that page yet,
// cutting any node the index needs from nodes.
func (f *fileCache) set(nodes *radix.Nodes[*page], idx int64, p *page) {
	if uint64(idx) < lowPages {
		f.low[idx] = p
	} else {
		f.high.Set(nodes, idx-lowPages, p)
	}
	f.npages++
}

// del forgets page idx of f, which must hold it, returning any node the
// index no longer needs to nodes.
func (f *fileCache) del(nodes *radix.Nodes[*page], idx int64) {
	if uint64(idx) < lowPages {
		f.low[idx] = nil
	} else {
		f.high.Delete(nodes, idx-lowPages)
	}
	f.npages--
}

// all yields every cached page of f with its index, in ascending order.
// The loop may drop or clean the page it is given, and no other.
func (f *fileCache) all() iter.Seq2[int64, *page] {
	return func(yield func(int64, *page) bool) {
		for idx, p := range &f.low {
			if p != nil && !yield(int64(idx), p) {
				return
			}
		}
		for idx, p := range f.high.All() {
			if !yield(idx+lowPages, p) {
				return
			}
		}
	}
}

// dirtyPages yields every dirty page of f with its index, in ascending
// order, visiting no clean page past lowPages. The loop may drop or clean
// the page it is given and any before it, and no other.
func (f *fileCache) dirtyPages() iter.Seq2[int64, *page] {
	return func(yield func(int64, *page) bool) {
		for from := 0; ; {
			rest := f.lowDirty >> from
			if rest == 0 {
				break
			}
			idx := from + bits.TrailingZeros16(rest)
			if !yield(int64(idx), f.low[idx]) {
				return
			}
			from = idx + 1
		}
		for idx, p := range f.high.Marked() {
			if !yield(idx+lowPages, p) {
				return
			}
		}
	}
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
	v, _ := backing.(vfs.PageViewer)
	return &Cache{
		backing: backing,
		clock:   clock,
		model:   model,
		opts:    opts,
		files:   make(map[vfs.Ino]*fileCache),
		opens:   make(map[vfs.Handle]openState),
		viewer:  v,
	}
}

// Stats returns a snapshot of cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// ViewPages implements vfs.PageViewer by forwarding to the backing: a
// cache above this one adopts a view only when it equals what it read,
// whatever this cache holds of the page.
func (c *Cache) ViewPages(ino vfs.Ino, first int64, views []*[PageSize]byte) {
	if c.viewer == nil {
		clear(views)
		return
	}
	c.viewer.ViewPages(ino, first, views)
}

// Pages counts the cached pages that hold a buffer of their own and those
// that share the bytes the backing stores.
func (c *Cache) Pages() (own, shared int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := c.oldest; p != nil; p = p.next {
		if p.shared {
			shared++
		} else {
			own++
		}
	}
	return own, shared
}

// charge accounts the fixed cost of one syscall entering this layer.
func (c *Cache) charge() {
	c.clock.Charge(c.opts.Layer, c.model.Syscall)
}

func (c *Cache) file(ino vfs.Ino) *fileCache {
	f, ok := c.files[ino]
	if !ok {
		f = take(&c.records)
		f.ino = ino
		c.files[ino] = f
	}
	return f
}

// insertPage caches data, zero-padded to a page, as page idx of f, which
// must not hold that page yet, evicting under budget pressure; with a
// view, which holds exactly data, the page shares it instead of copying.
// The page is the newest on the list. It returns nil when the budget is
// exhausted and nothing can be evicted: the caller serves uncached.
//
// The page's header and its own bytes each come from the cache's slab:
// the last dropped while the slab keeps any (up to 64), otherwise cut
// from the slab's current block, which every file's pages share. Blocks
// double from 1 to 64 pages, so a cache's pages are one heap object per
// 64 once it has cut 64, and a block lives while any page cut from it is
// cached or kept. A page is handed out again only once dropped, so
// nothing may hold a page across an insert. Caller holds c.mu.
func (c *Cache) insertPage(f *fileCache, idx int64, data []byte, view *[PageSize]byte) *page {
	for !c.opts.Budget.tryCharge(PageSize) {
		if !c.evictOne() {
			return nil
		}
	}
	p := c.pages.New()
	if view != nil {
		p.data, p.shared = view, true
	} else {
		p.data = take(&c.bufs)
		copy(p.data[:], data)
	}
	f.set(&c.nodes, idx, p)
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
// its memory to the budget and the slabs: the single page removal behind
// eviction, truncate, unlink and invalidate. Bytes still dirty are
// discarded with it; bytes it shares are the backing's, and stay.
// Caller holds c.mu.
func (c *Cache) dropPage(p *page) {
	p.f.clean(p)
	p.f.del(&c.nodes, p.idx)
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
	c.opts.Budget.release(PageSize)
	if !p.shared {
		release(&c.bufs, p.data, &poisonedPage)
	}
	c.pages.Free(p)
}

// own gives a shared page a buffer of its own holding the same bytes
// before anything is written into it (copy-on-write): the bytes it
// shared are the backing's and are never written. Caller holds c.mu.
func (c *Cache) own(p *page) {
	if p.shared {
		b := take(&c.bufs)
		*b = *p.data
		p.data, p.shared = b, false
	}
}

// views returns the viewer's views of n pages of f from first on, in the
// cache's scratch vbuf, or nil when the backing offers none. The caller
// clears them once done, so the scratch keeps no stored block alive.
// Caller holds c.mu.
func (c *Cache) views(f *fileCache, first, n int64) []*[PageSize]byte {
	if c.viewer == nil || n <= 0 {
		return nil
	}
	if int64(cap(c.vbuf)) < n {
		c.vbuf = make([]*[PageSize]byte, n)
	}
	v := c.vbuf[:n]
	c.viewer.ViewPages(f.ino, first, v)
	return v
}

// same reports whether view holds exactly data, a whole page: a page
// shares stored bytes only when they are the bytes it would hold anyway.
func same(view *[PageSize]byte, data []byte) bool {
	return view != nil && bytes.Equal(view[:], data)
}

// evictOne drops the oldest cached page; a dirty one is flushed first.
// Caller holds c.mu. Returns false when nothing is cached.
func (c *Cache) evictOne() bool {
	p := c.oldest
	if p == nil {
		return false
	}
	if p.dirty > 0 && p.f.wbValid {
		c.writeBack(p.f, p.idx, p.idx)
	}
	c.dropPage(p)
	c.stats.Evictions++
	return true
}

// invalidate drops all cached pages of ino, writing dirty data back
// first, and returns the file's unreported writeback error: the record
// it was kept in goes with the pages, so the error is taken before the
// drop. Caller holds c.mu.
func (c *Cache) invalidate(ino vfs.Ino) error {
	f, ok := c.files[ino]
	if !ok {
		return nil
	}
	c.flushFileLocked(f)
	err := f.takeWbErr()
	c.dropFileLocked(ino)
	return err
}

// dropFileLocked forgets everything cached of the file, dirty pages
// unwritten, but how many handles are open on it and whether it is
// unlinked: the pages of an unlinked file live until the last of them
// closes, whatever was dropped in between. The backing handles kept only
// for the writeback of those pages (zombies) are released with them. A
// record with a handle open is reset in place and any other goes back to
// the slab, so a caller takes what it needs of the record, such as its
// writeback error, first. Caller holds c.mu.
func (c *Cache) dropFileLocked(ino vfs.Ino) {
	f, ok := c.files[ino]
	if !ok {
		return
	}
	for _, zh := range f.zombies {
		c.backing.Release(wbOp, zh)
	}
	for _, p := range f.all() {
		c.dropPage(p)
	}
	if open := f.openHandles; open > 0 {
		*f = fileCache{ino: f.ino, openHandles: open, unlinked: f.unlinked}
	} else {
		delete(c.files, ino)
		release(&c.records, f, &poisonedFile)
	}
	c.stats.Invalidate++
}

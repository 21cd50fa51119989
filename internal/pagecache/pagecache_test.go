package pagecache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

type env struct {
	clock *sim.Clock
	model *sim.CostModel
	disk  *sim.Disk
	cache *Cache
	cli   *vfs.Client
}

func newEnv(t *testing.T, opts Options) *env {
	t.Helper()
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	disk := sim.NewDisk(clock, model)
	if opts.ChargeDisk == nil {
		opts.ChargeDisk = disk
	}
	cache := New(memfs.New(memfs.Options{}), clock, model, opts)
	return &env{
		clock: clock, model: model, disk: disk, cache: cache,
		cli: vfs.NewClient(cache, vfs.Root()),
	}
}

func TestReadWriteThroughCache(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true})
	data := bytes.Repeat([]byte("abc"), 5000)
	if err := e.cli.WriteFile("/f", data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := e.cli.ReadFile("/f")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch through cache")
	}
}

func TestSecondReadHitsCache(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true})
	e.cli.WriteFile("/f", make([]byte, 64<<10), 0o644)
	e.cli.ReadFile("/f")
	s1 := e.cache.Stats()
	e.cli.ReadFile("/f")
	s2 := e.cache.Stats()
	if s2.Misses != s1.Misses {
		t.Fatalf("second read missed: %d -> %d", s1.Misses, s2.Misses)
	}
	if s2.Hits <= s1.Hits {
		t.Fatal("second read should hit")
	}
}

func TestNoKeepCacheInvalidatesOnOpen(t *testing.T) {
	e := newEnv(t, Options{KeepCache: false})
	e.cli.WriteFile("/f", make([]byte, 16<<10), 0o644)
	e.cli.ReadFile("/f")
	before := e.cache.Stats().Misses
	e.cli.ReadFile("/f") // re-open invalidates
	after := e.cache.Stats().Misses
	if after == before {
		t.Fatal("open without KeepCache must invalidate pages")
	}
}

func TestKeepCacheFasterThanNot(t *testing.T) {
	run := func(keep bool) int64 {
		clock := sim.NewClock()
		model := sim.DefaultCostModel()
		disk := sim.NewDisk(clock, model)
		cache := New(memfs.New(memfs.Options{}), clock, model, Options{KeepCache: keep, ChargeDisk: disk})
		cli := vfs.NewClient(cache, vfs.Root())
		cli.WriteFile("/f", make([]byte, 1<<20), 0o644)
		cli.ReadFile("/f") // warm
		start := clock.Now()
		for i := 0; i < 4; i++ {
			cli.ReadFile("/f")
		}
		return int64(clock.Now() - start)
	}
	kept, dropped := run(true), run(false)
	if kept*3 > dropped {
		t.Fatalf("KEEP_CACHE reads (%d) should be far faster than invalidating reads (%d)", kept, dropped)
	}
}

func TestWritebackBatchesDiskWrites(t *testing.T) {
	// Many small appends with writeback must produce far fewer disk
	// requests than write-through.
	count := func(writeback bool) int64 {
		clock := sim.NewClock()
		model := sim.DefaultCostModel()
		disk := sim.NewDisk(clock, model)
		cache := New(memfs.New(memfs.Options{}), clock, model, Options{
			KeepCache: true, Writeback: writeback, ChargeDisk: disk,
			DirtyWindow: 1 << 20,
		})
		cli := vfs.NewClient(cache, vfs.Root())
		f, err := cli.Create("/log", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte("x"), 100)
		for i := 0; i < 1000; i++ {
			if _, err := f.Write(payload); err != nil {
				t.Fatal(err)
			}
		}
		f.Close()
		return disk.Stats().Writes
	}
	wb, wt := count(true), count(false)
	if wb*10 > wt {
		t.Fatalf("writeback %d disk writes vs write-through %d: expected >=10x reduction", wb, wt)
	}
}

func TestWritebackReadYourWrites(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30})
	f, err := e.cli.Open("/f", vfs.ORdwr|vfs.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("dirty data"))
	buf := make([]byte, 10)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "dirty data" {
		t.Fatalf("read %q before flush", buf)
	}
	f.Close()
	// After close the data must be durable in the backing fs.
	data, err := e.cli.ReadFile("/f")
	if err != nil || string(data) != "dirty data" {
		t.Fatalf("after close: %q, %v", data, err)
	}
}

func TestFsyncFlushesDirtyData(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30})
	f, err := e.cli.Create("/f", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, 10<<10))
	if e.disk.Stats().Writes != 0 {
		t.Fatal("nothing should hit disk before fsync")
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if e.disk.Stats().BytesWrite < 10<<10 {
		t.Fatalf("fsync flushed only %d bytes", e.disk.Stats().BytesWrite)
	}
	f.Close()
}

func TestDirtyWindowTriggersFlush(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 64 << 10})
	f, _ := e.cli.Create("/f", 0o644)
	f.Write(make([]byte, 128<<10))
	if e.cache.Stats().FlushedB == 0 {
		t.Fatal("exceeding the dirty window must trigger a flush")
	}
	f.Close()
}

func TestUnlinkDropsDirtyPagesWithoutDiskIO(t *testing.T) {
	// Postmark's pattern: create, write, close, delete before any sync.
	// The dirty pages die with the file and never reach the disk... but
	// close flushes in this simple model, so the file must be unlinked
	// while closed and the only disk cost is the close-time flush being
	// skipped when the unlink happens first in the same cache.
	e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30})
	f, err := e.cli.Open("/tmpfile", vfs.ORdwr|vfs.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(make([]byte, 100<<10))
	// While the file is open, unlink must NOT drop the pages (an open
	// handle keeps them alive, unlike the closed-file fast path).
	if err := e.cli.Remove("/tmpfile"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if _, err := f.ReadAt(buf, 0); err != nil {
		t.Fatalf("orphan read: %v", err)
	}
	f.Close()
}

func TestUnlinkClosedFileDropsPages(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30})
	e.cli.WriteFile("/hot", make([]byte, 64<<10), 0o644)
	e.cli.ReadFile("/hot") // populate read cache
	used := e.cache.opts.Budget
	_ = used
	if err := e.cli.Remove("/hot"); err != nil {
		t.Fatal(err)
	}
	e.cache.mu.Lock()
	n := len(e.cache.files)
	e.cache.mu.Unlock()
	if n != 0 {
		t.Fatalf("closed deleted file kept %d cache entries", n)
	}
}

func TestBudgetEvictsUnderPressure(t *testing.T) {
	budget := NewMemBudget(64 << 10) // 16 pages
	e := newEnv(t, Options{KeepCache: true, Budget: budget})
	e.cli.WriteFile("/big", make([]byte, 256<<10), 0o644)
	e.cli.ReadFile("/big")
	if budget.Used() > 64<<10 {
		t.Fatalf("budget exceeded: %d", budget.Used())
	}
	if e.cache.Stats().Evictions == 0 {
		t.Fatal("expected evictions under budget pressure")
	}
	// Data must still read back correctly despite eviction.
	got, err := e.cli.ReadFile("/big")
	if err != nil || len(got) != 256<<10 {
		t.Fatalf("read after eviction: %d bytes, %v", len(got), err)
	}
}

func TestSharedBudgetModelsDoubleBuffering(t *testing.T) {
	// Two caches sharing one budget can hold only half as much each.
	budget := NewMemBudget(128 << 10)
	clock := sim.NewClock()
	model := sim.DefaultCostModel()
	back := memfs.New(memfs.Options{})
	c1 := New(back, clock, model, Options{KeepCache: true, Budget: budget})
	c2 := New(back, clock, model, Options{KeepCache: true, Budget: budget})
	cli1 := vfs.NewClient(c1, vfs.Root())
	cli2 := vfs.NewClient(c2, vfs.Root())
	cli1.WriteFile("/a", make([]byte, 128<<10), 0o644)
	cli1.ReadFile("/a")
	used1 := budget.Used()
	cli2.ReadFile("/a")
	if budget.Used() <= used1/2 {
		t.Fatal("second cache should consume budget too")
	}
	if budget.Used() > 128<<10 {
		t.Fatalf("combined budget exceeded: %d", budget.Used())
	}

	// Stacked, as on either side of a FUSE mount: what is read through
	// the upper cache is held twice — unless the upper one's read-only
	// opens reach the lower as O_DIRECT, and then once.
	const size, readAhead = 256 << 10, 16 << 10
	stackedUse := func(between func(vfs.FS) vfs.FS) int64 {
		budget := NewMemBudget(1 << 20)
		opts := Options{KeepCache: true, ReadAhead: readAhead, Budget: budget}
		back := memfs.New(memfs.Options{})
		vfs.NewClient(back, vfs.Root()).WriteFile("/a", make([]byte, size), 0o644)
		upper := New(between(New(back, clock, model, opts)), clock, model, opts)
		if got, err := vfs.NewClient(upper, vfs.Root()).ReadFile("/a"); err != nil || len(got) != size {
			t.Fatalf("read through two caches: %d bytes, %v", len(got), err)
		}
		return budget.Used()
	}
	if twice := stackedUse(func(lower vfs.FS) vfs.FS { return lower }); twice != 2*size {
		t.Fatalf("two stacked caches hold %d bytes of a %d-byte file, want it twice", twice, size)
	}
	if once := stackedUse(func(lower vfs.FS) vfs.FS { return directReadOpens{lower} }); once < size || once > size+readAhead {
		t.Fatalf("two stacked caches, the lower bypassed, hold %d bytes of a %d-byte file, want it once", once, size)
	}
}

func TestODirectBypassesCache(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true})
	e.cli.WriteFile("/f", make([]byte, 8<<10), 0o644)
	f, err := e.cli.Open("/f", vfs.ORdonly|vfs.ODirect, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8<<10)
	f.ReadAt(buf, 0)
	f.ReadAt(buf, 0)
	f.Close()
	if e.cache.Stats().Hits != 0 {
		t.Fatal("O_DIRECT reads must not populate or hit the cache")
	}
}

func TestTruncateDropsStalePages(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true})
	e.cli.WriteFile("/f", bytes.Repeat([]byte("A"), 16<<10), 0o644)
	e.cli.ReadFile("/f") // populate cache
	if err := e.cli.Truncate("/f", 0); err != nil {
		t.Fatal(err)
	}
	e.cli.WriteFile("/f", []byte("new"), 0o644)
	got, err := e.cli.ReadFile("/f")
	if err != nil || string(got) != "new" {
		t.Fatalf("after truncate: %q, %v", got, err)
	}
}

func TestAppendThroughWriteback(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true, Writeback: true})
	f, err := e.cli.Open("/log", vfs.OWronly|vfs.OCreat|vfs.OAppend, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("one"))
	f.Write([]byte("two"))
	f.Close()
	got, _ := e.cli.ReadFile("/log")
	if string(got) != "onetwo" {
		t.Fatalf("append through writeback: %q", got)
	}
}

func TestMetadataPassThrough(t *testing.T) {
	e := newEnv(t, Options{})
	if err := e.cli.MkdirAll("/a/b/c", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := e.cli.Symlink("/a/b", "/ln"); err != nil {
		t.Fatal(err)
	}
	if tgt, err := e.cli.Readlink("/ln"); err != nil || tgt != "/a/b" {
		t.Fatalf("readlink: %q %v", tgt, err)
	}
	if err := e.cli.Rename("/a/b/c", "/a/c"); err != nil {
		t.Fatal(err)
	}
	ents, err := e.cli.ReadDir("/a")
	if err != nil || len(ents) != 2 {
		t.Fatalf("readdir: %v %v", ents, err)
	}
	st, err := e.cache.Statfs(e.cli.Op, vfs.RootIno)
	if err != nil || st.BlockSize == 0 {
		t.Fatalf("statfs: %+v %v", st, err)
	}
}

func TestClockAdvancesOnOps(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true})
	before := e.clock.Now()
	e.cli.WriteFile("/f", make([]byte, 4<<10), 0o644)
	if e.clock.Now() <= before {
		t.Fatal("virtual clock should advance on I/O")
	}
}

func TestSyncFSFlushesEverything(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30})
	f1, _ := e.cli.Create("/a", 0o644)
	f2, _ := e.cli.Create("/b", 0o644)
	f1.Write(make([]byte, 8<<10))
	f2.Write(make([]byte, 8<<10))
	if err := e.cache.SyncFS(); err != nil {
		t.Fatal(err)
	}
	if e.disk.Stats().BytesWrite < 16<<10 {
		t.Fatalf("SyncFS flushed %d bytes", e.disk.Stats().BytesWrite)
	}
	f1.Close()
	f2.Close()
}

// directReadOpens adds O_DIRECT to read-only opens, as the CntrFS server
// does on a mount that keeps its pages (fuse.MountOptions.DirectRead): it
// stands between two stacked caches where the FUSE connection would.
type directReadOpens struct{ vfs.FS }

func (d directReadOpens) Open(op *vfs.Op, ino vfs.Ino, flags vfs.OpenFlags) (vfs.Handle, error) {
	if flags&(vfs.OWronly|vfs.ORdwr|vfs.OTrunc|vfs.OCreat|vfs.OAppend) == 0 {
		flags |= vfs.ODirect
	}
	return d.FS.Open(op, ino, flags)
}

// coherenceStack builds one cache, or two stacked caches drawing on one
// budget (the Figure 2 shape, the lower one bypassed by the upper one's
// read-only opens as on the default mount), over a fresh memfs. The
// 32 KiB budget is smaller than the file the property test works on, so
// a lone cache evicts its own pages and the lower of two stacked caches
// regularly finds no room at all.
func coherenceStack(stacked, writeback bool) (caches []*Cache, back *memfs.FS) {
	back = memfs.New(memfs.Options{})
	clock, model := sim.NewClock(), sim.DefaultCostModel()
	opts := Options{
		KeepCache: true, Writeback: writeback, ReadAhead: 16 << 10,
		Budget: NewMemBudget(32 << 10),
	}
	layers := 1
	if stacked {
		layers = 2
	}
	var below vfs.FS = back
	for i := 0; i < layers; i++ {
		if i > 0 {
			below = directReadOpens{below}
		}
		c := New(below, clock, model, opts)
		caches = append([]*Cache{c}, caches...) // top first
		below = c
	}
	return caches, back
}

// coherenceSpans are the spans the coherence oracle works in: 64 KiB,
// twice the budget and as much as a file holds in place (lowPages), and
// 256 KiB, which crosses into the tree of pages past them.
var coherenceSpans = []int{64 << 10, 256 << 10}

// TestPropertyCacheCoherence is the differential oracle for every path
// through the cache: a random mix of writes (through an O_RDWR and an
// O_WRONLY handle), reads (through the O_RDWR handle and a read-only one,
// which two stacked caches serve past the lower), truncates (shrink and
// grow), fsync, close+reopen and unlink-while-open runs against the cache
// stack and against bare memfs; every read, size and errno must agree, and
// after SyncFS the backing filesystem itself must hold the reference's
// bytes.
func TestPropertyCacheCoherence(t *testing.T) {
	for _, stacked := range []bool{false, true} {
		for _, writeback := range []bool{true, false} {
			name := fmt.Sprintf("stacked=%v/writeback=%v", stacked, writeback)
			t.Run(name, func(t *testing.T) {
				for _, span := range coherenceSpans {
					t.Run(fmt.Sprintf("span=%dKiB", span>>10), func(t *testing.T) {
						f := func(seed uint64) bool {
							return coherent(t, sim.NewRand(seed), span, stacked, writeback)
						}
						// A fixed source: every row and every run sees the
						// same 40 scripts, so a failure reproduces.
						cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}
						if err := quick.Check(f, cfg); err != nil {
							t.Fatal(err)
						}
					})
				}
			})
		}
	}
}

// FuzzCacheCoherence drives the coherence oracle from a fuzzed seed, span
// and stack shape; the corpus is the property's own inputs.
func FuzzCacheCoherence(f *testing.F) {
	for _, span := range coherenceSpans {
		for _, stacked := range []bool{false, true} {
			for _, writeback := range []bool{true, false} {
				f.Add(uint64(1), span, stacked, writeback)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, span int, stacked, writeback bool) {
		// Any span from a byte to 1 MiB: a page index past lowPages is
		// reached from 64 KiB on.
		span = 1 + int(uint(span)%(1<<20))
		if !coherent(t, sim.NewRand(seed), span, stacked, writeback) {
			t.Fatalf("seed %d, span %d, stacked %v, writeback %v: the cache and memfs disagree", seed, span, stacked, writeback)
		}
	})
}

// coherent runs one random script of 60 operations on a file within span
// bytes against the cache stack and against bare memfs, reporting whether
// the two agreed throughout.
func coherent(t *testing.T, rng *sim.Rand, span int, stacked, writeback bool) bool {
	caches, back := coherenceStack(stacked, writeback)
	cc := vfs.NewClient(caches[0], vfs.Root())
	ref := vfs.NewClient(memfs.New(memfs.Options{}), vfs.Root())
	// Three handles on each side: read-write (which creates the file),
	// write-only and read-only.
	var cfs, rfs [3]vfs.File
	closeAll := func() {
		for i := range cfs {
			cfs[i].Close()
			rfs[i].Close()
		}
	}
	open := func() bool {
		for i, flags := range []vfs.OpenFlags{vfs.ORdwr | vfs.OCreat, vfs.OWronly, vfs.ORdonly} {
			var cerr, rerr error
			cfs[i], cerr = cc.Open("/f", flags, 0o644)
			rfs[i], rerr = ref.Open("/f", flags, 0o644)
			if cerr != nil || rerr != nil {
				return false
			}
		}
		return true
	}
	if !open() {
		return false
	}
	defer closeAll()
	fail := func(i int, format string, args ...any) bool {
		t.Logf("op %d: "+format, append([]any{i}, args...)...)
		return false
	}
	for i := 0; i < 60; i++ {
		cf, rf := &cfs[0], &rfs[0]
		off := int64(rng.Intn(span))
		size := rng.Intn(8<<10) + 1
		switch op := rng.Intn(20); {
		case op < 8:
			if op >= 5 {
				cf, rf = &cfs[1], &rfs[1] // the O_WRONLY writer
			}
			data := make([]byte, size)
			rng.Bytes(data)
			na, ea := cf.WriteAt(data, off)
			nb, eb := rf.WriteAt(data, off)
			if na != nb || ea != nil || eb != nil {
				return fail(i, "write %d@%d: %d,%v vs %d,%v", size, off, na, ea, nb, eb)
			}
		case op < 16:
			if op >= 12 {
				cf, rf = &cfs[2], &rfs[2] // the read-only reader
			}
			a, b := make([]byte, size), make([]byte, size)
			na, ea := cf.ReadAt(a, off)
			nb, eb := rf.ReadAt(b, off)
			if na != nb || vfs.ToErrno(ea) != vfs.ToErrno(eb) {
				return fail(i, "read %d@%d: %d,%v vs %d,%v", size, off, na, ea, nb, eb)
			}
			if !bytes.Equal(a[:na], b[:nb]) {
				return fail(i, "read %d@%d: content differs", size, off)
			}
			sa, ea := cf.Stat()
			sb, eb := rf.Stat()
			if ea != nil || eb != nil || sa.Size != sb.Size {
				return fail(i, "size %d,%v vs %d,%v", sa.Size, ea, sb.Size, eb)
			}
		case op < 17:
			// Shrinks and grows both: off is anywhere in the span.
			if cf.Truncate(off) != nil || rf.Truncate(off) != nil {
				return fail(i, "truncate to %d", off)
			}
		case op < 18:
			if cf.Sync() != nil || rf.Sync() != nil {
				return fail(i, "fsync")
			}
		case op < 19:
			closeAll()
			if !open() {
				return fail(i, "reopen")
			}
		default:
			// Unlink while open: the handles keep working on the orphan
			// until the next close+reopen creates a new /f. ENOENT when
			// the name is already gone.
			if ea, eb := cc.Remove("/f"), ref.Remove("/f"); vfs.ToErrno(ea) != vfs.ToErrno(eb) {
				return fail(i, "unlink: %v vs %v", ea, eb)
			}
		}
		for _, c := range caches {
			if err := listed(c); err != nil {
				return fail(i, "%v", err)
			}
		}
	}
	for _, c := range caches {
		if err := c.SyncFS(); err != nil {
			return fail(60, "syncfs: %v", err)
		}
	}
	got, ea := vfs.NewClient(back, vfs.Root()).ReadFile("/f")
	want, eb := ref.ReadFile("/f")
	if vfs.ToErrno(ea) != vfs.ToErrno(eb) || !bytes.Equal(got, want) {
		return fail(60, "backing after SyncFS: %d bytes,%v vs %d bytes,%v", len(got), ea, len(want), eb)
	}
	return true
}

// listed checks c's list of pages against its files: each file's count
// is the pages it holds, exactly its dirty pages carry a dirty mark, no
// page that shares the backing's bytes is dirty, and each equals the
// block the backing stores for it, unless its file is gone from the
// backing; and walked from the oldest, the list visits every page a file
// holds exactly once, each where its file holds it and linked both ways,
// and no other.
func listed(c *Cache) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	held, owners := 0, map[*fileCache]bool{}
	for ino, f := range c.files {
		found, dirty := 0, 0
		for idx, p := range f.all() {
			if p.f != f || p.idx != idx {
				return fmt.Errorf("inode %d holds page %d where its header says %d", ino, idx, p.idx)
			}
			found++
			if p.dirty > 0 {
				dirty++
			}
			if err := sharedAsStored(c, ino, idx, p); err != nil {
				return err
			}
		}
		if found != f.npages {
			return fmt.Errorf("inode %d counts %d pages and holds %d", ino, f.npages, found)
		}
		for idx, p := range f.dirtyPages() {
			if p.dirty == 0 || f.at(idx) != p {
				return fmt.Errorf("inode %d marks page %d dirty, which holds %d dirty bytes", ino, idx, p.dirty)
			}
			dirty--
		}
		if dirty != 0 {
			return fmt.Errorf("inode %d: %d dirty pages carry no mark", ino, dirty)
		}
		held += found
		owners[f] = true
	}
	n := 0
	var prev *page
	for p := c.oldest; p != nil; prev, p = p, p.next {
		if n++; n > held {
			return fmt.Errorf("the list is longer than the %d pages held", held)
		}
		if p.prev != prev {
			return fmt.Errorf("list entry %d (page %d): prev is not the entry before it", n, p.idx)
		}
		if !owners[p.f] || p.f.at(p.idx) != p {
			return fmt.Errorf("list entry %d (page %d) is not held where it says", n, p.idx)
		}
	}
	if c.newest != prev {
		return fmt.Errorf("newest is not the last of the %d entries", n)
	}
	if n != held {
		return fmt.Errorf("the list has %d entries, the files hold %d pages", n, held)
	}
	return nil
}

// sharedAsStored checks a page that shares the backing's bytes: it is
// clean, and they are the bytes of the whole block the backing stores for
// it now, unless the file is gone from the backing. Caller holds c.mu.
func sharedAsStored(c *Cache, ino vfs.Ino, idx int64, p *page) error {
	if !p.shared {
		return nil
	}
	if p.dirty > 0 {
		return fmt.Errorf("inode %d page %d shares the backing's bytes and is dirty", ino, idx)
	}
	if c.viewer == nil {
		return fmt.Errorf("inode %d page %d shares bytes of a backing that offers none", ino, idx)
	}
	var stored [1]*[PageSize]byte
	c.viewer.ViewPages(ino, idx, stored[:])
	if stored[0] != nil && bytes.Equal(stored[0][:], p.data[:]) {
		return nil
	}
	if _, err := c.backing.Getattr(wbOp, ino); err != nil {
		return nil // the file is gone, and what it stored with it
	}
	return fmt.Errorf("inode %d page %d shares bytes that are not its stored block", ino, idx)
}

// TestHitRatioConvention pins the ratio helper: 0 with no traffic (not
// NaN), hits over lookups otherwise.
func TestHitRatioConvention(t *testing.T) {
	if r := (Stats{}).HitRatio(); r != 0 {
		t.Fatalf("no-traffic ratio = %v, want 0", r)
	}
	if r := (Stats{Hits: 3, Misses: 1}).HitRatio(); r != 0.75 {
		t.Fatalf("ratio = %v, want 0.75", r)
	}
}

// TestWritebackErrorReachesCloseAndFsync: a writeback the backing refuses
// leaves its pages clean, so whoever syncs the file next is the only one
// who can be told. Each of close, fsync and an O_SYNC write reports the
// first failure once; the write(2) that only dirtied pages succeeds, as it
// does in Linux.
func TestWritebackErrorReachesCloseAndFsync(t *testing.T) {
	// mount returns a cache over a backing that refuses every write, and a
	// file opened through it with one dirty page.
	mount := func(t *testing.T, keepCache bool, flags vfs.OpenFlags) (*Cache, *vfs.Client, *vfs.File) {
		t.Helper()
		full := vfs.Chain(memfs.New(memfs.Options{}), vfs.NewFaultInjector(vfs.FaultRule{Kind: vfs.KindWrite, Errno: vfs.ENOSPC}))
		cache := New(full, sim.NewClock(), sim.DefaultCostModel(), Options{KeepCache: keepCache, Writeback: true, FlushOnClose: true})
		cli := vfs.NewClient(cache, vfs.Root())
		f, err := cli.Open("/f", vfs.OWronly|vfs.OCreat|flags, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if flags&vfs.OSync == 0 {
			if n, err := f.WriteAt([]byte("data"), 0); n != 4 || err != nil {
				t.Fatalf("write into the cache: %d, %v", n, err)
			}
		}
		return cache, cli, &f
	}
	enospc := func(t *testing.T, what string, err error) {
		t.Helper()
		if vfs.ToErrno(err) != vfs.ENOSPC {
			t.Fatalf("%s = %v, want ENOSPC", what, err)
		}
	}
	reported := func(t *testing.T, f *vfs.File) {
		t.Helper()
		if err := f.Close(); err != nil {
			t.Fatalf("close after the error was reported: %v", err)
		}
	}

	t.Run("close", func(t *testing.T) {
		cache, _, f := mount(t, true, 0)
		enospc(t, "close", f.Close())
		if attr, err := cache.backing.Getattr(vfs.RootOp(), f.Ino()); err != nil || attr.Size != 0 {
			t.Fatalf("backing file after the refused writeback: size %d, %v", attr.Size, err)
		}
	})
	t.Run("fsync reports once", func(t *testing.T) {
		_, _, f := mount(t, true, 0)
		enospc(t, "fsync", f.Sync())
		if err := f.Sync(); err != nil {
			t.Fatalf("second fsync, nothing dirty: %v", err)
		}
		reported(t, f)
	})
	t.Run("O_SYNC write", func(t *testing.T) {
		_, _, f := mount(t, true, vfs.OSync)
		_, err := f.WriteAt([]byte("data"), 0)
		enospc(t, "O_SYNC write", err)
		reported(t, f)
	})
	t.Run("open that invalidates", func(t *testing.T) {
		_, cli, f := mount(t, false, 0)
		// Without KeepCache a second open flushes and drops the pages; the
		// open itself succeeds, and the failure waits for the next sync.
		g, err := cli.Open("/f", vfs.ORdonly, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		enospc(t, "close", f.Close())
	})
	t.Run("fsync after an open that invalidates reports once", func(t *testing.T) {
		_, cli, f := mount(t, false, 0)
		// The drop keeps a record for the file, which is still open: the
		// error must reach it, not stay with the record the pages left.
		g, err := cli.Open("/f", vfs.ORdonly, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		enospc(t, "fsync", f.Sync())
		if err := f.Sync(); err != nil {
			t.Fatalf("second fsync, nothing dirty: %v", err)
		}
		reported(t, f)
	})
	t.Run("fallocate", func(t *testing.T) {
		cache, _, f := mount(t, true, 0)
		// Punching a hole flushes the file and drops its pages first.
		enospc(t, "fallocate", cache.Fallocate(vfs.RootOp(), f.Handle(), vfs.FallocPunchHole|vfs.FallocKeepSize, 0, 1))
		reported(t, f)
	})
}

// fsyncSpy records the datasync flag of every Fsync that reaches it.
type fsyncSpy struct {
	vfs.FS
	datasync []bool
}

func (s *fsyncSpy) Fsync(op *vfs.Op, h vfs.Handle, datasync bool) error {
	s.datasync = append(s.datasync, datasync)
	return s.FS.Fsync(op, h, datasync)
}

// TestOSyncWriteSendsFullFsync: a writeback cache makes an O_SYNC write
// durable by writing it back and syncing the backing, as
// generic_write_sync does, and O_SYNC promises the file's metadata too:
// the sync is a full one, not a datasync (that is O_DSYNC's alone). On a
// FUSE mount this FSYNC is what makes the write durable on the host.
func TestOSyncWriteSendsFullFsync(t *testing.T) {
	spy := &fsyncSpy{FS: memfs.New(memfs.Options{})}
	cache := New(spy, sim.NewClock(), sim.DefaultCostModel(), Options{KeepCache: true, Writeback: true})
	f, err := vfs.NewClient(cache, vfs.Root()).Open("/f", vfs.OWronly|vfs.OCreat|vfs.OSync, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i := int64(0); i < 2; i++ {
		if _, err := f.WriteAt([]byte("data"), 4*i); err != nil {
			t.Fatal(err)
		}
	}
	if want := []bool{false, false}; !slices.Equal(spy.datasync, want) {
		t.Fatalf("fsyncs after two O_SYNC writes (datasync flags): %v, want %v", spy.datasync, want)
	}
}

// TestWritebackThroughAppendHandleKeepsOffsets: dirty pages are written
// back at their own offsets through whichever writable handle is at hand.
// When that is one the caller opened O_APPEND, the backing must not move
// the extent to its end of file.
func TestWritebackThroughAppendHandleKeepsOffsets(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true, Writeback: true})
	if err := e.cli.WriteFile("/f", bytes.Repeat([]byte("."), 8<<10), 0o644); err != nil {
		t.Fatal(err)
	}
	e.cache.SyncFS()
	rw, err := e.cli.Open("/f", vfs.ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rw.Close()
	if _, err := rw.WriteAt([]byte("head"), 0); err != nil {
		t.Fatal(err)
	}
	log, err := e.cli.Open("/f", vfs.OWronly|vfs.OAppend, 0) // now the writeback handle
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	if _, err := log.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	e.cache.SyncFS()
	want := append(append([]byte("head"), bytes.Repeat([]byte("."), 8<<10-4)...), "tail"...)
	got, err := vfs.NewClient(e.cache.backing, vfs.Root()).ReadFile("/f")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("backing after sync: %d bytes (want %d), starts %q, ends %q, %v", len(got), len(want), got[:4], got[len(got)-4:], err)
	}
}

// TestAppendWriteThroughDropsStaleTail: an O_APPEND write that passes the
// cache lands at the backing's end of file, an offset the cache does not
// choose. Dirty pages go back first, so that end is the cached one, and
// the pages from the one holding the old end on are dropped after: a read
// serves the appended bytes, not the zero padding of the cached tail page
// or dirty bytes the append went under.
func TestAppendWriteThroughDropsStaleTail(t *testing.T) {
	for _, tc := range []struct {
		name      string
		writeback bool
		flags     vfs.OpenFlags
	}{
		{"write-through cache", false, vfs.OWronly | vfs.OAppend},
		{"O_DIRECT handle over dirty pages", true, vfs.OWronly | vfs.OAppend | vfs.ODirect},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, Options{KeepCache: true, Writeback: tc.writeback})
			head, tail := bytes.Repeat([]byte("h"), 100), bytes.Repeat([]byte("t"), 50)
			if err := e.cli.WriteFile("/f", head, 0o644); err != nil {
				t.Fatal(err)
			}
			// Caches page 0, zero-padded past byte 100.
			if got, err := e.cli.ReadFile("/f"); err != nil || !bytes.Equal(got, head) {
				t.Fatalf("first read: %q, %v", got, err)
			}
			f, err := e.cli.Open("/f", tc.flags, 0)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := f.Write(tail); n != len(tail) || err != nil {
				t.Fatalf("append: %d, %v", n, err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			want := append(head, tail...)
			if got, err := e.cli.ReadFile("/f"); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("read after append: %q, %v; want %q", got, err, want)
			}
		})
	}
}

// TestEvictionInsideWriteFlushesDirtyPages: a write larger than the budget
// evicts pages it dirtied itself; they must reach the backing, also when
// the file's last writeback handle was closed clean just before.
func TestEvictionInsideWriteFlushesDirtyPages(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30, Budget: NewMemBudget(4 * PageSize)})
	a, err := e.cli.Open("/f", vfs.OWronly|vfs.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := e.cli.Open("/f", vfs.OWronly, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Close() // nothing dirty: the file is left without a writeback handle
	data := make([]byte, 16*PageSize)
	sim.NewRand(1).Bytes(data)
	if n, err := a.WriteAt(data, 0); n != len(data) || err != nil {
		t.Fatalf("write: %d, %v", n, err)
	}
	e.cache.SyncFS()
	got, err := vfs.NewClient(e.cache.backing, vfs.Root()).ReadFile("/f")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("backing after sync: %d bytes, equal %v, %v", len(got), bytes.Equal(got, data), err)
	}
}

// TestLastCloseOfUnlinkedFileDrops: a file whose last link goes while it
// is open keeps its pages until its last close, which drops the record,
// the pages, dirty or not, and their share of the budget, as iput_final
// does. Without FlushOnClose the dirty pages are discarded unwritten.
func TestLastCloseOfUnlinkedFileDrops(t *testing.T) {
	for _, flush := range []bool{false, true} {
		t.Run(fmt.Sprintf("FlushOnClose=%v", flush), func(t *testing.T) {
			budget := NewMemBudget(1 << 20)
			e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30, FlushOnClose: flush, Budget: budget})
			before := budget.Used()
			f, err := e.cli.Open("/f", vfs.ORdwr|vfs.OCreat, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(bytes.Repeat([]byte{'u'}, 8*PageSize), 0); err != nil {
				t.Fatal(err)
			}
			g, err := e.cli.Open("/f", vfs.ORdonly, 0)
			if err != nil {
				t.Fatal(err)
			}
			ino := f.Ino()
			if err := e.cli.Remove("/f"); err != nil {
				t.Fatal(err)
			}
			f.Close()
			if _, ok := e.cache.files[ino]; !ok || budget.Used() != before+8*PageSize {
				t.Fatalf("after the first of two closes: record held %v, budget %d, want the 8 pages kept", ok, budget.Used()-before)
			}
			writes := e.disk.Stats().Writes
			g.Close()
			if _, ok := e.cache.files[ino]; ok {
				t.Error("the cache still holds a record of the unlinked file after its last close")
			}
			if got := budget.Used(); got != before {
				t.Errorf("budget holds %d bytes after the last close, want %d", got, before)
			}
			if got := e.disk.Stats().Writes; got != writes {
				t.Errorf("the last close wrote %d times to the disk, want none", got-writes)
			}
		})
	}
}

// TestUnlinkReleasesWritebackHandles: a file closed with dirty pages
// and no flush on close keeps its backing handle for background
// writeback; unlinking it then discards the pages, and the handle with
// them, so the backing reaps the inode.
func TestUnlinkReleasesWritebackHandles(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30})
	root := vfs.Root()
	files := func() uint64 {
		st, err := e.cache.backing.Statfs(vfs.NewOp(nil, root), vfs.RootIno)
		if err != nil {
			t.Fatal(err)
		}
		return st.Files
	}
	before := files()
	for i := range 3 {
		f, err := e.cli.Open("/f", vfs.ORdwr|vfs.OCreat, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("hello"), 0); err != nil {
			t.Fatal(err)
		}
		ino := f.Ino()
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := e.cli.Remove("/f"); err != nil {
			t.Fatal(err)
		}
		if _, err := e.cache.backing.Getattr(wbOp, ino); err == nil {
			t.Errorf("round %d: the backing still holds inode %d after its unlink: a writeback handle is open on it", i, ino)
		}
	}
	if err := e.cache.SyncFS(); err != nil {
		t.Fatal(err)
	}
	if got := files(); got != before {
		t.Errorf("the backing holds %d inodes after three created and removed files, want %d", got, before)
	}
}

// TestRefusedUnlinkKeepsPages: an unlink the backing refuses leaves the
// file and its dirty pages as they were, whether the file is open or
// closed; its bytes are still read through the cache, and reach the
// backing at the next sync.
func TestRefusedUnlinkKeepsPages(t *testing.T) {
	for _, open := range []bool{true, false} {
		t.Run(fmt.Sprintf("open=%v", open), func(t *testing.T) {
			e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30})
			if err := e.cli.Mkdir("/tmp", 0o777); err != nil {
				t.Fatal(err)
			}
			if err := e.cli.Chmod("/tmp", vfs.ModeSticky|0o777); err != nil {
				t.Fatal(err)
			}
			data := []byte("new data")
			f, err := e.cli.Open("/tmp/f", vfs.ORdwr|vfs.OCreat, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Fatal(err)
			}
			if !open {
				f.Close()
			}
			user := vfs.NewClient(e.cache, vfs.User(1000, 1000))
			if err := user.Remove("/tmp/f"); !errors.Is(err, vfs.EPERM) {
				t.Fatalf("uid 1000 removing root's file in a sticky directory: %v, want EPERM", err)
			}
			if open {
				f.Close()
			}
			if got, err := e.cli.ReadFile("/tmp/f"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("through the cache after the refused unlink: %q, %v; want %q", got, err, data)
			}
			if err := e.cache.SyncFS(); err != nil {
				t.Fatal(err)
			}
			back := vfs.NewClient(e.cache.backing, vfs.Root())
			if got, err := back.ReadFile("/tmp/f"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("in the backing after SyncFS: %q, %v; want %q", got, err, data)
			}
		})
	}
}

// TestInvalidateKeepsOpenHandleCount: an O_TRUNC open discards the file's
// pages, not the count of handles already open on it — the pages of an
// unlinked file must outlive every close but the last.
func TestInvalidateKeepsOpenHandleCount(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30})
	a, err := e.cli.Open("/f", vfs.ORdwr|vfs.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := e.cli.Open("/f", vfs.OWronly|vfs.OTrunc, 0)
	if err != nil {
		t.Fatal(err)
	}
	b.Close()
	if _, err := a.WriteAt([]byte("still here"), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.cli.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if n, err := a.ReadAt(buf, 0); n != 10 || err != nil || string(buf) != "still here" {
		t.Fatalf("read of the unlinked, still open file: %d %q %v", n, buf[:n], err)
	}
}

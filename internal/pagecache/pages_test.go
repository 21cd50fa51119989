package pagecache

import (
	"bytes"
	"fmt"
	"iter"
	"runtime"
	"runtime/debug"
	"testing"

	"cntr/internal/allocs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// raceBuild reports whether the test binary was built with -race, whose
// instrumentation allocates on its own account.
func raceBuild() bool {
	info, _ := debug.ReadBuildInfo()
	if info == nil {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestMissReadsTheWindow: under a budget of two pages the later inserts of
// an eight-page window evict the page a read missed on before the read
// copies it out, and the free list hands that page's header and buffer to
// a later page of the same window. A miss must be served from the window
// fill read, not from the page: the page would serve another page's bytes.
func TestMissReadsTheWindow(t *testing.T) {
	const pages = 20
	e := newEnv(t, Options{KeepCache: true, ReadAhead: 8 * PageSize, Budget: NewMemBudget(2 * PageSize)})
	data := make([]byte, pages*PageSize)
	sim.NewRand(7).Bytes(data)
	for i := 0; i < pages; i++ {
		data[i*PageSize] = byte(i) // distinct even where the generator repeats
	}
	// Written below the cache, so every page of the reads is a miss.
	if err := vfs.NewClient(e.cache.backing, vfs.Root()).WriteFile("/f", data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := e.cli.Open("/f", vfs.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, PageSize)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < pages; i++ {
			if n, err := f.ReadAt(buf, int64(i)*PageSize); n != PageSize || err != nil {
				t.Fatalf("pass %d page %d: %d, %v", pass, i, n, err)
			}
			if !bytes.Equal(buf, data[i*PageSize:(i+1)*PageSize]) {
				t.Fatalf("pass %d: page %d reads back another page's bytes (first byte %d)", pass, i, buf[0])
			}
		}
	}
	all := make([]byte, len(data))
	if n, err := f.ReadAt(all, 0); n != len(data) || err != nil || !bytes.Equal(all, data) {
		t.Fatalf("whole-file read: %d, %v, equal %v", n, err, bytes.Equal(all, data))
	}
	if s := e.cache.Stats(); s.Evictions == 0 {
		t.Fatalf("no evictions under a two-page budget: %+v", s)
	}
}

// TestReinsertedPageIsNewest: under a budget of two pages, page 0 of /f
// is cached, then page 0 of /g, then /f is truncated to nothing and its
// page 0 written again. That page is the newest cached, so caching page 0
// of /h evicts /g's page, the oldest, and keeps it.
func TestReinsertedPageIsNewest(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true, Writeback: true, Budget: NewMemBudget(2 * PageSize)})
	open := func(name string) *vfs.File {
		f, err := e.cli.Open(name, vfs.ORdwr|vfs.OCreat, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return &f
	}
	page := make([]byte, PageSize)
	write := func(f *vfs.File) {
		if n, err := f.WriteAt(page, 0); n != PageSize || err != nil {
			t.Fatalf("write page 0: %d, %v", n, err)
		}
	}
	cached := func(f *vfs.File) bool { return e.cache.files[f.Ino()].at(0) != nil }
	f, g, h := open("/f"), open("/g"), open("/h")
	write(f)
	write(g)
	if err := f.Truncate(0); err != nil {
		t.Fatal(err)
	}
	write(f)
	write(h)
	if !cached(f) || cached(g) {
		t.Fatalf("after /h's page was cached: f0 cached %v, g0 cached %v, want the re-inserted f0 kept and g0 evicted",
			cached(f), cached(g))
	}
}

// slabBlock is the most records one block of a slab holds, and slabFree
// the most its free list keeps (internal/slab).
const slabBlock, slabFree = 64, 256

// heapCost returns the heap objects and bytes one call of f allocates, as
// testing.AllocsPerRun counts them (one warm-up call, then runs).
func heapCost(runs int, f func()) (objects, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objects = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	return objects, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs+1)
}

// TestFreshPagesAllocBudget pins what caching new pages costs the host: the
// bytes and the headers of fresh pages are cut from the cache's slabs, a
// block of 64 of each per 64 pages once the slabs have cut 64. The pages
// past the first lowPages, which the file holds in place, are indexed by
// a few tree nodes from the cache's node slab, blocks of up to 64 shared
// by every file, which testing.AllocsPerRun's whole-number average reads
// as 0. Nothing else: the write reaches no backing call but
// the capability lookup, and memfs answers that without allocating. Bytes
// are the pages' own plus at most 64 KiB. Asserts are off under -race.
func TestFreshPagesAllocBudget(t *testing.T) {
	const runs = 20
	for _, pages := range []int{64, 256} {
		e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30})
		files := make([]vfs.File, runs+1)
		for i := range files {
			var err error
			if files[i], err = e.cli.Open(fmt.Sprintf("/f%d", i), vfs.ORdwr|vfs.OCreat, 0o644); err != nil {
				t.Fatal(err)
			}
			defer files[i].Close()
		}
		data := make([]byte, pages*PageSize)
		next := 0
		objects, bytes := heapCost(runs, func() {
			if n, err := files[next].WriteAt(data, 0); n != len(data) || err != nil {
				t.Fatal(n, err)
			}
			next++
		})
		allocs.Check(t, fmt.Sprintf("%d fresh pages", pages), objects)
		t.Logf("%d fresh pages: %.0f bytes", pages, bytes)
		if raceBuild() {
			continue
		}
		if limit := float64(len(data) + 64<<10); bytes > limit {
			t.Errorf("%d fresh pages cost %.0f bytes, want at most %.0f", pages, bytes, limit)
		}
	}
}

// TestColdWindowAllocBudget: a cold read of a whole 16-page file through a
// 128 KiB readahead window is one backing read whose 16 pages are cached
// together, cut from the cache's slabs: a quarter of a 64-page block of
// headers, which testing.AllocsPerRun's whole-number average reads as 0.
// The pages share memfs's stored blocks, so no buffer is cut for them.
// The file holds its first lowPages pages in place, so they cost no tree
// node. The window itself is read into the cache's scratch buffer, and
// the file's record was made by its open. A 256-page file, eight
// windows, costs its headers' four blocks and under 64 KiB; a cache that
// copied its pages cut four blocks of buffers more, 1 MiB. Asserts are
// off under -race.
func TestColdWindowAllocBudget(t *testing.T) {
	const runs, window = 20, 128 << 10
	for _, tc := range []struct {
		name  string
		pages int
	}{{"cold 16-page window", 16}, {"cold 256-page read over memfs", 256}} {
		e := newEnv(t, Options{KeepCache: true, ReadAhead: window})
		below := vfs.NewClient(e.cache.backing, vfs.Root())
		data := make([]byte, tc.pages*PageSize)
		files := make([]vfs.File, runs+1)
		for i := range files {
			name := fmt.Sprintf("/f%d", i)
			if err := below.WriteFile(name, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var err error
			if files[i], err = e.cli.Open(name, vfs.ORdonly, 0); err != nil {
				t.Fatal(err)
			}
			defer files[i].Close()
		}
		buf := make([]byte, len(data))
		next := 0
		objects, bytes := heapCost(runs, func() {
			if n, err := files[next].ReadAt(buf, 0); n != len(buf) || err != nil {
				t.Fatal(n, err)
			}
			next++
		})
		t.Logf("%s: %.0f bytes", tc.name, bytes)
		if s, windows := e.cache.Stats(), (len(data)+window-1)/window; s.Misses != int64(len(files)*windows) {
			t.Fatalf("%s: %d misses for %d cold reads, want %d each", tc.name, s.Misses, len(files), windows)
		}
		allocs.Check(t, tc.name, objects)
		if !raceBuild() && bytes > 64<<10 {
			t.Errorf("%s: %.0f bytes, want at most %d", tc.name, bytes, 64<<10)
		}
	}
}

// TestAppendAllocBudget pins what files grown by 4 KiB writes cost the
// host, one row per pattern. Every page, whichever file it is of, is cut
// from the cache's two slabs, bytes and headers, a block of 64 of each
// per 64 pages, and the nodes indexing the pages past the first lowPages,
// which are held in place, from its node slab: 1 024 appends cost 33 heap
// objects (16 blocks of each and one of nodes), four files appended in
// turn 8 and 222 random writes into a sparse file 18. Bytes are the
// cached pages' own and 64 KiB per 256 of them for headers and nodes,
// plus for the appends a block's unused tail. Asserts are off under
// -race.
func TestAppendAllocBudget(t *testing.T) {
	const runs = 3
	page := make([]byte, PageSize)
	rng := sim.NewRand(11)
	random := make([]int64, 256)
	for i := range random {
		random[i] = int64(rng.Intn(1024))
	}
	for _, tc := range []struct {
		name   string
		files  int
		writes func(files []vfs.File) int // returns the pages cached
		tail   int                        // pages the last block may leave unused
	}{
		{"1024 sequential appends", 1, func(files []vfs.File) int {
			for i := int64(0); i < 1024; i++ {
				if _, err := files[0].WriteAt(page, i*PageSize); err != nil {
					t.Fatal(err)
				}
			}
			return 1024
		}, slabBlock - 1},
		{"four files appended in turn", 4, func(files []vfs.File) int {
			for i := int64(0); i < 64; i++ {
				for j := range files {
					if _, err := files[j].WriteAt(page, i*PageSize); err != nil {
						t.Fatal(err)
					}
				}
			}
			return 256
		}, 0},
		{"random writes into a sparse file", 1, func(files []vfs.File) int {
			cached := map[int64]bool{}
			for _, idx := range random {
				if _, err := files[0].WriteAt(page, idx*PageSize); err != nil {
					t.Fatal(err)
				}
				cached[idx] = true
			}
			return len(cached)
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 40})
			sets := make([][]vfs.File, runs+1)
			for i := range sets {
				sets[i] = make([]vfs.File, tc.files)
				for j := range sets[i] {
					var err error
					if sets[i][j], err = e.cli.Open(fmt.Sprintf("/f%d.%d", i, j), vfs.ORdwr|vfs.OCreat, 0o644); err != nil {
						t.Fatal(err)
					}
					defer sets[i][j].Close()
				}
			}
			// A collection would empty the client's pool of recycled Ops
			// mid-measurement: what refills it is not the cache's cost.
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			next, pages := 0, 0
			objects, bytes := heapCost(runs, func() {
				pages = tc.writes(sets[next])
				next++
			})
			allocs.Check(t, tc.name, objects)
			t.Logf("%s: %d pages, %.0f bytes", tc.name, pages, bytes)
			if raceBuild() {
				return
			}
			if limit := float64((pages+tc.tail)*PageSize + (pages+255)/256*64<<10); bytes > limit {
				t.Errorf("%.0f bytes for %d pages, want at most %.0f", bytes, pages, limit)
			}
		})
	}
}

// TestChurnAllocBudget: the create / 4 KiB write / close / unlink loop of
// PostMark and Compilebench caches each file's page in the one the file
// before it dropped, so after a warm-up it costs no page header or buffer,
// and holds it in place, so no tree node either. The cache's record of the
// file, memfs's inode and the node indexing its block are the ones the
// file before dropped too, and the open file is a value: 0 heap objects.
// Asserts are off under -race.
func TestChurnAllocBudget(t *testing.T) {
	e := newEnv(t, Options{KeepCache: true, Writeback: true, FlushOnClose: true})
	data := make([]byte, PageSize)
	var cached *page
	churn := func() {
		f, err := e.cli.Create("/churn", 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(data); err != nil {
			t.Fatal(err)
		}
		cached = e.cache.files[e.cache.opens[f.Handle()].ino].at(0)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := e.cli.Remove("/churn"); err != nil {
			t.Fatal(err)
		}
	}
	churn()
	warm, warmBuf := cached, cached.data
	objects, bytes := heapCost(100, func() {
		churn()
		if cached != warm || cached.data != warmBuf {
			t.Fatal("a churned file's page has a new header or buffer, want the one the file before dropped")
		}
	})
	t.Logf("create / 4 KiB write / close / unlink: %.0f bytes", bytes)
	allocs.Check(t, "create / 4 KiB write / close / unlink", objects)
}

// TestDroppedPagesAreReusedOnce: 64 pages written in one call are
// truncated to 10, and the 54 dropped pages go on the free list. The next
// 54 pages cached, in another file, are exactly those, header and buffer;
// the 54 after them are cut from runs. No two live pages share a header or
// a buffer, a reused page is zero past what was written into it, and the
// list never holds more than slabFree pages.
func TestDroppedPagesAreReusedOnce(t *testing.T) {
	const pages, kept = 64, 10
	e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30})
	pagesOf := func(f *vfs.File) iter.Seq2[int64, *page] {
		return e.cache.files[e.cache.opens[f.Handle()].ino].all()
	}
	create := func(name string) *vfs.File {
		f, err := e.cli.Open(name, vfs.ORdwr|vfs.OCreat, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return &f
	}
	write := func(f *vfs.File, data []byte, off int64) {
		if n, err := f.WriteAt(data, off); n != len(data) || err != nil {
			t.Fatalf("write %d@%d: %d, %v", len(data), off, n, err)
		}
	}
	truncate := func(name string, size int64) {
		if err := e.cli.Truncate(name, size); err != nil {
			t.Fatal(err)
		}
	}
	data := make([]byte, pages*PageSize)
	sim.NewRand(3).Bytes(data)
	f := create("/f")
	write(f, data, 0)
	droppedHdr, droppedBuf := map[*page]int64{}, map[*byte]int64{}
	for idx, p := range pagesOf(f) {
		if idx >= kept {
			droppedHdr[p], droppedBuf[&p.data[0]] = idx, idx
		}
	}
	truncate("/f", kept*PageSize)

	g := create("/g")
	fresh := data[kept*PageSize:]
	write(g, fresh, 0)
	write(f, fresh, kept*PageSize)
	for idx, p := range pagesOf(g) {
		if _, ok := droppedHdr[p]; !ok {
			t.Errorf("/g page %d has a fresh header, want a dropped page's", idx)
		}
		if _, ok := droppedBuf[&p.data[0]]; !ok {
			t.Errorf("/g page %d has a fresh buffer, want a dropped page's", idx)
		}
	}
	for idx, p := range pagesOf(f) {
		if was, ok := droppedHdr[p]; ok {
			t.Errorf("/f page %d has the header of dropped page %d, want one cut from a run", idx, was)
		}
		if was, ok := droppedBuf[&p.data[0]]; ok {
			t.Errorf("/f page %d has the buffer of dropped page %d, want one cut from a run", idx, was)
		}
	}
	hdrs, bufs := map[*page]string{}, map[*byte]string{}
	for name, file := range map[string]*vfs.File{"/f": f, "/g": g} {
		for idx, p := range pagesOf(file) {
			at := fmt.Sprintf("%s page %d", name, idx)
			if other, ok := hdrs[p]; ok {
				t.Errorf("%s and %s share a header", at, other)
			}
			if other, ok := bufs[&p.data[0]]; ok {
				t.Errorf("%s and %s share a buffer", at, other)
			}
			hdrs[p], bufs[&p.data[0]] = at, at
		}
	}
	for _, tc := range []struct {
		f    *vfs.File
		want []byte
	}{{f, append(data[:kept*PageSize:kept*PageSize], fresh...)}, {g, fresh}} {
		got := make([]byte, len(tc.want))
		if n, err := tc.f.ReadAt(got, 0); n != len(got) || err != nil || !bytes.Equal(got, tc.want) {
			t.Errorf("read back %d of %d bytes, %v, equal %v", n, len(got), err, bytes.Equal(got, tc.want))
		}
	}

	// A dropped page of /g, full of its bytes, reused for a 100-byte tail:
	// a write at the page's last byte leaves a hole that reads as zeros.
	dropped := map[*page]bool{}
	for _, p := range pagesOf(g) {
		dropped[p] = true
	}
	truncate("/g", 0)
	h := create("/h")
	write(h, fresh[:100], 0)
	write(h, []byte{'!'}, PageSize-1)
	got := make([]byte, PageSize)
	if n, err := h.ReadAt(got, 0); n != PageSize || err != nil {
		t.Fatalf("read of /h: %d, %v", n, err)
	}
	if want := append(append(fresh[:100:100], make([]byte, PageSize-101)...), '!'); !bytes.Equal(got, want) {
		t.Errorf("a reused page holding a 100-byte tail reads %d nonzero bytes past byte 100, want 0",
			PageSize-101-bytes.Count(got[100:PageSize-1], []byte{0}))
	}
	// 117 pages dropped since, then a file of 2·slabFree pages, which takes
	// those 117: of the 2·slabFree pages dropped last, slabFree are kept,
	// so a write of slabFree+1 pages takes those and cuts one page.
	for _, p := range pagesOf(f) {
		dropped[p] = true
	}
	truncate("/f", 0)
	big := create("/big")
	write(big, make([]byte, 2*slabFree*PageSize), 0)
	for _, p := range pagesOf(big) {
		dropped[p] = true
	}
	truncate("/big", 0)
	k := create("/k")
	write(k, make([]byte, (slabFree+1)*PageSize), 0)
	reused := 0
	for _, p := range pagesOf(k) {
		if dropped[p] {
			reused++
		}
	}
	if reused != slabFree {
		t.Errorf("%d of %d fresh pages were dropped ones after dropping %d, want the %d kept", reused, slabFree+1, 2*slabFree, slabFree)
	}
}

// TestDroppedPagesArePoisoned: under the scratch guard rail a dropped
// page's bytes read 0xDB and a dropped file record holds poisonedFile, so
// a holder of either across its drop sees poison at once; each serves its
// next file whole.
func TestDroppedPagesArePoisoned(t *testing.T) {
	was := poisonScratch.Swap(true)
	t.Cleanup(func() { poisonScratch.Store(was) })
	e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30})
	ino := func(name string) vfs.Ino {
		attr, err := e.cli.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		return attr.Ino
	}
	if err := e.cli.WriteFile("/f", bytes.Repeat([]byte("f"), 2*PageSize), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := e.cache.files[ino("/f")]
	held := rec.at(1).data
	if err := e.cli.Truncate("/f", PageSize); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(held[:], []byte{0xDB}); n != PageSize {
		t.Fatalf("a page held across its drop reads %d bytes of 0xDB, want %d", n, PageSize)
	}
	want := bytes.Repeat([]byte("g"), 100)
	if err := e.cli.WriteFile("/g", want, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := e.cli.ReadFile("/g"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("/g, cached in the poisoned page: %q, %v", got, err)
	}
	if n := bytes.Count(held[100:], []byte{0}); n != PageSize-100 {
		t.Fatalf("the reused page holds %d zero bytes past its 100, want %d", n, PageSize-100)
	}

	// /f unlinked with no handle open: its record goes back to the slab.
	if err := e.cli.Remove("/f"); err != nil {
		t.Fatal(err)
	}
	if rec.size != poisonedFile.size || rec.npages != poisonedFile.npages || rec.openHandles != poisonedFile.openHandles {
		t.Fatalf("a record held across its drop has size %d, %d pages, %d handles; want poisonedFile's",
			rec.size, rec.npages, rec.openHandles)
	}
	if err := e.cli.WriteFile("/h", want, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := e.cli.ReadFile("/h"); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("/h, in the poisoned record: %q, %v", got, err)
	}
	if e.cache.files[ino("/h")] != rec {
		t.Fatal("/h has a new record, want the one /f dropped")
	}
}

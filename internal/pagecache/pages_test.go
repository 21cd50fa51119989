package pagecache

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

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

// TestFillKeepsItsPage: fill returns the page it was called for after
// inserting the rest of the window, and under a budget of two pages the
// later inserts of an eight-page window evict that page before the
// caller copies out of it. The evicted page must still hold its own
// bytes: a page header or buffer handed to a later insert once it is
// dropped would serve another page's data here.
func TestFillKeepsItsPage(t *testing.T) {
	const pages = 20
	e := newEnv(t, Options{KeepCache: true, ReadAhead: 8 * PageSize, Budget: NewMemBudget(2 * PageSize)})
	data := make([]byte, pages*PageSize)
	sim.NewRand(7).Bytes(data)
	for i := 0; i < pages; i++ {
		data[i*PageSize] = byte(i) // distinct even where the generator repeats
	}
	// Written below the cache, so every page of the reads is a miss.
	if err := vfs.NewClient(e.cache.Backing(), vfs.Root()).WriteFile("/f", data, 0o644); err != nil {
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
// fresh pages one write creates are one run of at most 64 pages
// (maxHdrBlock) per 64, the same number of header blocks and a page map made
// for them (4 objects). Nothing else: the write reaches no backing call but
// the capability lookup, and memfs answers that without allocating. Bytes
// are the pages' own plus at most 64 KiB. The eviction queue's growth is
// taken out of the measurement by making room for it first. Asserts are
// off under -race.
func TestFreshPagesAllocBudget(t *testing.T) {
	const runs, pageMap = 20, 4
	for _, tc := range []struct{ pages, runs int }{{64, 1}, {256, 4}} {
		e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30})
		files := make([]*vfs.File, runs+1)
		for i := range files {
			f, err := e.cli.Open(fmt.Sprintf("/f%d", i), vfs.ORdwr|vfs.OCreat, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			files[i] = f
		}
		e.cache.lru = make([]pageKey, 0, 2*tc.pages*len(files))
		data := make([]byte, tc.pages*PageSize)
		next := 0
		objects, bytes := heapCost(runs, func() {
			if n, err := files[next].WriteAt(data, 0); n != len(data) || err != nil {
				t.Fatal(n, err)
			}
			next++
		})
		t.Logf("%d fresh pages: %.0f heap objects, %.0f bytes", tc.pages, objects, bytes)
		if raceBuild() {
			continue
		}
		if want := float64(2*tc.runs + pageMap); objects != want {
			t.Errorf("%d fresh pages cost %.0f heap objects, want %.0f: %d runs, %d header blocks, %d of page map",
				tc.pages, objects, want, tc.runs, tc.runs, pageMap)
		}
		if limit := float64(len(data) + 64<<10); bytes > limit {
			t.Errorf("%d fresh pages cost %.0f bytes, want at most %.0f", tc.pages, bytes, limit)
		}
	}
}

// TestColdWindowAllocBudget: a cold read of a whole 16-page file through a
// 128 KiB readahead window is one backing read whose 16 pages are cached
// together: one run, one header block and 4 objects of page map. The
// window itself is read into the cache's scratch buffer, and the file's
// record was made by its open. Asserts are off under -race.
func TestColdWindowAllocBudget(t *testing.T) {
	const runs, pages, want = 20, 16, 6
	e := newEnv(t, Options{KeepCache: true, ReadAhead: 128 << 10})
	below := vfs.NewClient(e.cache.Backing(), vfs.Root())
	data := make([]byte, pages*PageSize)
	files := make([]*vfs.File, runs+1)
	for i := range files {
		name := fmt.Sprintf("/f%d", i)
		if err := below.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := e.cli.Open(name, vfs.ORdonly, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		files[i] = f
	}
	e.cache.lru = make([]pageKey, 0, 2*pages*len(files))
	buf := make([]byte, len(data))
	next := 0
	objects, bytes := heapCost(runs, func() {
		if n, err := files[next].ReadAt(buf, 0); n != len(buf) || err != nil {
			t.Fatal(n, err)
		}
		next++
	})
	t.Logf("cold %d-page window: %.0f heap objects, %.0f bytes", pages, objects, bytes)
	if s := e.cache.Stats(); s.Misses != int64(len(files)) {
		t.Fatalf("%d misses for %d cold reads, want one each", s.Misses, len(files))
	}
	if !raceBuild() && objects != want {
		t.Errorf("a cold %d-page window costs %.0f heap objects, want %d: one run, one header block, 4 of page map",
			pages, objects, want)
	}
}

// TestRunsAreNeverReused: pages cached together share a run, and a page
// dropped from it keeps its slot. After 64 pages written in one call are
// truncated to 10, no page cached since, in the same file or another, may
// have a header or a buffer a dropped page had: a reader still holding
// one (as fill does) would see another page's bytes.
func TestRunsAreNeverReused(t *testing.T) {
	const pages, kept = 64, 10
	e := newEnv(t, Options{KeepCache: true, Writeback: true, DirtyWindow: 1 << 30})
	data := make([]byte, pages*PageSize)
	sim.NewRand(3).Bytes(data)
	f, err := e.cli.Open("/f", vfs.ORdwr|vfs.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(data, 0); err != nil {
		t.Fatal(err)
	}
	fc := e.cache.files[e.cache.opens[f.Handle()].ino]
	droppedHdr, droppedBuf := map[*page]int64{}, map[*byte]int64{}
	for idx := int64(kept); idx < pages; idx++ {
		p := fc.pages[idx]
		droppedHdr[p], droppedBuf[&p.data[0]] = idx, idx
	}
	if err := e.cli.Truncate("/f", kept*PageSize); err != nil {
		t.Fatal(err)
	}
	g, err := e.cli.Open("/g", vfs.ORdwr|vfs.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	fresh := data[kept*PageSize:]
	if _, err := g.WriteAt(fresh, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(fresh, kept*PageSize); err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]vfs.Handle{"/f": f.Handle(), "/g": g.Handle()} {
		for idx, p := range e.cache.files[e.cache.opens[h].ino].pages {
			if was, ok := droppedHdr[p]; ok {
				t.Errorf("%s page %d has the header of dropped page %d", name, idx, was)
			}
			if was, ok := droppedBuf[&p.data[0]]; ok {
				t.Errorf("%s page %d has the buffer of dropped page %d", name, idx, was)
			}
		}
	}
}

package pagecache

import (
	"bytes"
	"fmt"
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

// TestFreshPagesAllocBudget pins what caching new pages costs the host in
// heap objects: 64 fresh pages written into one file are 64 page buffers,
// the 7 header blocks a file growing from nothing to 64 pages is cut from
// (1, 1, 2, 4, 8, 16 and 32 headers) and the page map, made with the
// first page and grown to 64 entries (11 objects in all). Nothing else:
// the write reaches no backing call but the capability lookup, and memfs
// answers that without allocating. The eviction queue's growth is taken
// out of the measurement by making room for it first. Asserts are off
// under -race.
func TestFreshPagesAllocBudget(t *testing.T) {
	const runs, pages, blocks, pageMap = 20, 64, 7, 11
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
	e.cache.lru = make([]pageKey, 0, 2*pages*len(files))
	data := make([]byte, pages*PageSize)
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		if n, err := files[next].WriteAt(data, 0); n != len(data) || err != nil {
			t.Fatal(n, err)
		}
		next++
	})
	t.Logf("%d fresh pages: %.0f heap objects", pages, got)
	if raceBuild() {
		return
	}
	if want := float64(pages + blocks + pageMap); got != want {
		t.Errorf("%d fresh pages cost %.0f heap objects, want %.0f: %d buffers, %d header blocks, %d of page map",
			pages, got, want, pages, blocks, pageMap)
	}
}

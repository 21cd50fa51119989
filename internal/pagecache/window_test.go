package pagecache

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// callRecorder is a synchronous backing that records every Read and
// Write it serves as "R off len(buf)" / "W off len(buf)".
type callRecorder struct {
	*memfs.FS
	calls []string
}

func (r *callRecorder) Read(op *vfs.Op, h vfs.Handle, off int64, dest []byte) (int, error) {
	r.calls = append(r.calls, fmt.Sprintf("R %d %d", off, len(dest)))
	return r.FS.Read(op, h, off, dest)
}

func (r *callRecorder) Write(op *vfs.Op, h vfs.Handle, off int64, data []byte) (int, error) {
	r.calls = append(r.calls, fmt.Sprintf("W %d %d", off, len(data)))
	return r.FS.Write(op, h, off, data)
}

// take returns the calls recorded since the last take.
func (r *callRecorder) take() []string {
	out := r.calls
	r.calls = nil
	return out
}

// TestSynchronousWindowShapes pins the cache's backing traffic as the
// exact Read/Write call sequence, offsets and buffer lengths: a sequential miss reads one
// ReadAhead window (the tail clamped to the file, never below a page), a
// random miss one page, a partial-page overwrite reads its page before
// dirtying it, and an eviction writes one page's dirty range.
func TestSynchronousWindowShapes(t *testing.T) {
	const ra = 128 << 10
	back := &callRecorder{FS: memfs.New(memfs.Options{})}
	data := bytes.Repeat([]byte("shape123"), 2<<20/8)
	data = append(data, bytes.Repeat([]byte("t"), 100)...) // short tail window
	raw := vfs.NewClient(back.FS, vfs.Root())
	for _, name := range []string{"/cold", "/rand", "/rmw"} {
		if err := raw.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cache := New(back, sim.NewClock(), sim.DefaultCostModel(), Options{
		KeepCache: true, Writeback: true, DirtyWindow: 1 << 30, MaxWriteSize: 128 << 10,
		ReadAhead: ra, Budget: NewMemBudget(4 << 20),
	})
	cli := vfs.NewClient(cache, vfs.Root())
	check := func(step string, want []string) {
		t.Helper()
		if got := back.take(); !slices.Equal(got, want) {
			t.Fatalf("%s: backing calls\n got %q\nwant %q", step, got, want)
		}
	}

	got, err := cli.ReadFile("/cold")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cold read: %d bytes, %v", len(got), err)
	}
	var seq []string
	for off := 0; off < 2<<20; off += ra {
		seq = append(seq, fmt.Sprintf("R %d %d", off, ra))
	}
	check("cold sequential read", append(seq, fmt.Sprintf("R %d %d", 2<<20, PageSize)))

	f, err := cli.Open("/rand", vfs.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	for _, pg := range []int64{300, 100, 200} {
		if _, err := f.ReadAt(buf, pg*PageSize+7); err != nil {
			t.Fatal(err)
		}
	}
	// A read that misses twice: the first miss is random (one page), the
	// second continues it within the same call (one window).
	if _, err := f.ReadAt(make([]byte, PageSize), 400*PageSize+100); err != nil {
		t.Fatal(err)
	}
	f.Close()
	check("random reads", []string{
		fmt.Sprintf("R %d %d", 300*PageSize, PageSize),
		fmt.Sprintf("R %d %d", 100*PageSize, PageSize),
		fmt.Sprintf("R %d %d", 200*PageSize, PageSize),
		fmt.Sprintf("R %d %d", 400*PageSize, PageSize),
		fmt.Sprintf("R %d %d", 401*PageSize, ra),
	})

	w, err := cli.Open("/rmw", vfs.ORdwr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt([]byte("partial"), 5000); err != nil {
		t.Fatal(err)
	}
	check("partial-page overwrite", []string{fmt.Sprintf("R %d %d", PageSize, PageSize)})
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	check("fsync", []string{"W 5000 7"})

	// 2 MiB + 100 bytes of /cold and a few pages of /rand and /rmw are
	// cached clean; dirtying 4 MiB more than the 4 MiB budget holds evicts
	// them all first, then the writer's own oldest dirty pages, one
	// single-page write each.
	page := bytes.Repeat([]byte("D"), PageSize)
	for i := int64(0); i < 1024+4; i++ {
		if _, err := w.WriteAt(page, (600+i)*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	var evicted []string
	for i := int64(0); i < 4; i++ {
		evicted = append(evicted, fmt.Sprintf("W %d %d", (600+i)*PageSize, PageSize))
	}
	check("eviction-driven flush", evicted)
	w.Close()
}

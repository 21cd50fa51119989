package pagecache

import (
	"bytes"
	"slices"
	"testing"

	"cntr/internal/memfs"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// shapeRecorder is a pipelined backing that runs every window inline
// and records how many requests each Submit carried.
type shapeRecorder struct {
	*memfs.FS
	reads, writes []int
}

func (s *shapeRecorder) Submit(op *vfs.Op, h vfs.Handle, kind vfs.OpKind, reqs []vfs.IOReq) []vfs.PendingIO {
	if kind == vfs.KindRead {
		s.reads = append(s.reads, len(reqs))
	} else {
		s.writes = append(s.writes, len(reqs))
	}
	return vfs.Submit(s.FS, op, h, kind, reqs)
}

// TestPipelinedWindowShapes pins the traffic the cache produces on the
// pipelined path — the only producer of Submit calls in the stack. A
// cold sequential read opens with the missed window alone, fills the
// pipeline to AsyncDepth in one window, then refills one window per
// harvest; a flush submits all its extents as one window.
func TestPipelinedWindowShapes(t *testing.T) {
	back := &shapeRecorder{FS: memfs.New(memfs.Options{})}
	data := bytes.Repeat([]byte("shape123"), 2<<20/8)
	if err := vfs.NewClient(back.FS, vfs.Root()).WriteFile("/cold", data, 0o644); err != nil {
		t.Fatal(err)
	}
	cache := New(back, sim.NewClock(), sim.DefaultCostModel(), Options{
		KeepCache: true, Writeback: true, DirtyWindow: 1 << 20, MaxWriteSize: 128 << 10,
		ReadAhead: 128 << 10, AsyncDepth: 4,
	})
	cli := vfs.NewClient(cache, vfs.Root())
	got, err := cli.ReadFile("/cold")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cold read: %d bytes, %v", len(got), err)
	}
	if err := cli.WriteFile("/warm", data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = vfs.NewClient(back.FS, vfs.Root()).ReadFile("/warm")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("writeback: %d bytes, %v", len(got), err)
	}
	wantReads := []int{1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	if !slices.Equal(back.reads, wantReads) {
		t.Fatalf("readahead windows = %v, want %v", back.reads, wantReads)
	}
	if want := []int{16}; !slices.Equal(back.writes, want) {
		t.Fatalf("writeback windows = %v, want %v", back.writes, want)
	}
}

package blobstore

import (
	"bytes"
	"runtime"
	"testing"

	"cntr/internal/allocs"
)

// TestMemPutAllocBudget pins what storing a block costs the host: 256 Puts
// of 4 KiB are four full runs (maxRun holds 64 blocks) and four ref
// batches, and nothing per Put (a blob copy and a ref string each, 512 in
// all, before). A first burst grows the runs to maxRun and the map to 256
// entries; the Deletes after each burst leave it grown.
func TestMemPutAllocBudget(t *testing.T) {
	const puts, runs = 256, 5
	m := NewMem()
	data := make([]byte, 4<<10)
	refs := make([]Ref, puts)
	burst := func() {
		for i := range refs {
			refs[i], _ = m.Put(data)
		}
		for _, ref := range refs {
			if err := m.Delete(ref); err != nil {
				t.Fatal(err)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	objects := testing.AllocsPerRun(runs, burst)
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	t.Logf("%d Puts of 4 KiB: %.0f bytes; %d runs and %d ref batches", puts, bytes, puts*len(data)/maxRun, puts/refBatch)
	allocs.Check(t, "256 Puts of 4 KiB", objects)
}

// TestMemBlobsAreNeverReused: Mem hands out no freed bytes. A blob held
// from Get keeps them across its Delete and the Puts after it, deleted or
// kept, of its own size, larger and smaller; and its capacity is its
// length, so an append on it cannot reach the blob next to it.
func TestMemBlobsAreNeverReused(t *testing.T) {
	m := NewMem()
	want := bytes.Repeat([]byte{0xa5}, 3000)
	ref, _ := m.Put(want)
	held, err := m.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if cap(held) != len(held) {
		t.Fatalf("blob has cap %d, len %d", cap(held), len(held))
	}
	if err := m.Delete(ref); err != nil {
		t.Fatal(err)
	}
	other, sizes := bytes.Repeat([]byte{0x5a}, 4<<10), []int{3000, 4 << 10, 100}
	for i := 0; i < 200; i++ {
		r, _ := m.Put(other[:sizes[i%3]])
		if i%2 == 0 {
			m.Delete(r)
		}
	}
	if !bytes.Equal(held, want) {
		t.Fatal("a deleted blob's bytes were handed to a later Put")
	}
}

// TestMemViewKeepsItsBytes: a View is the stored blob itself and counts no
// Get, and a view and a Get both keep their bytes across the blob's Delete
// and 1 000 later Puts, deleted or kept, of its size and of others.
func TestMemViewKeepsItsBytes(t *testing.T) {
	m := NewMem()
	want := bytes.Repeat([]byte{0xa5}, 4<<10)
	ref, _ := m.Put(want)
	view, ok := m.View(ref)
	if !ok || !bytes.Equal(view, want) {
		t.Fatalf("View: %d bytes, %v; want the %d put", len(view), ok, len(want))
	}
	if gets := m.Stats().Gets; gets != 0 {
		t.Fatalf("a View counted %d Gets, want 0", gets)
	}
	got, err := m.Get(ref)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &view[0] {
		t.Fatal("Get and View return different bytes for one blob")
	}
	if err := m.Delete(ref); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.View(ref); ok {
		t.Fatal("a deleted blob is still viewed")
	}
	other, sizes := bytes.Repeat([]byte{0x5a}, 8<<10), []int{4 << 10, 1, 3000, 8 << 10}
	for i := 0; i < 1000; i++ {
		r, _ := m.Put(other[:sizes[i%len(sizes)]])
		if i%2 == 0 {
			m.Delete(r)
		}
	}
	if !bytes.Equal(view, want) || !bytes.Equal(got, want) {
		t.Fatal("a deleted blob's viewed bytes were handed to a later Put")
	}
}

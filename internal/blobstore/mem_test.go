package blobstore

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"
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

// TestMemPutAllocBudget pins what storing a block costs the host: 256 Puts
// of 4 KiB are four full runs (maxRun holds 64 blocks) and four ref
// batches, and nothing per Put (a blob copy and a ref string each, 512 in
// all, before). A first burst grows the runs to maxRun and the map to 256
// entries; the Deletes after each burst leave it grown. Asserts are off
// under -race.
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
	t.Logf("%d Puts of 4 KiB: %.0f heap objects, %.0f bytes", puts, objects, bytes)
	if raceBuild() {
		return
	}
	if objects > 10 {
		t.Errorf("%d Puts of 4 KiB cost %.0f heap objects, budget 10: %d runs and %d ref batches",
			puts, objects, puts*len(data)/maxRun, puts/refBatch)
	}
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

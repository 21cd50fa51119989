package fuse

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"cntr/internal/vfs"
)

// nameFrame is b as a frame carries a name: a length prefix, then the
// bytes.
func nameFrame(b []byte) []byte {
	var w buf
	w.bytes(b)
	return w.b
}

// decodeName decodes the one name frame holds through t.
func decodeName(frame []byte, t *nameTable) (string, rdr) {
	r := rdr{b: frame}
	s := r.name(t)
	return s, r
}

// seededNames returns names drawn from rng: random bytes of every length
// from empty to past vfs.MaxNameLen, the two lengths on either side of
// it, and groups of names that share a slot, so that names evict one
// another.
func seededNames(rng *rand.Rand) [][]byte {
	var names [][]byte
	for range 300 {
		b := make([]byte, rng.IntN(vfs.MaxNameLen+40))
		for i := range b {
			b[i] = byte(rng.UintN(256))
		}
		names = append(names, b)
	}
	names = append(names, nil, bytes.Repeat([]byte{'a'}, vfs.MaxNameLen), bytes.Repeat([]byte{'a'}, vfs.MaxNameLen+1))
	bySlot := map[uint32][][]byte{}
	for i, groups := 0, 0; groups < 16; i++ {
		b := fmt.Appendf(nil, "f%03d.c", i)
		slot := nameSlot(b)
		if bySlot[slot] = append(bySlot[slot], b); len(bySlot[slot]) == 4 {
			names = append(names, bySlot[slot]...)
			groups++
		}
	}
	return names
}

// TestNameTableMatchesPlainDecoding: decoding a name through the table
// gives what plain decoding gives, string(b), whatever the table held
// before: seeded names, among them groups forced into one slot, are
// decoded in a seeded order. Afterwards each slot holds the last name of
// at most vfs.MaxNameLen bytes that hashed to it, and decoding any name a
// slot holds allocates nothing; a longer name allocates its one copy.
func TestNameTableMatchesPlainDecoding(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 59))
	names := seededNames(rng)
	var tab nameTable
	want := map[uint32]string{}
	for range 5000 {
		b := names[rng.IntN(len(names))]
		frame := nameFrame(b)
		got, r := decodeName(frame, &tab)
		if got != string(b) || r.bad || r.off != len(frame) {
			t.Fatalf("decoding %d bytes %q: %q (bad %v, %d of %d bytes read)", len(b), b, got, r.bad, r.off, len(frame))
		}
		if len(b) > 0 && len(b) <= vfs.MaxNameLen {
			want[nameSlot(b)] = string(b)
		}
	}
	for i, s := range tab.slots {
		if s != want[uint32(i)] {
			t.Fatalf("slot %d holds %q, want %q", i, s, want[uint32(i)])
		}
	}
	if raceBuild() {
		return
	}
	for _, s := range want {
		frame := nameFrame([]byte(s))
		if n := testing.AllocsPerRun(10, func() { decodeName(frame, &tab) }); n != 0 {
			t.Fatalf("decoding %q, which its slot holds: %v heap objects, want 0", s, n)
		}
	}
	long := nameFrame(bytes.Repeat([]byte{'a'}, vfs.MaxNameLen+1))
	if n := testing.AllocsPerRun(10, func() { decodeName(long, &tab) }); n != 1 {
		t.Fatalf("decoding a name of %d bytes: %v heap objects, want its one copy", vfs.MaxNameLen+1, n)
	}
}

// TestNameCutShortLeavesTheTable: a frame that ends inside a name's
// length prefix, or declares more bytes than follow, latches the reader
// bad and decodes "" without touching the table, whose every slot holds
// a name beforehand.
func TestNameCutShortLeavesTheTable(t *testing.T) {
	var tab nameTable
	for i := range tab.slots {
		tab.slots[i] = "held"
	}
	whole := nameFrame([]byte("name"))
	for _, frame := range [][]byte{nil, whole[:3], whole[:4], whole[:len(whole)-1]} {
		got, r := decodeName(frame, &tab)
		if got != "" || !r.bad {
			t.Fatalf("%d bytes of a %d-byte name frame: %q, bad %v; want \"\", bad", len(frame), len(whole), got, r.bad)
		}
	}
	for i, s := range tab.slots {
		if s != "held" {
			t.Fatalf("slot %d holds %q after the cut frames, want \"held\"", i, s)
		}
	}
}

// TestNameTableConcurrentDecoding: four workers decode seeded names
// through one table at once, as a Server's threads do, and each gets
// string(b) every time. The race job runs it under the detector.
func TestNameTableConcurrentDecoding(t *testing.T) {
	names := seededNames(rand.New(rand.NewPCG(7, 59)))
	var tab nameTable
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 59))
			for range 2000 {
				b := names[rng.IntN(len(names))]
				if got, r := decodeName(nameFrame(b), &tab); got != string(b) || r.bad {
					errs <- fmt.Errorf("worker %d decoding %d bytes: %q, bad %v", w, len(b), got, r.bad)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

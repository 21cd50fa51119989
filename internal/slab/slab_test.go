package slab

import (
	"math/rand/v2"
	"testing"
)

type rec struct {
	id  int
	pad [3]int64
}

// TestSlabMatchesReference drives seeded sequences of New and Free against
// a reference of live records and a last-in first-out free list of at most
// maxFree: no live record is handed out twice, every New is zeroed, a
// freed record is zeroed at once and is the next New's while the list
// keeps it, and no block holds more than maxBlock records.
func TestSlabMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 32; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		var s Slab[rec]
		live := map[*rec]int{}
		var order []*rec // live records, for picking one to free
		var free []*rec  // the reference free list
		next := 0
		for step := 0; step < 2000; step++ {
			if len(order) == 0 || rng.IntN(3) != 0 {
				p := s.New()
				if _, dup := live[p]; dup {
					t.Fatalf("seed %d step %d: New handed out live record %d again", seed, step, live[p])
				}
				if *p != (rec{}) {
					t.Fatalf("seed %d step %d: New returned %+v, want zero", seed, step, *p)
				}
				if n := len(free); n > 0 {
					if want := free[n-1]; p != want {
						t.Fatalf("seed %d step %d: New cut a record while %d were free", seed, step, n)
					}
					free = free[:n-1]
				}
				if c := cap(s.block); c > maxBlock {
					t.Fatalf("seed %d step %d: a block of %d records, want at most %d", seed, step, c, maxBlock)
				}
				next++
				p.id, p.pad = next, [3]int64{int64(next), -1, 1}
				live[p] = next
				order = append(order, p)
				continue
			}
			i := rng.IntN(len(order))
			p := order[i]
			order[i] = order[len(order)-1]
			order = order[:len(order)-1]
			delete(live, p)
			s.Free(p)
			if *p != (rec{}) {
				t.Fatalf("seed %d step %d: a freed record holds %+v, want zero", seed, step, *p)
			}
			if len(free) < maxFree {
				free = append(free, p)
			}
		}
	}
}

// TestSlabBlocksDouble: blocks hold 1, 1, 2, 4, … 64 records, then 64
// each, so a slab's records are one object per block.
func TestSlabBlocksDouble(t *testing.T) {
	var s Slab[rec]
	var sizes []int
	for i := 0; i < 256; i++ {
		full := len(s.block) == cap(s.block)
		s.New()
		if full {
			sizes = append(sizes, cap(s.block))
		}
	}
	want := []int{1, 1, 2, 4, 8, 16, 32, 64, 64, 64}
	if len(sizes) != len(want) {
		t.Fatalf("blocks %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("blocks %v, want %v", sizes, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { s.Free(s.New()) }); n != 0 {
		t.Errorf("a New and Free of a kept record cost %.0f heap objects, want 0", n)
	}
}

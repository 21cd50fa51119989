package radix

import (
	"encoding/binary"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"cntr/internal/allocs"
)

// model drives a tree and its slab against a map of what the tree should
// hold and a set of the marked indexes.
type model struct {
	tree  Tree[int64]
	nodes Nodes[int64]
	want  map[int64]int64
	mark  map[int64]bool
}

// step applies one operation, op choosing it and idx its index, and
// checks the tree against the map after it.
func (m *model) step(t testing.TB, op uint64, idx int64) {
	t.Helper()
	switch op % 8 {
	case 0, 1, 2:
		m.tree.Set(&m.nodes, idx, ^idx)
		m.want[idx] = ^idx
	case 3:
		m.tree.Delete(&m.nodes, idx)
		delete(m.want, idx)
		delete(m.mark, idx)
	case 4:
		m.tree.Mark(idx)
		if _, ok := m.want[idx]; ok {
			m.mark[idx] = true
		}
	case 5:
		m.tree.Unmark(idx)
		delete(m.mark, idx)
	case 6:
		// A walk that deletes every other entry it is given.
		odd := false
		for i := range m.tree.All() {
			if odd {
				m.tree.Delete(&m.nodes, i)
				delete(m.want, i)
				delete(m.mark, i)
			}
			odd = !odd
		}
	case 7:
		// A walk of the marked entries that unmarks, then deletes, some.
		for i := range m.tree.Marked() {
			switch i % 3 {
			case 0:
				m.tree.Unmark(i)
				delete(m.mark, i)
			case 1:
				m.tree.Delete(&m.nodes, i)
				delete(m.want, i)
				delete(m.mark, i)
			}
		}
	}
	got, ok := m.tree.Get(idx)
	want, wok := m.want[idx]
	if ok != wok || got != want {
		t.Fatalf("Get(%d) = %d, %v; want %d, %v", idx, got, ok, want, wok)
	}
	m.check(t)
}

// check compares both walks with the map and the nodes with the shape the
// held indexes call for.
func (m *model) check(t testing.TB) {
	t.Helper()
	keys := slices.Sorted(maps.Keys(m.want))
	var got []int64
	for i, v := range m.tree.All() {
		if v != m.want[i] {
			t.Fatalf("All yielded %d at %d, want %d", v, i, m.want[i])
		}
		got = append(got, i)
	}
	if !slices.Equal(got, keys) {
		t.Fatalf("All yielded %v, want %v", got, keys)
	}
	got = got[:0]
	for i := range m.tree.Marked() {
		got = append(got, i)
	}
	if marked := slices.Sorted(maps.Keys(m.mark)); !slices.Equal(got, marked) {
		t.Fatalf("Marked yielded %v, want %v", got, marked)
	}
	if n := nodesFor(keys); m.nodes.live != n {
		t.Fatalf("%d nodes live for %d indexes, want %d", m.nodes.live, len(keys), n)
	}
	if m.tree.root != nil {
		if m.tree.height > 1 && m.tree.root.used == 1 {
			t.Fatalf("a root of height %d holds only slot 0", m.tree.height)
		}
		shape(t, m.tree.root, m.tree.height-1)
	}
}

// nodesFor is how many nodes a tree holding keys (ascending) has: one per
// distinct prefix of each level below the least height covering the
// largest.
func nodesFor(keys []int64) int {
	if len(keys) == 0 {
		return 0
	}
	height := 1
	for keys[len(keys)-1]>>(shift*height) != 0 {
		height++
	}
	n := 0
	for l := 1; l <= height; l++ {
		prev := int64(-1)
		for _, k := range keys {
			if p := k >> (shift * l); p != prev {
				n++
				prev = p
			}
		}
	}
	return n
}

// shape checks that n, at level l, is not empty, that its used bits name
// its children and its marks what lies below them, and so on down.
func shape(t testing.TB, n *node[int64], l int) {
	t.Helper()
	if n.used == 0 {
		t.Fatalf("an empty node at level %d", l)
	}
	if l == 0 {
		if n.marks&^n.used != 0 {
			t.Fatalf("marks %016b on a node using %016b", n.marks, n.used)
		}
		return
	}
	for i, k := range n.kids {
		if (k != nil) != (n.used&(1<<i) != 0) {
			t.Fatalf("slot %d at level %d: child %v, used %016b", i, l, k != nil, n.used)
		}
		if k != nil {
			if (k.marks != 0) != (n.marks&(1<<i) != 0) {
				t.Fatalf("slot %d at level %d: child marks %016b, mark bit %v", i, l, k.marks, n.marks&(1<<i) != 0)
			}
			shape(t, k, l-1)
		}
	}
}

// drain deletes every entry and checks that every node went back.
func (m *model) drain(t testing.TB) {
	t.Helper()
	for i := range m.tree.All() {
		m.tree.Delete(&m.nodes, i)
	}
	if m.tree.root != nil || m.tree.height != 0 || m.nodes.live != 0 {
		t.Fatalf("an emptied tree: root %v, height %d, %d nodes live", m.tree.root != nil, m.tree.height, m.nodes.live)
	}
}

// TestMatchesMap drives seeded Set, Delete, Get, Mark, Unmark, All and
// Marked, with deletes and unmarks during the walks, against a map over
// spans from one node to 2^40: after each step All yields exactly the
// map's entries in ascending order, Marked exactly the marked ones, and
// the tree holds exactly the nodes its indexes need; emptied, it has
// returned every node to the slab.
func TestMatchesMap(t *testing.T) {
	for _, span := range []int64{20, 300, 5000, 1 << 40} {
		for seed := uint64(1); seed <= 8; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(span)))
			m := &model{want: map[int64]int64{}, mark: map[int64]bool{}}
			for range 600 {
				m.step(t, rng.Uint64(), rng.Int64N(span))
			}
			m.drain(t)
		}
	}
}

// TestLargestIndex: the last int64 takes a tree of full height, which
// the walks end at.
func TestLargestIndex(t *testing.T) {
	m := &model{want: map[int64]int64{}, mark: map[int64]bool{}}
	for _, idx := range []int64{1<<63 - 1, 0, 1 << 62} {
		m.step(t, 0, idx)
		m.step(t, 4, idx)
	}
	if m.tree.height != maxHeight {
		t.Fatalf("height %d, want %d", m.tree.height, maxHeight)
	}
	m.drain(t)
}

// TestTreeAllocBudget: once its slab keeps the nodes a tree needs, Set,
// Get, Mark, Unmark, Delete and both walks allocate nothing.
func TestTreeAllocBudget(t *testing.T) {
	var tree Tree[int64]
	var nodes Nodes[int64]
	cycle := func() {
		for i := int64(0); i < 300; i += 7 {
			tree.Set(&nodes, i, i)
			tree.Mark(i)
		}
		for i, v := range tree.All() {
			if got, _ := tree.Get(i); got != v {
				t.Fatalf("Get(%d) = %d, All yielded %d", i, got, v)
			}
		}
		for i := range tree.Marked() {
			tree.Unmark(i)
		}
		for i := range tree.All() {
			tree.Delete(&nodes, i)
		}
	}
	cycle()
	allocs.Check(t, "43 indexes set, marked, walked and deleted", testing.AllocsPerRun(100, cycle))
}

// FuzzRadix reads operations from the input, nine bytes each: an
// operation and an index, masked to a span the first byte picks.
func FuzzRadix(f *testing.F) {
	f.Add([]byte{3, 0, 1, 0, 0, 0, 0, 0, 0, 0, 6, 17, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{40, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 7, 1, 2, 3, 4, 5, 6, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		span := uint64(1)<<(data[0]%63) - 1
		m := &model{want: map[int64]int64{}, mark: map[int64]bool{}}
		for data = data[1:]; len(data) >= 9; data = data[9:] {
			m.step(t, uint64(data[0]), int64(binary.LittleEndian.Uint64(data[1:])&span))
		}
		m.drain(t)
	})
}

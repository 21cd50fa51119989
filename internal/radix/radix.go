// Package radix maps int64 indexes to values with a radix tree, as the
// kernel's xarray (lib/xarray.c) indexes a file's pages: 16-slot nodes
// (XA_CHUNK_SHIFT 4, as under CONFIG_BASE_SMALL), a height that grows
// with the largest index held and shrinks with it, and a mark per slot
// that its ancestors carry too, so a walk of the marked entries visits
// only the nodes above one (PAGECACHE_TAG_DIRTY). Nodes are cut from a
// slab the owner keeps beside its trees (Nodes), so a tree costs the heap
// no object of its own.
package radix

import (
	"iter"
	"math"
	"math/bits"

	"cntr/internal/slab"
)

const (
	shift = 4 // log2 of the slots of a node
	slots = 1 << shift
	mask  = slots - 1
	// maxHeight levels cover every non-negative int64.
	maxHeight = (63 + shift - 1) / shift
)

// node is one level of a tree: below the bottom level its slots hold
// children, at the bottom they hold values.
type node[V any] struct {
	kids [slots]*node[V]
	vals [slots]V
	// used has a bit per slot that holds a child or a value, and marks
	// one per slot that holds a marked value or a child with a mark.
	used, marks uint16
}

// Nodes is the slab a set of trees cuts its nodes from. The zero value is
// ready to use. It is not safe for concurrent use: the lock that guards
// the trees guards it, and every call that may change a tree takes it.
type Nodes[V any] struct {
	slab slab.Slab[node[V]]
	live int // nodes cut and not yet freed
}

func (s *Nodes[V]) new() *node[V] {
	s.live++
	return s.slab.New()
}

func (s *Nodes[V]) free(n *node[V]) {
	s.live--
	s.slab.Free(n)
}

// Tree maps non-negative int64 indexes to values. The zero value is an
// empty tree, which holds no node. Reads (Get, All, Marked) change
// nothing, so readers may share a lock that excludes writers.
type Tree[V any] struct {
	root *node[V]
	// height counts the levels under root: its slots each span
	// 1<<(shift*(height-1)) indexes. Zero when empty.
	height int
}

// covers reports whether idx is below the span of the tree's root.
func (t *Tree[V]) covers(idx int64) bool {
	return t.height > 0 && idx >= 0 && uint64(idx)>>(shift*t.height) == 0
}

// slot is the slot of idx in a node at level l from the bottom (0).
func slot(idx int64, l int) uint {
	return uint(idx>>(shift*l)) & mask
}

// path fills p with the nodes from the root down to the bottom level
// that lead to idx and reports whether idx holds a value.
func (t *Tree[V]) path(idx int64, p *[maxHeight]*node[V]) bool {
	if !t.covers(idx) {
		return false
	}
	n := t.root
	for l := t.height - 1; ; l-- {
		p[l] = n
		if l == 0 {
			return n.used&(1<<slot(idx, 0)) != 0
		}
		if n = n.kids[slot(idx, l)]; n == nil {
			return false
		}
	}
}

// Get returns the value at idx and whether there is one.
func (t *Tree[V]) Get(idx int64) (v V, ok bool) {
	if !t.covers(idx) {
		return v, false
	}
	n := t.root
	for l := t.height - 1; l > 0; l-- {
		if n = n.kids[slot(idx, l)]; n == nil {
			return v, false
		}
	}
	i := slot(idx, 0)
	return n.vals[i], n.used&(1<<i) != 0
}

// Set stores v at idx, which must not be negative; a value already there
// is replaced and keeps its mark. Nodes come from s.
func (t *Tree[V]) Set(s *Nodes[V], idx int64, v V) {
	if idx < 0 {
		panic("radix: negative index")
	}
	if t.root == nil {
		for t.height = 1; !t.covers(idx); t.height++ {
		}
		t.root = s.new()
	}
	for !t.covers(idx) {
		up := s.new()
		up.kids[0], up.used = t.root, 1
		if t.root.marks != 0 {
			up.marks = 1
		}
		t.root = up
		t.height++
	}
	n := t.root
	for l := t.height - 1; l > 0; l-- {
		i := slot(idx, l)
		if n.kids[i] == nil {
			n.kids[i] = s.new()
			n.used |= 1 << i
		}
		n = n.kids[i]
	}
	i := slot(idx, 0)
	n.vals[i] = v
	n.used |= 1 << i
}

// Delete removes the value at idx, if any. A node it leaves empty goes
// back to s, and the tree shrinks to the height its largest index needs.
func (t *Tree[V]) Delete(s *Nodes[V], idx int64) {
	var p [maxHeight]*node[V]
	if !t.path(idx, &p) {
		return
	}
	i := slot(idx, 0)
	var zero V
	p[0].vals[i] = zero
	p[0].used &^= 1 << i
	p[0].marks &^= 1 << i
	for l := 1; l < t.height; l++ {
		child, n, i := p[l-1], p[l], slot(idx, l)
		if child.used == 0 {
			n.kids[i] = nil
			n.used &^= 1 << i
			n.marks &^= 1 << i
			s.free(child)
		} else if child.marks == 0 {
			n.marks &^= 1 << i
		}
	}
	if t.root.used == 0 {
		s.free(t.root)
		t.root, t.height = nil, 0
		return
	}
	for t.height > 1 && t.root.used == 1 {
		top := t.root
		t.root = top.kids[0]
		t.height--
		s.free(top)
	}
}

// Mark marks the value at idx; it does nothing when there is none.
func (t *Tree[V]) Mark(idx int64) {
	var p [maxHeight]*node[V]
	if !t.path(idx, &p) {
		return
	}
	for l := range t.height {
		p[l].marks |= 1 << slot(idx, l)
	}
}

// Unmark clears the mark of the value at idx, if any.
func (t *Tree[V]) Unmark(idx int64) {
	var p [maxHeight]*node[V]
	if !t.path(idx, &p) {
		return
	}
	for l := range t.height {
		p[l].marks &^= 1 << slot(idx, l)
		if p[l].marks != 0 {
			return
		}
	}
}

// All yields every value with its index, in ascending index order. The
// loop may change the tree: each step looks the next index up from the
// root, past the one yielded last, as xa_for_each does.
func (t *Tree[V]) All() iter.Seq2[int64, V] {
	return func(yield func(int64, V) bool) { t.walk(false, yield) }
}

// Marked yields every marked value as All does, visiting only the nodes
// that lead to one.
func (t *Tree[V]) Marked() iter.Seq2[int64, V] {
	return func(yield func(int64, V) bool) { t.walk(true, yield) }
}

// walk looks each entry up from the root, past the one it yielded last
// (xa_find_after).
func (t *Tree[V]) walk(marked bool, yield func(int64, V) bool) {
	for from := int64(0); t.covers(from); from++ {
		idx, n, ok := t.root.first(t.height-1, from, marked)
		if !ok || !yield(idx, n.vals[slot(idx, 0)]) || idx == math.MaxInt64 {
			return
		}
		from = idx
	}
}

// first returns the least index at or past from that n, at level l,
// holds a value (a marked one, if marked) at, and the bottom node holding
// it.
func (n *node[V]) first(l int, from int64, marked bool) (int64, *node[V], bool) {
	set := n.used
	if marked {
		set = n.marks
	}
	set &^= 1<<slot(from, l) - 1
	span := int64(1) << (shift * l)
	base := from &^ (span<<shift - 1)
	for set != 0 {
		i := bits.TrailingZeros16(set)
		set &= set - 1
		at := max(from, base+int64(i)*span)
		if l == 0 {
			return at, n, true
		}
		if idx, leaf, ok := n.kids[i].first(l-1, at, marked); ok {
			return idx, leaf, true
		}
	}
	return 0, nil, false
}

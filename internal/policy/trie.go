package policy

// pathTrie indexes values by slash-separated path, one node per path
// component — the shared structure behind profile-rule matching (the
// Enforcer's compiled Matcher) and the Collector's per-prefix activity
// aggregation. Inserts and lookups walk O(path components) nodes
// regardless of how many entries the trie holds, which is what makes
// rule lookup independent of profile size.
//
// Keys are stored verbatim on their nodes, so non-absolute keys (the
// collector's "?" unknown-path anchor) round-trip through walk exactly;
// matching semantics for such keys are the caller's concern — profile
// rules are validated absolute before they get here.
type pathTrie[V any] struct {
	root pathNode[V]
	n    int
}

type pathNode[V any] struct {
	children map[string]*pathNode[V]
	// key is the full original path of a set node; val is meaningful
	// only when set.
	key string
	val V
	set bool
}

// nextComponent returns the path component starting at or after i
// (skipping separators) and the index just past it; ok is false when
// the path is exhausted.
func nextComponent(path string, i int) (comp string, next int, ok bool) {
	for i < len(path) && path[i] == '/' {
		i++
	}
	if i >= len(path) {
		return "", i, false
	}
	j := i
	for j < len(path) && path[j] != '/' {
		j++
	}
	return path[i:j], j, true
}

// at returns the node for path, creating the chain when create is set;
// nil when absent and create is unset. The root path "/" (or "") maps
// to the root node.
func (t *pathTrie[V]) at(path string, create bool) *pathNode[V] {
	node := &t.root
	for i := 0; ; {
		comp, next, ok := nextComponent(path, i)
		if !ok {
			return node
		}
		child := node.children[comp]
		if child == nil {
			if !create {
				return nil
			}
			child = &pathNode[V]{}
			if node.children == nil {
				node.children = make(map[string]*pathNode[V])
			}
			node.children[comp] = child
		}
		node, i = child, next
	}
}

// getOrCreate returns the value stored at path, materializing it with
// mk on first use.
func (t *pathTrie[V]) getOrCreate(path string, mk func() V) V {
	node := t.at(path, true)
	if !node.set {
		node.key = path
		node.val = mk()
		node.set = true
		t.n++
	}
	return node.val
}

// size reports the number of set entries.
func (t *pathTrie[V]) size() int { return t.n }

// visitPrefixes calls fn for the value at every set node on the walk
// from the root to path — i.e. for every stored entry whose path is a
// component-wise prefix of path (including path itself), shallowest
// first. fn returning false stops the walk early. This is the
// enforcement lookup: O(path depth), independent of entry count. A
// non-empty leaf is one more stretch of the path, walked as if path were
// pathJoin(path, leaf) without the caller having to build that string.
func (t *pathTrie[V]) visitPrefixes(path, leaf string, fn func(V) bool) {
	node := &t.root
	for i := 0; ; {
		if node.set && !fn(node.val) {
			return
		}
		comp, next, ok := nextComponent(path, i)
		if !ok && leaf != "" {
			path, leaf = leaf, ""
			comp, next, ok = nextComponent(path, 0)
		}
		if !ok {
			return
		}
		child := node.children[comp]
		if child == nil {
			return
		}
		node, i = child, next
	}
}

// walk visits every set entry in no particular order.
func (t *pathTrie[V]) walk(fn func(key string, v V)) {
	t.root.walk(fn)
}

func (n *pathNode[V]) walk(fn func(key string, v V)) {
	if n.set {
		fn(n.key, n.val)
	}
	for _, child := range n.children {
		child.walk(fn)
	}
}

// walkUnder visits every set entry at or beneath prefix — the subtree
// rollup behind the collector's prefix aggregation.
func (t *pathTrie[V]) walkUnder(prefix string, fn func(key string, v V)) {
	node := t.at(prefix, false)
	if node == nil {
		return
	}
	node.walk(fn)
}

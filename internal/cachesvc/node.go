package cachesvc

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Errors returned by the node-addressed data plane and topology ops.
var (
	// ErrMoved tells a client its cached placement version is stale (or
	// it addressed a dead node): refresh Placement and retry.
	ErrMoved = errors.New("cachesvc: placement moved")
	// ErrUnknownNode rejects topology ops naming a node id never added.
	ErrUnknownNode = errors.New("cachesvc: unknown node")
	// ErrNodeDown rejects topology ops on a node already killed.
	ErrNodeDown = errors.New("cachesvc: node is down")
	// ErrLastNode refuses to drain the last node eligible to own shards.
	ErrLastNode = errors.New("cachesvc: cannot drain last eligible node")
)

// node is one cache node: its copies of the shards placement assigns
// it (plus any it is handing off) and per-node counters. Counter fields
// are atomics so data-plane reads under the topo read-lock never
// serialize on a node-wide mutex.
type node struct {
	id       int
	live     bool
	draining bool
	stores   map[int]*store

	hits, misses, puts, invals atomic.Int64
	fenced, evictions          atomic.Int64
}

func newNode(id int) *node {
	return &node{id: id, live: true, stores: make(map[int]*store)}
}

// NodeStats is one node's slice of the service counters.
type NodeStats struct {
	ID       int
	Live     bool
	Draining bool
	// Shards is the number of shard copies the node currently holds
	// (owned plus mid-handoff).
	Shards                            int
	Hits, Misses, Puts, Invalidations int64
	// FencedWrites counts fenced mutations dropped at this node's
	// copies: a stale-epoch write is rejected on the primary and every
	// replica, and each copy counts its own drop (so the per-node sum is
	// Stats.FencedWrites times the copy count).
	FencedWrites int64
	Evictions    int64
	Entries      int64
	Bytes        int64
}

// NodeStats returns per-node counter snapshots, in node-id order.
// Dead nodes stay listed (Live=false) with their historical counters.
func (s *Service) NodeStats() []NodeStats {
	s.topo.RLock()
	defer s.topo.RUnlock()
	out := make([]NodeStats, 0, len(s.nodes))
	for _, nd := range s.nodes {
		ns := NodeStats{
			ID:            nd.id,
			Live:          nd.live,
			Draining:      nd.draining,
			Shards:        len(nd.stores),
			Hits:          nd.hits.Load(),
			Misses:        nd.misses.Load(),
			Puts:          nd.puts.Load(),
			Invalidations: nd.invals.Load(),
			FencedWrites:  nd.fenced.Load(),
			Evictions:     nd.evictions.Load(),
		}
		for _, st := range nd.stores {
			st.mu.Lock()
			ns.Entries += int64(len(st.entries))
			ns.Bytes += st.bytes
			st.mu.Unlock()
		}
		out = append(out, ns)
	}
	return out
}

// PlacementInfo is the routing table a client caches: for each shard
// the owning node ids (primary first), which nodes are live, and the
// version that every node-addressed call must echo back. Any topology
// change bumps Version; a call carrying a stale version gets ErrMoved.
type PlacementInfo struct {
	Version uint64
	Owners  [][]int
	Live    []bool
}

// Placement returns the current routing table.
func (s *Service) Placement() PlacementInfo {
	s.topo.RLock()
	defer s.topo.RUnlock()
	info := PlacementInfo{
		Version: s.placeVersion,
		Owners:  make([][]int, len(s.placement)),
		Live:    make([]bool, len(s.nodes)),
	}
	for sh, owners := range s.placement {
		info.Owners[sh] = append([]int(nil), owners...)
	}
	for i, nd := range s.nodes {
		info.Live[i] = nd.live
	}
	return info
}

// PlacementVersion returns the current placement version without
// copying the table.
func (s *Service) PlacementVersion() uint64 {
	s.topo.RLock()
	defer s.topo.RUnlock()
	return s.placeVersion
}

// NumNodes returns the number of nodes ever added (dead ones
// included — node ids are never reused).
func (s *Service) NumNodes() int {
	s.topo.RLock()
	defer s.topo.RUnlock()
	return len(s.nodes)
}

// placementScore ranks node candidates for a shard by rendezvous
// (highest-random-weight) hashing: each (shard, node) pair gets an
// independent deterministic score and the top R+1 scorers own the
// shard. Adding a node steals only the shards it now wins; removing
// one reassigns only the shards it owned — the minimal-movement
// property the placement test pins. The FNV digest is run through a
// murmur-style finalizer: raw FNV of these short near-identical
// strings orders consecutive node ids non-uniformly (one node of a
// 3-set wins half the shards), and rendezvous needs independent score
// ORDER, not just well-spread values.
func placementScore(shard, nodeID int) uint64 {
	x := hash64(fmt.Sprintf("place|shard-%d|node-%d", shard, nodeID))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// ownersForLocked computes the owner list (primary first) for a shard
// from the currently eligible nodes. Callers hold topo.
func (s *Service) ownersForLocked(sh int) []int {
	type cand struct {
		id    int
		score uint64
	}
	cands := make([]cand, 0, len(s.nodes))
	for _, nd := range s.nodes {
		if nd.live && !nd.draining {
			cands = append(cands, cand{nd.id, placementScore(sh, nd.id)})
		}
	}
	for i := 1; i < len(cands); i++ { // insertion sort: tiny n
		for j := i; j > 0 && (cands[j].score > cands[j-1].score ||
			(cands[j].score == cands[j-1].score && cands[j].id < cands[j-1].id)); j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	n := s.opts.Replicas + 1
	if n > len(cands) {
		n = len(cands)
	}
	owners := make([]int, n)
	for i := 0; i < n; i++ {
		owners[i] = cands[i].id
	}
	return owners
}

// AddNode grows the node set by one node and starts migrating the
// shards the new node now owns. Returns the new node's id. Ownership
// flips immediately (placement version bump); the data moves via
// MigrateStep/MigrateAll and read fallthrough, with old owners serving
// until every new copy is complete.
func (s *Service) AddNode() int {
	s.topo.Lock()
	defer s.topo.Unlock()
	id := len(s.nodes)
	s.nodes = append(s.nodes, newNode(id))
	s.recomputeLocked()
	s.settleLocked()
	return id
}

// DrainNode marks a node ineligible for ownership and migrates its
// shards away. The node stays live — it keeps serving reads and
// taking writes for shards it still holds — until migration completes
// and settle drops its copies; the caller can then KillNode it safely.
func (s *Service) DrainNode(id int) error {
	s.topo.Lock()
	defer s.topo.Unlock()
	if id < 0 || id >= len(s.nodes) {
		return ErrUnknownNode
	}
	nd := s.nodes[id]
	if !nd.live {
		return ErrNodeDown
	}
	if nd.draining {
		return nil
	}
	eligible := 0
	for _, other := range s.nodes {
		if other.live && !other.draining && other.id != id {
			eligible++
		}
	}
	if eligible == 0 {
		return ErrLastNode
	}
	nd.draining = true
	s.recomputeLocked()
	s.settleLocked()
	return nil
}

// KillNode simulates a node failure: the node and its shard copies
// vanish. Shards it owned are re-placed; any copy mid-migration from
// it re-sources from a surviving complete copy. If the killed node
// held a shard's only complete copy, the shard's cached entries are
// lost (LostShards counts it) — the tier is a cache, so the cost is
// re-fetching from the origin, never wrong data. Leases are untouched:
// epochs are service-global control-plane state.
func (s *Service) KillNode(id int) error {
	s.topo.Lock()
	defer s.topo.Unlock()
	if id < 0 || id >= len(s.nodes) {
		return ErrUnknownNode
	}
	nd := s.nodes[id]
	if !nd.live {
		return ErrNodeDown
	}
	nd.live = false
	nd.draining = false
	nd.stores = make(map[int]*store)
	s.recomputeLocked()
	s.settleLocked()
	return nil
}

// NodeGet serves a read addressed at a specific node, as routed by a
// placement-aware client holding placement version. hops counts extra
// cross-node transfers (handoff fallthrough) the client must charge
// beyond its own hop to the addressed node.
func (s *Service) NodeGet(nodeID int, version uint64, key Key) (val []byte, ok bool, hops int, err error) {
	s.topo.RLock()
	defer s.topo.RUnlock()
	if version != s.placeVersion {
		return nil, false, 0, ErrMoved
	}
	if nodeID < 0 || nodeID >= len(s.nodes) || !s.nodes[nodeID].live {
		return nil, false, 0, ErrMoved
	}
	val, ok, hops = s.getFromLocked(s.nodes[nodeID], s.ShardOf(key), key)
	return val, ok, hops, nil
}

// NodePut applies a lease-guarded write addressed at the key's primary
// by a placement-aware client. copies reports how many stores the
// write landed on (primary + replicas + handoff sources), so the
// client can charge replication fan-out. Fencing is checked before
// placement: a stale-epoch write is dropped (and counted per copy)
// even when the client's placement is also stale — the fence is the
// stronger guarantee.
func (s *Service) NodePut(nodeID int, version uint64, l Lease, key Key, val []byte) (copies int, err error) {
	if err := s.admit(l, key); err != nil {
		return 0, err
	}
	s.topo.RLock()
	defer s.topo.RUnlock()
	if version != s.placeVersion {
		return 0, ErrMoved
	}
	if nodeID < 0 || nodeID >= len(s.nodes) || !s.nodes[nodeID].live {
		return 0, ErrMoved
	}
	return s.applyLocked(s.ShardOf(key), key, val), nil
}

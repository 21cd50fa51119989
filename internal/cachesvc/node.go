package cachesvc

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
)

// Errors KillNode returns.
var (
	// ErrUnknownNode rejects a kill naming a node id the service never had.
	ErrUnknownNode = errors.New("cachesvc: unknown node")
	// ErrNodeDown rejects a kill of a node already killed.
	ErrNodeDown = errors.New("cachesvc: node is down")
)

// node is one cache node: its copies of the shards placement assigns
// it and per-node counters. Counter fields are atomics so data-plane
// reads under the topo read-lock never serialize on a node-wide mutex.
type node struct {
	id     int
	live   bool
	stores map[int]*store

	hits, misses, puts, invals atomic.Int64
	fenced, evictions          atomic.Int64
}

func newNode(id int) *node {
	return &node{id: id, live: true, stores: make(map[int]*store)}
}

// get serves a lookup of key from the node's copy of shard sh, which it
// must hold, counting the hit or miss here. Callers hold topo for read.
func (nd *node) get(sh int, key Key) ([]byte, bool) {
	val, ok := nd.stores[sh].get(key)
	if ok {
		nd.hits.Add(1)
	} else {
		nd.misses.Add(1)
	}
	return val, ok
}

// NodeStats is one node's slice of the service counters.
type NodeStats struct {
	ID   int
	Live bool
	// Shards is the number of shard copies the node holds: the shards it
	// owns, none once it is killed.
	Shards             int
	Hits, Misses, Puts int64
	// FencedWrites counts fenced mutations dropped at this node's
	// copies: a stale-epoch write is rejected on the primary and every
	// replica, and each copy counts its own drop (so the per-node sum is
	// Stats.FencedWrites times the copy count).
	FencedWrites int64
	Evictions    int64
	Entries      int64
}

// NodeStats returns per-node counter snapshots, in node-id order.
// Dead nodes stay listed (Live=false) with their historical counters.
func (s *Service) NodeStats() []NodeStats {
	s.topo.RLock()
	defer s.topo.RUnlock()
	out := make([]NodeStats, 0, len(s.nodes))
	for _, nd := range s.nodes {
		ns := NodeStats{
			ID:           nd.id,
			Live:         nd.live,
			Shards:       len(nd.stores),
			Hits:         nd.hits.Load(),
			Misses:       nd.misses.Load(),
			Puts:         nd.puts.Load(),
			FencedWrites: nd.fenced.Load(),
			Evictions:    nd.evictions.Load(),
		}
		for _, st := range nd.stores {
			st.mu.Lock()
			ns.Entries += int64(len(st.entries))
			st.mu.Unlock()
		}
		out = append(out, ns)
	}
	return out
}

// Version returns the placement version: 1 at New, and one more after
// each KillNode. It is all of the layout a client keeps; a client that
// finds it moved pays a round trip to re-learn the layout.
func (s *Service) Version() uint64 { return s.version.Load() }

// NumNodes returns the number of nodes the service was built with (dead
// ones included — node ids are never reused).
func (s *Service) NumNodes() int {
	s.topo.RLock()
	defer s.topo.RUnlock()
	return len(s.nodes)
}

// placementScore ranks node candidates for a shard by rendezvous
// (highest-random-weight) hashing: each (shard, node) pair gets an
// independent deterministic score and the top R+1 scorers own the
// shard. Removing a node reassigns only the shards it owned — the
// minimal-movement property KillNode relies on and the placement test
// pins. The FNV digest is run through a
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
// from the live nodes. Callers hold topo.
func (s *Service) ownersForLocked(sh int) []int {
	type cand struct {
		id    int
		score uint64
	}
	cands := make([]cand, 0, len(s.nodes))
	for _, nd := range s.nodes {
		if nd.live {
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

// KillNode simulates a node failure, the only change to the node set:
// the node and its shard copies vanish, and before KillNode returns
// every shard it owned is re-placed and each new owner's copy is filled
// from a surviving owner. Data ops wait on the topology lock meanwhile,
// so every copy they reach is complete. A shard with no surviving owner
// loses its cached entries (Stats.LostShards counts it) — the tier is a
// cache, so the cost is re-fetching from the origin, never wrong data.
// Leases are untouched: epochs are service-global control-plane state.
func (s *Service) KillNode(id int) error {
	s.topo.Lock()
	defer s.topo.Unlock()
	if id < 0 || id >= len(s.nodes) {
		return ErrUnknownNode
	}
	dead := s.nodes[id]
	if !dead.live {
		return ErrNodeDown
	}
	dead.live = false
	dead.stores = nil
	s.version.Add(1)
	for sh, old := range s.placement {
		// Rendezvous placement moves only the shards the dead node owned.
		if !slices.Contains(old, id) {
			continue
		}
		var src *store
		for _, o := range old {
			if o != id {
				src = s.nodes[o].stores[sh]
				break
			}
		}
		if src == nil {
			s.lostShards++
		}
		s.placement[sh] = s.ownersForLocked(sh)
		for _, o := range s.placement[sh] {
			if nd := s.nodes[o]; nd.stores[sh] == nil {
				st := newStore(s.opts.ShardCapacity)
				if src != nil {
					st.fill(src)
				}
				nd.stores[sh] = st
			}
		}
	}
	return nil
}

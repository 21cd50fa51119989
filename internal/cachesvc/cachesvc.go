// Package cachesvc is the shared cache tier: a sharded, replicated
// in-process cache/metadata service that any number of CntrFS mounts
// attach to. It is the step from "one mount, many origins" to "many
// mounts": a fleet of mounts built on one content-addressed backend
// store shares one Service, so a chunk any mount has already fetched
// from the origin is served to every other mount at intra-cluster
// network cost instead of another origin round trip, and path-keyed
// attr entries let metadata survive mount boundaries the same
// way.
//
// The service is in-process but "network-shaped": a mount reaches it
// through internal/cachecl, whose calls charge the calling mount's
// sim.Clock with the cost-model's NetRTT/NetPerKB, so cross-mount
// behaviour is benchmarkable and bit-for-bit deterministic without real
// sockets.
//
//	mount A ── cachecl ──┐        placement (rendezvous hash)
//	mount B ── cachecl ──┼──► Service ── node 0 ── shard LRUs
//	mount C ── cachecl ──┘        ├───── node 1 ── shard LRUs
//	                              └───── node 2 ── shard LRUs
//	                                        ▼
//	                              backend store (CAS) / origin
//
// There is one data path: Get, Put and Invalidate take a key and route
// it themselves. The key space is hashed into a fixed number of shards,
// and the placement assigns each shard a primary plus Options.Replicas
// replicas across an explicit set of Nodes. Put and Invalidate apply to
// every copy under a lease, and Get is served by the primary, so only
// the primary's LRU order sees reads: the
// primary decides what a write evicts and every replica drops the same
// entries, which keeps the copies identical. A node leaves the set only
// by failing: KillNode re-places the shards it owned and fills every new
// copy from a surviving one before it returns, so every copy a data op
// can reach is complete, and bumps Version, the one piece of the layout a
// client keeps. With the default Options (one node, zero
// replicas) the service is the single-node reference the dualtest
// differential harness pins the replicated tier against.
//
// A write costs the host no allocation once the stores have grown: the
// service copies each value once, into runs it shares among values
// (blobstore.Runs, at most 256 KiB each), and every copy of the shard
// shares that copy; each store's entries come from its own slab
// (internal/slab), which hands dropped ones out again. A run's bytes stay
// allocated while any value cut from it is reachable: until every one is
// evicted, replaced, invalidated or dropped by Reset, and no caller holds
// one Get returned.
//
// Correctness under partition comes from epoch leases (the
// sigmaOS fenceclnt/epochclnt shape): a mount holds a lease per shard
// group, every mutation carries its lease's epoch, and the service
// fences writes whose lease has been released or superseded — a
// partitioned mount that reconnects acquires a fresh epoch and replays
// nothing; whatever it still had in flight under the old epoch is
// rejected, so stale data never lands in the shared tier. A lease is
// its epoch and nothing else: the service keeps no clock, so no lease
// expires. The fence holds per replica: a stale-epoch write is dropped
// at every copy and counted on every node, never applied to some copies
// and not others. Leases are service-global control-plane state, so
// in-flight epochs survive node failure untouched.
package cachesvc

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cntr/internal/blobstore"
	"cntr/internal/slab"
)

// Key names one cached entry: a key space and a name in it. The
// constructors below define the two key spaces the tier serves; a
// Service instance serves one backend store domain (mounts sharing the
// same CAS), so chunk refs need no further namespace. A key is hashed,
// charged and ordered as the string space+":"+name, which is never built.
type Key struct {
	space byte
	name  string
}

// ChunkKey keys a backend-store blob by its ref (for content-addressed
// backends, the content hash — identical across every mount on the
// shared store).
func ChunkKey(ref blobstore.Ref) Key { return Key{'c', string(ref)} }

// AttrKey keys a path's encoded attributes.
func AttrKey(path string) Key { return Key{'a', path} }

// String is the key as the tier's hash sees it.
func (k Key) String() string { return string(k.space) + ":" + k.name }

// size is the bytes the key charges its store.
func (k Key) size() int64 { return 2 + int64(len(k.name)) }

// less orders keys as their strings: every space is followed by ':'.
func (k Key) less(o Key) bool {
	if k.space != o.space {
		return k.space < o.space
	}
	return k.name < o.name
}

// Stats aggregates service-wide counters. Per-node counters are summed
// on read; NodeStats attributes them to individual nodes.
type Stats struct {
	// Hits and Misses count Get outcomes; Contains probes count in
	// neither (they are presence checks, not reads).
	Hits, Misses int64
	// Puts counts applied copies: one per owner of the key's shard
	// (primary plus replicas), so a single-node service counts one per
	// mutation.
	Puts int64
	// Invalidations counts applied invalidation copies (like Puts).
	Invalidations int64
	// FencedWrites counts mutations rejected because their lease epoch
	// was stale or released — the partition-safety counter.
	// One per rejected mutation; NodeStats.FencedWrites counts the drop
	// at every copy.
	FencedWrites int64
	// Evictions counts LRU evictions across all nodes and shards.
	Evictions int64
	// Entries and Bytes are the live entry count and stored value bytes,
	// replica copies included.
	Entries, Bytes int64
	// LeasesActive is the number of leases currently held.
	LeasesActive int64
	// LostShards counts shards whose last copy died with a killed node:
	// their cached entries are gone and re-fetched from the origin.
	LostShards int64
}

// Options tunes a Service.
type Options struct {
	// Shards is the number of cache shards (default 16).
	Shards int
	// ShardCapacity is the LRU byte capacity per shard copy (default
	// 64 MiB). Every replica of a shard has its own capacity. Programs
	// run both defaults; tests shrink them to force evictions.
	ShardCapacity int64
	// Nodes is the number of cache nodes the shards are placed across
	// (default 1 — the single-node reference configuration).
	Nodes int
	// Replicas is the number of replica copies each shard keeps beyond
	// its primary (default 0, clamped to Nodes-1).
	Replicas int
}

// Service is the sharded, replicated cache service. All methods are
// safe for concurrent use; tests aside, callers should go through
// cachecl so network costs are charged.
type Service struct {
	opts Options

	// topo guards the node set and placement. Data ops hold it for read
	// while routing and touching stores; KillNode holds it for write, so
	// no data op runs while a kill re-places and copies shards.
	topo       sync.RWMutex
	nodes      []*node
	placement  [][]int
	lostShards int64
	// version counts placements: 1 at New, one more per KillNode, which
	// bumps it under topo. Version reads it without the lock.
	version atomic.Uint64
	// writes serializes the mutations of each shard, so every copy of
	// the shard applies them in the same order.
	writes []shardWrites

	// vals holds the stored copies of every value put (applyLocked),
	// under valsMu.
	valsMu sync.Mutex
	vals   blobstore.Runs

	// leases maps each held grant to its epoch; epochs keeps the last
	// epoch minted for a (mount, group), held or not.
	mu     sync.Mutex
	leases map[leaseID]uint64
	epochs map[leaseID]uint64
	fenced int64
}

// shardWrites is a shard's write lock and what it guards besides the
// order: the keys the primary's copy evicted on the mutation being
// applied, which every replica then drops (applyLocked).
type shardWrites struct {
	sync.Mutex
	victims []Key
}

// store is one node's copy of one shard: a lock+LRU over entries.
type store struct {
	mu      sync.Mutex
	entries map[Key]*entry
	// lru is the sentinel of the entries' ring: lru.next is the most
	// recently used, lru.prev the least.
	lru   entry
	bytes int64
	cap   int64
	// records is where every entry comes from and goes back to. Only the
	// store's own methods hold an entry, under mu, and hand out its value,
	// never the entry, so reusing one cannot be seen.
	records slab.Slab[entry]
}

// entry is one cached value and its place in its store's LRU ring.
type entry struct {
	key        Key
	val        []byte
	prev, next *entry
}

func newStore(cap int64) *store {
	st := &store{cap: cap}
	st.clear()
	return st
}

// unlink takes e out of the ring.
func (e *entry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
}

// insertAfter links e into the ring after at.
func (e *entry) insertAfter(at *entry) {
	e.prev, e.next = at, at.next
	at.next.prev = e
	at.next = e
}

// get returns the value under key, touching LRU order.
func (st *store) get(key Key) ([]byte, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[key]
	if !ok {
		return nil, false
	}
	e.unlink()
	e.insertAfter(&st.lru)
	return e.val, true
}

// contains probes presence without counters or LRU effects.
func (st *store) contains(key Key) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.entries[key]
	return ok
}

// put stores val under key. val is shared, not copied: applyLocked
// copies it once for every copy of the shard, and the service never
// mutates a stored value in place. The primary's copy decides evictions:
// with decide set, put drops the least recently used entries while the
// store is over capacity and appends their keys to victims, which the
// caller passes empty. Any other copy drops exactly victims, so every
// copy holds the same entries whatever order its own LRU ring is in.
// put returns victims and how many entries this copy dropped.
func (st *store) put(key Key, val []byte, victims []Key, decide bool) ([]Key, int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.entries[key]; ok {
		st.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		e.unlink()
		e.insertAfter(&st.lru)
	} else {
		e := st.records.New()
		e.key, e.val = key, val
		e.insertAfter(&st.lru)
		st.entries[key] = e
		st.bytes += int64(len(val)) + key.size()
	}
	if decide {
		for st.bytes > st.cap && len(st.entries) > 1 {
			victims = append(victims, st.lru.prev.key)
			st.dropLocked(st.lru.prev)
		}
		return victims, len(victims)
	}
	n := 0
	for _, k := range victims {
		if e, ok := st.entries[k]; ok {
			st.dropLocked(e)
			n++
		}
	}
	return victims, n
}

// fill copies src's entries, in keys() order, into st: a new copy no
// data op can reach yet, which holds what src holds and so evicts
// nothing. Callers hold topo for write, so src is still.
func (st *store) fill(src *store) {
	for _, k := range src.keys() {
		st.put(k, src.entries[k].val, nil, false)
	}
}

// remove drops key, reporting whether it was present.
func (st *store) remove(key Key) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[key]
	if !ok {
		return false
	}
	st.dropLocked(e)
	return true
}

// dropLocked takes e out of the store and back to its slab.
func (st *store) dropLocked(e *entry) {
	e.unlink()
	delete(st.entries, e.key)
	st.bytes -= int64(len(e.val)) + e.key.size()
	st.records.Free(e)
}

// keys returns the store's keys, sorted: the order a kill copies in.
func (st *store) keys() []Key {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]Key, 0, len(st.entries))
	for k := range st.entries {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].less(out[j]) })
	return out
}

func (st *store) clear() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.entries = make(map[Key]*entry)
	st.lru.prev, st.lru.next = &st.lru, &st.lru
	st.bytes = 0
	st.records = slab.Slab[entry]{}
}

// New builds a service with the given options.
func New(opts Options) *Service {
	if opts.Shards <= 0 {
		opts.Shards = 16
	}
	if opts.ShardCapacity <= 0 {
		opts.ShardCapacity = 64 << 20
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 1
	}
	if opts.Replicas < 0 {
		opts.Replicas = 0
	}
	if opts.Replicas > opts.Nodes-1 {
		opts.Replicas = opts.Nodes - 1
	}
	s := &Service{
		opts:      opts,
		leases:    make(map[leaseID]uint64),
		epochs:    make(map[leaseID]uint64),
		placement: make([][]int, opts.Shards),
		writes:    make([]shardWrites, opts.Shards),
	}
	s.version.Store(1)
	for i := 0; i < opts.Nodes; i++ {
		s.nodes = append(s.nodes, newNode(i))
	}
	for sh := range s.placement {
		s.placement[sh] = s.ownersForLocked(sh)
		for _, id := range s.placement[sh] {
			s.nodes[id].stores[sh] = newStore(opts.ShardCapacity)
		}
	}
	return s
}

// FNV-1a, 64-bit (hash/fnv's New64a), folded in place.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func hash64(k string) uint64 { return fnvAdd(fnvOffset, k) }

// ShardOf returns the shard index a key lives on. The shard count is
// fixed for the life of the service, so a plain modulo suffices; what
// moves is shard→node, and rendezvous placement handles that.
func (s *Service) ShardOf(key Key) int {
	h := (fnvOffset ^ uint64(key.space)) * fnvPrime
	h = fnvAdd((h^':')*fnvPrime, key.name)
	return int(h % uint64(s.opts.Shards))
}

// leaseGroups is the number of lease shard-groups, clamped to the shard
// count: shards are striped across groups and a mount holds one lease
// per group.
const leaseGroups = 4

// GroupOf returns the lease shard-group guarding mutations of key:
// shards are striped across groups. Groups partition the key space,
// not the node set, so a lease's epoch is untouched by a kill.
func (s *Service) GroupOf(key Key) int { return s.ShardOf(key) % s.NumGroups() }

// NumGroups returns the number of lease shard-groups.
func (s *Service) NumGroups() int { return min(leaseGroups, s.opts.Shards) }

// Get returns the cached value for key, served by the primary of the
// key's shard. The returned slice is owned by the service and must not be
// modified.
func (s *Service) Get(key Key) ([]byte, bool) {
	s.topo.RLock()
	defer s.topo.RUnlock()
	sh := s.ShardOf(key)
	owners := s.placement[sh]
	if len(owners) == 0 {
		return nil, false
	}
	return s.nodes[owners[0]].get(sh, key)
}

// Contains reports presence on any copy without touching LRU order or
// hit/miss counters: a probe tests read the tier's contents with.
func (s *Service) Contains(key Key) bool {
	s.topo.RLock()
	defer s.topo.RUnlock()
	sh := s.ShardOf(key)
	for _, id := range s.placement[sh] {
		if s.nodes[id].stores[sh].contains(key) {
			return true
		}
	}
	return false
}

// applyLocked lands a mutation on every owner's copy of the shard. val
// is copied once, into the service's shared runs (vals), and every copy
// shares the copy. The primary's copy decides which entries the put
// evicts and every replica drops the same ones, so the copies stay
// identical although reads touch only the primary's LRU order; each copy
// counts its own evictions. Returns the copy count. Callers hold topo for
// read.
func (s *Service) applyLocked(sh int, key Key, val []byte) int {
	owners := s.placement[sh]
	s.valsMu.Lock()
	val = s.vals.Copy(val)
	s.valsMu.Unlock()
	w := &s.writes[sh]
	w.Lock()
	defer w.Unlock()
	victims := w.victims[:0]
	for i, id := range owners {
		nd := s.nodes[id]
		var n int
		victims, n = nd.stores[sh].put(key, val, victims, i == 0)
		nd.evictions.Add(int64(n))
		nd.puts.Add(1)
	}
	w.victims = victims
	return len(owners)
}

// Put stores val under key on behalf of the lease holder, on the
// primary and every replica, and returns how many copies it landed on,
// so a client can charge the replication fan-out. The write is fenced —
// rejected with ErrFenced and counted at every copy — when the lease's
// epoch is stale or released. val is copied, so the caller may reuse
// it; the copy is cut from a run the service shares among values
// (blobstore.Runs), so an evicted or replaced value's bytes stay
// allocated until every value in its run is gone, and no run is larger
// than 256 KiB.
func (s *Service) Put(l Lease, key Key, val []byte) (copies int, err error) {
	if err := s.admit(l, key); err != nil {
		return 0, err
	}
	s.topo.RLock()
	defer s.topo.RUnlock()
	return s.applyLocked(s.ShardOf(key), key, val), nil
}

// Invalidate drops key on behalf of the lease holder, with the same
// fencing rule as Put. The drop lands on every copy. Dropping an absent
// key is not an error.
func (s *Service) Invalidate(l Lease, key Key) error {
	if err := s.admit(l, key); err != nil {
		return err
	}
	s.topo.RLock()
	defer s.topo.RUnlock()
	sh := s.ShardOf(key)
	s.writes[sh].Lock()
	defer s.writes[sh].Unlock()
	for _, id := range s.placement[sh] {
		nd := s.nodes[id]
		nd.stores[sh].remove(key)
		nd.invals.Add(1)
	}
	return nil
}

// Reset drops every cached entry on every node (leases, epochs,
// placement and counters are kept). Experiments call it between a
// seeding phase and a measured cold-read phase.
func (s *Service) Reset() {
	s.topo.RLock()
	defer s.topo.RUnlock()
	for _, nd := range s.nodes {
		for _, st := range nd.stores {
			st.clear()
		}
	}
}

// Stats returns a snapshot of the service counters, summed across
// nodes. See NodeStats for the per-node split.
func (s *Service) Stats() Stats {
	var agg Stats
	s.topo.RLock()
	for _, nd := range s.nodes {
		agg.Hits += nd.hits.Load()
		agg.Misses += nd.misses.Load()
		agg.Puts += nd.puts.Load()
		agg.Invalidations += nd.invals.Load()
		agg.Evictions += nd.evictions.Load()
		for _, st := range nd.stores {
			st.mu.Lock()
			agg.Entries += int64(len(st.entries))
			agg.Bytes += st.bytes
			st.mu.Unlock()
		}
	}
	agg.LostShards = s.lostShards
	s.topo.RUnlock()
	s.mu.Lock()
	agg.FencedWrites = s.fenced
	agg.LeasesActive = int64(len(s.leases))
	s.mu.Unlock()
	return agg
}

// HitRatio is hits over lookups; a service that has seen no lookups
// reports 0.
func (st Stats) HitRatio() float64 {
	total := st.Hits + st.Misses
	if total == 0 {
		return 0
	}
	return float64(st.Hits) / float64(total)
}

// dump copies the store's contents out; values are shared.
func (st *store) dump() map[Key][]byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	m := make(map[Key][]byte, len(st.entries))
	for k, e := range st.entries {
		m[k] = e.val
	}
	return m
}

// Snapshot returns the service's logical contents: for each shard, the
// entries of its primary's copy. Values are copied. The dualtest harness
// diffs this against the single-node reference.
func (s *Service) Snapshot() map[Key][]byte {
	s.topo.RLock()
	defer s.topo.RUnlock()
	out := make(map[Key][]byte)
	for sh, owners := range s.placement {
		if len(owners) == 0 {
			continue
		}
		for k, v := range s.nodes[owners[0]].stores[sh].dump() {
			out[k] = append([]byte(nil), v...)
		}
	}
	return out
}

// CheckConsistency verifies the replication invariants: every owner of
// a shard holds a copy, every copy of a shard holds identical entries,
// and no node holds a copy of a shard it does not own. Returns nil when
// the invariants hold.
func (s *Service) CheckConsistency() error {
	s.topo.RLock()
	defer s.topo.RUnlock()
	held, owned := 0, 0
	for _, nd := range s.nodes {
		held += len(nd.stores)
	}
	for sh, owners := range s.placement {
		owned += len(owners)
		var ref map[Key][]byte
		for _, id := range owners {
			st := s.nodes[id].stores[sh]
			if st == nil {
				return fmt.Errorf("shard %d: owner %d holds no copy", sh, id)
			}
			m := st.dump()
			if ref == nil {
				ref = m
				continue
			}
			if len(m) != len(ref) {
				return fmt.Errorf("shard %d: node %d holds %d entries, node %d holds %d",
					sh, id, len(m), owners[0], len(ref))
			}
			for k, v := range m {
				if rv, ok := ref[k]; !ok || !bytes.Equal(v, rv) {
					return fmt.Errorf("shard %d: key %q differs between node %d and node %d",
						sh, k, id, owners[0])
				}
			}
		}
	}
	// Every owner holds a copy, so any surplus is a copy nobody owns.
	if held != owned {
		return fmt.Errorf("nodes hold %d shard copies, placement owns %d", held, owned)
	}
	return nil
}

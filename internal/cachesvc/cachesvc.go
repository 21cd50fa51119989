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
// The service is in-process but "network-shaped": all access goes
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
// The key space is hashed into a fixed number of shards; a Placement
// assigns each shard a primary plus Options.Replicas replicas across
// an explicit set of Nodes. Writes apply to every copy, reads are served
// by the first live owner, and AddNode/DrainNode/KillNode trigger
// live shard migration: ownership flips immediately (placement version
// bump), lookups during the handoff fall through from the new copy to
// a still-complete old copy so there is no miss storm, and entries are
// copied over with version counters so a late copy can never clobber a
// write that landed after the flip. With the default Options (one
// node, zero replicas) the service is the single-node reference the
// dualtest differential harness pins the replicated tier against.
//
// Correctness under partition comes from epoch leases (the
// sigmaOS fenceclnt/epochclnt shape): a mount holds a lease per shard
// group, every mutation carries its lease's epoch, and the service
// fences writes whose lease has expired or been superseded — a
// partitioned mount that reconnects acquires a fresh epoch and replays
// nothing; whatever it still had in flight under the old epoch is
// rejected, so stale data never lands in the shared tier. The fence
// holds per replica: a stale-epoch write is dropped at every copy and
// counted on every node, never applied to some copies and not others.
// Leases are service-global control-plane state, so in-flight epochs
// survive shard migration and node failure untouched.
package cachesvc

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/sim"
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
	// neither (they are presence checks, not reads). A lookup served by
	// handoff fallthrough counts one hit, on the node that held the data.
	Hits, Misses int64
	// Puts counts applied copies: one per node hosting the key's shard
	// (primary plus replicas plus any handoff source still holding the
	// shard), so a single-node service counts one per mutation.
	Puts int64
	// Seeds counts administrative epoch-free Put calls (registry
	// backfill), one per call regardless of copy count.
	Seeds int64
	// Invalidations counts applied invalidation copies (like Puts).
	Invalidations int64
	// FencedWrites counts mutations rejected because their lease epoch
	// was stale, expired, or released — the partition-safety counter.
	// One per rejected mutation; NodeStats.FencedWrites counts the drop
	// at every copy.
	FencedWrites int64
	// Evictions counts LRU evictions across all nodes and shards.
	Evictions int64
	// Entries and Bytes are the live entry count and stored value bytes,
	// replica copies included.
	Entries, Bytes int64
	// LeasesGranted counts Acquire calls (each grants a fresh epoch);
	// LeasesActive is the number currently held; Expirations counts
	// leases observed expired (on validate/renew).
	LeasesGranted, LeasesActive, Expirations int64
}

// Options tunes a Service.
type Options struct {
	// Shards is the number of cache shards (default 16).
	Shards int
	// ShardCapacity is the LRU byte capacity per shard copy (default
	// 64 MiB). Every replica of a shard has its own capacity.
	ShardCapacity int64
	// Groups is the number of lease shard-groups; shards are striped
	// across groups and a mount holds one lease per group (default 4,
	// clamped to Shards).
	Groups int
	// LeaseTTL is the lease lifetime in virtual time on Clock
	// (default 5s). A lease is expired at exactly its deadline: it is
	// valid while now < expiry and fenced once now >= expiry.
	LeaseTTL time.Duration
	// Clock judges lease expiry. Nil builds a private service clock
	// that nothing advances (leases then only expire when a test
	// advances it — mounts' own clocks never age a lease by accident).
	Clock *sim.Clock
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
	opts  Options
	clock *sim.Clock

	// ver stamps every accepted mutation; migration copies carry their
	// source's stamp and never overwrite a newer one.
	ver atomic.Uint64

	// topo guards the node set, placement, and migration tasks. Data
	// ops hold it for read while routing and touching stores; topology
	// changes and migration steps hold it for write.
	topo           sync.RWMutex
	nodes          []*node
	placement      [][]int
	placeVersion   uint64
	tasks          []*copyTask
	pendingHandoff map[int]bool

	shardsMoved     atomic.Int64
	entriesCopied   atomic.Int64
	fallthroughHits atomic.Int64
	lostShards      atomic.Int64

	mu      sync.Mutex
	leases  map[leaseID]*leaseState
	epochs  map[leaseID]uint64
	granted int64
	expired int64
	fenced  int64
	seeds   int64
}

// store is one node's copy of one shard: a lock+LRU over versioned
// entries. complete marks a copy holding every entry the shard has (an
// incomplete copy is mid-handoff and falls through on a miss).
type store struct {
	mu      sync.Mutex
	entries map[Key]*entry
	// lru is the sentinel of the entries' ring: lru.next is the most
	// recently used, lru.prev the least.
	lru      entry
	bytes    int64
	cap      int64
	complete bool
}

// entry is one cached value and its place in its store's LRU ring.
type entry struct {
	key        Key
	val        []byte
	ver        uint64
	prev, next *entry
}

func newStore(cap int64, complete bool) *store {
	st := &store{cap: cap, complete: complete}
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

// peek returns the value and version without touching LRU order.
func (st *store) peek(key Key) ([]byte, uint64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.entries[key]
	if !ok {
		return nil, 0, false
	}
	return e.val, e.ver, true
}

// contains probes presence without counters or LRU effects.
func (st *store) contains(key Key) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.entries[key]
	return ok
}

// put stores a fresh mutation and returns evictions. val is shared, not
// copied: applyLocked copies it once for every copy of the shard.
func (st *store) put(key Key, val []byte, ver uint64) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.entries[key]; ok {
		st.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		e.ver = ver
		e.unlink()
		e.insertAfter(&st.lru)
	} else {
		e := &entry{key: key, val: val, ver: ver}
		e.insertAfter(&st.lru)
		st.entries[key] = e
		st.bytes += int64(len(val)) + key.size()
	}
	return st.evictLocked()
}

// install lands a migrated copy: it only takes effect when the store
// has no entry for key, or a strictly older one — a write accepted
// after the placement flip always wins over a late copy from the old
// owner. val is shared, not copied: both slices are service-owned and
// never mutated in place.
func (st *store) install(key Key, val []byte, ver uint64) (installed bool, evictions int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.entries[key]; ok {
		if e.ver >= ver {
			return false, 0
		}
		st.bytes += int64(len(val)) - int64(len(e.val))
		e.val = val
		e.ver = ver
		return true, st.evictLocked()
	}
	e := &entry{key: key, val: val, ver: ver}
	e.insertAfter(st.lru.prev) // migrated copies join cold
	st.entries[key] = e
	st.bytes += int64(len(val)) + key.size()
	return true, st.evictLocked()
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

func (st *store) dropLocked(e *entry) {
	e.unlink()
	delete(st.entries, e.key)
	st.bytes -= int64(len(e.val)) + e.key.size()
}

func (st *store) evictLocked() int {
	n := 0
	for st.bytes > st.cap && len(st.entries) > 1 {
		st.dropLocked(st.lru.prev)
		n++
	}
	return n
}

// keys returns the store's keys, sorted (the deterministic snapshot a
// migration task copies from).
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
}

// New builds a service with the given options.
func New(opts Options) *Service {
	if opts.Shards <= 0 {
		opts.Shards = 16
	}
	if opts.ShardCapacity <= 0 {
		opts.ShardCapacity = 64 << 20
	}
	if opts.Groups <= 0 {
		opts.Groups = 4
	}
	if opts.Groups > opts.Shards {
		opts.Groups = opts.Shards
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = defaultLeaseTTL
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
	clock := opts.Clock
	if clock == nil {
		clock = sim.NewClock()
	}
	s := &Service{
		opts:           opts,
		clock:          clock,
		leases:         make(map[leaseID]*leaseState),
		epochs:         make(map[leaseID]uint64),
		placement:      make([][]int, opts.Shards),
		pendingHandoff: make(map[int]bool),
	}
	for i := 0; i < opts.Nodes; i++ {
		s.nodes = append(s.nodes, newNode(i))
	}
	s.topo.Lock()
	s.recomputeLocked()
	// The initial placement is not a handoff: every owner store starts
	// complete and empty, with nothing to migrate from.
	for _, nd := range s.nodes {
		for _, st := range nd.stores {
			st.complete = true
		}
	}
	s.tasks = nil
	s.pendingHandoff = make(map[int]bool)
	s.placeVersion = 1
	s.topo.Unlock()
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

// GroupOf returns the lease shard-group guarding mutations of key:
// shards are striped across groups. Groups partition the key space,
// not the node set, so a lease's epoch is untouched by migration.
func (s *Service) GroupOf(key Key) int { return s.ShardOf(key) % s.opts.Groups }

// NumGroups returns the number of lease shard-groups.
func (s *Service) NumGroups() int { return s.opts.Groups }

// NumShards returns the number of cache shards.
func (s *Service) NumShards() int { return s.opts.Shards }

// Clock returns the clock leases expire against (tests advance it to
// simulate time passing on the service side of a partition).
func (s *Service) Clock() *sim.Clock { return s.clock }

// hosts is the array a caller of hostingLocked lends it. Data ops run
// concurrently under topo's read lock, so the storage must be the
// caller's own, on its stack; a shard on more nodes grows onto the heap.
type hosts [8]*node

// hostingLocked appends to out the live nodes holding a copy of shard
// sh: current owners first in placement order, then any handoff sources
// still holding the shard, in node-id order. Callers hold topo and pass
// a hosts array as out (on[:0]).
func (s *Service) hostingLocked(sh int, out []*node) []*node {
	owners := s.placement[sh]
	for _, id := range owners {
		if nd := s.nodes[id]; nd.live && nd.stores[sh] != nil {
			out = append(out, nd)
		}
	}
	for _, nd := range s.nodes {
		if !containsInt(owners, nd.id) && nd.live && nd.stores[sh] != nil {
			out = append(out, nd)
		}
	}
	return out
}

// completeHostLocked returns the lowest-numbered live node other than
// skip holding a complete copy of shard sh, or nil.
func (s *Service) completeHostLocked(sh, skip int) *node {
	var best *node
	var on hosts
	for _, nd := range s.hostingLocked(sh, on[:0]) {
		if nd.id == skip || !nd.stores[sh].complete {
			continue
		}
		if best == nil || nd.id < best.id {
			best = nd
		}
	}
	return best
}

// readTargetLocked picks the node a placement-unaware read routes to:
// the first live owner in placement order, so the primary while it lives.
func (s *Service) readTargetLocked(sh int) *node {
	for _, id := range s.placement[sh] {
		if nd := s.nodes[id]; nd.live {
			return nd
		}
	}
	return nil
}

// getFromLocked serves a lookup at node nd, falling through to a
// complete copy when nd's copy is mid-handoff. hops counts extra
// cross-node transfers the lookup cost. Callers hold topo for read.
func (s *Service) getFromLocked(nd *node, sh int, key Key) ([]byte, bool, int) {
	st := nd.stores[sh]
	if st != nil {
		if val, ok := st.get(key); ok {
			nd.hits.Add(1)
			return val, true, 0
		}
		if st.complete {
			nd.misses.Add(1)
			return nil, false, 0
		}
	}
	// The copy here is absent or incomplete: fall through to a complete
	// copy so a handoff in progress never manufactures a miss storm.
	src := s.completeHostLocked(sh, nd.id)
	if src == nil {
		nd.misses.Add(1)
		return nil, false, 0
	}
	val, ver, ok := src.stores[sh].peek(key)
	if !ok {
		nd.misses.Add(1)
		return nil, false, 1
	}
	src.hits.Add(1)
	s.fallthroughHits.Add(1)
	if st != nil {
		// Pull-copy: the served entry also lands in the queried copy so
		// the handoff converges with the read traffic.
		if installed, ev := st.install(key, val, ver); installed {
			s.entriesCopied.Add(1)
			nd.evictions.Add(int64(ev))
		}
	}
	return val, true, 1
}

// Get returns the cached value for key, served by the first live owner
// (internal routing — cachecl routes explicitly and pays the network).
// The returned slice is owned by the service and must not be modified.
func (s *Service) Get(key Key) ([]byte, bool) {
	s.topo.RLock()
	defer s.topo.RUnlock()
	sh := s.ShardOf(key)
	nd := s.readTargetLocked(sh)
	if nd == nil {
		return nil, false
	}
	val, ok, _ := s.getFromLocked(nd, sh, key)
	return val, ok
}

// Contains reports presence on any live copy without touching LRU
// order or hit/miss counters — the probe Registry.Pull uses to skip
// transfers.
func (s *Service) Contains(key Key) bool {
	s.topo.RLock()
	defer s.topo.RUnlock()
	sh := s.ShardOf(key)
	var on hosts
	for _, nd := range s.hostingLocked(sh, on[:0]) {
		if nd.stores[sh].contains(key) {
			return true
		}
	}
	return false
}

// applyLocked lands a mutation on every live copy of the shard —
// owners and any handoff sources alike, so a fallthrough can never
// serve a value a later write replaced. val is copied once and every
// copy shares the copy, as install's do. Returns the copy count.
// Callers hold topo for read.
func (s *Service) applyLocked(sh int, key Key, val []byte) int {
	ver := s.ver.Add(1)
	var on hosts
	hosting := s.hostingLocked(sh, on[:0])
	val = append([]byte(nil), val...)
	for _, nd := range hosting {
		ev := nd.stores[sh].put(key, val, ver)
		nd.puts.Add(1)
		nd.evictions.Add(int64(ev))
	}
	return len(hosting)
}

// Put stores val under key on behalf of the lease holder, on the
// primary and every replica. The write is fenced — rejected with
// ErrFenced and counted at every copy — when the lease's epoch is
// stale, expired, or released. val is copied.
func (s *Service) Put(l Lease, key Key, val []byte) error {
	if err := s.admit(l, key); err != nil {
		return err
	}
	s.topo.RLock()
	defer s.topo.RUnlock()
	s.applyLocked(s.ShardOf(key), key, val)
	return nil
}

// Seed stores val under key without a lease: the administrative
// backfill path used when a registry pull materializes chunks the tier
// should serve. Chunk content is immutable (content-addressed), so the
// epoch machinery guarding mutable metadata is not needed here.
func (s *Service) Seed(key Key, val []byte) {
	s.mu.Lock()
	s.seeds++
	s.mu.Unlock()
	s.topo.RLock()
	defer s.topo.RUnlock()
	s.applyLocked(s.ShardOf(key), key, val)
}

// Invalidate drops key on behalf of the lease holder, with the same
// fencing rule as Put. The drop lands on every copy — a handoff source
// included, so a fallthrough can never resurrect an invalidated entry.
// Dropping an absent key is not an error.
func (s *Service) Invalidate(l Lease, key Key) error {
	if err := s.admit(l, key); err != nil {
		return err
	}
	s.topo.RLock()
	defer s.topo.RUnlock()
	sh := s.ShardOf(key)
	var on hosts
	for _, nd := range s.hostingLocked(sh, on[:0]) {
		nd.stores[sh].remove(key)
		nd.invals.Add(1)
	}
	return nil
}

// Reset drops every cached entry on every node (leases, epochs,
// placement, migration progress and counters are kept). Experiments
// call it between a seeding phase and a measured cold-read phase.
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
	s.topo.RUnlock()
	s.mu.Lock()
	agg.FencedWrites = s.fenced
	agg.LeasesGranted = s.granted
	agg.LeasesActive = int64(len(s.leases))
	agg.Expirations = s.expired
	agg.Seeds = s.seeds
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

// Package cachecl is the mount-side client of the shared cache tier
// (internal/cachesvc). It is the only path a mount uses to talk to the
// service, and it is where the "network" lives: every RPC charges the
// calling mount's sim.Clock with the cost model's NetRTT plus the
// payload at NetPerKB, so cross-mount cache behaviour is benchmarkable
// in the same virtual currency as disks and FUSE round trips — and
// deterministic, because nothing real crosses a socket.
//
// A client holds one epoch lease per service shard group. Mutations
// (chunk publishes, attr writes, invalidations) carry the
// lease's epoch; when the service fences one — the lease expired while
// this mount was partitioned, or a newer epoch superseded it — the
// client drops the write, marks the group lost, and counts it. Nothing
// is queued or replayed: the holder must Reattach for fresh epochs,
// after which new writes flow again. That drop-don't-retry rule is what
// keeps a stale mount from ever pushing stale bytes into the tier.
package cachecl

import (
	"errors"
	"sync"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/cachesvc"
	"cntr/internal/sim"
)

// ErrPartitioned fails mutations attempted while the client is
// simulating a network partition.
var ErrPartitioned = errors.New("cachecl: mount is partitioned from the cache tier")

// Stats counts this mount's cache-tier traffic.
type Stats struct {
	// Hits and Misses count lookups (chunk and attr alike).
	Hits, Misses int64
	// Puts counts accepted publishes; Invalidations accepted drops.
	Puts, Invalidations int64
	// Fenced counts mutations the service rejected on epoch grounds;
	// each also marks its shard group lost until Reattach.
	Fenced int64
	// Unreachable counts operations attempted while partitioned.
	Unreachable int64
	// NetBytes is the payload volume charged to this mount's clock.
	NetBytes int64
	// Moves counts placement refreshes forced by ErrMoved — the
	// service's topology changed under this client's cached routing
	// table and an operation had to re-route.
	Moves int64
}

// Client attaches one mount to a cache service.
type Client struct {
	svc   *cachesvc.Service
	mount string
	clock *sim.Clock
	model *sim.CostModel

	mu          sync.Mutex
	leases      map[int]cachesvc.Lease
	lost        map[int]bool // groups fenced since the last attach
	partitioned bool
	stats       Stats
	// place is the cached routing table: which nodes own each shard, at
	// which placement version. Node-addressed calls echo the version;
	// the service answers ErrMoved when it is stale and the client
	// refreshes (one RTT) and retries.
	place cachesvc.PlacementInfo
}

// New builds a client for the given mount identity. Call Attach to
// acquire leases before mutating.
func New(svc *cachesvc.Service, mount string, clock *sim.Clock, model *sim.CostModel) *Client {
	return &Client{
		svc: svc, mount: mount, clock: clock, model: model,
		leases: make(map[int]cachesvc.Lease),
		lost:   make(map[int]bool),
	}
}

// Mount returns the client's mount identity.
func (c *Client) Mount() string { return c.mount }

// Attach acquires a fresh lease for every shard group — the initial
// connect and the reconnect after a fence are the same operation, and
// both mint new epochs. One RTT is charged for the batch.
func (c *Client) Attach() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.partitioned {
		c.stats.Unreachable++
		return ErrPartitioned
	}
	c.clock.Advance(c.model.NetRTT)
	for g := 0; g < c.svc.NumGroups(); g++ {
		l, err := c.svc.Acquire(c.mount, g)
		if err != nil {
			return err
		}
		c.leases[g] = l
		delete(c.lost, g)
	}
	// The routing table rides along on the attach round trip.
	c.place = c.svc.Placement()
	return nil
}

// Reattach is Attach under its recovery name: a mount that was fenced
// calls it to come back with fresh epochs. Nothing dropped while fenced
// is replayed.
func (c *Client) Reattach() error { return c.Attach() }

// RenewAll extends every held lease. Expired or superseded leases are
// dropped and their groups marked lost (ErrExpired/ErrNotHeld from the
// service); the first such error is returned so callers notice.
func (c *Client) RenewAll() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.partitioned {
		c.stats.Unreachable++
		return ErrPartitioned
	}
	c.clock.Advance(c.model.NetRTT)
	var firstErr error
	for g, l := range c.leases {
		renewed, err := c.svc.Renew(l)
		if err != nil {
			delete(c.leases, g)
			c.lost[g] = true
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		c.leases[g] = renewed
	}
	return firstErr
}

// Release drops every held lease (session teardown). Leases already
// expired or superseded are skipped silently — they are no longer ours
// to release.
func (c *Client) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.partitioned {
		c.clock.Advance(c.model.NetRTT)
		for _, l := range c.leases {
			c.svc.Release(l)
		}
	}
	c.leases = make(map[int]cachesvc.Lease)
}

// Lease returns the held lease for a shard group.
func (c *Client) Lease(group int) (cachesvc.Lease, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[group]
	return l, ok
}

// SetPartitioned toggles a simulated network partition: while set,
// lookups miss, mutations fail with ErrPartitioned, and nothing is
// charged — the packets never leave the host.
func (c *Client) SetPartitioned(p bool) {
	c.mu.Lock()
	c.partitioned = p
	c.mu.Unlock()
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// routeLocked picks the node a lookup of shard sh goes to: the first
// live owner in the cached routing table's placement order, so the
// primary while it lives. Returns -1 when the cached table lists no live
// owner (forcing a refresh).
func (c *Client) routeLocked(sh int) int {
	if sh >= len(c.place.Owners) {
		return -1
	}
	for _, id := range c.place.Owners[sh] {
		if id < len(c.place.Live) && c.place.Live[id] {
			return id
		}
	}
	return -1
}

// refreshPlacementLocked re-fetches the routing table after an
// ErrMoved, charging the extra round trip the re-route cost.
func (c *Client) refreshPlacementLocked() {
	c.place = c.svc.Placement()
	c.stats.Moves++
	c.clock.Advance(c.model.NetRTT)
}

// get is the shared lookup path: one RTT for the probe, payload bytes
// only on a hit; a stale routing table costs one refresh RTT and a
// retry.
func (c *Client) get(key cachesvc.Key) ([]byte, bool) {
	c.mu.Lock()
	if c.partitioned {
		c.stats.Unreachable++
		c.stats.Misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Unlock()
	sh := c.svc.ShardOf(key)
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		target := c.routeLocked(sh)
		ver := c.place.Version
		if target == -1 {
			c.refreshPlacementLocked()
			target = c.routeLocked(sh)
			ver = c.place.Version
		}
		c.mu.Unlock()
		if target == -1 {
			break // no live owner at all: count the probe as a miss
		}
		val, ok, err := c.svc.NodeGet(target, ver, key)
		if err != nil {
			if attempt < 3 {
				c.mu.Lock()
				c.refreshPlacementLocked()
				c.mu.Unlock()
				continue
			}
			break
		}
		// Unlocked by hand: a defer inside the loop is a heap-allocated
		// record per lookup.
		c.mu.Lock()
		if ok {
			c.stats.Hits++
			c.stats.NetBytes += int64(len(val))
			c.clock.Advance(c.model.NetCost(len(val)))
			c.mu.Unlock()
			return val, true
		}
		c.stats.Misses++
		c.clock.Advance(c.model.NetRTT)
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Lock()
	c.stats.Misses++
	c.clock.Advance(c.model.NetRTT)
	c.mu.Unlock()
	return nil, false
}

// put is the shared mutation path: the write goes to the key's primary
// and fans out to the replicas under the group lease. charged=false
// models a write-behind publish that does not block the caller
// (read-populate after an origin fetch); the fencing decision is
// identical either way. A charged write pays one send to the primary
// up front — fenced or not, the bytes travelled — plus the replication
// fan-out once the copies are confirmed.
func (c *Client) put(key cachesvc.Key, val []byte, charged bool) error {
	c.mu.Lock()
	if c.partitioned {
		c.stats.Unreachable++
		c.mu.Unlock()
		return ErrPartitioned
	}
	group := c.svc.GroupOf(key)
	l, ok := c.leases[group]
	if !ok {
		// No lease (never attached, or lost and not reattached): the
		// publish is dropped locally — it would only be fenced anyway.
		c.stats.Fenced++
		c.lost[group] = true
		c.mu.Unlock()
		return cachesvc.ErrFenced
	}
	if charged {
		c.stats.NetBytes += int64(len(val))
		c.clock.Advance(c.model.NetCost(len(val)))
	}
	c.mu.Unlock()
	sh := c.svc.ShardOf(key)
	var copies int
	var err error
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		var primary int
		if sh < len(c.place.Owners) && len(c.place.Owners[sh]) > 0 {
			primary = c.place.Owners[sh][0]
		} else {
			c.refreshPlacementLocked()
			if sh < len(c.place.Owners) && len(c.place.Owners[sh]) > 0 {
				primary = c.place.Owners[sh][0]
			}
		}
		ver := c.place.Version
		c.mu.Unlock()
		copies, err = c.svc.NodePut(primary, ver, l, key, val)
		if errors.Is(err, cachesvc.ErrMoved) && attempt < 3 {
			c.mu.Lock()
			c.refreshPlacementLocked()
			c.mu.Unlock()
			continue
		}
		break
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if errors.Is(err, cachesvc.ErrFenced) {
		c.stats.Fenced++
		c.lost[group] = true
		delete(c.leases, group)
		return err
	}
	if err == nil {
		c.stats.Puts++
		if charged && copies > 1 {
			// Primary-then-replicas: the extra copies are on the write's
			// critical path.
			c.clock.Advance(time.Duration(copies-1) * c.model.NetCost(len(val)))
		}
	}
	return err
}

// invalidate drops key under the group's lease, with put's fencing
// behaviour.
func (c *Client) invalidate(key cachesvc.Key) error {
	c.mu.Lock()
	if c.partitioned {
		c.stats.Unreachable++
		c.mu.Unlock()
		return ErrPartitioned
	}
	group := c.svc.GroupOf(key)
	l, ok := c.leases[group]
	if !ok {
		c.stats.Fenced++
		c.lost[group] = true
		c.mu.Unlock()
		return cachesvc.ErrFenced
	}
	c.clock.Advance(c.model.NetRTT)
	c.mu.Unlock()
	err := c.svc.Invalidate(l, key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if errors.Is(err, cachesvc.ErrFenced) {
		c.stats.Fenced++
		c.lost[group] = true
		delete(c.leases, group)
		return err
	}
	if err == nil {
		c.stats.Invalidations++
	}
	return err
}

// GetChunk fetches a backend-store chunk from the tier. The returned
// slice is owned by the service and must not be modified.
func (c *Client) GetChunk(ref blobstore.Ref) ([]byte, bool) {
	return c.get(cachesvc.ChunkKey(ref))
}

// PutChunk publishes a chunk synchronously (charged write-through).
func (c *Client) PutChunk(ref blobstore.Ref, data []byte) error {
	return c.put(cachesvc.ChunkKey(ref), data, true)
}

// PublishChunk publishes a chunk write-behind: the epoch fence still
// applies, but the caller's clock is not charged — the transfer
// overlaps whatever the mount does next.
func (c *Client) PublishChunk(ref blobstore.Ref, data []byte) error {
	return c.put(cachesvc.ChunkKey(ref), data, false)
}

// InvalidateChunk drops a chunk from the tier (last backend reference
// gone).
func (c *Client) InvalidateChunk(ref blobstore.Ref) error {
	return c.invalidate(cachesvc.ChunkKey(ref))
}

// GetAttr fetches a path's encoded attributes.
func (c *Client) GetAttr(path string) ([]byte, bool) {
	return c.get(cachesvc.AttrKey(path))
}

// PutAttr publishes a path's encoded attributes.
func (c *Client) PutAttr(path string, val []byte) error {
	return c.put(cachesvc.AttrKey(path), val, true)
}

// InvalidateAttr drops a path's attributes (the path was mutated).
func (c *Client) InvalidateAttr(path string) error {
	return c.invalidate(cachesvc.AttrKey(path))
}

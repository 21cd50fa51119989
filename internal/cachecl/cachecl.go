// Package cachecl is the mount-side client of the shared cache tier
// (internal/cachesvc). It is the only path a mount uses to talk to the
// service, and it is where the "network" lives: every RPC charges the
// calling mount's sim.Clock with a round trip plus the payload at
// NetPerKB, so cross-mount cache behaviour is benchmarkable in the same
// virtual currency as disks and FUSE round trips — and deterministic,
// because nothing real crosses a socket. A blocking RPC pays the full
// NetRTT; a chunk lookup Store.Get sends as one of a pipelined window
// pays NetRTT over the window's depth, as the origin disk it fronts
// amortizes its seek.
//
// A call names a key, and the service routes it: a lookup to the
// primary of the key's shard, a write or an invalidation to every copy.
// Of the tier's layout the client keeps only the placement version it
// last saw. When a node has died since, the next lookup or write that
// reaches the service pays one more round trip to re-learn the layout,
// and counts a move.
//
// A client holds one epoch lease per service shard group. Mutations
// (chunk publishes, attr writes, invalidations) carry the
// lease's epoch; when the service fences one — the lease was released
// at the service while this mount was partitioned, or a newer epoch
// superseded it — the client drops the write, forgets the group's
// lease, and counts it. Nothing is queued or replayed: the holder must
// Attach again for fresh epochs, after which new writes flow again.
// That drop-don't-retry rule is what keeps a stale mount from ever
// pushing stale bytes into the tier.
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
	// Fenced counts mutations rejected on epoch grounds: by the
	// service, which costs the client the group's lease until the next
	// Attach, or locally while no lease is held.
	Fenced int64
	// Unreachable counts operations attempted while partitioned.
	Unreachable int64
	// NetBytes is the payload volume charged to this mount's clock.
	NetBytes int64
	// Moves counts the round trips paid to re-learn the tier's layout:
	// one per call that found the placement version moved by a node
	// kill since this client last saw it.
	Moves int64
}

// Client attaches one mount to a cache service. Every call is one of the
// service's Get, Put or Invalidate, which route the key themselves; the
// client keeps the leases it writes under and the placement version it
// last saw.
type Client struct {
	svc   *cachesvc.Service
	mount string
	clock *sim.Clock
	model *sim.CostModel

	mu          sync.Mutex
	leases      map[int]cachesvc.Lease
	partitioned bool
	stats       Stats
	// version is the service's placement version as this client last
	// saw it (movedLocked).
	version uint64
}

// New builds a client for the given mount identity. Call Attach to
// acquire leases before mutating.
func New(svc *cachesvc.Service, mount string, clock *sim.Clock, model *sim.CostModel) *Client {
	return &Client{
		svc: svc, mount: mount, clock: clock, model: model,
		leases: make(map[int]cachesvc.Lease),
	}
}

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
	c.clock.Charge(sim.LayerNet, c.model.NetRTT)
	for g := 0; g < c.svc.NumGroups(); g++ {
		l, err := c.svc.Acquire(c.mount, g)
		if err != nil {
			return err
		}
		c.leases[g] = l
	}
	// The placement version rides along on the attach round trip.
	c.version = c.svc.Version()
	return nil
}

// Release drops every held lease (session teardown). Leases already
// released or superseded at the service are skipped silently — they are
// no longer ours to release.
func (c *Client) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.partitioned {
		c.clock.Charge(sim.LayerNet, c.model.NetRTT)
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

// movedLocked takes the placement version v the service answered a call
// at. When a kill has moved it since this client last saw it, the call
// pays one more round trip to re-learn the layout and counts a move.
func (c *Client) movedLocked(v uint64) {
	if v != c.version {
		c.version = v
		c.stats.Moves++
		c.clock.Charge(sim.LayerNet, c.model.NetRTT)
	}
}

// get is the shared lookup path: rtt for the probe (NetRTT when the
// lookup blocks, less when it shares a pipelined window), and payload
// bytes only on a hit.
func (c *Client) get(key cachesvc.Key, rtt time.Duration) ([]byte, bool) {
	c.mu.Lock()
	if c.partitioned {
		c.stats.Unreachable++
		c.stats.Misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Unlock()
	val, ok := c.svc.Get(key)
	v := c.svc.Version()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.movedLocked(v)
	if !ok {
		c.stats.Misses++
		c.clock.Charge(sim.LayerNet, rtt)
		return nil, false
	}
	c.stats.Hits++
	c.stats.NetBytes += int64(len(val))
	c.clock.Charge(sim.LayerNet, rtt+c.model.NetCost(len(val))-c.model.NetRTT)
	return val, true
}

// put is the shared mutation path: the service lands the write on the
// key's primary and its replicas under the group lease. charged=false
// models a write-behind publish that does not block the caller
// (read-populate after an origin fetch); the fencing decision is
// identical either way. A charged write pays one send to the primary
// up front — fenced or not, the bytes travelled — plus the replication
// fan-out once the copies are confirmed. A fenced write is refused
// before it is routed, so it learns no placement version.
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
		// No lease (never attached, or fenced and not reattached): the
		// publish is dropped locally — it would only be fenced anyway.
		c.stats.Fenced++
		c.mu.Unlock()
		return cachesvc.ErrFenced
	}
	if charged {
		c.stats.NetBytes += int64(len(val))
		c.clock.Charge(sim.LayerNet, c.model.NetCost(len(val)))
	}
	c.mu.Unlock()
	copies, err := c.svc.Put(l, key, val)
	v := c.svc.Version()
	c.mu.Lock()
	defer c.mu.Unlock()
	if errors.Is(err, cachesvc.ErrFenced) {
		c.fencedLocked(group, l)
		return err
	}
	c.movedLocked(v)
	if err == nil {
		c.stats.Puts++
		if charged && copies > 1 {
			// Primary-then-replicas: the extra copies are on the write's
			// critical path.
			c.clock.Charge(sim.LayerNet, time.Duration(copies-1)*c.model.NetCost(len(val)))
		}
	}
	return err
}

// fencedLocked counts a mutation the service fenced under lease l and
// forgets l. The service call ran without c.mu, so an Attach may have
// replaced l since: a fresh lease of the group stays held.
func (c *Client) fencedLocked(group int, l cachesvc.Lease) {
	c.stats.Fenced++
	if c.leases[group].Epoch == l.Epoch {
		delete(c.leases, group)
	}
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
		c.mu.Unlock()
		return cachesvc.ErrFenced
	}
	c.clock.Charge(sim.LayerNet, c.model.NetRTT)
	c.mu.Unlock()
	err := c.svc.Invalidate(l, key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if errors.Is(err, cachesvc.ErrFenced) {
		c.fencedLocked(group, l)
		return err
	}
	if err == nil {
		c.stats.Invalidations++
	}
	return err
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

// GetAttr fetches a path's encoded attributes. Attr lookups go out one
// at a time, so each pays a full round trip.
func (c *Client) GetAttr(path string) ([]byte, bool) {
	return c.get(cachesvc.AttrKey(path), c.model.NetRTT)
}

// PutAttr publishes a path's encoded attributes.
func (c *Client) PutAttr(path string, val []byte) error {
	return c.put(cachesvc.AttrKey(path), val, true)
}

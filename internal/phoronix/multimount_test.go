package phoronix

import (
	"bytes"
	"testing"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/cachesvc"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// TestMultiMountSharedCacheBeatsNoService is the experiment the tier
// exists for: a 4-mount fleet cold-reading a shared image tree finishes
// sooner with the shared cache than without it, because every chunk
// crosses the origin volume once instead of once per mount — 3 of the 4
// mounts are served by the tier. Growing the tier to 2 and 4 nodes (one
// replica per shard) and killing the highest-id node once half the fleet
// has read costs the fleet only the re-routing (the same on both) and
// nothing else: the surviving copies keep serving, so the hit ratio holds
// and no shard is lost.
func TestMultiMountSharedCacheBeatsNoService(t *testing.T) {
	rs := pass(t, fleet)
	base, single := rs[0], rs[1]
	for i, r := range rs[1:] {
		name := fleetTiers[i+1].name
		if i > 0 {
			if extra := r.ColdReadTotal - single.ColdReadTotal; extra < 0 || extra > time.Millisecond {
				t.Errorf("%s: the kill cost the fleet %v over nodes=1, want 0-1ms of re-routing", name, extra)
			}
			if r.ColdReadTotal != rs[2].ColdReadTotal {
				t.Errorf("%s: fleet cold read = %v, want %v as on the other killed tier", name, r.ColdReadTotal, rs[2].ColdReadTotal)
			}
		}
		if r.BytesRead != base.BytesRead {
			t.Errorf("%s: fleets read different volumes: %d vs %d", name, r.BytesRead, base.BytesRead)
		}
		if r.ColdReadTotal >= base.ColdReadTotal {
			t.Errorf("%s: shared cache did not pay: svc %v >= nosvc %v",
				name, r.ColdReadTotal, base.ColdReadTotal)
		}
		if r.HitRatio != 0.75 {
			t.Errorf("%s: tier hit ratio %v, want 0.75 (3 of 4 mounts served by the tier)", name, r.HitRatio)
		}
		if r.TierStats.FencedWrites != 0 {
			t.Errorf("%s: healthy fleet saw %d fenced writes", name, r.TierStats.FencedWrites)
		}
		if r.TierStats.LostShards != 0 {
			t.Errorf("%s: replicated tier lost %d shards to the node kill", name, r.TierStats.LostShards)
		}
	}
}

// TestMultiMountScalesWithFleet: adding mounts increases the tier's
// advantage — per-mount average cost falls as the fleet grows, while the
// serviceless fleet's per-mount cost is flat.
func TestMultiMountScalesWithFleet(t *testing.T) {
	per := func(mounts int, useSvc bool) time.Duration {
		r, err := RunMultiMount(MultiMountOptions{Mounts: mounts, UseService: useSvc})
		if err != nil {
			t.Fatal(err)
		}
		return r.ColdReadTotal / time.Duration(mounts)
	}
	if s2, s4 := per(2, true), per(4, true); s4 >= s2 {
		t.Fatalf("per-mount cost grew with fleet size under the tier: 2 mounts %v, 4 mounts %v", s2, s4)
	}
	n2, n4 := per(2, false), per(4, false)
	diff := n4 - n2
	if diff < 0 {
		diff = -diff
	}
	if diff > n2/20 {
		t.Fatalf("serviceless per-mount cost should be flat: 2 mounts %v, 4 mounts %v", n2, n4)
	}
}

// wbFenced is one fenced-writeback run: the fsync's virtual time, the
// store's bytes before and after it, what the mount and the tier fenced,
// the tier's nodes, and what the mount saw once it had reattached.
type wbFenced struct {
	syncTime            time.Duration
	early, backend      int64
	payload, readBack   []byte
	mountFenced         int64
	tier, afterReattach cachesvc.Stats
	nodes               []cachesvc.NodeStats
	lease               cachesvc.Lease
}

// wbFencedTiers are the tiers the fenced-writeback run partitions: the
// single-node reference tier and a 3-node tier with two replicas a shard.
var wbFencedTiers = []fleetTier{{"single-node", 1, 0}, {"replicated-r2", 3, 2}}

var writebackFenced = perProcs(func() ([]wbFenced, error) { return each(wbFencedTiers, runWritebackFenced) })

// runWritebackFenced partitions a mount mid-write-back: dirty data sits in
// the FUSE writeback window while the service revokes the mount's leases,
// and the fsync-driven flush then reaches the store with a released
// epoch. The mount then reattaches and writes a fresh file.
func runWritebackFenced(tier fleetTier) (wbFenced, error) {
	var r wbFenced
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	svc := cachesvc.New(cachesvc.Options{Nodes: tier.nodes, Replicas: tier.replicas})
	cfg := stackConfig()
	cfg.Store = cas
	cfg.CacheService = svc
	cfg.CacheMountID = "wb-mount"
	c := stack.NewCntr(cfg)
	defer c.Close()

	cli := vfs.NewClient(c.Top, vfs.Root())
	f, err := cli.Open("/dirty.bin", vfs.OWronly|vfs.OCreat, 0o644)
	if err != nil {
		return r, err
	}
	// Below the FUSE dirty window so it stays dirty until fsync; distinct
	// content per block so the CAS cannot fold the window into one chunk.
	r.payload = multiMountContent(99, 99, 128<<10)
	if _, err := f.Write(r.payload); err != nil {
		return r, err
	}
	r.early = cas.Stats().PhysicalBytes

	// The partition: the service releases the mount's leases while the
	// dirty window is still in flight. The mount has no idea.
	for g := 0; g < svc.NumGroups(); g++ {
		l, _ := c.CacheCl.Lease(g)
		if err := svc.Release(l); err != nil {
			return r, err
		}
	}

	start := c.Clock.Now()
	if err := f.Sync(); err != nil { // drives the flush down the stack
		return r, err
	}
	r.syncTime = c.Clock.Now() - start
	f.Close()
	r.mountFenced = c.CacheCl.Stats().Fenced
	r.tier, r.nodes = svc.Stats(), svc.NodeStats()
	r.backend = cas.Stats().PhysicalBytes
	if r.readBack, err = cli.ReadFile("/dirty.bin"); err != nil {
		return r, err
	}

	// Recovery: reattach mints fresh epochs and publishes flow again.
	if err := c.CacheCl.Attach(); err != nil {
		return r, err
	}
	r.lease, _ = c.CacheCl.Lease(0)
	if err := cli.WriteFile("/fresh.bin", make([]byte, 8<<10), 0o644); err != nil {
		return r, err
	}
	f2, err := cli.Open("/fresh.bin", vfs.ORdonly, 0)
	if err != nil {
		return r, err
	}
	f2.Sync()
	f2.Close()
	r.afterReattach = svc.Stats()
	return r, nil
}

// TestWritebackFenced holds the fenced-writeback run to its relations. The
// tier must fence every publish from the stale window, and the mount's own
// durability must be unharmed. On the replicated tier every stale publish
// must be dropped on the primary AND both replicas: the per-node fenced
// counters (one per copy) must sum to exactly FencedWrites x copies, with
// every node counting its own share.
func TestWritebackFenced(t *testing.T) {
	for i, r := range pass(t, writebackFenced) {
		t.Run(wbFencedTiers[i].name, func(t *testing.T) {
			if r.early != 0 {
				t.Fatalf("writeback window leaked early: %d bytes at the store", r.early)
			}
			// Every 4 KiB chunk of the 128 KiB window is fenced at the mount;
			// the service sees only the first stale publish per lease group,
			// because that rejection costs the mount the group's lease and it
			// drops the rest locally.
			if r.mountFenced != 32 || r.tier.FencedWrites != 4 {
				t.Fatalf("stale-epoch writeback window: %d publishes fenced at the mount, %d at the service, want 32 and 4",
					r.mountFenced, r.tier.FencedWrites)
			}
			if r.tier.Entries != 0 {
				t.Fatalf("stale mount landed %d entries in the tier", r.tier.Entries)
			}
			// The fence holds per replica: with R replicas every stale
			// mutation is dropped (and counted) at the primary and each
			// replica copy. With nodes == replicas+1 every node hosts every
			// shard, so each node's counter equals the service-level
			// mutation count exactly.
			tier := wbFencedTiers[i]
			copies := int64(tier.replicas + 1)
			if sum := nodeFenced(r.nodes); sum != r.tier.FencedWrites*copies {
				t.Fatalf("per-node fenced sum = %d, want FencedWrites(%d) x copies(%d) = %d",
					sum, r.tier.FencedWrites, copies, r.tier.FencedWrites*copies)
			}
			for _, ns := range r.nodes {
				if tier.nodes == tier.replicas+1 && ns.FencedWrites != r.tier.FencedWrites {
					t.Fatalf("node %d fenced %d writes, want %d (one drop per copy)",
						ns.ID, ns.FencedWrites, r.tier.FencedWrites)
				}
			}
			// Durability is local: the backend holds every chunk of the window.
			if r.backend < int64(len(r.payload)) {
				t.Fatalf("backend holds %d bytes, want >= %d — fencing must not drop local writes",
					r.backend, len(r.payload))
			}
			// The data reads back intact through the mount.
			if !bytes.Equal(r.readBack, r.payload) {
				t.Fatalf("read back %d bytes, corrupted or truncated", len(r.readBack))
			}
			if r.lease.Epoch < 2 {
				t.Fatalf("reattach lease = %+v, want fresh epoch >= 2", r.lease)
			}
			if r.afterReattach.Puts == 0 {
				t.Fatal("no publishes accepted after reattach")
			}
		})
	}
}

// nodeFenced sums the fenced writes the tier's nodes counted.
func nodeFenced(nodes []cachesvc.NodeStats) int64 {
	var sum int64
	for _, ns := range nodes {
		sum += ns.FencedWrites
	}
	return sum
}

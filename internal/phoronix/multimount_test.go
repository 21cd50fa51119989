package phoronix

import (
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
// has read costs the fleet only the re-routing (0.5 virtual ms, the same
// on both) and nothing else: the surviving copies keep serving, so the
// hit ratio holds and no shard is lost.
//
// The two virtual totals are a ledger, pinned to the nanosecond. Without
// the tier the fleet pays 107 423 440 ns. On one node it pays 41 345 872
// ns: each of the 3 072 chunk lookups (4 mounts × 48 files × 16 chunks)
// is one of a 32-deep pipelined window and pays NetRTT/32 (blocking
// lookups would pay 9 688 ns more each, 75 012 768 ns in all); the 192
// attr lookups go one at a time and pay a full NetRTT. A cold read
// through the default mount goes past the host page cache
// (fuse.MountOptions.DirectRead), so none of them pays host-side page hits.
// Only each mount's first open asks the server (fuse.MountOptions.NoOpen):
// a file's first READ opens its host descriptor instead.
func TestMultiMountSharedCacheBeatsNoService(t *testing.T) {
	var base, single, killed MultiMountResult
	for _, row := range []struct {
		name            string
		nodes, replicas int // nodes 0: no service
		kill            bool
		cold            time.Duration // 0: checked against nodes=1
	}{
		{"nosvc", 0, 0, false, 107423440},
		{"nodes=1", 1, 0, false, 41345872},
		{"nodes=2", 2, 1, true, 0},
		{"nodes=4", 4, 1, true, 0},
	} {
		r, err := RunMultiMount(MultiMountOptions{
			Mounts: 4, Dirs: 16, FilesPerDir: 3, FileSize: 64 << 10,
			UseService: row.nodes > 0,
			Nodes:      row.nodes, Replicas: row.replicas, KillNodeMid: row.kill,
		})
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		if row.cold != 0 && r.ColdReadTotal != row.cold {
			t.Errorf("%s: fleet cold read = %dns, want %dns", row.name, r.ColdReadTotal, row.cold)
		}
		if row.nodes == 0 {
			base = r
			continue
		}
		if !row.kill {
			single = r
		} else {
			if extra := r.ColdReadTotal - single.ColdReadTotal; extra < 0 || extra > time.Millisecond {
				t.Errorf("%s: the kill cost the fleet %v over nodes=1, want 0-1ms of re-routing", row.name, extra)
			}
			if killed.ColdReadTotal != 0 && r.ColdReadTotal != killed.ColdReadTotal {
				t.Errorf("%s: fleet cold read = %v, want %v as on the other killed tier", row.name, r.ColdReadTotal, killed.ColdReadTotal)
			}
			killed = r
		}
		if r.BytesRead != base.BytesRead {
			t.Errorf("%s: fleets read different volumes: %d vs %d", row.name, r.BytesRead, base.BytesRead)
		}
		if r.ColdReadTotal >= base.ColdReadTotal {
			t.Errorf("%s: shared cache did not pay: svc %v >= nosvc %v",
				row.name, r.ColdReadTotal, base.ColdReadTotal)
		}
		if r.HitRatio != 0.75 {
			t.Errorf("%s: tier hit ratio %v, want 0.75 (3 of 4 mounts served by the tier)", row.name, r.HitRatio)
		}
		if r.TierStats.FencedWrites != 0 {
			t.Errorf("%s: healthy fleet saw %d fenced writes", row.name, r.TierStats.FencedWrites)
		}
		if r.TierStats.LostShards != 0 {
			t.Errorf("%s: replicated tier lost %d shards to the node kill", row.name, r.TierStats.LostShards)
		}
	}
}

// TestMultiMountScalesWithFleet: adding mounts increases the tier's
// advantage — per-mount average cost falls as the fleet grows, while the
// serviceless fleet's per-mount cost is flat.
func TestMultiMountScalesWithFleet(t *testing.T) {
	per := func(mounts int, useSvc bool) time.Duration {
		r, err := RunMultiMount(MultiMountOptions{
			Mounts: mounts, UseService: useSvc,
			Dirs: 8, FilesPerDir: 2, FileSize: 64 << 10,
		})
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

// TestBatchedWritebackFenced partitions a mount mid-write-back: dirty
// data sits in the FUSE writeback window while the mount's leases expire
// on the service side; the fsync-driven flush then reaches the store
// with a stale epoch. The tier must fence every publish from that
// window — and the mount's own durability must be unharmed. The same
// scenario runs against the single-node reference tier and a 3-node
// R=2 tier, where every stale publish must be dropped on the primary
// AND both replicas: the per-node fenced counters (one per copy) must
// sum to exactly FencedWrites x copies, with every node counting its
// own share.
func TestBatchedWritebackFenced(t *testing.T) {
	t.Run("single-node", func(t *testing.T) {
		runBatchedWritebackFenced(t, 1, 0)
	})
	t.Run("replicated-r2", func(t *testing.T) {
		runBatchedWritebackFenced(t, 3, 2)
	})
}

func runBatchedWritebackFenced(t *testing.T, nodes, replicas int) {
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	svcClock := cachesvc.New(cachesvc.Options{
		LeaseTTL: time.Second, Nodes: nodes, Replicas: replicas,
	})
	cfg := stackConfig()
	cfg.Store = cas
	cfg.CacheService = svcClock
	cfg.CacheMountID = "wb-mount"
	cfg.AsyncDepth = 4 // batched writeback windows through the connection
	c := stack.NewCntr(cfg)
	defer c.Close()

	cli := vfs.NewClient(c.Top, vfs.Root())
	f, err := cli.Open("/dirty.bin", vfs.OWronly|vfs.OCreat, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// Below the FUSE dirty window so it stays dirty until fsync; distinct
	// content per block so the CAS cannot fold the window into one chunk.
	payload := multiMountContent(99, 99, 128<<10)
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	physBefore := cas.Stats().PhysicalBytes
	if physBefore != 0 {
		t.Fatalf("writeback window leaked early: %d bytes at the store", physBefore)
	}

	// The partition: the service ages past the lease TTL while the dirty
	// window is still in flight. The mount's own clock is untouched — it
	// has no idea.
	svcClock.Clock().Advance(2 * time.Second)

	if err := f.Sync(); err != nil { // drives the batched flush down the stack
		t.Fatal(err)
	}
	f.Close()

	// Every 4 KiB chunk of the 128 KiB window is fenced at the mount; the
	// service sees only the first stale publish per lease group, because
	// that rejection costs the mount the group's lease and it drops the
	// rest locally.
	st := svcClock.Stats()
	if fenced := c.CacheCl.Stats().Fenced; fenced != 32 || st.FencedWrites != 4 {
		t.Fatalf("stale-epoch writeback window: %d publishes fenced at the mount, %d at the service, want 32 and 4",
			fenced, st.FencedWrites)
	}
	if st.Entries != 0 {
		t.Fatalf("stale mount landed %d entries in the tier", st.Entries)
	}
	// The fence holds per replica: with R replicas every stale mutation
	// is dropped (and counted) at the primary and each replica copy.
	// With nodes == replicas+1 every node hosts every shard, so each
	// node's counter equals the service-level mutation count exactly.
	copies := int64(replicas + 1)
	var perNodeSum int64
	for _, ns := range svcClock.NodeStats() {
		perNodeSum += ns.FencedWrites
		if nodes == replicas+1 && ns.FencedWrites != st.FencedWrites {
			t.Fatalf("node %d fenced %d writes, want %d (one drop per copy)",
				ns.ID, ns.FencedWrites, st.FencedWrites)
		}
	}
	if perNodeSum != st.FencedWrites*copies {
		t.Fatalf("per-node fenced sum = %d, want FencedWrites(%d) x copies(%d) = %d",
			perNodeSum, st.FencedWrites, copies, st.FencedWrites*copies)
	}
	// Durability is local: the backend holds every chunk of the window.
	if phys := cas.Stats().PhysicalBytes; phys < int64(len(payload)) {
		t.Fatalf("backend holds %d bytes, want >= %d — fencing must not drop local writes",
			phys, len(payload))
	}
	// The data reads back intact through the mount.
	got, err := cli.ReadFile("/dirty.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) || got[1234] != payload[1234] {
		t.Fatalf("read back %d bytes, corrupted or truncated", len(got))
	}

	// Recovery: reattach mints fresh epochs and publishes flow again.
	if err := c.CacheCl.Reattach(); err != nil {
		t.Fatal(err)
	}
	lease, ok := c.CacheCl.Lease(0)
	if !ok || lease.Epoch < 2 {
		t.Fatalf("reattach lease = %+v, want fresh epoch >= 2", lease)
	}
	if err := cli.WriteFile("/fresh.bin", make([]byte, 8<<10), 0o644); err != nil {
		t.Fatal(err)
	}
	f2, err := cli.Open("/fresh.bin", vfs.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	f2.Sync()
	f2.Close()
	after := svcClock.Stats()
	if after.Puts == 0 {
		t.Fatal("no publishes accepted after reattach")
	}
}

package cachesvc

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/sim"
)

// ownersOf returns the owner node ids of key's shard.
func ownersOf(svc *Service, key Key) []int {
	return svc.Placement().Owners[svc.ShardOf(key)]
}

// testKeys builds n deterministic keys with enough suffix entropy to
// spread across shards (short sequential suffixes clump on the ring).
func testKeys(prefix string, n int) []Key {
	r := sim.NewRand(hash64(prefix))
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = ChunkKey(blobstore.Ref(fmt.Sprintf("%s-%016x", prefix, r.Uint64())))
	}
	return keys
}

// sumNodeFenced sums the per-node fenced-write counters.
func sumNodeFenced(svc *Service) int64 {
	var sum int64
	for _, ns := range svc.NodeStats() {
		sum += ns.FencedWrites
	}
	return sum
}

// TestFencingMatrixPerReplica is the per-replica fencing pin: across
// replication configurations, a stale-epoch write and an expired-lease
// write are both dropped on the primary AND every replica — the value
// lands on no copy, the service-level counter stays mutation-granular,
// and each hosting node counts its own drop (per-node sum = mutations
// x copies).
func TestFencingMatrixPerReplica(t *testing.T) {
	cases := []struct{ nodes, replicas int }{
		{1, 0}, // the single-node reference
		{2, 1},
		{3, 1},
		{3, 2},
		{4, 2},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("nodes=%d_replicas=%d", tc.nodes, tc.replicas), func(t *testing.T) {
			clock := sim.NewClock()
			svc := New(Options{Nodes: tc.nodes, Replicas: tc.replicas, Clock: clock})
			key := ChunkKey("fencing-matrix")
			copies := tc.replicas + 1
			if got := len(ownersOf(svc, key)); got != copies {
				t.Fatalf("shard has %d owners, want %d", got, copies)
			}

			// Stale epoch: a newer Acquire supersedes the first grant.
			old, err := svc.Acquire("m", svc.GroupOf(key))
			if err != nil {
				t.Fatal(err)
			}
			cur, err := svc.Acquire("m", svc.GroupOf(key))
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Put(old, key, []byte("stale")); err != ErrFenced {
				t.Fatalf("stale-epoch put: got %v, want ErrFenced", err)
			}
			// Dropped on every copy: no node serves it, by any route.
			if svc.Contains(key) {
				t.Fatal("stale write landed on some copy")
			}
			for _, id := range ownersOf(svc, key) {
				if _, ok, _, err := svc.NodeGet(id, svc.PlacementVersion(), key); err != nil || ok {
					t.Fatalf("node %d: stale write visible (ok=%v err=%v)", id, ok, err)
				}
			}

			// Expired lease: the current grant ages past its deadline.
			clock.Advance(10 * time.Second)
			if err := svc.Put(cur, key, []byte("expired")); err != ErrFenced {
				t.Fatalf("expired-lease put: got %v, want ErrFenced", err)
			}
			if svc.Contains(key) {
				t.Fatal("expired write landed on some copy")
			}

			st := svc.Stats()
			if st.FencedWrites != 2 {
				t.Fatalf("Stats.FencedWrites = %d, want 2 (mutation-granular)", st.FencedWrites)
			}
			if st.Expirations != 1 {
				t.Fatalf("Expirations = %d, want 1", st.Expirations)
			}
			// Per-node: each of the shard's copies counted each drop.
			if got, want := sumNodeFenced(svc), int64(2*copies); got != want {
				t.Fatalf("per-node fenced sum = %d, want %d (2 mutations x %d copies)", got, want, copies)
			}
			for _, ns := range svc.NodeStats() {
				want := int64(0)
				if containsInt(ownersOf(svc, key), ns.ID) {
					want = 2
				}
				if ns.FencedWrites != want {
					t.Fatalf("node %d: FencedWrites = %d, want %d", ns.ID, ns.FencedWrites, want)
				}
			}

			// A fresh grant writes through to every copy.
			fresh, err := svc.Acquire("m", svc.GroupOf(key))
			if err != nil {
				t.Fatal(err)
			}
			if err := svc.Put(fresh, key, []byte("good")); err != nil {
				t.Fatalf("fresh put: %v", err)
			}
			for _, id := range ownersOf(svc, key) {
				v, ok, hops, err := svc.NodeGet(id, svc.PlacementVersion(), key)
				if err != nil || !ok || hops != 0 || !bytes.Equal(v, []byte("good")) {
					t.Fatalf("node %d: fresh write not replicated (ok=%v hops=%d err=%v)", id, ok, hops, err)
				}
			}
		})
	}
}

// TestReplicatedWriteVisibleOnEveryCopy pins the write path's fan-out: a
// write lands on exactly R+1 copies, and a read addressed at any owner
// finds it there, with no hop to another node.
func TestReplicatedWriteVisibleOnEveryCopy(t *testing.T) {
	svc := New(Options{Nodes: 3, Replicas: 2})
	key := ChunkKey("replicated")
	l, err := svc.Acquire("m", svc.GroupOf(key))
	if err != nil {
		t.Fatal(err)
	}
	copies, err := svc.NodePut(ownersOf(svc, key)[0], svc.PlacementVersion(), l, key, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if copies != 3 {
		t.Fatalf("write landed on %d copies, want 3", copies)
	}
	for _, id := range ownersOf(svc, key) {
		v, ok, hops, err := svc.NodeGet(id, svc.PlacementVersion(), key)
		if err != nil || !ok || hops != 0 || !bytes.Equal(v, []byte("v")) {
			t.Fatalf("node %d: write not visible (ok=%v hops=%d err=%v)", id, ok, hops, err)
		}
	}
}

// TestMigrationFallthroughNoMissStorm pins the handoff guarantee: after
// AddNode flips ownership, lookups during the migration fall through
// from the incomplete new copies to the old complete ones and stay hits
// — no miss storm — whether the handoff has not started (the sole-owner
// row) or is being stepped between the reads (the replicated row), and
// the pull-copy plus MigrateAll converge the new copies, after which the
// old owner's stores are dropped. Placement of a fixed key set is
// arithmetic, so the shards moved, the entries copied and the lookups
// that fell through are pinned.
func TestMigrationFallthroughNoMissStorm(t *testing.T) {
	seeded := make([]Key, 512)
	r := sim.NewRand(1)
	for i := range seeded {
		seeded[i] = ChunkKey(blobstore.Ref(fmt.Sprintf("bench-%016x", r.Uint64())))
	}
	for _, row := range []struct {
		name      string
		opts      Options
		keys      []Key
		stepEvery int // MigrateStep(4) after every stepEvery-th read; 0: never
		moved     int64
		copied    int64
		fellThru  int64
	}{
		{"sole-owner", Options{Nodes: 1}, testKeys("mig", 64), 0, 6, 25, 25},
		{"replicated-stepped", Options{Nodes: 3, Replicas: 1}, seeded, 8, 6, 192, 33},
	} {
		svc := New(row.opts)
		vals := make(map[Key][]byte)
		for i, k := range row.keys {
			vals[k] = []byte(fmt.Sprintf("val-%d", i))
			svc.Seed(k, vals[k])
		}
		base := svc.Stats()

		svc.AddNode()
		for i, k := range row.keys {
			if _, ok := svc.Get(k); !ok {
				t.Fatalf("%s: miss on %q during handoff — miss storm", row.name, k)
			}
			if row.stepEvery > 0 && i%row.stepEvery == 0 {
				svc.MigrateStep(4)
			}
		}
		if st := svc.Stats(); st.Misses != base.Misses {
			t.Fatalf("%s: handoff produced %d misses", row.name, st.Misses-base.Misses)
		}

		svc.MigrateAll()
		if err := svc.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		ms := svc.MigrationStats()
		if ms.MigratingShards != 0 || ms.PendingEntries != 0 {
			t.Fatalf("%s: migration did not settle: %+v", row.name, ms)
		}
		if ms.ShardsMoved != row.moved || ms.EntriesCopied != row.copied || ms.FallthroughHits != row.fellThru {
			t.Fatalf("%s: shards moved / entries copied / fallthrough hits = %d/%d/%d, want %d/%d/%d",
				row.name, ms.ShardsMoved, ms.EntriesCopied, ms.FallthroughHits,
				row.moved, row.copied, row.fellThru)
		}
		// Node 0 keeps only what it still owns; moved shards are gone.
		for _, ns := range svc.NodeStats() {
			if ns.ID == 0 && int64(ns.Shards) >= int64(svc.NumShards()) {
				t.Fatalf("%s: node 0 still holds %d shards after settle", row.name, ns.Shards)
			}
		}
		for _, k := range row.keys {
			v, ok := svc.Get(k)
			if !ok || !bytes.Equal(v, vals[k]) {
				t.Fatalf("%s: post-settle read of %q wrong (ok=%v)", row.name, k, ok)
			}
		}
	}
}

// TestKillNodeKeepsReplicatedData pins failure recovery: with R=1,
// killing one node loses no cached data (a surviving copy serves every
// key), MigrateAll restores full replication on the survivors, and
// LostShards stays zero.
func TestKillNodeKeepsReplicatedData(t *testing.T) {
	svc := New(Options{Nodes: 3, Replicas: 1})
	keys := testKeys("kill", 96)
	for i, k := range keys {
		svc.Seed(k, []byte(fmt.Sprintf("v-%d", i)))
	}
	if err := svc.KillNode(1); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, ok := svc.Get(k); !ok {
			t.Fatalf("key %q lost after single-node failure at R=1", k)
		}
	}
	svc.MigrateAll()
	if err := svc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	info := svc.Placement()
	for sh, owners := range info.Owners {
		if len(owners) != 2 {
			t.Fatalf("shard %d: %d owners after re-replication, want 2", sh, len(owners))
		}
		if containsInt(owners, 1) {
			t.Fatalf("shard %d still placed on dead node 1", sh)
		}
	}
	if ms := svc.MigrationStats(); ms.LostShards != 0 {
		t.Fatalf("LostShards = %d, want 0", ms.LostShards)
	}

	// Error paths of the topology API.
	if err := svc.KillNode(1); err != ErrNodeDown {
		t.Fatalf("double kill: got %v, want ErrNodeDown", err)
	}
	if err := svc.KillNode(99); err != ErrUnknownNode {
		t.Fatalf("unknown node: got %v, want ErrUnknownNode", err)
	}
}

// TestDrainNodeHandsOffEverything pins the drain path: a drained node
// keeps serving until migration completes, then holds nothing; the
// last eligible node refuses to drain.
func TestDrainNodeHandsOffEverything(t *testing.T) {
	svc := New(Options{Nodes: 2, Replicas: 0})
	keys := testKeys("drain", 48)
	for _, k := range keys {
		svc.Seed(k, []byte("x"))
	}
	if err := svc.DrainNode(0); err != nil {
		t.Fatal(err)
	}
	// Mid-drain: everything still served (fallthrough to node 0).
	for _, k := range keys {
		if _, ok := svc.Get(k); !ok {
			t.Fatalf("key %q missed mid-drain", k)
		}
	}
	svc.MigrateAll()
	if ns := svc.NodeStats()[0]; ns.Shards != 0 || ns.Entries != 0 {
		t.Fatalf("drained node still holds %d shards / %d entries", ns.Shards, ns.Entries)
	}
	for _, k := range keys {
		if _, ok := svc.Get(k); !ok {
			t.Fatalf("key %q lost by drain", k)
		}
	}
	if err := svc.DrainNode(1); err != ErrLastNode {
		t.Fatalf("draining last eligible node: got %v, want ErrLastNode", err)
	}
}

// TestLeaseEpochSurvivesMigration pins the tentpole's lease guarantee:
// an epoch granted before a topology change keeps admitting writes
// after placement flips and data moves — leases are control-plane
// state, orthogonal to migration.
func TestLeaseEpochSurvivesMigration(t *testing.T) {
	svc := New(Options{Nodes: 2, Replicas: 1})
	key := ChunkKey("lease-survives")
	l, err := svc.Acquire("m", svc.GroupOf(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Put(l, key, []byte("before")); err != nil {
		t.Fatal(err)
	}
	svc.AddNode()
	svc.AddNode()
	svc.MigrateAll()
	if err := svc.KillNode(0); err != nil {
		t.Fatal(err)
	}
	svc.MigrateAll()
	if err := svc.Put(l, key, []byte("after")); err != nil {
		t.Fatalf("pre-migration epoch rejected after topology churn: %v", err)
	}
	if v, ok := svc.Get(key); !ok || !bytes.Equal(v, []byte("after")) {
		t.Fatalf("post-churn write not visible (ok=%v)", ok)
	}
}

// TestNodeAddressedCallsRejectStaleVersion pins the ErrMoved contract
// of the node-addressed data plane.
func TestNodeAddressedCallsRejectStaleVersion(t *testing.T) {
	svc := New(Options{Nodes: 2, Replicas: 0})
	key := ChunkKey("moved")
	l, err := svc.Acquire("m", svc.GroupOf(key))
	if err != nil {
		t.Fatal(err)
	}
	stale := svc.PlacementVersion()
	svc.AddNode() // bumps the version
	if _, _, _, err := svc.NodeGet(0, stale, key); err != ErrMoved {
		t.Fatalf("NodeGet with stale version: got %v, want ErrMoved", err)
	}
	if _, err := svc.NodePut(0, stale, l, key, []byte("v")); err != ErrMoved {
		t.Fatalf("NodePut with stale version: got %v, want ErrMoved", err)
	}
	// A dead target is also a routing error, not a data error.
	svc.MigrateAll()
	if err := svc.KillNode(0); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := svc.NodeGet(0, svc.PlacementVersion(), key); err != ErrMoved {
		t.Fatalf("NodeGet at dead node: got %v, want ErrMoved", err)
	}
}

// TestStatsPerNodeSplit pins the satellite fix: hit/miss counters are
// attributable per node and Stats()/HitRatio() stay exact at the
// aggregate.
func TestStatsPerNodeSplit(t *testing.T) {
	svc := New(Options{Nodes: 3, Replicas: 0})
	keys := testKeys("split", 60)
	for _, k := range keys {
		svc.Seed(k, []byte("y"))
	}
	for _, k := range keys {
		svc.Get(k)                                            // hit
		svc.Get(ChunkKey(blobstore.Ref(k.name + "-missing"))) // miss
	}
	st := svc.Stats()
	if st.Hits != 60 || st.Misses != 60 {
		t.Fatalf("aggregate hits/misses = %d/%d, want 60/60", st.Hits, st.Misses)
	}
	if got := st.HitRatio(); got != 0.5 {
		t.Fatalf("HitRatio = %v, want 0.5", got)
	}
	var hits, misses int64
	nodesServing := 0
	for _, ns := range svc.NodeStats() {
		hits += ns.Hits
		misses += ns.Misses
		if ns.Hits > 0 {
			nodesServing++
		}
	}
	if hits != st.Hits || misses != st.Misses {
		t.Fatalf("per-node sum %d/%d != aggregate %d/%d", hits, misses, st.Hits, st.Misses)
	}
	if nodesServing < 2 {
		t.Fatalf("only %d node(s) served hits — placement did not spread the keys", nodesServing)
	}
}

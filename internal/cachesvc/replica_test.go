package cachesvc

import (
	"bytes"
	"fmt"
	"slices"
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
				if _, ok, err := svc.NodeGet(id, svc.PlacementVersion(), key); err != nil || ok {
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
				if slices.Contains(ownersOf(svc, key), ns.ID) {
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
				v, ok, err := svc.NodeGet(id, svc.PlacementVersion(), key)
				if err != nil || !ok || !bytes.Equal(v, []byte("good")) {
					t.Fatalf("node %d: fresh write not replicated (ok=%v err=%v)", id, ok, err)
				}
			}
		})
	}
}

// TestReplicatedWriteVisibleOnEveryCopy pins the write path's fan-out: a
// write lands on exactly R+1 copies, and a read addressed at any owner
// finds it there.
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
		v, ok, err := svc.NodeGet(id, svc.PlacementVersion(), key)
		if err != nil || !ok || !bytes.Equal(v, []byte("v")) {
			t.Fatalf("node %d: write not visible (ok=%v err=%v)", id, ok, err)
		}
	}
}

// TestKillNodeKeepsReplicatedData pins failure recovery. With R=1,
// killing one node loses no cached data: before KillNode returns, every
// shard it owned is back at two complete copies on the survivors. With
// R=0 the shards the dead node owned lose their only copy: each counts
// in LostShards and their keys miss. Placement of a fixed key set is
// arithmetic, so both counts are pinned.
func TestKillNodeKeepsReplicatedData(t *testing.T) {
	for _, row := range []struct {
		name         string
		opts         Options
		lost, misses int64
	}{
		{"R=1", Options{Nodes: 3, Replicas: 1}, 0, 0},
		{"R=0", Options{Nodes: 2, Replicas: 0}, 6, 35},
	} {
		svc := New(row.opts)
		keys := testKeys("kill", 96)
		for i, k := range keys {
			svc.Seed(k, []byte(fmt.Sprintf("v-%d", i)))
		}
		if err := svc.KillNode(1); err != nil {
			t.Fatal(err)
		}
		if err := svc.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		var misses int64
		for i, k := range keys {
			v, ok := svc.Get(k)
			if !ok {
				misses++
			} else if string(v) != fmt.Sprintf("v-%d", i) {
				t.Fatalf("%s: key %q reads %q after the kill", row.name, k, v)
			}
		}
		if lost := svc.Stats().LostShards; lost != row.lost || misses != row.misses {
			t.Fatalf("%s: %d lost shards and %d of %d keys missing, want %d and %d",
				row.name, lost, misses, len(keys), row.lost, row.misses)
		}
		for sh, owners := range svc.Placement().Owners {
			if len(owners) != row.opts.Replicas+1 || slices.Contains(owners, 1) {
				t.Fatalf("%s: shard %d owned by %v after the kill, want %d live owners",
					row.name, sh, owners, row.opts.Replicas+1)
			}
		}

		// Error paths of KillNode.
		if err := svc.KillNode(1); err != ErrNodeDown {
			t.Fatalf("%s: double kill: got %v, want ErrNodeDown", row.name, err)
		}
		if err := svc.KillNode(99); err != ErrUnknownNode {
			t.Fatalf("%s: unknown node: got %v, want ErrUnknownNode", row.name, err)
		}
	}
}

// TestLeaseEpochSurvivesMigration pins the lease guarantee across
// kills: an epoch granted before two nodes die keeps admitting writes
// after their shards are re-placed and copied — leases are control-plane
// state, orthogonal to placement.
func TestLeaseEpochSurvivesMigration(t *testing.T) {
	svc := New(Options{Nodes: 3, Replicas: 1})
	key := ChunkKey("lease-survives")
	l, err := svc.Acquire("m", svc.GroupOf(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Put(l, key, []byte("before")); err != nil {
		t.Fatal(err)
	}
	for _, id := range ownersOf(svc, key) {
		if err := svc.KillNode(id); err != nil {
			t.Fatal(err)
		}
	}
	if v, ok := svc.Get(key); !ok || !bytes.Equal(v, []byte("before")) {
		t.Fatalf("pre-kill write lost across two kills (ok=%v)", ok)
	}
	if err := svc.Put(l, key, []byte("after")); err != nil {
		t.Fatalf("pre-kill epoch rejected after two kills: %v", err)
	}
	if v, ok := svc.Get(key); !ok || !bytes.Equal(v, []byte("after")) {
		t.Fatalf("post-kill write not visible (ok=%v)", ok)
	}
}

// TestNodeAddressedCallsRejectStaleVersion pins the ErrMoved contract
// of the node-addressed data plane.
func TestNodeAddressedCallsRejectStaleVersion(t *testing.T) {
	svc := New(Options{Nodes: 3, Replicas: 0})
	key := ChunkKey("moved")
	l, err := svc.Acquire("m", svc.GroupOf(key))
	if err != nil {
		t.Fatal(err)
	}
	primary := ownersOf(svc, key)[0]
	stale := svc.PlacementVersion()
	if err := svc.KillNode((primary + 1) % 3); err != nil { // bumps the version
		t.Fatal(err)
	}
	if _, _, err := svc.NodeGet(primary, stale, key); err != ErrMoved {
		t.Fatalf("NodeGet with stale version: got %v, want ErrMoved", err)
	}
	if _, err := svc.NodePut(primary, stale, l, key, []byte("v")); err != ErrMoved {
		t.Fatalf("NodePut with stale version: got %v, want ErrMoved", err)
	}
	// A dead target is also a routing error, not a data error.
	if err := svc.KillNode(primary); err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.NodeGet(primary, svc.PlacementVersion(), key); err != ErrMoved {
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

package cachesvc

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"cntr/internal/blobstore"
	"cntr/internal/sim"
)

// ownersOf returns the owner node ids of key's shard.
func ownersOf(svc *Service, key Key) []int {
	return svc.Placement().Owners[svc.ShardOf(key)]
}

// copyOn returns what node id's copy of key's shard holds under key,
// touching no counter and no LRU order.
func copyOn(svc *Service, id int, key Key) ([]byte, bool) {
	svc.topo.RLock()
	defer svc.topo.RUnlock()
	v, ok := svc.nodes[id].stores[svc.ShardOf(key)].dump()[key]
	return v, ok
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
// replication configurations, a stale-epoch write and a released-lease
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
			svc := New(Options{Nodes: tc.nodes, Replicas: tc.replicas})
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
			if _, err := svc.Put(old, key, []byte("stale")); err != ErrFenced {
				t.Fatalf("stale-epoch put: got %v, want ErrFenced", err)
			}
			// Dropped on every copy.
			if svc.Contains(key) {
				t.Fatal("stale write landed on some copy")
			}

			// Released lease: the service revokes the current grant.
			if err := svc.Release(cur); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Put(cur, key, []byte("released")); err != ErrFenced {
				t.Fatalf("released-lease put: got %v, want ErrFenced", err)
			}
			if svc.Contains(key) {
				t.Fatal("released write landed on some copy")
			}

			st := svc.Stats()
			if st.FencedWrites != 2 {
				t.Fatalf("Stats.FencedWrites = %d, want 2 (mutation-granular)", st.FencedWrites)
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
			if _, err := svc.Put(fresh, key, []byte("good")); err != nil {
				t.Fatalf("fresh put: %v", err)
			}
			for _, id := range ownersOf(svc, key) {
				if v, ok := copyOn(svc, id, key); !ok || !bytes.Equal(v, []byte("good")) {
					t.Fatalf("node %d: fresh write not replicated (ok=%v)", id, ok)
				}
			}
		})
	}
}

// TestReplicatedWriteVisibleOnEveryCopy pins the write path's fan-out: a
// write lands on exactly R+1 copies, reports that count, and every
// owner's copy holds it.
func TestReplicatedWriteVisibleOnEveryCopy(t *testing.T) {
	svc := New(Options{Nodes: 3, Replicas: 2})
	key := ChunkKey("replicated")
	l, err := svc.Acquire("m", svc.GroupOf(key))
	if err != nil {
		t.Fatal(err)
	}
	copies, err := svc.Put(l, key, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if copies != 3 {
		t.Fatalf("write landed on %d copies, want 3", copies)
	}
	for _, id := range ownersOf(svc, key) {
		if v, ok := copyOn(svc, id, key); !ok || !bytes.Equal(v, []byte("v")) {
			t.Fatalf("node %d: write not visible (ok=%v)", id, ok)
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
			seed(svc, k, []byte(fmt.Sprintf("v-%d", i)))
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
	if _, err := svc.Put(l, key, []byte("before")); err != nil {
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
	if _, err := svc.Put(l, key, []byte("after")); err != nil {
		t.Fatalf("pre-kill epoch rejected after two kills: %v", err)
	}
	if v, ok := svc.Get(key); !ok || !bytes.Equal(v, []byte("after")) {
		t.Fatalf("post-kill write not visible (ok=%v)", ok)
	}
}

// TestStatsPerNodeSplit pins the satellite fix: hit/miss counters are
// attributable per node and Stats()/HitRatio() stay exact at the
// aggregate.
func TestStatsPerNodeSplit(t *testing.T) {
	svc := New(Options{Nodes: 3, Replicas: 0})
	keys := testKeys("split", 60)
	for _, k := range keys {
		seed(svc, k, []byte("y"))
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

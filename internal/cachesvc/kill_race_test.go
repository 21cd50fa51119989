package cachesvc

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cntr/internal/sim"
)

// raceLoad starts workers goroutines driving Get/Put/Seed/Acquire/
// Contains traffic over keys, all of which the caller has seeded. A Get
// must hit throughout: nothing is evicted or invalidated, and a kill
// re-replicates before it returns, so no reader meets a half-filled
// copy. stop ends the load and waits for the workers.
func raceLoad(t *testing.T, svc *Service, keys []Key, workers int) (ops *atomic.Int64, stop func()) {
	ops = new(atomic.Int64)
	var halt atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := sim.NewRand(uint64(w + 1))
			mount := fmt.Sprintf("racer-%d", w)
			leases := make(map[int]Lease)
			for g := 0; g < svc.NumGroups(); g++ {
				l, err := svc.Acquire(mount, g)
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				leases[g] = l
			}
			for !halt.Load() {
				k := keys[r.Intn(len(keys))]
				switch r.Intn(10) {
				case 0, 1, 2, 3:
					if _, ok := svc.Get(k); !ok {
						t.Errorf("key %q missed under load", k)
						return
					}
				case 4, 5, 6:
					l := leases[svc.GroupOf(k)]
					if err := svc.Put(l, k, []byte(mount)); err != nil && err != ErrFenced {
						t.Errorf("put: unexpected error %v", err)
						return
					}
				case 7:
					svc.Seed(k, []byte("reseed"))
				case 8:
					g := r.Intn(svc.NumGroups())
					l, err := svc.Acquire(mount, g)
					if err != nil {
						t.Errorf("re-acquire: %v", err)
						return
					}
					leases[g] = l
				default:
					svc.Contains(k)
				}
				ops.Add(1)
			}
		}(w)
	}
	return ops, func() {
		halt.Store(true)
		wg.Wait()
	}
}

// killUnderLoad kills ids in order, each after a fresh batch of ops, so
// every kill lands while the workers are mid-stream and the workers run
// on after the last. It returns early once the test has failed.
func killUnderLoad(t *testing.T, svc *Service, ops *atomic.Int64, ids []int) {
	const batch = 5000
	for i, id := range ids {
		for ops.Load() < int64(i+1)*batch && !t.Failed() {
			runtime.Gosched()
		}
		if err := svc.KillNode(id); err != nil {
			t.Errorf("kill %d: %v", id, err)
			return
		}
	}
	for ops.Load() < int64(len(ids)+1)*batch && !t.Failed() {
		runtime.Gosched()
	}
}

// seededKeys returns n keys, each seeded into svc.
func seededKeys(svc *Service, prefix string, n int) []Key {
	keys := testKeys(prefix, n)
	for _, k := range keys {
		svc.Seed(k, []byte("seed"))
	}
	return keys
}

// TestKillRaceUnderLoad kills nodes until two are left while several
// goroutines drive data ops. Run under -race in CI; the assertions are
// liveness (ops completed), legality (only the documented error
// classes), the replica-agreement invariant, and that no kill lost a
// seeded key: with R=1 every kill re-replicates from a surviving copy
// before it returns. The cold keys are ones the load never rewrites, so
// only the kill's copy can put them on a new owner.
func TestKillRaceUnderLoad(t *testing.T) {
	svc := New(Options{Nodes: 5, Replicas: 1, ShardCapacity: 1 << 30})
	keys := seededKeys(svc, "race", 128)
	cold := seededKeys(svc, "race-cold", 128)
	ops, stop := raceLoad(t, svc, keys, 8)
	killUnderLoad(t, svc, ops, []int{3, 0, 4})
	stop()
	if t.Failed() {
		return
	}

	if err := svc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	for _, k := range append(keys, cold...) {
		if _, ok := svc.Get(k); !ok {
			t.Fatalf("key %q lost across the kills", k)
		}
	}
	if lost := svc.Stats().LostShards; lost != 0 {
		t.Fatalf("LostShards = %d, want 0", lost)
	}
}

// TestMigrationRaceUnderLoad pins the shard moves a kill makes while
// data ops race it: the shards a killed node owned are re-placed, every
// other shard keeps its owners, and each live node ends holding exactly
// the copies the placement gives it.
func TestMigrationRaceUnderLoad(t *testing.T) {
	svc := New(Options{Nodes: 4, Replicas: 1, ShardCapacity: 1 << 30})
	keys := seededKeys(svc, "race", 128)
	before := svc.Placement()
	kills := []int{2, 0}
	ops, stop := raceLoad(t, svc, keys, 8)
	killUnderLoad(t, svc, ops, kills)
	stop()
	if t.Failed() {
		return
	}

	if err := svc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	after := svc.Placement()
	if want := before.Version + uint64(len(kills)); after.Version != want {
		t.Fatalf("placement version %d after %d kills, want %d", after.Version, len(kills), want)
	}
	moved := 0
	held := make([]int, len(after.Live))
	for sh, owners := range after.Owners {
		for _, o := range owners {
			held[o]++
		}
		if slices.Equal(owners, before.Owners[sh]) {
			continue
		}
		moved++
		if !slices.ContainsFunc(before.Owners[sh], func(o int) bool { return slices.Contains(kills, o) }) {
			t.Fatalf("shard %d moved %v -> %v but no killed node owned it", sh, before.Owners[sh], owners)
		}
	}
	if moved == 0 {
		t.Fatal("the kills moved no shards")
	}
	for _, ns := range svc.NodeStats() {
		if ns.Shards != held[ns.ID] {
			t.Fatalf("node %d holds %d shard copies, placement gives it %d", ns.ID, ns.Shards, held[ns.ID])
		}
	}
}

// TestDrainRaceUnderLoad kills two of four nodes while readers and
// lease-guarded writers run, then checks that the killed nodes end empty
// and that every key survives on exactly R+1 copies: none lost, none
// left behind on a node that no longer owns its shard. The cold keys
// are ones the load never rewrites, so only the kill's copy can put
// them on a new owner.
func TestDrainRaceUnderLoad(t *testing.T) {
	svc := New(Options{Nodes: 4, Replicas: 1, ShardCapacity: 1 << 30})
	hot := seededKeys(svc, "drain-race", 128)
	keys := append(seededKeys(svc, "drain-cold", 128), hot...)
	ops, stop := raceLoad(t, svc, hot, 6)
	killUnderLoad(t, svc, ops, []int{1, 3})
	stop()
	if t.Failed() {
		return
	}

	if err := svc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	var entries int64
	for _, ns := range svc.NodeStats() {
		if !ns.Live && (ns.Shards != 0 || ns.Entries != 0) {
			t.Fatalf("killed node %d still holds %d shards, %d entries", ns.ID, ns.Shards, ns.Entries)
		}
		entries += ns.Entries
	}
	if want := int64(len(keys) * 2); entries != want {
		t.Fatalf("%d entries across the live nodes, want %d (2 copies of %d keys)", entries, want, len(keys))
	}
	for _, k := range keys {
		if _, ok := svc.Get(k); !ok {
			t.Fatalf("key %q lost across the kills", k)
		}
	}
}

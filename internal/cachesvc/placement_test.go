package cachesvc

import (
	"fmt"
	"slices"
	"testing"

	"cntr/internal/sim"
)

// PlacementInfo is the layout tests observe: for each shard the owning
// node ids (primary first), which nodes are live, and the placement
// version.
type PlacementInfo struct {
	Version uint64
	Owners  [][]int
	Live    []bool
}

// Placement returns the current layout.
func (s *Service) Placement() PlacementInfo {
	s.topo.RLock()
	defer s.topo.RUnlock()
	info := PlacementInfo{
		Version: s.Version(),
		Owners:  make([][]int, len(s.placement)),
		Live:    make([]bool, len(s.nodes)),
	}
	for sh, owners := range s.placement {
		info.Owners[sh] = slices.Clone(owners)
	}
	for i, nd := range s.nodes {
		info.Live[i] = nd.live
	}
	return info
}

// liveNodes returns ids of live nodes.
func liveNodes(svc *Service) []int {
	var out []int
	for _, ns := range svc.NodeStats() {
		if ns.Live {
			out = append(out, ns.ID)
		}
	}
	return out
}

// checkCovering asserts the structural placement invariants: every
// shard has min(R+1, live) distinct owners, all of them live.
func checkCovering(t *testing.T, svc *Service, replicas int) {
	t.Helper()
	info := svc.Placement()
	live := liveNodes(svc)
	want := min(replicas+1, len(live))
	for sh, owners := range info.Owners {
		if len(owners) != want {
			t.Fatalf("shard %d: %d owners, want %d (live=%d)", sh, len(owners), want, len(live))
		}
		seen := make(map[int]bool)
		for _, id := range owners {
			if seen[id] {
				t.Fatalf("shard %d: duplicate owner %d", sh, id)
			}
			seen[id] = true
			if !slices.Contains(live, id) {
				t.Fatalf("shard %d: owner %d is dead", sh, id)
			}
		}
	}
}

// TestPlacementProperties is the 20-seed property pin on the
// rendezvous placement: deterministic (a twin service replaying the
// same kills computes the identical table), covering (every shard keeps
// min(R+1, live) distinct live owners), and minimal-movement — a kill
// only remaps shards the dead node owned, with the survivors' order
// preserved.
func TestPlacementProperties(t *testing.T) {
	const shards = 256
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := sim.NewRand(seed)
			replicas := r.Intn(3)
			opts := Options{Shards: shards, Nodes: replicas + 1 + r.Intn(5), Replicas: replicas}
			svc := New(opts)
			var kills []int
			checkCovering(t, svc, replicas)

			for live := liveNodes(svc); len(live) > replicas+1; live = liveNodes(svc) {
				before := svc.Placement()
				dead := live[r.Intn(len(live))]
				if err := svc.KillNode(dead); err != nil {
					t.Fatal(err)
				}
				kills = append(kills, dead)
				checkCovering(t, svc, replicas)
				after := svc.Placement()

				for sh := range after.Owners {
					if !slices.Contains(before.Owners[sh], dead) {
						if !slices.Equal(after.Owners[sh], before.Owners[sh]) {
							t.Fatalf("shard %d not owned by killed node %d was remapped: %v -> %v",
								sh, dead, before.Owners[sh], after.Owners[sh])
						}
						continue
					}
					// Owned shards: the dead node drops out, survivors keep
					// order, one replacement may join at the tail.
					survivors := slices.DeleteFunc(slices.Clone(before.Owners[sh]),
						func(id int) bool { return id == dead })
					if !slices.Equal(survivors, after.Owners[sh][:len(survivors)]) {
						t.Fatalf("shard %d: kill disturbed survivors: %v -> %v",
							sh, before.Owners[sh], after.Owners[sh])
					}
				}
			}

			// Determinism: a twin replaying the same kills computes the
			// identical placement at the same version.
			twin := New(opts)
			for _, id := range kills {
				if err := twin.KillNode(id); err != nil {
					t.Fatal(err)
				}
			}
			a, b := svc.Placement(), twin.Placement()
			if a.Version != b.Version {
				t.Fatalf("twin placement version %d != %d", b.Version, a.Version)
			}
			for sh := range a.Owners {
				if !slices.Equal(a.Owners[sh], b.Owners[sh]) {
					t.Fatalf("twin shard %d placement %v != %v", sh, b.Owners[sh], a.Owners[sh])
				}
			}
		})
	}
}

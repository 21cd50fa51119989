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
// interleaves revoked leases, superseded epochs and node kills (each
// configuration can lose every node but one). The aggregate coverage
// assertions make sure the equivalence was earned — the runs actually
// hit, fenced writes under both a superseded and a revoked grant, and
// killed nodes.
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
				total.StaleFenced += res.StaleFenced
				total.RevokedFenced += res.RevokedFenced
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
	if total.StaleFenced == 0 {
		t.Error("workloads never fenced a stale-epoch write — per-replica fencing untested")
	}
	if total.RevokedFenced == 0 {
		t.Error("workloads never fenced a write under a revoked lease — release untested")
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
	if res.Kills == 0 || res.StaleFenced == 0 || res.RevokedFenced == 0 {
		t.Errorf("long run under-covered: kills=%d stale fenced=%d revoked fenced=%d",
			res.Kills, res.StaleFenced, res.RevokedFenced)
	}
}

// TestDifferentialClientRouting runs the differential through
// cachecl, with its leases and the placement version it last saw,
// instead of addressing the service directly. Lookup outcomes, value
// bytes, and client-side fenced counts must match the reference client
// attached to the single-node service, while nodes die under the
// replicated client (each kill moves the version, and the moves the
// client pays for are asserted to happen).
func TestDifferentialClientRouting(t *testing.T) {
	model := sim.DefaultCostModel()

	repSvc := cachesvc.New(cachesvc.Options{Nodes: 3, Replicas: 1, ShardCapacity: 1 << 30})
	refSvc := cachesvc.New(cachesvc.Options{ShardCapacity: 1 << 30})
	repClock, refClock := sim.NewClock(), sim.NewClock()
	repCl := cachecl.New(repSvc, "m0", repClock, model)
	refCl := cachecl.New(refSvc, "m0", refClock, model)
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
			rep0, ref0, moves0 := repClock.Now(), refClock.Now(), repCl.Stats().Moves
			repErr := repCl.PutAttr(path(ki), val(ki))
			refErr := refCl.PutAttr(path(ki), val(ki))
			if (repErr == nil) != (refErr == nil) {
				t.Fatalf("op %d: PutAttr(%s): replicated err=%v reference err=%v",
					op, path(ki), repErr, refErr)
			}
			// Beyond what the reference paid and a move's refresh, a write
			// pays one more send per replica it landed on: with one
			// replica, at most one.
			moved := time.Duration(repCl.Stats().Moves-moves0) * model.NetRTT
			fanout := repClock.Now() - rep0 - (refClock.Now() - ref0) - moved
			if fanout < 0 || fanout > model.NetCost(len(val(ki))) {
				t.Fatalf("op %d: PutAttr(%s): replicated client paid %v beyond the reference, want at most one more send (%v)",
					op, path(ki), fanout, model.NetCost(len(val(ki))))
			}
		case roll < 880:
			// A client invalidates only chunks (Store.Delete), so an attr
			// is dropped at the service, under the lease its client holds.
			key := cachesvc.AttrKey(path(ki))
			repL, repOK := repCl.Lease(repSvc.GroupOf(key))
			refL, refOK := refCl.Lease(refSvc.GroupOf(key))
			if repOK != refOK {
				t.Fatalf("op %d: lease for %s: replicated held=%v reference held=%v", op, path(ki), repOK, refOK)
			}
			if repOK {
				repErr := repSvc.Invalidate(repL, key)
				refErr := refSvc.Invalidate(refL, key)
				if (repErr == nil) != (refErr == nil) {
					t.Fatalf("op %d: Invalidate: replicated err=%v reference err=%v", op, repErr, refErr)
				}
			}
		case roll < 945: // revoke every held lease at both services
			for g := 0; g < repSvc.NumGroups(); g++ {
				repL, repOK := repCl.Lease(g)
				refL, refOK := refCl.Lease(g)
				if repOK != refOK {
					t.Fatalf("op %d: group %d: replicated held=%v reference held=%v", op, g, repOK, refOK)
				}
				if repOK {
					repErr, refErr := repSvc.Release(repL), refSvc.Release(refL)
					if repErr != refErr {
						t.Fatalf("op %d: release group %d: replicated err=%v reference err=%v", op, g, repErr, refErr)
					}
				}
			}
		case roll < 998: // recover from any fencing symmetrically
			if err := repCl.Attach(); err != nil {
				t.Fatal(err)
			}
			if err := refCl.Attach(); err != nil {
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
		t.Error("topology churned but the replicated client never re-learned the layout — the refresh is untested")
	}
	if refStats.Moves != 0 {
		t.Errorf("reference client saw %d moves on a fixed topology", refStats.Moves)
	}

	// The replicated client's virtual spend differs from the reference
	// (replica fan-out, refresh RTTs) but must stay within the fan-out
	// envelope: no less than the reference spend, since every call it
	// charges the reference charges too, and at most copies (two, with one
	// replica) x the reference spend plus one NetRTT per observed move —
	// not a runaway.
	if repStats.NetBytes == 0 {
		t.Error("replicated client charged no payload bytes")
	}
	ref, rep := refClock.Now(), repClock.Now()
	if ceiling := 2*ref + time.Duration(repStats.Moves)*model.NetRTT; rep < ref || rep > ceiling {
		t.Errorf("replicated client spent %v, want within [%v, %v] (reference %v, %d moves)",
			rep, ref, ceiling, ref, repStats.Moves)
	}
}

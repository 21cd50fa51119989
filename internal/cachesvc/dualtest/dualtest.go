// Package dualtest is the differential consistency harness for the
// replicated cache tier: it runs one randomized workload against two
// services simultaneously — the replicated configuration under test,
// losing nodes as it runs, and the retained single-node reference — and
// asserts that every observable is identical. The replicated tier is
// correct by construction against the reference, not by spot checks: if
// replication, placement, failure handling or per-replica fencing ever
// change an outcome a client could see, some seed diverges and the
// harness names the exact operation.
//
// Compared observables, per operation: lookup and presence-probe
// outcomes (present or not, and the exact bytes) and mutation error
// classification (ok / fenced / wrong-group). Compared at the end:
// aggregate hit, miss, seed and fenced-write counters, the full logical
// store contents, and the replicated tier's internal replica-agreement
// invariant (every owner holds an identical copy, no other node holds
// one).
//
// The workload interleaves, under one deterministic seed: reads and
// presence probes, lease-guarded writes and invalidations, epoch-free
// seeds, writes under deliberately stale (superseded) and expired
// leases, writes under the wrong group's lease, lease re-acquisition and
// renewal, virtual-time advance across the lease TTL, and node kills on
// the replicated side only — the reference, by definition, has no
// topology.
//
// Node failure discipline: a kill is only injected while every shard
// the victim owns has another live owner (Replicas >= 1 and at least two
// nodes live), so the workload never destroys the last copy of a shard
// — cached-entry loss is legitimate cache behaviour but observable (a
// hit becomes a miss), and the point here is to pin the cases that must
// be equivalent. LostShards is asserted zero.
package dualtest

import (
	"bytes"
	"fmt"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/cachesvc"
	"cntr/internal/sim"
)

// Options configures one differential run.
type Options struct {
	// Seed drives every random choice (key selection, op mix, kill
	// timing). Same seed, same run, bit for bit.
	Seed uint64
	// Nodes and Replicas configure the replicated side (the reference
	// is always one node, zero replicas).
	Nodes    int
	Replicas int
	// Ops is the workload length (default 4000).
	Ops int
	// Keys is the key-pool size (default 160).
	Keys int
}

// Result summarizes what one run exercised, so tests can assert the
// workload actually covered the interesting machinery.
type Result struct {
	Ops, Gets, Hits, Puts, Invals, Seeds int
	StaleWrites, ExpiredWrites           int
	WrongGroupWrites                     int
	Fenced                               int64
	Reacquires, Renews, ClockAdvances    int
	Kills                                int
}

type side struct {
	svc    *cachesvc.Service
	clock  *sim.Clock
	leases map[int]cachesvc.Lease
	stale  []cachesvc.Lease // superseded grants, kept to write with
}

func newSide(nodes, replicas, shards, groups int) *side {
	clock := sim.NewClock()
	return &side{
		svc: cachesvc.New(cachesvc.Options{
			Shards:   shards,
			Groups:   groups,
			Nodes:    nodes,
			Replicas: replicas,
			Clock:    clock,
			// Ample capacity: the regime is eviction-free (asserted
			// below). A shard's primary decides its evictions, but after
			// a kill the promoted replica's LRU order is the order its
			// copy was filled and written in, not the reference's, so
			// the two sides may evict different entries.
			ShardCapacity: 1 << 30,
		}),
		clock:  clock,
		leases: make(map[int]cachesvc.Lease),
	}
}

func (sd *side) acquire(group int) error {
	if old, ok := sd.leases[group]; ok {
		sd.stale = append(sd.stale, old)
	}
	l, err := sd.svc.Acquire("dual-mount", group)
	if err != nil {
		return err
	}
	sd.leases[group] = l
	return nil
}

// classify folds a mutation error into the observable classes the two
// sides must agree on.
func classify(err error) string {
	switch err {
	case nil:
		return "ok"
	case cachesvc.ErrFenced:
		return "fenced"
	case cachesvc.ErrWrongGroup:
		return "wronggroup"
	default:
		return fmt.Sprintf("other(%v)", err)
	}
}

// Run executes one differential workload and returns what it covered.
// A non-nil error is a divergence: the replicated tier produced an
// observable the single-node reference did not.
func Run(opts Options) (Result, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 2
	}
	if opts.Replicas < 0 {
		opts.Replicas = 1
	}
	if opts.Ops <= 0 {
		opts.Ops = 4000
	}
	if opts.Keys <= 0 {
		opts.Keys = 160
	}
	const shards, groups = 16, 4

	var res Result
	r := sim.NewRand(opts.Seed)
	rep := newSide(opts.Nodes, opts.Replicas, shards, groups)
	ref := newSide(1, 0, shards, groups)

	for g := 0; g < groups; g++ {
		if err := rep.acquire(g); err != nil {
			return res, fmt.Errorf("replicated acquire: %w", err)
		}
		if err := ref.acquire(g); err != nil {
			return res, fmt.Errorf("reference acquire: %w", err)
		}
	}

	// Key suffixes carry hash entropy: short sequential suffixes clump
	// onto a few ring arcs, which would leave most shards unexercised.
	kr := sim.NewRand(opts.Seed ^ 0x9e3779b97f4a7c15)
	keyPool := make([]cachesvc.Key, opts.Keys)
	for i := range keyPool {
		keyPool[i] = cachesvc.ChunkKey(blobstore.Ref(fmt.Sprintf("dual-%016x", kr.Uint64())))
	}
	key := func(i int) cachesvc.Key { return keyPool[i] }
	val := func(k, generation int) []byte {
		n := 64 + (k*37+generation*11)%192
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(k + generation + i)
		}
		return b
	}
	gen := make([]int, opts.Keys)

	// mutate applies one lease-guarded mutation to both sides and
	// checks the error classes agree. inval selects Invalidate vs Put.
	mutate := func(op int, repL, refL cachesvc.Lease, k cachesvc.Key, v []byte, inval bool) error {
		var repErr, refErr error
		if inval {
			repErr = rep.svc.Invalidate(repL, k)
			refErr = ref.svc.Invalidate(refL, k)
		} else {
			repErr = rep.svc.Put(repL, k, v)
			refErr = ref.svc.Put(refL, k, v)
		}
		if classify(repErr) != classify(refErr) {
			return fmt.Errorf("op %d: mutation of %q: replicated=%s reference=%s",
				op, k, classify(repErr), classify(refErr))
		}
		if classify(repErr) == "fenced" {
			res.Fenced++
		}
		return nil
	}

	for op := 0; op < opts.Ops; op++ {
		ki := r.Intn(opts.Keys)
		k := key(ki)
		group := rep.svc.GroupOf(k)
		roll := r.Intn(1000)
		switch {
		case roll < 350: // read
			res.Gets++
			repVal, repOK := rep.svc.Get(k)
			refVal, refOK := ref.svc.Get(k)
			if repOK != refOK {
				return res, fmt.Errorf("op %d: get %q: replicated ok=%v reference ok=%v",
					op, k, repOK, refOK)
			}
			if repOK {
				res.Hits++
				if !bytes.Equal(repVal, refVal) {
					return res, fmt.Errorf("op %d: get %q: value bytes diverge", op, k)
				}
			}
		case roll < 600: // lease-guarded write with the current grants
			res.Puts++
			gen[ki]++
			v := val(ki, gen[ki])
			if err := mutate(op, rep.leases[group], ref.leases[group], k, v, false); err != nil {
				return res, err
			}
		case roll < 660: // invalidate
			res.Invals++
			if err := mutate(op, rep.leases[group], ref.leases[group], k, nil, true); err != nil {
				return res, err
			}
		case roll < 710: // epoch-free administrative seed
			res.Seeds++
			gen[ki]++
			v := val(ki, gen[ki])
			rep.svc.Seed(k, v)
			ref.svc.Seed(k, v)
		case roll < 770: // write under a superseded epoch: must fence on every copy
			if len(rep.stale) == 0 {
				continue
			}
			res.StaleWrites++
			i := r.Intn(len(rep.stale))
			repL, refL := rep.stale[i], ref.stale[i]
			// The stale lease's group rarely matches this key's group —
			// both sides must then agree on wronggroup instead of fenced.
			if repL.Group != rep.svc.GroupOf(k) {
				res.WrongGroupWrites++
			}
			if err := mutate(op, repL, refL, k, val(ki, gen[ki]), false); err != nil {
				return res, err
			}
		case roll < 820: // advance virtual time (lease aging, expiry chaos)
			res.ClockAdvances++
			// Up to 1.25x the 5s default TTL per step, so expiry lands at,
			// before, and exactly on the deadline across a run.
			step := time.Duration(r.Intn(5)+1) * (5 * time.Second / 4)
			rep.clock.Advance(step)
			ref.clock.Advance(step)
		case roll < 850: // write with whatever grant we hold — possibly expired
			res.ExpiredWrites++
			if err := mutate(op, rep.leases[group], ref.leases[group], k, val(ki, gen[ki]), false); err != nil {
				return res, err
			}
		case roll < 890: // re-acquire one group (stash the superseded grant)
			res.Reacquires++
			g := r.Intn(groups)
			if err := rep.acquire(g); err != nil {
				return res, err
			}
			if err := ref.acquire(g); err != nil {
				return res, err
			}
		case roll < 920: // renew all grants; verdicts must agree
			res.Renews++
			for g := 0; g < groups; g++ {
				repRenewed, repErr := rep.svc.Renew(rep.leases[g])
				refRenewed, refErr := ref.svc.Renew(ref.leases[g])
				if (repErr == nil) != (refErr == nil) {
					return res, fmt.Errorf("op %d: renew group %d: replicated err=%v reference err=%v",
						op, g, repErr, refErr)
				}
				if repErr == nil {
					rep.leases[g], ref.leases[g] = repRenewed, refRenewed
				}
			}
		case roll < 998: // presence probe
			if repOK, refOK := rep.svc.Contains(k), ref.svc.Contains(k); repOK != refOK {
				return res, fmt.Errorf("op %d: contains %q: replicated=%v reference=%v",
					op, k, repOK, refOK)
			}
		default: // kill a node (replicated only), under the failure discipline
			var live []int
			for _, n := range rep.svc.NodeStats() {
				if n.Live {
					live = append(live, n.ID)
				}
			}
			if opts.Replicas == 0 || len(live) < 2 {
				break
			}
			res.Kills++
			if err := rep.svc.KillNode(live[r.Intn(len(live))]); err != nil {
				return res, fmt.Errorf("op %d: kill: %v", op, err)
			}
		}
		// The replica-agreement invariant holds at every step, not just
		// at the end; checking a sample keeps the run fast.
		if op%251 == 0 {
			if err := rep.svc.CheckConsistency(); err != nil {
				return res, fmt.Errorf("op %d: %w", op, err)
			}
		}
	}
	res.Ops = opts.Ops

	if err := rep.svc.CheckConsistency(); err != nil {
		return res, fmt.Errorf("final: %w", err)
	}

	repStats, refStats := rep.svc.Stats(), ref.svc.Stats()
	if repStats.Evictions != 0 || refStats.Evictions != 0 {
		return res, fmt.Errorf("equivalence regime violated: evictions replicated=%d reference=%d",
			repStats.Evictions, refStats.Evictions)
	}
	if repStats.Hits != refStats.Hits || repStats.Misses != refStats.Misses {
		return res, fmt.Errorf("hit/miss counters diverge: replicated %d/%d reference %d/%d",
			repStats.Hits, repStats.Misses, refStats.Hits, refStats.Misses)
	}
	if repStats.FencedWrites != refStats.FencedWrites {
		return res, fmt.Errorf("fenced-write counters diverge: replicated %d reference %d",
			repStats.FencedWrites, refStats.FencedWrites)
	}
	if repStats.Seeds != refStats.Seeds {
		return res, fmt.Errorf("seed counters diverge: replicated %d reference %d",
			repStats.Seeds, refStats.Seeds)
	}

	repSnap, refSnap := rep.svc.Snapshot(), ref.svc.Snapshot()
	if len(repSnap) != len(refSnap) {
		return res, fmt.Errorf("final contents diverge: replicated holds %d keys, reference %d",
			len(repSnap), len(refSnap))
	}
	for k, v := range refSnap {
		rv, ok := repSnap[k]
		if !ok {
			return res, fmt.Errorf("final contents diverge: %q missing from replicated tier", k)
		}
		if !bytes.Equal(v, rv) {
			return res, fmt.Errorf("final contents diverge: %q differs", k)
		}
	}

	if repStats.LostShards != 0 {
		return res, fmt.Errorf("workload lost %d shards despite the kill discipline", repStats.LostShards)
	}
	return res, nil
}

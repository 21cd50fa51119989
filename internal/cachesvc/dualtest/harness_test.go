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
// aggregate hit, miss and fenced-write counters, the full logical
// store contents, and the replicated tier's internal replica-agreement
// invariant (every owner holds an identical copy, no other node holds
// one).
//
// The workload interleaves, under one deterministic seed: reads and
// presence probes, lease-guarded writes and invalidations, writes under
// deliberately stale (superseded) leases, writes under the wrong group's
// lease, lease revocation (a release at the service, which the holder
// keeps writing with) and re-acquisition, and node kills on the
// replicated side only — the reference, by
// definition, has no topology.
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
	Ops, Gets, Hits, Puts, Invals int
	StaleWrites, WrongGroupWrites int
	// StaleFenced counts fenced writes under a superseded grant;
	// RevokedFenced those under the current grant after its release.
	StaleFenced, RevokedFenced int
	Reacquires, Revokes        int
	Kills                      int
}

type side struct {
	svc    *cachesvc.Service
	leases map[int]cachesvc.Lease
	stale  []cachesvc.Lease // superseded grants, kept to write with
}

func newSide(nodes, replicas, shards int) *side {
	return &side{
		svc: cachesvc.New(cachesvc.Options{
			Shards:   shards,
			Nodes:    nodes,
			Replicas: replicas,
			// Ample capacity: the regime is eviction-free (asserted
			// below). A shard's primary decides its evictions, but after
			// a kill the promoted replica's LRU order is the order its
			// copy was filled and written in, not the reference's, so
			// the two sides may evict different entries.
			ShardCapacity: 1 << 30,
		}),
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
	const shards = 16

	var res Result
	r := sim.NewRand(opts.Seed)
	rep := newSide(opts.Nodes, opts.Replicas, shards)
	ref := newSide(1, 0, shards)
	groups := rep.svc.NumGroups()

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
	// checks the error classes agree, reporting whether both fenced it.
	// inval selects Invalidate vs Put.
	mutate := func(op int, repL, refL cachesvc.Lease, k cachesvc.Key, v []byte, inval bool) (bool, error) {
		var repErr, refErr error
		if inval {
			repErr = rep.svc.Invalidate(repL, k)
			refErr = ref.svc.Invalidate(refL, k)
		} else {
			_, repErr = rep.svc.Put(repL, k, v)
			_, refErr = ref.svc.Put(refL, k, v)
		}
		if classify(repErr) != classify(refErr) {
			return false, fmt.Errorf("op %d: mutation of %q: replicated=%s reference=%s",
				op, k, classify(repErr), classify(refErr))
		}
		return repErr == cachesvc.ErrFenced, nil
	}
	// current mutates under the group's current grants, which the
	// service fences only once a revoke released them.
	current := func(op int, k cachesvc.Key, v []byte, inval bool) error {
		group := rep.svc.GroupOf(k)
		fenced, err := mutate(op, rep.leases[group], ref.leases[group], k, v, inval)
		if fenced {
			res.RevokedFenced++
		}
		return err
	}

	for op := 0; op < opts.Ops; op++ {
		ki := r.Intn(opts.Keys)
		k := key(ki)
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
			if err := current(op, k, val(ki, gen[ki]), false); err != nil {
				return res, err
			}
		case roll < 660: // invalidate
			res.Invals++
			if err := current(op, k, nil, true); err != nil {
				return res, err
			}
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
			fenced, err := mutate(op, repL, refL, k, val(ki, gen[ki]), false)
			if err != nil {
				return res, err
			}
			if fenced {
				res.StaleFenced++
			}
		case roll < 820: // revoke one group's grant; the holder keeps it
			res.Revokes++
			g := r.Intn(groups)
			repErr, refErr := rep.svc.Release(rep.leases[g]), ref.svc.Release(ref.leases[g])
			if repErr != refErr {
				return res, fmt.Errorf("op %d: release group %d: replicated err=%v reference err=%v",
					op, g, repErr, refErr)
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

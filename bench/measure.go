package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/cachesvc"
	"cntr/internal/phoronix"
	"cntr/internal/sim"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// numKinds sizes per-OpKind tables (vfs.KindAny is one past the last
// real kind).
const numKinds = int(vfs.KindAny)

// opStream is what crossed the top of one stack during a measured
// phase: the op-stream fingerprint's raw material.
type opStream struct {
	ops                     [numKinds]int64
	bytesRead, bytesWritten int64
	errors                  int64
}

func (s *opStream) total() int64 {
	var n int64
	for _, c := range s.ops {
		n += c
	}
	return n
}

// probe is the top-of-stack interceptor. While armed (a row's Run
// phase) it counts every top-level op and samples its virtual latency.
// Only the single generator goroutine calls into the top of a stack, so
// it needs no lock. It is part of every run, traced or not: the
// end-to-end latency percentiles come from it.
type probe struct {
	clock  *sim.Clock
	armed  bool
	stream opStream
	lat    *[]int64 // virtual ns per op; nil discards samples
}

func (p *probe) Intercept(info *vfs.OpInfo, next func() error) error {
	if !p.armed {
		return next()
	}
	t0 := p.clock.Now()
	err := next()
	if p.lat != nil {
		*p.lat = append(*p.lat, int64(p.clock.Now()-t0))
	}
	p.stream.ops[info.Kind]++
	switch info.Kind {
	case vfs.KindRead:
		p.stream.bytesRead += int64(info.Bytes)
	case vfs.KindWrite:
		p.stream.bytesWritten += int64(info.Bytes)
	}
	if err != nil {
		p.stream.errors++
	}
	return err
}

// unitSide is one row on one stack.
type unitSide struct {
	virt   time.Duration // what phoronix.RunOn reports (wall-converted)
	raw    time.Duration // virtual clock delta across the Run phase
	work   int64
	stream opStream
	tree   uint64 // signature of the file tree the row left behind

	setup, run time.Duration // host
	mallocs    uint64
	allocBytes uint64
	liveHeap   uint64 // reachable heap bytes with the stack built and the row's data in place

	// traced CNTR stacks only
	chain    []layer
	spans    spanSums
	counters counters
	// logical and physical are the backend store's live bytes when the
	// phase ended (a state, not a count of the phase).
	logical, physical int64
}

// runUnit drives one row through phoronix.RunOn on an assembled stack.
// t0 is when this unit's set-up began (before the stack was built); lat
// receives the per-op virtual latencies when non-nil.
func runUnit(b *phoronix.Benchmark, s *stk, seed uint64, t0 time.Time, lat *[]int64) (unitSide, error) {
	out := unitSide{chain: s.chain}
	p := &probe{clock: s.clock, lat: lat}
	var ms0, ms1 runtime.MemStats
	var h0 time.Time
	var spans0 spanSums
	var ctr0 counters
	wrapped := *b
	wrapped.Run = func(ctx *phoronix.Ctx) (int64, error) {
		if s.rec != nil {
			spans0, ctr0 = s.rec.snapshot(), s.counters()
		}
		runtime.ReadMemStats(&ms0)
		v0 := s.clock.Now()
		h0 = time.Now()
		p.armed = true
		work, err := b.Run(ctx)
		p.armed = false
		out.run = time.Since(h0)
		out.raw = s.clock.Now() - v0
		runtime.ReadMemStats(&ms1)
		if s.rec != nil {
			out.spans, out.counters = s.rec.snapshot().sub(spans0), s.counters().sub(ctr0)
			out.logical, out.physical = s.stored()
		}
		return work, err
	}
	virt, work, err := phoronix.RunOn(&wrapped, vfs.Chain(s.top, p), s.backing, s.clock, s.model, s.disk, seed)
	out.virt, out.work, out.stream = virt, work, p.stream
	if err != nil {
		return out, err
	}
	out.setup = h0.Sub(t0)
	out.mallocs, out.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	if out.tree, err = treeSignature(s.top); err != nil {
		return out, err
	}
	// What a collection leaves is what the stack and the row's data
	// need; unlike HeapSys it does not depend on when the collector
	// last happened to run (HeapSys moved by 17% between identical
	// runs of meta, this by less than 1%).
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	out.liveHeap = ms1.HeapAlloc
	return out, nil
}

// treeSignature hashes the visible file tree (path, type and size of
// every entry, order-independent) as seen through the top of a stack.
// The two sides of a row must leave the same tree behind: that is the
// output check for rows whose result is a filesystem state.
func treeSignature(top vfs.FS) (uint64, error) {
	var sig uint64
	err := vfs.NewClient(top, vfs.Root()).WalkTree("/", func(path string, attr vfs.Attr) error {
		h := fnv.New64a()
		size := attr.Size
		if attr.Type == vfs.TypeDirectory {
			size = 0 // directory sizes are a filesystem's own business
		}
		fmt.Fprintf(h, "%s\x00%d\x00%d", path, attr.Type, size)
		sig += h.Sum64()
		return nil
	})
	return sig, err
}

// rowResult is one row of one round.
type rowResult struct {
	name   string
	paper  float64
	seeded bool
	// failure is why the row counts all its ops as failed: it aborted,
	// or its output check failed. Empty for a good row.
	failure      string
	native, cntr unitSide
}

// tierStats is the cache service's activity over the CNTR side's
// measured phase (fleet only).
type tierStats struct {
	hits, misses, puts, evictions, fenced int64
	// skew is the busiest node's share of requests over the mean share.
	skew float64
}

type roundResult struct {
	rows []rowResult
	lat  []int64   // CNTR-side per-op virtual latency, whole round
	tier tierStats // fleet only
}

type roundOpts struct {
	cntrOnly bool // skip the native side (host-cost-only rounds)
	traced   bool // build the CNTR side from tracedCntrStack
}

func (o roundOpts) cntr(cfg stack.Config) *stk {
	if o.traced {
		return tracedCntrStack(cfg)
	}
	return cntrStack(cfg)
}

// settle drops what the last stack left on the heap, so every unit
// starts from the same heap state and its set-up time does not depend
// on when the collector last happened to run.
func settle() { runtime.GC() }

// round runs every row of the workload once on fresh stacks, native
// side then CNTR side. A row that aborts or fails its output check is
// reported in its failure field; only a broken set-up is an error.
func (w *workload) round(seed uint64, o roundOpts) (*roundResult, error) {
	if w.fleet {
		return fleetRound(seed, o)
	}
	units, err := w.units(seed)
	if err != nil {
		return nil, err
	}
	res := &roundResult{}
	for i := range units {
		u := &units[i]
		row := rowResult{name: u.bench.Name, paper: u.bench.PaperOverhead, seeded: u.seeded}
		if !o.cntrOnly {
			t0 := time.Now()
			s := nativeStack(stackConfig())
			row.native, err = runUnit(&u.bench, s, u.seed, t0, nil)
			s.close()
			settle()
			if err != nil {
				row.failure = "native side: " + err.Error()
			}
		}
		t0 := time.Now()
		s := o.cntr(stackConfig())
		row.cntr, err = runUnit(&u.bench, s, u.seed, t0, &res.lat)
		s.close()
		settle()
		if err != nil {
			row.failure = "CNTR side: " + err.Error()
		}
		if row.failure == "" && !o.cntrOnly {
			row.failure = compareSides(&row)
		}
		res.rows = append(res.rows, row)
	}
	return res, nil
}

// compareSides is the row's output check: both stacks did the same
// work and left the same file tree.
func compareSides(row *rowResult) string {
	if row.native.work != row.cntr.work {
		return fmt.Sprintf("output check: %d work units native, %d on CNTR", row.native.work, row.cntr.work)
	}
	if row.native.tree != row.cntr.tree {
		return "output check: the two stacks left different file trees"
	}
	return ""
}

// fleetRound is the bench-owned fleet generator (see workloads.go):
// fleetMounts stacks per side over one CAS, the CNTR side attached to
// one cache tier; every mount's backing tree is seeded, the tier is
// emptied, then each mount's cold read is one measured row.
func fleetRound(seed uint64, o roundOpts) (*roundResult, error) {
	res := &roundResult{rows: make([]rowResult, fleetMounts)}
	tree := fleetTree(seed)
	cas := blobstore.NewCAS(blobstore.CASOptions{})

	// side builds and seeds one side's mounts, runs seeded (the moment
	// between set-up and the measured phase), then measures each mount.
	side := func(name string, build func(i int) *stk, seeded func(), lat *[]int64) ([]unitSide, error) {
		t0 := time.Now()
		mounts := make([]*stk, fleetMounts)
		for i := range mounts {
			mounts[i] = build(i)
			defer mounts[i].close()
			if err := seedTree(mounts[i].backing, tree); err != nil {
				return nil, fmt.Errorf("fleet %s side: seeding mount %d: %w", name, i, err)
			}
		}
		seeded()
		units := make([]unitSide, fleetMounts)
		for i, m := range mounts {
			b := fleetColdRead(i, tree, m.tier)
			res.rows[i].name, res.rows[i].seeded = b.Name, true
			var err error
			if units[i], err = runUnit(&b, m, seed+uint64(i), t0, lat); err != nil {
				res.rows[i].failure = name + " side: " + err.Error()
			}
			t0 = time.Now()
		}
		return units, nil
	}

	if !o.cntrOnly {
		units, err := side("native", func(int) *stk {
			cfg := stackConfig()
			cfg.Store = cas
			return nativeStack(cfg)
		}, func() {}, nil)
		settle()
		if err != nil {
			return nil, err
		}
		for i, u := range units {
			res.rows[i].native = u
		}
	}
	svc := cachesvc.New(cachesvc.Options{Nodes: 2, Replicas: 1})
	var tier0 cachesvc.Stats
	var nodes0 []cachesvc.NodeStats
	units, err := side("CNTR", func(i int) *stk {
		cfg := stackConfig()
		cfg.Store = cas
		cfg.CacheService = svc
		cfg.CacheMountID = fmt.Sprintf("mount-%d", i)
		return o.cntr(cfg)
	}, func() {
		// The measured phase starts from an empty tier; Reset keeps the
		// counters, so the seeding publishes are subtracted below.
		svc.Reset()
		tier0, nodes0 = svc.Stats(), svc.NodeStats()
	}, &res.lat)
	settle()
	if err != nil {
		return nil, err
	}
	res.tier = tierDelta(tier0, svc.Stats(), nodes0, svc.NodeStats())
	for i, u := range units {
		row := &res.rows[i]
		row.cntr = u
		if row.failure == "" && !o.cntrOnly {
			row.failure = compareSides(row)
		}
	}
	return res, nil
}

func tierDelta(a, b cachesvc.Stats, na, nb []cachesvc.NodeStats) tierStats {
	t := tierStats{
		hits: b.Hits - a.Hits, misses: b.Misses - a.Misses, puts: b.Puts - a.Puts,
		evictions: b.Evictions - a.Evictions, fenced: b.FencedWrites - a.FencedWrites,
	}
	var busiest, total int64
	for i := range nb {
		load := nb[i].Hits + nb[i].Misses + nb[i].Puts - na[i].Hits - na[i].Misses - na[i].Puts
		busiest = max(busiest, load)
		total += load
	}
	if total > 0 {
		t.skew = float64(busiest) * float64(len(nb)) / float64(total)
	}
	return t
}

package fuse

import "fmt"

// SchedBench drives the request-table scheduler for the package-level
// benchmarks in the repository root's bench_test.go: it pre-loads
// pending requests per origin and measures the steady-state cost of one
// dispatch cycle (pop → done → re-push) with every origin live — the
// regime where the pre-heap linear scan paid O(origins) per pop, the
// PR 5 indexed heap pays O(log origins) under one global lock, and the
// per-worker run queues pay O(log origins/queues) under a lock no other
// busy worker touches.
type SchedBench struct {
	t      *reqTable
	linear bool
}

// NewSchedBench builds a single-queue table saturated with the given
// number of live origins. With linear set, Cycle dispatches through the
// pre-heap reference scan (popLinear) instead of the indexed heap — the
// baseline side of BenchmarkReqTablePop.
func NewSchedBench(origins int, linear bool) *SchedBench {
	b := &SchedBench{
		t:      newReqTable(2*origins+1, 0, 1, nil, 1),
		linear: linear,
	}
	for i := 0; i < origins; i++ {
		b.t.push(uint32(i+1), &request{})
	}
	return b
}

// NewSchedBenchN builds a table with the given number of run queues,
// saturated with depth pending requests per origin. queues == 1 is the
// single global heap (the baseline side of BenchmarkReqTableDispatch);
// queues == workers gives every CycleWorker caller its own dispatch
// domain. depth >= 2 keeps origins permanently live (pure scheduling
// cost, no prune/recreate churn); depth == 1 makes every cycle prune
// and re-home its origin — the regime BenchmarkSchedSteal uses to force
// a deterministic migration rate.
func NewSchedBenchN(origins, queues, depth int) *SchedBench {
	if depth < 1 {
		depth = 1
	}
	b := &SchedBench{
		t: newReqTable(depth*origins+queues+1, 0, 1, nil, queues),
	}
	for i := 0; i < origins; i++ {
		for d := 0; d < depth; d++ {
			b.t.push(uint32(i+1), &request{})
		}
	}
	return b
}

// NewStealBench builds the deterministic work-stealing scenario: queues
// run queues, but every origin homed to run queue 0 (origin ids are
// multiples of reqShards, so shard → home always lands on 0). A
// single-threaded driver cycling workers round-robin then forces
// workers 1..queues-1 to steal on every dispatch — each cycle drains
// the origin, prunes it, and re-homes it onto queue 0 — which makes the
// steal rate a deterministic metric rather than a scheduling accident.
func NewStealBench(origins, queues int) *SchedBench {
	b := &SchedBench{
		t: newReqTable(origins+queues+1, 0, 1, nil, queues),
	}
	for i := 0; i < origins; i++ {
		b.t.push(uint32((i+1)*reqShards), &request{})
	}
	return b
}

// Cycle dispatches one request under WFQ as worker 0, completes it, and
// re-queues the same origin, keeping every origin live across
// iterations.
func (b *SchedBench) Cycle() {
	b.CycleWorker(0)
}

// CycleWorker runs one dispatch cycle as the given worker id: pop from
// the worker's run queue (stealing if it is empty), complete, re-push.
func (b *SchedBench) CycleWorker(wid int) {
	var (
		msg    *request
		origin uint32
		ok     bool
	)
	if b.linear {
		msg, origin, ok = b.t.popLinear()
	} else {
		msg, origin, ok = b.t.pop(wid)
	}
	if !ok {
		panic(fmt.Sprintf("SchedBench: table drained (linear=%v)", b.linear))
	}
	b.t.done(origin, 0, 0, false, false)
	b.t.push(origin, msg)
}

// Steals reports how many origin migrations the table performed.
func (b *SchedBench) Steals() int64 { return b.t.stealCount() }

// FairnessSpread reports max/min completed ops across live origins — a
// deterministic fairness signal for the single-threaded steal scenario
// (1.0 is perfectly even service).
func (b *SchedBench) FairnessSpread() float64 {
	stats := b.t.originStats()
	var min, max int64
	for _, s := range stats {
		if min == 0 || s.Ops < min {
			min = s.Ops
		}
		if s.Ops > max {
			max = s.Ops
		}
	}
	if min == 0 {
		return 0
	}
	return float64(max) / float64(min)
}

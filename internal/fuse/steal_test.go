package fuse

import (
	"sync"
	"testing"
	"time"
)

// TestWorkStealDifferentialPerQueue pins the per-worker scheduler to the
// retained single-heap reference: when no stealing fires, each run
// queue's dispatch sequence must equal — decision for decision,
// including idle-rejoin, in-flight caps and the origin-id tie-break — a
// 1-queue reference table fed only that queue's origins and drained by
// the pre-heap linear scan.
func TestWorkStealDifferentialPerQueue(t *testing.T) {
	const (
		queues  = 4
		origins = 61 // not a multiple of anything interesting
		rounds  = 6
		cap     = 2
	)
	weights := map[uint32]int{3: 4, 7: 2, 11: 8, 20: 5}
	multi := newReqTable(1<<20, cap, 1, weights, queues)
	refs := make([]*reqTable, queues)
	for i := range refs {
		refs[i] = newReqTable(1<<20, cap, 1, weights, 1)
	}
	homeOf := func(o uint32) int { return int(o&(reqShards-1)) % queues }

	// Deterministic uneven schedule, mirrored onto the per-home
	// reference tables.
	push := func() {
		for o := uint32(1); o <= origins; o++ {
			for i := 0; i < int(o%5)+1; i++ {
				multi.push(o, &request{})
				refs[homeOf(o)].push(o, &request{})
			}
		}
	}

	multiOrder := make([][]uint32, queues)
	refOrder := make([][]uint32, queues)
	for r := 0; r < rounds; r++ {
		push()
		var multiInflight, refInflight [][2]uint32 // (queue, origin)
		for {
			progressed := false
			// Drain each domain in lockstep with its reference. Dispatch
			// through tryDispatch directly, so an empty domain never
			// triggers a steal (migration is exercised separately) and
			// never blocks.
			for w := 0; w < queues; w++ {
				mm, mo, mok := multi.tryDispatch(multi.rqs[w])
				rm, ro, _ := tryPop(refs[w], func() (*request, uint32, bool) { return refs[w].popLinear() })
				if (mm != nil) != (rm != nil) {
					t.Fatalf("round %d queue %d: multi dispatched=%v reference dispatched=%v",
						r, w, mm != nil, rm != nil)
				}
				if mm == nil {
					continue
				}
				progressed = true
				_ = mok
				multiOrder[w] = append(multiOrder[w], mo)
				refOrder[w] = append(refOrder[w], ro)
				multiInflight = append(multiInflight, [2]uint32{uint32(w), mo})
				refInflight = append(refInflight, [2]uint32{uint32(w), ro})
				if len(multiInflight)%3 == 0 {
					for _, e := range multiInflight {
						multi.done(e[1], 0, 0, false, false)
					}
					for _, e := range refInflight {
						refs[e[0]].done(e[1], 0, 0, false, false)
					}
					multiInflight, refInflight = multiInflight[:0], refInflight[:0]
				}
			}
			if !progressed {
				break
			}
		}
		for _, e := range multiInflight {
			multi.done(e[1], 0, 0, false, false)
		}
		for _, e := range refInflight {
			refs[e[0]].done(e[1], 0, 0, false, false)
		}
	}

	if got := multi.stealCount(); got != 0 {
		t.Fatalf("differential drain stole %d origins, want 0", got)
	}
	for w := 0; w < queues; w++ {
		if len(multiOrder[w]) == 0 {
			t.Fatalf("queue %d never dispatched", w)
		}
		if len(multiOrder[w]) != len(refOrder[w]) {
			t.Fatalf("queue %d: %d dispatches vs reference %d",
				w, len(multiOrder[w]), len(refOrder[w]))
		}
		for i := range multiOrder[w] {
			if multiOrder[w][i] != refOrder[w][i] {
				t.Fatalf("queue %d dispatch %d: per-worker chose origin %d, reference chose %d",
					w, i, multiOrder[w][i], refOrder[w][i])
			}
		}
	}
}

// TestWorkStealFairnessAtScale drives 2,000 backlogged origins through a
// 4-queue table with a deterministic round-robin worker schedule and
// checks the same ±5% weight-class fairness the single-heap scheduler
// guarantees. Origins are laid out so every run queue serves an
// identical weight mix — the regime where per-queue WFQ composes into
// global fairness; cross-queue imbalance is the steal path's job and is
// tested separately.
func TestWorkStealFairnessAtScale(t *testing.T) {
	const (
		queues     = 4
		origins    = 2000
		dispatches = 75000
	)
	classes := []int{1, 2, 4, 8}
	weights := make(map[uint32]int, origins)
	sumW := 0
	for i := 0; i < origins; i++ {
		// home(o) cycles with o%4; picking the class from (o>>2)%4
		// decorrelates home from weight, so each queue serves ~125
		// origins of every class.
		o := uint32(i + 1)
		w := classes[(i>>2)%len(classes)]
		weights[o] = w
		sumW += w
	}
	tab := newReqTable(1<<22, 0, 1, weights, queues)
	for o := uint32(1); o <= origins; o++ {
		need := weights[o]*dispatches/sumW + 32
		for i := 0; i < need; i++ {
			tab.push(o, &request{})
		}
	}

	perOrigin := make(map[uint32]int, origins)
	for i := 0; i < dispatches; i++ {
		_, origin, ok := tab.pop(i % queues)
		if !ok {
			t.Fatalf("table drained at dispatch %d", i)
		}
		tab.done(origin, 0, 0, false, false)
		perOrigin[origin]++
	}

	// Conservation: every dispatch is accounted exactly once.
	var acct int64
	for _, s := range tab.originStats() {
		acct += s.Ops
	}
	if acct != dispatches {
		t.Fatalf("accounting: %d ops recorded, %d dispatched", acct, dispatches)
	}

	perClass := make(map[int]int)
	for o, n := range perOrigin {
		perClass[weights[o]] += n
	}
	for _, w := range classes {
		expect := float64(dispatches) * float64(w) * float64(origins/len(classes)) / float64(sumW)
		got := float64(perClass[w])
		if got < expect*0.95 || got > expect*1.05 {
			t.Errorf("weight class %d: %.0f dispatches, want %.0f ±5%%", w, got, expect)
		}
	}
	for o := uint32(1); o <= origins; o++ {
		expect := float64(dispatches) * float64(weights[o]) / float64(sumW)
		got := float64(perOrigin[o])
		if got < expect/2 || got > expect*2+1 {
			t.Fatalf("origin %d (weight %d): %.0f dispatches, want ~%.0f",
				o, weights[o], got, expect)
		}
	}
}

// TestWorkStealCappedNotStarved: the capped-origin no-starvation
// guarantee must survive the scheduler split. With every origin at its
// in-flight cap, one completion makes exactly one origin eligible —
// and *any* worker's pop must find it, stealing it from the owner's
// run queue when it belongs to someone else.
func TestWorkStealCappedNotStarved(t *testing.T) {
	const (
		queues  = 4
		origins = 2048
	)
	tab := newReqTable(1<<20, 1, 1, nil, queues)
	for o := uint32(1); o <= origins; o++ {
		tab.push(o, &request{})
		tab.push(o, &request{})
	}
	seen := make(map[uint32]bool, origins)
	for i := 0; i < origins; i++ {
		_, origin, ok := tab.pop(i % queues)
		if !ok {
			t.Fatal("table drained early")
		}
		if seen[origin] {
			t.Fatalf("origin %d dispatched twice with cap 1 and no completion", origin)
		}
		seen[origin] = true
	}
	// Every origin is at its cap with one message still queued; after a
	// single completion, a worker from each domain in turn must be
	// handed exactly the freed origin.
	for w, victim := range []uint32{1234, 7, 2048, 16} {
		tab.done(victim, 0, 0, false, false)
		_, origin, ok := tab.pop(w)
		if !ok || origin != victim {
			t.Fatalf("after done(%d): pop(%d) returned origin %d ok=%v, want %d",
				victim, w, origin, ok, victim)
		}
	}
}

// TestWorkStealPicksMostBacklogged pins the steal policy: the thief
// takes the victim's most-backlogged eligible origin (ties on the
// smaller origin id), ownership migrates with it, and the origin's WFQ
// lag is preserved relative to the thief's clock.
func TestWorkStealPicksMostBacklogged(t *testing.T) {
	tab := newReqTable(1<<20, 0, 1, nil, 2)
	// All three origins are multiples of reqShards, so they home to run
	// queue 0; queue 1 starts empty.
	backlogs := map[uint32]int{16: 1, 32: 3, 48: 3}
	for o, n := range backlogs {
		for i := 0; i < n; i++ {
			tab.push(o, &request{})
		}
	}
	_, origin, ok := tab.pop(1)
	if !ok || origin != 32 {
		t.Fatalf("pop(1) = origin %d ok=%v, want steal of origin 32 (most backlogged, lowest id)", origin, ok)
	}
	if got := tab.stealCount(); got != 1 {
		t.Fatalf("stealCount = %d, want 1", got)
	}
	// Ownership migrated: origin 32's remaining backlog now drains from
	// run queue 1 without further stealing.
	sh := tab.shard(32)
	sh.mu.Lock()
	q := sh.queues[32]
	sh.mu.Unlock()
	if q == nil || q.owner.Load() != tab.rqs[1] {
		t.Fatal("stolen origin is not owned by the thief's run queue")
	}
	_, origin, ok = tab.tryDispatch(tab.rqs[1])
	if !ok || origin != 32 {
		t.Fatalf("thief's own dispatch = origin %d ok=%v, want 32", origin, ok)
	}
	if got := tab.stealCount(); got != 1 {
		t.Fatalf("stealCount after local dispatch = %d, want still 1", got)
	}
	// Queue 0 still dispatches its unstolen origins.
	_, origin, ok = tab.tryDispatch(tab.rqs[0])
	if !ok || (origin != 16 && origin != 48) {
		t.Fatalf("victim dispatch = origin %d ok=%v, want 16 or 48", origin, ok)
	}
}

// TestWorkStealManyOriginStress hammers a multi-queue table from
// concurrent pushers, per-worker poppers and retire calls — the
// race-detector workout for the run-queue split and the dual-lock steal
// path — then checks conservation and pruning, exactly as the
// single-heap stress test does.
func TestWorkStealManyOriginStress(t *testing.T) {
	const (
		origins   = 2000
		pushers   = 8
		workers   = 6
		perPusher = 4000
	)
	tab := newReqTable(512, 2, 1, map[uint32]int{17: 8, 1999: 4}, workers)

	var servedMu sync.Mutex
	servedCount := make(map[uint32]int64)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			for {
				_, origin, ok := tab.pop(wid)
				if !ok {
					return
				}
				servedMu.Lock()
				servedCount[origin]++
				servedMu.Unlock()
				tab.done(origin, 64, 0, true, false)
			}
		}(w)
	}

	var pwg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		pwg.Add(1)
		go func(seed uint32) {
			defer pwg.Done()
			x := seed*2654435761 + 1
			for i := 0; i < perPusher; i++ {
				x = x*1664525 + 1013904223
				origin := x%origins + 1
				if _, ok := tab.push(origin, &request{}); !ok {
					t.Error("push failed before close")
					return
				}
				if i%97 == 0 {
					tab.retire(x % origins)
				}
			}
		}(uint32(p + 1))
	}
	pwg.Wait()

	deadline := time.Now().Add(30 * time.Second)
	for tab.depth() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue did not drain: depth=%d", tab.depth())
		}
		time.Sleep(time.Millisecond)
	}
	tab.close()
	wg.Wait()

	var total int64
	servedMu.Lock()
	for _, n := range servedCount {
		total += n
	}
	servedMu.Unlock()
	if want := int64(pushers * perPusher); total != want {
		t.Fatalf("served %d requests, pushed %d", total, want)
	}
	var acct int64
	for _, s := range tab.originStats() {
		acct += s.Ops
	}
	acct += tab.retiredStats().Ops
	if acct != total {
		t.Fatalf("accounting: %d ops recorded, %d served", acct, total)
	}
	live := 0
	for i := range tab.shards {
		sh := &tab.shards[i]
		sh.mu.Lock()
		live += len(sh.queues)
		sh.mu.Unlock()
	}
	if live != 0 {
		t.Fatalf("%d scheduler queues left after drain, want 0", live)
	}
}

// stealCycle runs one dispatch cycle as worker wid: pop from its run
// queue (stealing if it is empty), complete, re-push the same origin.
func stealCycle(t *testing.T, tab *reqTable, wid int) {
	t.Helper()
	msg, origin, ok := tab.pop(wid)
	if !ok {
		t.Fatal("table drained")
	}
	tab.done(origin, 0, 0, false, false)
	tab.push(origin, msg)
}

// TestWorkStealDeterministicScenario pins the steal policy on a scenario
// with no scheduling accident in it: every origin is homed to run queue 0
// (origin ids are multiples of reqShards, so shard → home always lands
// on 0) and one request deep, and a single thread cycles the workers
// round-robin. Each cycle drains its origin, prunes it and re-homes it
// onto queue 0, so every cycle of workers 1..queues-1 performs exactly
// one steal. The served origin is always the same one: it goes idle on
// done, rejoins at the current virtual time on the re-push — tying with
// the 63 that never ran — and the origin-id tie-break picks it again.
// So max/min service over the origins with recorded service is exactly
// 1 because there is one such origin; weighted fairness across
// backlogged origins is TestWorkStealFairnessAtScale's job.
func TestWorkStealDeterministicScenario(t *testing.T) {
	const (
		origins = 64
		cycles  = 4 * 1024 // multiple of every queues row so each worker cycles equally
	)
	for _, queues := range []int{2, 4, 8} {
		tab := newReqTable(origins+queues+1, 0, 1, nil, queues)
		for i := 0; i < origins; i++ {
			tab.push(uint32((i+1)*reqShards), &request{})
		}
		for i := 0; i < cycles; i++ {
			stealCycle(t, tab, i%queues)
		}
		if got, want := tab.stealCount(), int64(cycles/queues*(queues-1)); got != want {
			t.Errorf("queues=%d: steals = %d, want %d", queues, got, want)
		}
		stats := tab.originStats()
		if len(stats) != 1 || stats[reqShards].Ops != cycles {
			t.Errorf("queues=%d: service = %+v, want all %d cycles on origin %d",
				queues, stats, cycles, reqShards)
		}
	}
}

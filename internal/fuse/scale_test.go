package fuse

import (
	"sync"
	"testing"
	"time"
)

// TestReqTableHeapMatchesLinearScan is the differential check behind the
// heap rewrite: the indexed heap and the pre-heap linear scan must make
// identical WFQ decisions — same origins, same order, including the
// origin-id tie-break — across a schedule that exercises idle-rejoin,
// in-flight caps and queue pruning.
func TestReqTableHeapMatchesLinearScan(t *testing.T) {
	const (
		origins = 37 // deliberately not a power of two
		rounds  = 8
		cap     = 2
	)
	weights := map[uint32]int{3: 4, 7: 2, 11: 8}
	mk := func() *reqTable {
		return newReqTable(1<<20, cap, 1, weights)
	}
	heapT, scanT := mk(), mk()

	// A deterministic, uneven push schedule: origin o gets (o%5)+1
	// messages per round, pushed round-robin.
	push := func(tab *reqTable) {
		for o := uint32(1); o <= origins; o++ {
			for i := 0; i < int(o%5)+1; i++ {
				tab.push(o, &request{})
			}
		}
	}

	var heapOrder, scanOrder []uint32
	for r := 0; r < rounds; r++ {
		push(heapT)
		push(scanT)
		// Drain in lockstep; complete every third dispatch immediately so
		// the in-flight caps bite and release at the same points on both
		// sides.
		var heapInflight, scanInflight []uint32
		for {
			hm, ho, _ := tryPop(heapT)
			if hm == nil {
				break
			}
			_, so, _ := scanT.popLinear()
			heapOrder = append(heapOrder, ho)
			scanOrder = append(scanOrder, so)
			heapInflight = append(heapInflight, ho)
			scanInflight = append(scanInflight, so)
			if len(heapInflight)%3 == 0 {
				for _, o := range heapInflight {
					heapT.done(o, 0, 0, false, false)
				}
				for _, o := range scanInflight {
					scanT.done(o, 0, 0, false, false)
				}
				heapInflight, scanInflight = heapInflight[:0], scanInflight[:0]
			}
		}
		for _, o := range heapInflight {
			heapT.done(o, 0, 0, false, false)
		}
		for _, o := range scanInflight {
			scanT.done(o, 0, 0, false, false)
		}
	}
	if len(heapOrder) != len(scanOrder) {
		t.Fatalf("dispatch counts differ: heap=%d scan=%d", len(heapOrder), len(scanOrder))
	}
	for i := range heapOrder {
		if heapOrder[i] != scanOrder[i] {
			t.Fatalf("dispatch %d: heap chose origin %d, linear scan chose %d",
				i, heapOrder[i], scanOrder[i])
		}
	}
}

// tryPop runs the blocking pop only when work is immediately available,
// so the lockstep drain above never blocks.
func tryPop(tab *reqTable) (*request, uint32, bool) {
	tab.mu.Lock()
	ready := len(tab.eligible) > 0
	tab.mu.Unlock()
	if !ready {
		return nil, 0, false
	}
	return tab.pop()
}

// popLinear is the reference scheduler: pop with the heap root replaced
// by a linear scan of the eligible origins for the same (vstart, origin)
// minimum, and no waiting — ok is false when nothing is eligible. The
// differential tests check the heap (and a whole mount) against it.
func (t *reqTable) popLinear() (msg *request, origin uint32, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.eligible) == 0 {
		return nil, 0, false
	}
	best := t.eligible[0]
	for _, q := range t.eligible[1:] {
		if q.vstart < best.vstart ||
			(q.vstart == best.vstart && q.origin < best.origin) {
			best = q
		}
	}
	return t.dispatchLocked(best), best.origin, true
}

// TestManyOriginFairness saturates the table with 2,000 live origins at
// mixed weights and checks that dispatch ratios track the configured
// weights within 5% — per weight class, and per origin within a coarser
// envelope (small per-origin expectations quantize).
func TestManyOriginFairness(t *testing.T) {
	const (
		origins    = 2000
		dispatches = 75000
	)
	classes := []int{1, 2, 4, 8}
	weights := make(map[uint32]int, origins)
	sumW := 0
	for i := 0; i < origins; i++ {
		w := classes[i%len(classes)]
		weights[uint32(i+1)] = w
		sumW += w
	}
	tab := newReqTable(1<<22, 0, 1, weights)
	// Pre-load each origin with more messages than it can be granted, so
	// every origin stays backlogged through the measured window.
	for o := uint32(1); o <= origins; o++ {
		need := weights[o]*dispatches/sumW + 32
		for i := 0; i < need; i++ {
			tab.push(o, &request{})
		}
	}

	perOrigin := make(map[uint32]int, origins)
	for i := 0; i < dispatches; i++ {
		_, origin, ok := tab.pop()
		if !ok {
			t.Fatalf("table drained at dispatch %d", i)
		}
		tab.done(origin, 0, 0, false, false)
		perOrigin[origin]++
	}

	perClass := make(map[int]int)
	for o, n := range perOrigin {
		perClass[weights[o]] += n
	}
	for _, w := range classes {
		expect := float64(dispatches) * float64(w) * float64(origins/len(classes)) / float64(sumW)
		got := float64(perClass[w])
		if got < expect*0.95 || got > expect*1.05 {
			t.Errorf("weight class %d: %0.f dispatches, want %.0f ±5%%", w, got, expect)
		}
	}
	// No origin may be starved outright, and none may hog: each origin's
	// share must be within half-to-double of its weighted expectation.
	for o := uint32(1); o <= origins; o++ {
		expect := float64(dispatches) * float64(weights[o]) / float64(sumW)
		got := float64(perOrigin[o])
		if got < expect/2 || got > expect*2+1 {
			t.Fatalf("origin %d (weight %d): %.0f dispatches, want ~%.0f",
				o, weights[o], got, expect)
		}
	}
}

// TestManyOriginCappedNotStarved: with a per-origin in-flight cap of 1
// and thousands of backlogged origins, a completion must make exactly
// the freed origin dispatchable again — pop never skips past it, no
// matter how many rivals are queued behind their caps.
func TestManyOriginCappedNotStarved(t *testing.T) {
	const origins = 2048
	tab := newReqTable(1<<20, 1, 1, nil)
	for o := uint32(1); o <= origins; o++ {
		tab.push(o, &request{})
		tab.push(o, &request{})
	}
	seen := make(map[uint32]bool, origins)
	for i := 0; i < origins; i++ {
		_, origin, ok := tab.pop()
		if !ok {
			t.Fatal("table drained early")
		}
		if seen[origin] {
			t.Fatalf("origin %d dispatched twice with cap 1 and no completion", origin)
		}
		seen[origin] = true
	}
	// Every origin is now at its cap with one message still queued; a
	// single completion must hand pop exactly that origin.
	for _, victim := range []uint32{1234, 7, 2048} {
		tab.done(victim, 0, 0, false, false)
		_, origin, ok := tab.pop()
		if !ok || origin != victim {
			t.Fatalf("after done(%d): pop returned origin %d ok=%v, want %d",
				victim, origin, ok, victim)
		}
	}
}

// TestManyOriginStress hammers the table from concurrent pushers,
// workers and retire calls, with interrupts in the mix — the
// race-detector workout for its one lock and two condition variables —
// and then checks conservation: every pushed frame is dispatched exactly
// once and accounted exactly once, and no origin is left with an
// outstanding count.
func TestManyOriginStress(t *testing.T) {
	const (
		origins   = 2000
		pushers   = 8
		workers   = 6
		perPusher = 4000
	)
	tab := newReqTable(512, 2, 1, map[uint32]int{17: 8, 1999: 4})

	var servedMu sync.Mutex
	servedCount := make(map[uint32]int64)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, origin, ok := tab.pop()
				if !ok {
					return
				}
				servedMu.Lock()
				servedCount[origin]++
				servedMu.Unlock()
				tab.done(origin, 64, 0, true, false)
			}
		}()
	}

	var pwg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		pwg.Add(1)
		go func(seed uint32) {
			defer pwg.Done()
			// Cheap deterministic LCG so the origin mix differs per pusher
			// without pulling in math/rand.
			x := seed*2654435761 + 1
			for i := 0; i < perPusher; i++ {
				x = x*1664525 + 1013904223
				origin := x%origins + 1
				ok := false
				if i%61 == 0 {
					// An interrupt: read first, accounted under origin 0.
					ok = tab.pushInterrupt(&request{})
				} else {
					_, ok = tab.push(origin, &request{})
				}
				if !ok {
					t.Error("push failed before close")
					return
				}
				if i%97 == 0 {
					// Retire a random origin mid-flight; recycled PIDs must
					// still account correctly.
					tab.retire(x % origins)
				}
			}
		}(uint32(p + 1))
	}
	pwg.Wait()

	// Drain: close wakes the workers once the queue is empty.
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
	// Conservation across live and retired accounting: ops recorded in
	// per-origin stats plus the retired aggregate must equal the pushes.
	var acct int64
	for _, s := range tab.originStats() {
		acct += s.Ops
	}
	acct += tab.retiredStats().Ops
	if acct != total {
		t.Fatalf("accounting: %d ops recorded, %d served", acct, total)
	}
	// Pruning must hold at scale: with everything idle no scheduler queue
	// survives, so no origin has a request outstanding.
	tab.mu.Lock()
	live := len(tab.queues)
	tab.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d scheduler queues left after drain, want 0", live)
	}
}

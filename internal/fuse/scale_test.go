package fuse

import (
	"sync"
	"testing"
	"time"
)

// TestManyOriginStress hammers the table from concurrent pushers,
// workers and retire calls, with interrupts in the mix — the
// race-detector workout for its one lock and two condition variables —
// and then checks conservation: every pushed frame is dispatched exactly
// once, an origin never retired has every one of its frames in its Ops
// (a retired one at most those), and no origin is left with an
// outstanding count.
func TestManyOriginStress(t *testing.T) {
	const (
		origins   = 2000
		pushers   = 8
		workers   = 6
		perPusher = 4000
	)
	tab := newReqTable(512)

	var servedMu sync.Mutex
	servedCount := make(map[uint32]int64)
	retired := make(map[uint32]bool) // guarded by servedMu

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				msg, origin, ok := tab.pop()
				if !ok {
					return
				}
				servedMu.Lock()
				servedCount[origin]++
				servedMu.Unlock()
				tab.done(origin, msg.unique, ioAcct{readBytes: 64, isRead: true})
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
					ok = tab.push(origin, &request{})
				}
				if !ok {
					t.Error("push failed before close")
					return
				}
				if i%97 == 0 {
					// Retire a random origin mid-flight; recycled PIDs must
					// still account correctly.
					servedMu.Lock()
					retired[x%origins] = true
					servedMu.Unlock()
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
	// A retire drops an origin's counters, so only a never-retired
	// origin's Ops must equal its dispatches exactly.
	stats := tab.originStats()
	for origin, n := range servedCount {
		if ops := stats[origin].Ops; ops != n && (!retired[origin] || ops > n) {
			t.Fatalf("origin %d: %d ops recorded, %d served (retired: %v)", origin, ops, n, retired[origin])
		}
	}
	// Idle origins leave the table at scale too: with everything served,
	// no origin has a request outstanding.
	tab.mu.Lock()
	live := len(tab.origins)
	tab.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d origins left with an outstanding count, want 0", live)
	}
}

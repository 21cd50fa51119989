package fuse

import (
	"sync"
	"testing"
	"time"
)

// TestReqTableStress hammers the table from concurrent pushers and
// workers, with interrupts in the mix: the race-detector workout for its
// one lock and two condition variables.
// It then checks conservation: every pushed frame is dispatched exactly
// once, the queue drains, and no request is left mapped.
func TestReqTableStress(t *testing.T) {
	const (
		pushers   = 8
		workers   = 6
		perPusher = 4000
	)
	tab := newReqTable(512)

	var servedMu sync.Mutex
	servedCount := make(map[uint64]int) // by unique; interrupts under 0
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				msg, ok := tab.pop()
				if !ok {
					return
				}
				servedMu.Lock()
				servedCount[msg.unique]++
				servedMu.Unlock()
				tab.done(msg.unique)
			}
		}()
	}

	var pwg sync.WaitGroup
	for p := 0; p < pushers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < perPusher; i++ {
				var ok bool
				if i%61 == 0 {
					// An interrupt: read first, never mapped.
					ok = tab.pushInterrupt(&request{})
				} else {
					ok = tab.push(&request{unique: uint64(p*perPusher + i + 1)})
				}
				if !ok {
					t.Error("push failed before close")
					return
				}
			}
		}(p)
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

	servedMu.Lock()
	defer servedMu.Unlock()
	const interrupts = pushers * ((perPusher + 60) / 61) // every 61st, from 0
	if got := servedCount[0]; got != interrupts {
		t.Fatalf("served %d interrupts, pushed %d", got, interrupts)
	}
	if want := pushers*perPusher - interrupts; len(servedCount)-1 != want {
		t.Fatalf("served %d distinct requests, pushed %d", len(servedCount)-1, want)
	}
	for unique, n := range servedCount {
		if unique != 0 && n != 1 {
			t.Fatalf("request %d served %d times, want once", unique, n)
		}
	}
	tab.mu.Lock()
	live := len(tab.live)
	tab.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d requests left mapped, want 0", live)
	}
}

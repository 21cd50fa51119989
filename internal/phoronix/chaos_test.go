package phoronix

import (
	"testing"
	"time"
)

// TestChaosLatencyIsExactlyTheInjectedDelay pins the -chaos latency mode:
// on a single-worker row the injector's sleeps advance the stack's clock
// and change nothing else, so the row under ChaosProfile takes longer
// than the clean row by exactly the delays the rules fire — every 7th
// read and every 5th write 200 us, every 13th operation 50 us — the
// counts read from a recording of the faulty run (the recording Run is
// outermost and sees every operation the injector does).
//
// A 12-worker row (Dbench: 12 Clients) is deliberately not in the table:
// injected delay moves it past AttrTimeout, attributes it had cached
// expire, and its difference is 145 us off the computed one.
func TestChaosLatencyIsExactlyTheInjectedDelay(t *testing.T) {
	clean := pass(t, figure2)
	for _, chaos := range pass(t, chaosLatency) {
		act := chaos.record.Snapshot()
		reads, writes, ops := act.Kinds["read"].Ops, act.Kinds["write"].Ops, act.Ops
		if ops != chaos.Ops || ops == 0 {
			t.Fatalf("%s: snapshot counts %d operations, the row %d", chaos.Name, ops, chaos.Ops)
		}
		want := time.Duration(reads/7+writes/5)*200*time.Microsecond + time.Duration(ops/13)*50*time.Microsecond
		if c := figure2Row(clean, chaos.Name).CntrTime; chaos.Time != c+want {
			t.Errorf("%s: %dns clean, %dns under chaos: %dns longer, want %dns (%d reads, %d writes, %d ops)",
				chaos.Name, c, chaos.Time, chaos.Time-c, want, reads, writes, ops)
		}
	}
}

package phoronix

import (
	"testing"
	"time"

	"cntr/internal/policy"
)

// TestChaosLatencyIsExactlyTheInjectedDelay pins the -chaos latency mode:
// on a single-worker row the injector's sleeps advance the stack's clock
// and change nothing else, so the row under ChaosProfile takes longer
// than the clean row by exactly the delays the rules fire — every 7th
// read and every 5th write 200 us, every 13th operation 50 us — the
// counts read from a recording of the faulty run (the tracer is outermost
// and sees every operation the injector does).
//
// A 12-worker row (Dbench: 12 Clients) is deliberately not in the table:
// injected delay moves it past AttrTimeout, attributes it had cached
// expire, and its difference is 145 us off the computed one.
func TestChaosLatencyIsExactlyTheInjectedDelay(t *testing.T) {
	for _, name := range []string{"PostMark", "IOzone: Write", "Compilebench: Create", "SQLite"} {
		b := findBench(name)
		clean := Run(b, Setup{})
		col := policy.NewCollector()
		chaos := Run(b, Setup{Faults: ChaosProfile(), Record: col})
		if clean.Err != nil || chaos.Err != nil {
			t.Fatalf("%s: clean %v, under chaos %v", name, clean.Err, chaos.Err)
		}
		var reads, writes, ops int64
		for _, act := range col.Snapshot() {
			reads += act.Kinds["read"].Ops
			writes += act.Kinds["write"].Ops
			ops += act.Ops
		}
		if ops != chaos.Ops || ops == 0 {
			t.Fatalf("%s: snapshot counts %d operations, the row %d", name, ops, chaos.Ops)
		}
		want := time.Duration(reads/7+writes/5)*200*time.Microsecond + time.Duration(ops/13)*50*time.Microsecond
		if chaos.Time != clean.Time+want {
			t.Errorf("%s: %dns clean, %dns under chaos: %dns longer, want %dns (%d reads, %d writes, %d ops)",
				name, clean.Time, chaos.Time, chaos.Time-clean.Time, want, reads, writes, ops)
		}
	}
}

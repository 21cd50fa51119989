package phoronix

import (
	"testing"
	"time"

	"cntr/internal/vfs"
)

// chaosErrnoProfile is ChaosProfile plus occasional injected errnos on
// the data path — the composition workload for running chaos under an
// enforced policy: the injected errors must surface in the collector's
// errno histograms (and, usually, abort the benchmark that drew them)
// without ever registering as policy denials or new profile rules.
func chaosErrnoProfile() []vfs.FaultRule {
	return append(ChaosProfile(),
		vfs.FaultRule{Kind: vfs.KindRead, Errno: vfs.EIO, EveryN: 701},
		vfs.FaultRule{Kind: vfs.KindWrite, Errno: vfs.ENOSPC, EveryN: 887},
	)
}

// TestChaosLatencyIsExactlyTheInjectedDelay pins the chaos/latency mode:
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
	for _, chaos := range pass(t, shared().chaosLatency) {
		act := chaos.record.Snapshot()
		reads, writes, ops := act.Kinds["read"].Ops, act.Kinds["write"].Ops, act.Ops
		if ops != chaos.Ops || ops == 0 {
			t.Fatalf("%s: snapshot counts %d operations, the row %d", chaos.Name, ops, chaos.Ops)
		}
		want := time.Duration(reads/7+writes/5)*200*time.Microsecond + time.Duration(ops/13)*50*time.Microsecond
		if c := chaos.clean; chaos.Time != c+want {
			t.Errorf("%s: %dns clean, %dns under chaos: %dns longer, want %dns (%d reads, %d writes, %d ops)",
				chaos.Name, c, chaos.Time, chaos.Time-c, want, reads, writes, ops)
		}
	}
}

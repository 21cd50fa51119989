package phoronix

import (
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/stack"
)

// TestMetaStormWorkload: the metadata-write storm must complete on both
// stacks, and — being pure metadata round trips the page cache cannot
// absorb — must cost CntrFS measurably more than the native stack,
// PostMark-style.
func TestMetaStormWorkload(t *testing.T) {
	r := pass(t, shared().metaStorm)
	if r.Work == 0 {
		t.Fatal("meta-storm performed no operations")
	}
	if r.Overhead <= 1.0 {
		t.Fatalf("meta-storm overhead = %.2fx; metadata churn should cost CntrFS more than native", r.Overhead)
	}
}

// TestMetaStormNotInSuite: Figure 2 is the paper's fixed twenty rows;
// the storm rides the stress/chaos pipeline instead.
func TestMetaStormNotInSuite(t *testing.T) {
	for i := range Suite {
		if Suite[i].Name == MetaStorm.Name {
			t.Fatalf("MetaStorm leaked into the Figure 2 suite at index %d", i)
		}
	}
}

// TestMetaStormChaosEnforcedOverFourServerThreads re-runs the chaos +
// enforcement composition on a mount with four server threads reading
// the request table: the storm plus a metadata-heavy subset of the suite
// replay under injected faults with their recorded profiles enforced, and
// no injected fault may register as a policy denial, whichever thread
// served the request.
func TestMetaStormChaosEnforcedOverFourServerThreads(t *testing.T) {
	benches := []*Benchmark{&MetaStorm,
		findBench("PostMark"), findBench("Compilebench: Create")}
	for _, b := range benches {
		prof := recordedProfile(t, b)
		// Replay with latency chaos + enforcement over an explicitly
		// four-thread mount. (Errno injection is left out: an aborted
		// benchmark would prove nothing about scheduler/policy composition.)
		mount := fuse.DefaultMountOptions()
		mount.ServerThreads = 4
		r := Run(b, Setup{Config: stack.Config{Mount: mount}, Enforce: prof, Faults: ChaosProfile()})
		if r.Err != nil {
			t.Fatalf("%s under chaos+enforce on four server threads: %v", b.Name, r.Err)
		}
		if r.Denials != 0 {
			t.Fatalf("%s: %d denials under its own profile", b.Name, r.Denials)
		}
	}
}

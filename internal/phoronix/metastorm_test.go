package phoronix

import (
	"testing"
	"time"

	"cntr/internal/policy"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// suiteByName finds a Figure 2 row for the composition tests.
func suiteByName(t *testing.T, name string) *Benchmark {
	t.Helper()
	for i := range Suite {
		if Suite[i].Name == name {
			return &Suite[i]
		}
	}
	t.Fatalf("no suite benchmark named %q", name)
	return nil
}

// TestMetaStormWorkload: the metadata-write storm must complete on both
// stacks, and — being pure metadata round trips the page cache cannot
// absorb — must cost CntrFS measurably more than the native stack,
// PostMark-style.
func TestMetaStormWorkload(t *testing.T) {
	r, err := RunBenchmark(&MetaStorm)
	if err != nil {
		t.Fatal(err)
	}
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
		suiteByName(t, "PostMark"), suiteByName(t, "Compilebench: Create")}
	for _, b := range benches {
		// Record a clean run and generate the profile to enforce.
		col := policy.NewCollector()
		rec := stack.NewCntr(stackConfig())
		run := col.NewRun()
		tr := vfs.NewTracer(1)
		tr.Sink = run.Sink
		if _, _, err := RunOn(b, vfs.Chain(rec.Top, tr), rec.Host, rec.Clock, rec.Model, rec.Disk, 42); err != nil {
			rec.Close()
			t.Fatalf("%s clean recording: %v", b.Name, err)
		}
		rec.Close()
		prof := col.Profile(policy.GenOptions{})
		if len(prof.Rules) == 0 {
			t.Fatalf("%s: clean trace generated no rules", b.Name)
		}

		// Replay with latency chaos + enforcement over an explicitly
		// four-thread mount. (Errno injection is left out: an aborted
		// benchmark would prove nothing about scheduler/policy composition.)
		cfg := stackConfig()
		cfg.Mount.ServerThreads = 4
		c := stack.NewCntr(cfg)
		enf := policy.NewEnforcer(prof, false)
		inj := vfs.NewFaultInjector(ChaosProfile()...)
		inj.Sleep = func(d time.Duration) { c.Clock.Advance(d) }
		top := vfs.Chain(c.Top, enf, inj)
		_, _, err := RunOn(b, top, c.Host, c.Clock, c.Model, c.Disk, 42)
		c.Close()
		if err != nil {
			t.Fatalf("%s under chaos+enforce on four server threads: %v", b.Name, err)
		}
		if d := enf.Denials(); d != 0 {
			t.Fatalf("%s: %d denials under its own profile: %+v",
				b.Name, d, enf.Violations())
		}
	}
}

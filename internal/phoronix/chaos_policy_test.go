package phoronix

import (
	"strings"
	"testing"

	"cntr/internal/policy"
)

// TestChaosComposesWithPolicy is the composition check from the roadmap:
// replaying the suite with injected faults *under an enforced profile*
// must route every injected errno into the collector's histogram buckets
// while (a) never registering a policy denial — faults are not policy
// violations — and (b) never mutating the shape of the profile a
// recording of the chaotic run would generate: no new rule prefixes, no
// new kinds, because an injected errno changes an operation's outcome,
// not its existence.
func TestChaosComposesWithPolicy(t *testing.T) {
	// The suite replayed under chaos (latency + injected errnos) with its
	// clean recording's profile enforced, into a second collector.
	ec := pass(t, enforceChaos)
	prof, chaotic := ec.prof, ec.chaotic
	if len(prof.Rules) == 0 {
		t.Fatal("clean trace generated no rules")
	}
	aborted := 0
	for _, r := range ec.rows {
		if r.Denials != 0 || r.Audited != 0 {
			t.Fatalf("%s: injected faults registered as policy violations: denials=%d audited=%d",
				r.Name, r.Denials, r.Audited)
		}
		if r.Err != nil {
			aborted++
		}
	}

	// The injected errnos landed in histogram buckets.
	if b := errnoBuckets(chaotic); b["read:input/output_error"]+b["write:no_space_left_on_device"] == 0 {
		t.Fatalf("no injected errnos reached the histograms (aborted=%d of %d benchmarks)",
			aborted, len(ec.rows))
	}

	// Rule shape: the profile generated from the chaotic recording must
	// be contained in the clean one — same prefixes, no new kinds. (The
	// chaotic run can be a strict subset: a benchmark aborted by an
	// injected errno stops contributing anchors.)
	cleanRules := make(map[string]map[string]bool, len(prof.Rules))
	for _, r := range prof.Rules {
		kinds := make(map[string]bool, len(r.Kinds))
		for _, k := range r.Kinds {
			kinds[k] = true
		}
		cleanRules[r.Prefix] = kinds
	}
	chaosProf := chaotic.Profile(policy.GenOptions{})
	for _, r := range chaosProf.Rules {
		kinds, ok := cleanRules[r.Prefix]
		if !ok {
			t.Errorf("chaos run invented rule prefix %q", r.Prefix)
			continue
		}
		for _, k := range r.Kinds {
			if !kinds[k] {
				t.Errorf("chaos run added kind %q under %q", k, r.Prefix)
			}
		}
	}
	cleanAny := make(map[string]bool, len(prof.AnyPathKinds))
	for _, k := range prof.AnyPathKinds {
		cleanAny[k] = true
	}
	for _, k := range chaosProf.AnyPathKinds {
		if !cleanAny[k] {
			t.Errorf("chaos run added any-path kind %q", k)
		}
	}
}

// TestRunRefusesUntrackableWindow: Setup.Enforce with a window Load
// would refuse fails the row with Load's error before the workload runs.
// Before, an auditing enforcer let the first data operation through and
// panicked allocating the window while holding its lock.
func TestRunRefusesUntrackableWindow(t *testing.T) {
	prof := &policy.Profile{WindowOps: 1 << 62, ReadBytesPerWindow: 1 << 20}
	r := Run(&Suite[0], Setup{Enforce: prof, Audit: true})
	if r.Err == nil || !strings.Contains(r.Err.Error(), "window_ops") {
		t.Fatalf("row error = %v, want window_ops refused", r.Err)
	}
	if r.Ops != 0 || r.Time != 0 {
		t.Fatalf("a refused row ran: ops %d, time %v", r.Ops, r.Time)
	}
}

package phoronix

import (
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
	// The clean recording of the suite, and its profile.
	prof := suiteRecording(t).Profile(policy.GenOptions{})
	if len(prof.Rules) == 0 {
		t.Fatal("clean trace generated no rules")
	}

	// Replay under chaos (latency + injected errnos) with the profile
	// enforced and a second collector recording the chaotic run.
	chaotic := policy.NewCollector()
	results := Sweep(nil, Setup{Faults: ChaosErrnoProfile(), Enforce: prof, Record: chaotic})
	if len(results) != len(Suite) {
		t.Fatalf("replayed %d benchmarks, want %d", len(results), len(Suite))
	}
	var denials, audited int64
	aborted := 0
	for _, r := range results {
		denials += r.Denials
		audited += r.Audited
		if r.Err != nil {
			aborted++
		}
	}
	if denials != 0 || audited != 0 {
		t.Fatalf("injected faults registered as policy violations: denials=%d audited=%d",
			denials, audited)
	}

	// The injected errnos landed in histogram buckets.
	var eio, enospc int64
	for _, act := range chaotic.Snapshot() {
		if k, ok := act.Kinds["read"]; ok {
			eio += k.Errnos["input/output error"]
		}
		if k, ok := act.Kinds["write"]; ok {
			enospc += k.Errnos["no space left on device"]
		}
	}
	if eio+enospc == 0 {
		t.Fatalf("no injected errnos reached the histograms (aborted=%d of %d benchmarks)",
			aborted, len(results))
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

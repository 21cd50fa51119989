package phoronix

import (
	"testing"
	"time"

	"cntr/internal/policy"
)

// TestConsolidationChaosEnforced is the consolidation acceptance check:
// three containers with disjoint workload mixes record three profiles,
// the fleet merge is enforced while ChaosErrnoProfile injects latency
// and errnos into every replayed workload over one shared store — and
// the injected errnos land in the recording's histogram buckets without
// a single policy denial.
func TestConsolidationChaosEnforced(t *testing.T) {
	if testing.Short() {
		t.Skip("records and replays the full suite")
	}
	rep, err := RunConsolidation(3)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Denials != 0 || rep.Audited != 0 {
		t.Fatalf("injected faults registered as policy violations: denials=%d audited=%d\n%s",
			rep.Denials, rep.Audited, FormatRows(rep.Results))
	}
	// The chaos really fired: both injected errno kinds reached the
	// chaotic recording's histograms. Injection is seeded and counted per
	// operation, so the buckets and the summed virtual time of the replay
	// are pinned.
	if rep.EIO != 1299 || rep.ENOSPC != 4 {
		t.Fatalf("injected errnos in the histograms: eio=%d enospc=%d, want 1299/4 (aborted=%d)",
			rep.EIO, rep.ENOSPC, rep.Aborted)
	}
	if want := 10067181270 * time.Nanosecond; rep.VirtTotal != want {
		t.Fatalf("summed virtual time = %dns, want %dns", rep.VirtTotal, want)
	}
	// Fleet-merge provenance: one source recording per container.
	m := rep.Merged
	if m.Runs != 3 || len(m.SourceRuns) != 3 || m.Version != policy.FormatVersion {
		t.Fatalf("merged fleet profile provenance: version=%d runs=%d sources=%v",
			m.Version, m.Runs, m.SourceRuns)
	}
	// The mixes partition the whole suite.
	total := 0
	for _, mix := range rep.Mix {
		total += len(mix)
	}
	if total != len(Suite) || len(rep.Results) != len(Suite) {
		t.Fatalf("consolidation covered %d workloads in mixes, %d results, want %d",
			total, len(rep.Results), len(Suite))
	}
	// Injected errnos abort some workloads (the suite treats errnos as
	// fatal) but never all of them.
	if rep.Aborted != 9 {
		t.Fatalf("aborted=%d of %d, want 9", rep.Aborted, len(Suite))
	}
}

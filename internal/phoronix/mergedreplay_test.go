package phoronix

import (
	"testing"

	"cntr/internal/policy"
)

// TestMergedReplayZeroDenials is the fleet-lifecycle acceptance check:
// two independently recorded runs of the suite merge into one versioned
// profile, and replaying the full suite under enforcement of that merge
// produces zero denials — while the merge's diff against either input
// is a non-empty structured delta (the other run and the merge headroom
// both contribute).
func TestMergedReplayZeroDenials(t *testing.T) {
	if testing.Short() {
		t.Skip("three full-suite sweeps")
	}
	rep, err := RunMergedReplay()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Denials != 0 {
		t.Fatalf("merged profile denied %d operations of its own recordings:\n%s",
			rep.Denials, FormatEnforceTable(rep.Results))
	}
	for _, r := range rep.Results {
		if r.Err != nil {
			t.Fatalf("%s failed under the merged profile: %v", r.Name, r.Err)
		}
	}
	m := rep.Merged
	if m.Version != policy.FormatVersion || m.Runs != 2 || len(m.SourceRuns) != 2 {
		t.Fatalf("merged lifecycle header: version=%d runs=%d sources=%v",
			m.Version, m.Runs, m.SourceRuns)
	}
	if m.Generation <= rep.ProfileA.Generation {
		t.Fatalf("merge did not bump the generation: %d vs %d",
			m.Generation, rep.ProfileA.Generation)
	}
	if rep.Diff == nil || rep.Diff.Empty() {
		t.Fatal("diff between input A and the merge is empty")
	}
	if m.WindowOps == 0 || (m.ReadBytesPerWindow == 0 && m.WriteBytesPerWindow == 0) {
		t.Fatalf("merged profile lost the windowed ceilings: %+v", m)
	}
}

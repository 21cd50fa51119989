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
		t.Skip("two full-suite sweeps and the shared recording")
	}
	rep := pass(t, shared().mergedReplay)
	var denials int64
	for _, r := range rep.rows {
		denials += r.Denials
		if r.Err != nil {
			t.Fatalf("%s failed under the merged profile: %v", r.Name, r.Err)
		}
	}
	if denials != 0 {
		t.Fatalf("merged profile denied %d operations of its own recordings:\n%s", denials, FormatRows(rep.rows))
	}
	m := rep.merged
	if m.Version != policy.FormatVersion || m.Runs != 2 || len(m.SourceRuns) != 2 {
		t.Fatalf("merged lifecycle header: version=%d runs=%d sources=%v",
			m.Version, m.Runs, m.SourceRuns)
	}
	a := pass(t, shared().seed42).Profile(policy.GenOptions{RunID: "suite-seed-42"})
	if m.Generation <= a.Generation {
		t.Fatalf("merge did not bump the generation: %d vs %d",
			m.Generation, a.Generation)
	}
	if policy.Diff(a, m).Empty() {
		t.Fatal("diff between input A and the merge is empty")
	}
	if m.WindowOps == 0 || (m.ReadBytesPerWindow == 0 && m.WriteBytesPerWindow == 0) {
		t.Fatalf("merged profile lost the windowed ceilings: %+v", m)
	}
}

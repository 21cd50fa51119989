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
	pA := suiteRecording(t).Profile(policy.GenOptions{RunID: "suite-seed-42"})
	pB := recordSuite(t, 43).Profile(policy.GenOptions{RunID: "suite-seed-43"})
	rep := RunMergedReplay(pA, pB)
	if rep.Denials != 0 {
		t.Fatalf("merged profile denied %d operations of its own recordings:\n%s",
			rep.Denials, FormatRows(rep.Results))
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
	if m.Generation <= pA.Generation {
		t.Fatalf("merge did not bump the generation: %d vs %d",
			m.Generation, pA.Generation)
	}
	if rep.Diff == nil || rep.Diff.Empty() {
		t.Fatal("diff between input A and the merge is empty")
	}
	if m.WindowOps == 0 || (m.ReadBytesPerWindow == 0 && m.WriteBytesPerWindow == 0) {
		t.Fatalf("merged profile lost the windowed ceilings: %+v", m)
	}
}

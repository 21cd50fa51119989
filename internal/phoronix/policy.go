package phoronix

import "cntr/internal/policy"

// MergedReplayReport is the output of RunMergedReplay: the merge of two
// recorded profiles, the structured delta it introduced over the first,
// and the enforcement replay under it.
type MergedReplayReport struct {
	Merged *policy.Profile
	// Diff is Diff(a, Merged): what recording b (plus merge headroom)
	// contributed beyond recording a.
	Diff    *policy.DiffReport
	Results []Row
	// Denials totals the replay's denials (must be zero: a merged
	// profile that denies the workloads it was recorded from is broken).
	Denials int64
}

// RunMergedReplay is the fleet half of the policy lifecycle: a and b,
// profiles of two independent suite recordings (different machines, days
// or workload seeds), union into one profile, and the suite replays
// under enforcement of it — the merge must still admit each contributing
// workload.
func RunMergedReplay(a, b *policy.Profile) *MergedReplayReport {
	merged := policy.Merge(policy.MergeOptions{}, a, b)
	rep := &MergedReplayReport{
		Merged: merged, Diff: policy.Diff(a, merged),
		Results: Sweep(nil, Setup{Enforce: merged}),
	}
	for _, r := range rep.Results {
		rep.Denials += r.Denials
	}
	return rep
}

package phoronix

import (
	"fmt"
	"testing"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/policy"
	"cntr/internal/stack"
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
	rep := pass(t, consolidation)
	if rep.Denials != 0 || rep.Audited != 0 {
		t.Fatalf("injected faults registered as policy violations: denials=%d audited=%d\n%s",
			rep.Denials, rep.Audited, FormatRows(rep.Results))
	}
	// The chaos really fired: both injected errno kinds reached the
	// chaotic recording's histograms.
	if rep.EIO == 0 || rep.ENOSPC == 0 {
		t.Fatalf("injected errnos in the histograms: eio=%d enospc=%d (aborted=%d)",
			rep.EIO, rep.ENOSPC, rep.Aborted)
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
	if rep.Aborted == 0 || rep.Aborted == len(Suite) {
		t.Fatalf("aborted=%d of %d, want some but not all", rep.Aborted, len(Suite))
	}
}

// ConsolidationReport is the outcome of RunConsolidation: N containers,
// each running its own mix of suite workloads over one shared
// content-addressed host store, replayed under an enforced fleet
// profile with chaos (latency + injected errnos) composed on the same
// chain.
type ConsolidationReport struct {
	Containers int
	// Mix lists the workload names each container ran.
	Mix [][]string
	// Merged is the fleet profile: the union of every container's
	// individually recorded profile.
	Merged  *policy.Profile
	Results []Row
	// Denials/Audited must both be zero: injected faults are backend
	// weather, not policy violations, and the merged profile must admit
	// every workload it was recorded from.
	Denials int64
	Audited int64
	// EIO/ENOSPC count the injected errnos that reached the chaotic
	// recording's histogram buckets (read: input/output error, write: no
	// space left on device) — nonzero proves the faults actually fired.
	EIO    int64
	ENOSPC int64
	// Aborted counts workloads an injected errno terminated early (the
	// suite treats any errno as fatal); their partial traces still
	// contribute to the histograms.
	Aborted int
	// VirtTotal is the summed virtual time of every replayed workload.
	VirtTotal time.Duration
}

// RunConsolidation models consolidating n containers onto one host: the
// suite is dealt round-robin into n per-container workload mixes, each
// mix is recorded cleanly into its own profile (one recording per
// container, as a fleet would collect them), the profiles merge into
// one fleet profile, and then every container replays its mix over a
// shared content-addressed store with the merged profile enforced and
// ChaosErrnoProfile faults injected on the same interceptor chain. The
// invariants the report pins: zero denials (the merge admits each
// contributor, and injected faults never register as violations) and
// nonzero injected-errno histogram buckets (the chaos really ran).
func RunConsolidation(n int) (*ConsolidationReport, error) {
	if n <= 0 {
		n = 3
	}
	mixes := make([][]*Benchmark, n)
	for i := range Suite {
		mixes[i%n] = append(mixes[i%n], &Suite[i])
	}

	// Per-container clean recordings → per-container profiles.
	profiles := make([]*policy.Profile, 0, n)
	rep := &ConsolidationReport{Containers: n, Mix: make([][]string, n)}
	for i, mix := range mixes {
		for _, b := range mix {
			rep.Mix[i] = append(rep.Mix[i], b.Name)
		}
		col := policy.NewCollector()
		for _, r := range Sweep(mix, Setup{Record: col}) {
			if r.Err != nil {
				return nil, fmt.Errorf("recording container %d: %w", i, r.Err)
			}
		}
		profiles = append(profiles, col.Profile(policy.GenOptions{
			RunID: fmt.Sprintf("container-%d", i),
		}))
	}
	rep.Merged = policy.Merge(policy.MergeOptions{}, profiles...)

	// Consolidated replay: every container's mix on the shared store,
	// chaos + enforcement + a recording Run composed per workload.
	chaotic := policy.NewCollector()
	replay := Setup{
		Config:  stack.Config{Store: blobstore.NewCAS(blobstore.CASOptions{})},
		Faults:  ChaosErrnoProfile(),
		Enforce: rep.Merged,
		Record:  chaotic,
	}
	for _, mix := range mixes {
		for _, r := range Sweep(mix, replay) {
			rep.Results = append(rep.Results, r)
			rep.Denials += r.Denials
			rep.Audited += r.Audited
			rep.VirtTotal += r.Time
			if r.Err != nil {
				rep.Aborted++
			}
		}
	}
	act := chaotic.Snapshot()
	rep.EIO = act.Kinds["read"].Errnos["input/output error"]
	rep.ENOSPC = act.Kinds["write"].Errnos["no space left on device"]
	return rep, nil
}

package phoronix

import (
	"fmt"
	"strings"
	"time"

	"cntr/internal/policy"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// TraceResult is one benchmark measured under tracing.
type TraceResult struct {
	Name string
	Time time.Duration
	// Ops is the number of operations the tracer recorded for the run.
	Ops int64
	// Dropped counts entries that never reached the collector; nonzero
	// taints the recording for profile generation.
	Dropped int64
}

// RunTracedAll runs the whole suite on fresh Cntr stacks with a
// vfs.Tracer at syscall entry feeding col, joining each mount's
// request-table origin counters afterwards. The caller generates the
// enforceable profile from the returned collector (col.Profile) — this
// is the recording half of the BEACON-style trace → policy loop.
func RunTracedAll(col *policy.Collector) ([]TraceResult, error) {
	return RunTracedAllSeeded(col, 42)
}

// RunTracedAllSeeded is RunTracedAll with the workload seed exposed,
// so two independent recordings of the same suite (different seeds →
// different file sizes and access orders) can be merged into one fleet
// profile.
func RunTracedAllSeeded(col *policy.Collector, seed uint64) ([]TraceResult, error) {
	benches := make([]*Benchmark, 0, len(Suite))
	for i := range Suite {
		benches = append(benches, &Suite[i])
	}
	return RunTracedSubset(col, benches, seed)
}

// RunTracedSubset records an arbitrary workload mix — the per-container
// recording primitive for consolidation experiments, where each
// container runs its own subset of the suite and contributes one
// profile to the fleet merge. Entries reach the collector through the
// tracer's batch flusher (a suite recording is a million operations and
// nobody reads the collector until it ends), with a final flush before
// each benchmark's stack is torn down.
func RunTracedSubset(col *policy.Collector, benches []*Benchmark, seed uint64) ([]TraceResult, error) {
	out := make([]TraceResult, 0, len(benches))
	for _, b := range benches {
		c := stack.NewCntr(stackConfig())
		// Fresh stack, fresh inode numbering: a new path-learning scope
		// per benchmark (aggregation is shared across the suite).
		run := col.NewRun()
		var ops int64
		tr := vfs.NewTracer(1)
		stop := tr.StartBatchSink(func(batch []vfs.TraceEntry) {
			ops += int64(len(batch))
			run.SinkBatch(batch)
		})
		top := vfs.Chain(c.Top, tr)
		t, _, err := RunOn(b, top, c.Host, c.Clock, c.Model, c.Disk, seed)
		stop() // final flush; ops is stable after this
		if err == nil {
			col.JoinOriginStats(c.Server.OriginStats())
		}
		c.Close()
		if err != nil {
			return out, err
		}
		out = append(out, TraceResult{Name: b.Name, Time: t, Ops: ops, Dropped: tr.DroppedEntries()})
	}
	return out, nil
}

// EnforceResult is one benchmark replayed under policy enforcement.
type EnforceResult struct {
	Name string
	Time time.Duration
	// Denials counts operations rejected with EACCES (must be zero when
	// replaying the profile generated from the same workload).
	Denials int64
	// Audited counts off-profile operations observed in audit mode.
	Audited int64
	Err     error
}

// RunEnforcedAll replays the suite on fresh Cntr stacks with a
// policy.Enforcer compiled from p at syscall entry. With audit set,
// off-profile operations are recorded rather than denied. A benchmark
// failing under enforcement (a denial surfacing as an errno) is
// reported in its result rather than aborting the sweep, so one
// mis-generated rule shows up as a row, not a crash.
func RunEnforcedAll(p *policy.Profile, audit bool) []EnforceResult {
	out := make([]EnforceResult, 0, len(Suite))
	for i := range Suite {
		b := &Suite[i]
		c := stack.NewCntr(stackConfig())
		enf := policy.NewEnforcer(p, audit)
		top := vfs.Chain(c.Top, enf)
		t, _, err := RunOn(b, top, c.Host, c.Clock, c.Model, c.Disk, 42)
		c.Close()
		out = append(out, EnforceResult{
			Name: b.Name, Time: t,
			Denials: enf.Denials(), Audited: enf.Audited(),
			Err: err,
		})
	}
	return out
}

// MergedReplayReport is the output of RunMergedReplay: the two
// independently recorded profiles, their merge, the structured delta
// the merge introduced over the first recording, and the enforcement
// replay under the merged profile.
type MergedReplayReport struct {
	ProfileA *policy.Profile
	ProfileB *policy.Profile
	Merged   *policy.Profile
	// Diff is Diff(ProfileA, Merged): what recording B (plus merge
	// headroom) contributed beyond recording A.
	Diff    *policy.DiffReport
	Results []EnforceResult
	// Denials totals the replay's denials (must be zero: a merged
	// profile that denies the workloads it was recorded from is broken).
	Denials int64
}

// RunMergedReplay exercises the full policy lifecycle over the suite:
// record two independent runs (different workload seeds), generate a
// versioned profile from each, merge them, then replay the suite under
// enforcement of the merged profile. The fleet workflow in one call —
// profiles from different machines or days union into one profile that
// must still admit each contributing workload.
func RunMergedReplay() (*MergedReplayReport, error) {
	colA := policy.NewCollector()
	if _, err := RunTracedAllSeeded(colA, 42); err != nil {
		return nil, fmt.Errorf("recording run A: %w", err)
	}
	pA := colA.Profile(policy.GenOptions{RunID: "suite-seed-42"})

	colB := policy.NewCollector()
	if _, err := RunTracedAllSeeded(colB, 43); err != nil {
		return nil, fmt.Errorf("recording run B: %w", err)
	}
	pB := colB.Profile(policy.GenOptions{RunID: "suite-seed-43"})

	merged := policy.Merge(policy.MergeOptions{}, pA, pB)
	results := RunEnforcedAll(merged, false)
	rep := &MergedReplayReport{
		ProfileA: pA, ProfileB: pB, Merged: merged,
		Diff: policy.Diff(pA, merged), Results: results,
	}
	for _, r := range results {
		rep.Denials += r.Denials
	}
	return rep, nil
}

// FormatTraceTable renders trace-run results.
func FormatTraceTable(results []TraceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %12s %9s\n", "Benchmark", "time", "traced ops", "dropped")
	for _, r := range results {
		fmt.Fprintf(&b, "%-28s %12v %12d %9d\n",
			r.Name, r.Time.Round(time.Microsecond), r.Ops, r.Dropped)
	}
	return b.String()
}

// FormatEnforceTable renders enforcement-replay results.
func FormatEnforceTable(results []EnforceResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %9s %9s %s\n",
		"Benchmark", "time", "denials", "audited", "status")
	for _, r := range results {
		status := "ok"
		if r.Err != nil {
			status = r.Err.Error()
		}
		fmt.Fprintf(&b, "%-28s %12v %9d %9d %s\n",
			r.Name, r.Time.Round(time.Microsecond), r.Denials, r.Audited, status)
	}
	return b.String()
}

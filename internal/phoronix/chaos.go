package phoronix

import (
	"fmt"
	"strings"
	"time"

	"cntr/internal/blobstore"
	"cntr/internal/policy"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

// ChaosProfile is the default fault/latency-injection rule set for the
// -chaos harness profile: periodic extra latency on the data path and a
// smaller tax across every operation, modelling a degraded backing store
// (an EBS volume having a bad day). Errors are deliberately absent from
// the default profile — the suite's workloads treat any errno as fatal,
// so the measurable axis under chaos is latency degradation.
func ChaosProfile() []vfs.FaultRule {
	return []vfs.FaultRule{
		{Kind: vfs.KindRead, Delay: 200 * time.Microsecond, EveryN: 7},
		{Kind: vfs.KindWrite, Delay: 200 * time.Microsecond, EveryN: 5},
		{Kind: vfs.KindAny, Delay: 50 * time.Microsecond, EveryN: 13},
	}
}

// ChaosResult is one benchmark measured on a clean Cntr stack and on the
// same stack with a FaultInjector at syscall entry.
type ChaosResult struct {
	Name        string
	CleanTime   time.Duration
	ChaosTime   time.Duration
	Degradation float64 // ChaosTime / CleanTime
}

// RunChaosBenchmark measures b on a clean Cntr stack, then again with
// the given fault rules injected at syscall entry (the vfs.FaultInjector
// interceptor the PR 1 chain made possible). The injector's sleeps
// advance the stack's virtual clock, so injected latency is measured in
// the same currency as everything else.
func RunChaosBenchmark(b *Benchmark, rules []vfs.FaultRule) (ChaosResult, error) {
	clean := stack.NewCntr(stackConfig())
	ct, _, err := RunOn(b, clean.Top, clean.Host, clean.Clock, clean.Model, clean.Disk, 42)
	clean.Close()
	if err != nil {
		return ChaosResult{}, err
	}

	chaotic := stack.NewCntr(stackConfig())
	defer chaotic.Close()
	inj := vfs.NewFaultInjector(rules...)
	inj.Sleep = func(d time.Duration) { chaotic.Clock.Advance(d) }
	top := vfs.Chain(chaotic.Top, inj)
	xt, _, err := RunOn(b, top, chaotic.Host, chaotic.Clock, chaotic.Model, chaotic.Disk, 42)
	if err != nil {
		return ChaosResult{}, err
	}
	return ChaosResult{
		Name: b.Name, CleanTime: ct, ChaosTime: xt,
		Degradation: float64(xt) / float64(ct),
	}, nil
}

// RunChaosAll runs the whole suite under the given rules (nil means
// ChaosProfile) and reports per-benchmark degradation.
func RunChaosAll(rules []vfs.FaultRule) ([]ChaosResult, error) {
	if rules == nil {
		rules = ChaosProfile()
	}
	out := make([]ChaosResult, 0, len(Suite))
	for i := range Suite {
		r, err := RunChaosBenchmark(&Suite[i], rules)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ChaosErrnoProfile is ChaosProfile plus occasional injected errnos on
// the data path — the composition workload for running chaos under an
// enforced policy: the injected errors must surface in the collector's
// errno histograms (and, usually, abort the benchmark that drew them)
// without ever registering as policy denials or new profile rules.
func ChaosErrnoProfile() []vfs.FaultRule {
	return append(ChaosProfile(),
		vfs.FaultRule{Kind: vfs.KindRead, Errno: vfs.EIO, EveryN: 701},
		vfs.FaultRule{Kind: vfs.KindWrite, Errno: vfs.ENOSPC, EveryN: 887},
	)
}

// ChaosEnforceResult is one benchmark replayed with fault injection and
// policy enforcement composed on one chain.
type ChaosEnforceResult struct {
	Name    string
	Time    time.Duration
	Denials int64
	Audited int64
	// Err is the benchmark's outcome; injected errnos surface here (the
	// workloads treat any errno as fatal) without aborting the sweep.
	Err error
}

// RunChaosEnforced replays one benchmark on a fresh Cntr stack with the
// full chain composed: a tracer feeding col outermost (so it records
// injected errnos exactly as it records real ones), the policy enforcer
// compiled from p next (policy decides at syscall entry), and the fault
// injector innermost (faults model the backing store behind an admitted
// operation). A nil col skips the tracer.
func RunChaosEnforced(b *Benchmark, rules []vfs.FaultRule, p *policy.Profile, audit bool, col *policy.Collector) ChaosEnforceResult {
	return runEnforced(stackConfig(), b, rules, p, audit, col)
}

// runEnforced is RunChaosEnforced on a stack built from cfg — the
// consolidation replay shares one content-addressed cfg.Store between
// its stacks.
func runEnforced(cfg stack.Config, b *Benchmark, rules []vfs.FaultRule, p *policy.Profile, audit bool, col *policy.Collector) ChaosEnforceResult {
	c := stack.NewCntr(cfg)
	defer c.Close()
	enf := policy.NewEnforcer(p, audit)
	inj := vfs.NewFaultInjector(rules...)
	inj.Sleep = func(d time.Duration) { c.Clock.Advance(d) }
	var ics []vfs.Interceptor
	if col != nil {
		tr := vfs.NewTracer(1)
		tr.Sink = col.NewRun().Sink
		ics = append(ics, tr)
	}
	ics = append(ics, enf, inj)
	top := vfs.Chain(c.Top, ics...)
	t, _, err := RunOn(b, top, c.Host, c.Clock, c.Model, c.Disk, 42)
	return ChaosEnforceResult{
		Name: b.Name, Time: t,
		Denials: enf.Denials(), Audited: enf.Audited(),
		Err: err,
	}
}

// RunChaosEnforcedAll replays the whole suite under composed chaos +
// enforcement (nil rules means ChaosErrnoProfile).
func RunChaosEnforcedAll(rules []vfs.FaultRule, p *policy.Profile, audit bool, col *policy.Collector) []ChaosEnforceResult {
	if rules == nil {
		rules = ChaosErrnoProfile()
	}
	out := make([]ChaosEnforceResult, 0, len(Suite))
	for i := range Suite {
		out = append(out, RunChaosEnforced(&Suite[i], rules, p, audit, col))
	}
	return out
}

// FormatChaosEnforceTable renders composed chaos + enforcement results.
func FormatChaosEnforceTable(results []ChaosEnforceResult) string {
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

// ChaosBlobProfile is the default rule set for backend-store chaos: the
// host filesystem's blob store occasionally loses a chunk or hands back
// corrupted bytes. Unlike syscall-entry fault injection, these faults
// originate *below* the filesystem — memfs must translate them into EIO
// on the read path for the workload to see anything at all.
func ChaosBlobProfile() []blobstore.FaultRule {
	return []blobstore.FaultRule{
		{Op: blobstore.FaultGet, Err: blobstore.ErrCorrupt, EveryN: 997},
		{Op: blobstore.FaultGet, Err: blobstore.ErrNotFound, EveryN: 1499},
	}
}

// ChaosBlobResult is one benchmark run over a fault-injecting blob
// store backend.
type ChaosBlobResult struct {
	Name     string
	Time     time.Duration
	Injected int64 // store-level faults fired
	// Err is the benchmark's outcome: injected store faults surface as
	// EIO through the filesystem's read path (the workloads treat any
	// errno as fatal), without aborting the sweep.
	Err error
}

// RunChaosBlob replays one benchmark on a Cntr stack whose host
// filesystem stores content in a content-addressed store wrapped with a
// blobstore.FaultInjector. It exercises the backend fault path
// end-to-end: a corrupt or missing chunk at the bottom of the stack must
// come back as EIO at syscall level.
func RunChaosBlob(b *Benchmark, rules []blobstore.FaultRule) ChaosBlobResult {
	cas := blobstore.NewCAS(blobstore.CASOptions{})
	inj := blobstore.NewFaultInjector(cas, rules...)
	cfg := stackConfig()
	cfg.Store = inj
	c := stack.NewCntr(cfg)
	defer c.Close()
	t, _, err := RunOn(b, c.Top, c.Host, c.Clock, c.Model, c.Disk, 42)
	return ChaosBlobResult{Name: b.Name, Time: t, Injected: inj.Injected(), Err: err}
}

// RunChaosBlobAll replays the whole suite over a fault-injecting blob
// store (nil rules means ChaosBlobProfile). Each benchmark gets a fresh
// store so injection counters restart.
func RunChaosBlobAll(rules []blobstore.FaultRule) []ChaosBlobResult {
	if rules == nil {
		rules = ChaosBlobProfile()
	}
	out := make([]ChaosBlobResult, 0, len(Suite))
	for i := range Suite {
		out = append(out, RunChaosBlob(&Suite[i], rules))
	}
	return out
}

// FormatChaosBlobTable renders backend-store chaos results.
func FormatChaosBlobTable(results []ChaosBlobResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %9s %s\n", "Benchmark", "time", "injected", "status")
	for _, r := range results {
		status := "ok"
		if r.Err != nil {
			status = r.Err.Error()
		}
		fmt.Fprintf(&b, "%-28s %12v %9d %s\n",
			r.Name, r.Time.Round(time.Microsecond), r.Injected, status)
	}
	return b.String()
}

// FormatChaosTable renders chaos results like FormatTable renders
// Figure 2.
func FormatChaosTable(results []ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %12s %12s\n",
		"Benchmark", "clean", "chaos", "degradation")
	for _, r := range results {
		fmt.Fprintf(&b, "%-28s %12v %12v %11.2fx\n",
			r.Name, r.CleanTime.Round(time.Microsecond),
			r.ChaosTime.Round(time.Microsecond), r.Degradation)
	}
	return b.String()
}

// Command phoronix runs the §5.2 disk suite and prints its tables.
//
//	(no flag)      Figure 2 on both stacks, Figure 3's panels, Figure 4
//	-trace-out f   record the suite on CntrFS, write the generated profile to f
//	-enforce f     replay the suite under the profile in f, report denials
//	               and list each row's first off-profile operations
//	               (-audit: count and list them, deny none)
//	-chaos         latency faults at syscall entry
//	-chaos-blob    a host blob store that loses and corrupts chunks
//	-merge-replay  record twice (seeds 42 and 43), merge the two profiles,
//	               replay under the merge; exits 1 on any denial
//	-cachesvc      the shared-cache-tier fleet demo, sized by -mounts and
//	               the -cache-* flags
//
// -enforce, -chaos and -chaos-blob compose: each fills its fields of the
// one phoronix.Setup every row of the replay runs under. -chaos alone is
// compared against a clean sweep; under -enforce it also injects errnos,
// which must land in the trace's errno histograms and never as denials.
// -trace-out composes with -enforce only (trace, then replay): a
// recording under injected faults would taint the profile. -merge-replay
// and -cachesvc run alone. Anything else exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"cntr/internal/phoronix"
	"cntr/internal/policy"
)

// options are the flags as given.
type options struct {
	chaos, chaosBlob  bool
	traceOut, enforce string
	audit             bool
	mergeReplay       bool
	cacheSvc          bool
	fleet             phoronix.MultiMountOptions
}

// fleetDefaults are the -cachesvc sizing flags left alone.
var fleetDefaults = phoronix.MultiMountOptions{Mounts: 4, Nodes: 1}

func main() {
	var o options
	flag.BoolVar(&o.chaos, "chaos", false,
		"run the suite under the fault/latency-injection profile and report degradation")
	flag.BoolVar(&o.chaosBlob, "chaos-blob", false,
		"run the suite over a fault-injecting content-addressed backend store")
	flag.StringVar(&o.traceOut, "trace-out", "",
		"trace the suite and write the generated policy profile JSON to this file")
	flag.StringVar(&o.enforce, "enforce", "",
		"replay the suite under the policy profile JSON at this path and report denials")
	flag.BoolVar(&o.audit, "audit", false,
		"with -enforce: record off-profile operations without denying them")
	flag.BoolVar(&o.cacheSvc, "cachesvc", false,
		"run the shared-cache-tier fleet demo instead of the suite")
	flag.IntVar(&o.fleet.Mounts, "mounts", fleetDefaults.Mounts,
		"with -cachesvc: number of CntrFS mounts in the fleet (2-8)")
	flag.IntVar(&o.fleet.Nodes, "cache-nodes", fleetDefaults.Nodes,
		"with -cachesvc: number of cache nodes the shards are placed across")
	flag.IntVar(&o.fleet.Replicas, "cache-replicas", 0,
		"with -cachesvc: replica copies per shard beyond the primary")
	flag.BoolVar(&o.fleet.KillNodeMid, "cache-kill-node", false,
		"with -cachesvc: kill the highest-id node once half the fleet has read")
	flag.BoolVar(&o.mergeReplay, "merge-replay", false,
		"record the suite twice (independent seeds), merge the two profiles, and replay under the merge")
	flag.Parse()

	mode, replay, err := o.plan()
	if err != nil {
		fmt.Fprintln(os.Stderr, "phoronix:", err)
		os.Exit(2)
	}
	switch mode {
	case "cachesvc":
		runCacheSvcDemo(o.fleet)
	case "merge-replay":
		runMergedReplay()
	case "suite":
		runSuite(o, replay)
	default:
		runFigures()
	}
}

// plan maps the flags to what runs — "figures", "cachesvc", "merge-replay"
// or "suite" — and, for "suite", to the Setup of the replay as far as the
// flags alone decide it (the profile is loaded when it runs). A
// combination that means nothing is an error, not a flag quietly dropped.
func (o options) plan() (mode string, replay phoronix.Setup, err error) {
	suite := o.chaos || o.chaosBlob || o.traceOut != "" || o.enforce != "" || o.audit
	switch {
	case !o.cacheSvc && o.fleet != fleetDefaults:
		err = errors.New("-mounts and the -cache-* flags require -cachesvc")
	case o.cacheSvc && (suite || o.mergeReplay):
		err = errors.New("-cachesvc runs alone")
	case o.cacheSvc && o.fleet.KillNodeMid && o.fleet.Nodes < 2:
		err = errors.New("-cache-kill-node needs -cache-nodes >= 2")
	case o.cacheSvc:
		mode = "cachesvc"
	case o.mergeReplay && suite:
		err = errors.New("-merge-replay runs alone")
	case o.mergeReplay:
		mode = "merge-replay"
	case o.audit && o.enforce == "":
		err = errors.New("-audit requires -enforce")
	case o.traceOut != "" && (o.chaos || o.chaosBlob):
		err = errors.New("-trace-out cannot be combined with -chaos or -chaos-blob: a recording under injected faults taints the profile")
	case suite:
		mode = "suite"
		replay.Audit = o.audit
		if o.chaos && o.enforce != "" {
			replay.Faults = phoronix.ChaosErrnoProfile()
		} else if o.chaos {
			replay.Faults = phoronix.ChaosProfile()
		}
		if o.chaosBlob {
			replay.StoreFaults = phoronix.ChaosBlobProfile()
		}
	default:
		mode = "figures"
	}
	return mode, replay, err
}

// check exits 1 on a run-time failure.
func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// must is check for a sweep no row of which may fail.
func must(rows []phoronix.Row) []phoronix.Row {
	for _, r := range rows {
		check(r.Err)
	}
	return rows
}

// runFigures prints Figures 2, 3 and 4.
func runFigures() {
	results, err := phoronix.RunAll()
	check(err)
	fmt.Println("== Figure 2: relative overhead of CntrFS ==")
	fmt.Print(phoronix.FormatTable(results))

	fmt.Println("\n== Figure 3: optimization effectiveness ==")
	for _, p := range phoronix.Figure3 {
		r, err := phoronix.RunPanel(p)
		check(err)
		fmt.Printf("%-32s before=%-14v after=%-14v speedup=%.2fx\n",
			r.Name, r.Before, r.After, r.Speedup)
		if !p.BeyondPaper {
			continue
		}
		// The paper's configuration is the panel's "before" side: report
		// how far each side leaves the panel's row from the paper's
		// Figure 2.
		for _, row := range results {
			if row.Name != p.Row {
				continue
			}
			logErr := func(cntr time.Duration) float64 {
				return math.Abs(math.Log(float64(cntr) / float64(row.NativeTime) / row.PaperOverhead))
			}
			fmt.Printf("%-32s phoronix.paper_log_err on %s (paper %.1fx): before=%.3f after=%.3f\n",
				"", row.Name, row.PaperOverhead, logErr(r.Before), logErr(r.After))
		}
	}

	fmt.Println("\n== Figure 4: server threads vs sequential read ==")
	m, err := phoronix.Figure4Threads()
	check(err)
	for _, n := range []int{1, 2, 4, 8, 16} {
		fmt.Printf("threads=%-3d time=%v\n", n, m[n])
	}
}

// runSuite records and/or replays the twenty rows on CntrFS: the trace
// half first when asked for, then one sweep under everything else the
// flags composed. A -trace-out and -enforce of the same path replay the
// profile just generated — the full loop in one invocation.
func runSuite(o options, replay phoronix.Setup) {
	var profile *policy.Profile
	if o.traceOut != "" {
		col := policy.NewCollector()
		rows := must(phoronix.Sweep(nil, phoronix.Setup{Record: col}))
		fmt.Println("== Traced run ==")
		fmt.Print(phoronix.FormatRows(rows))
		profile = col.Profile(policy.GenOptions{})
		blob, err := profile.Marshal()
		check(err)
		check(os.WriteFile(o.traceOut, blob, 0o644))
		fmt.Printf("\nwrote profile (%d rules) to %s\n", len(profile.Rules), o.traceOut)
		if o.enforce == "" {
			return
		}
		fmt.Println()
	}

	var under []string
	if o.chaos {
		under = append(under, "injected faults/latency")
	}
	if o.chaosBlob {
		under = append(under, "a faulty blob store")
	}
	if o.enforce != "" {
		if o.enforce != o.traceOut {
			blob, err := os.ReadFile(o.enforce)
			check(err)
			profile, err = policy.Load(blob)
			check(err)
		}
		replay.Enforce = profile
		if o.audit {
			under = append(under, "policy (audit mode)")
		} else {
			under = append(under, "policy (enforce mode)")
		}
		// Where the injected faults must land: errno histogram buckets of
		// a recording of the faulty run, not denials.
		if o.chaos || o.chaosBlob {
			replay.Record = policy.NewCollector()
		}
	}
	fmt.Printf("== CntrFS under %s ==\n", strings.Join(under, " + "))
	rows := phoronix.Sweep(nil, replay)

	if o.chaos && !o.chaosBlob && o.enforce == "" {
		clean := must(phoronix.Sweep(nil, phoronix.Setup{}))
		fmt.Printf("%-28s %12s %12s %12s\n", "Benchmark", "clean", "chaos", "degradation")
		for i, r := range must(rows) {
			fmt.Printf("%-28s %12v %12v %11.2fx\n", r.Name, clean[i].Time.Round(time.Microsecond),
				r.Time.Round(time.Microsecond), float64(r.Time)/float64(clean[i].Time))
		}
		return
	}

	fmt.Print(phoronix.FormatRows(rows))
	var denials, audited int64
	failed := false
	for _, r := range rows {
		denials += r.Denials
		audited += r.Audited
		failed = failed || r.Err != nil
	}
	if replay.Record != nil {
		var lines []string
		for kind, k := range replay.Record.Snapshot().Kinds {
			for name, n := range k.Errnos {
				if name != "ok" {
					lines = append(lines, fmt.Sprintf("  %-10s %-24s %d", kind, name, n))
				}
			}
		}
		sort.Strings(lines)
		fmt.Println("\nnon-ok errno buckets across the faulty run:")
		for _, l := range lines {
			fmt.Println(l)
		}
	}
	if o.enforce != "" {
		fmt.Printf("total denials=%d audited=%d\n", denials, audited)
		if denials+audited > 0 {
			printViolations(rows)
		}
	}
	// Rows are expected to fail where errnos are injected (the suite
	// treats any errno as fatal); a denial is never expected.
	errnosInjected := o.chaosBlob || (o.chaos && o.enforce != "")
	if denials != 0 || (failed && !errnosInjected) {
		os.Exit(1)
	}
}

// printViolations lists each row's first off-profile operations: what a
// profile replayed under -audit would deny, and why.
func printViolations(rows []phoronix.Row) {
	const perRow = 5
	fmt.Printf("off-profile operations, the first %d of each row:\n", perRow)
	for _, r := range rows {
		for i, v := range r.Violations {
			if i == perRow {
				fmt.Printf("  %-28s and %d more\n", r.Name, r.Denials+r.Audited-perRow)
				break
			}
			verdict := "audited"
			if v.Denied {
				verdict = "denied"
			}
			fmt.Printf("  %-28s %-10v %-32s %s, %s\n", r.Name, v.Kind, v.Path, v.Reason, verdict)
		}
	}
}

// runMergedReplay runs the fleet policy lifecycle: two independent
// recordings of the suite, one merged profile, one enforcement replay.
// The merge must admit its own recordings with zero denials.
func runMergedReplay() {
	fmt.Println("== Policy lifecycle: record x2 -> merge -> enforce ==")
	record := func(seed uint64, runID string) *policy.Profile {
		col := policy.NewCollector()
		must(phoronix.Sweep(nil, phoronix.Setup{Record: col, Seed: seed}))
		return col.Profile(policy.GenOptions{RunID: runID})
	}
	a, b := record(42, "suite-seed-42"), record(43, "suite-seed-43")
	rep := phoronix.RunMergedReplay(a, b)
	m := rep.Merged
	fmt.Printf("profile A: generation %d, %d rules (%s)\n", a.Generation, len(a.Rules), a.SourceRuns)
	fmt.Printf("profile B: generation %d, %d rules (%s)\n", b.Generation, len(b.Rules), b.SourceRuns)
	fmt.Printf("merged:    generation %d, %d rules, %d runs, window %d ops (read %d B, write %d B)\n",
		m.Generation, len(m.Rules), m.Runs, m.WindowOps, m.ReadBytesPerWindow, m.WriteBytesPerWindow)
	fmt.Printf("diff A -> merged: %s\n\n", rep.Diff.Summary())
	fmt.Print(phoronix.FormatRows(rep.Results))
	fmt.Printf("\ntotal denials=%d (a merged profile must admit its own recordings)\n", rep.Denials)
	if rep.Denials != 0 {
		os.Exit(1)
	}
}

// runCacheSvcDemo runs the multi-mount cold-read experiment with and
// without the shared cache tier and prints the comparison, plus the
// per-node split and the kill's outcome when the tier is multi-node.
func runCacheSvcDemo(opts phoronix.MultiMountOptions) {
	if opts.Mounts < 2 {
		opts.Mounts = 2
	}
	if opts.Mounts > 8 {
		opts.Mounts = 8
	}

	fmt.Printf("== Shared cache tier: %d mounts, one CAS, a 16-image tree ==\n", opts.Mounts)
	if opts.Nodes > 1 {
		fmt.Printf("   tier: %d nodes, %d replica(s) per shard", opts.Nodes, opts.Replicas)
		if opts.KillNodeMid {
			fmt.Printf(", node %d killed mid-fleet", opts.Nodes-1)
		}
		fmt.Println()
	}
	opts.UseService = false
	base, err := phoronix.RunMultiMount(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts.UseService = true
	svc, err := phoronix.RunMultiMount(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("%-22s %14s %14s\n", "", "no service", "shared tier")
	fmt.Printf("%-22s %14v %14v\n", "fleet cold-read total",
		base.ColdReadTotal.Round(fmtRound), svc.ColdReadTotal.Round(fmtRound))
	fmt.Printf("%-22s %14v %14v\n", "slowest mount",
		base.ColdReadMax.Round(fmtRound), svc.ColdReadMax.Round(fmtRound))
	fmt.Printf("%-22s %14d %14d\n", "bytes read", base.BytesRead, svc.BytesRead)
	fmt.Printf("%-22s %14s %13.1f%%\n", "tier hit ratio", "-", svc.HitRatio*100)
	fmt.Printf("%-22s %14s %14d\n", "tier entries", "-", svc.TierStats.Entries)
	fmt.Printf("%-22s %14s %14d\n", "fenced writes", "-", svc.TierStats.FencedWrites)
	fmt.Printf("\nspeedup with shared tier: %.2fx\n",
		float64(base.ColdReadTotal)/float64(svc.ColdReadTotal))

	if opts.Nodes > 1 {
		// The placement starts at version 1 and every kill bumps it once.
		version := 1
		fmt.Printf("\n%-6s %-6s %8s %10s %10s %8s\n",
			"node", "live", "shards", "hits", "puts", "fenced")
		for _, ns := range svc.NodeStats {
			fmt.Printf("%-6d %-6t %8d %10d %10d %8d\n",
				ns.ID, ns.Live, ns.Shards, ns.Hits, ns.Puts, ns.FencedWrites)
			if !ns.Live {
				version++
			}
		}
		fmt.Printf("\nplacement v%d, %d lost shards\n", version, svc.TierStats.LostShards)
	}
}

const fmtRound = 100 * 1000 // 100us, in time.Duration units

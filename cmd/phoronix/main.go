// Command phoronix runs the §5.2 disk suite on both stacks and prints
// the Figure 2 table, the Figure 3 optimization panels and the Figure 4
// thread sweep. With -chaos it instead runs the suite on a clean Cntr
// stack and on one with the FaultInjector interceptor at syscall entry,
// reporting the latency degradation per benchmark.
//
// The -trace-out / -enforce pair closes the trace → policy loop: a run
// with -trace-out records every operation the suite performs and writes
// the generated allowlist profile as JSON; a run with -enforce replays
// the suite with that profile enforced at syscall entry and reports
// denials (zero when a run is replayed under its own profile). Both
// flags together trace and replay in one invocation. -audit downgrades
// enforcement to recording violations without denying them.
//
// -chaos composes with -enforce: the suite replays with the fault
// injector *and* the policy enforcer on one chain (plus errno-injecting
// rules), demonstrating that injected faults surface as errnos in the
// trace, never as policy denials.
//
// -chaos-blob injects faults one layer lower: the host filesystem's
// content-addressed blob store occasionally loses or corrupts chunks,
// which must surface as EIO through the whole stack.
//
// -cachesvc runs the distributed shared-cache demo instead of the
// suite: a fleet of -mounts CntrFS mounts over one content-addressed
// store cold-reads the same image tree twice — once with every mount
// paying the origin volume, once attached to the shared cache tier —
// and prints the per-fleet totals plus the tier's hit ratio.
// -cache-nodes and -cache-replicas size the tier's node set (shards
// are placed on a primary plus R replicas via rendezvous hashing);
// -cache-kill-node fails the highest-id node once half the fleet has
// read, and -cache-drain-node drains node 0 mid-workload with live
// shard migration — both print the per-node counter split and the
// migration counters so the replicas' contribution is visible.
//
// -merge-replay runs the policy lifecycle end to end: the suite is
// recorded twice under independent workload seeds, the two versioned
// profiles are merged (rule union, ceiling max plus headroom), and the
// suite replays under enforcement of the merge — exiting non-zero on
// any denial. Use cmd/policyctl to merge/diff/tighten profile files
// recorded in separate invocations.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"cntr/internal/phoronix"
	"cntr/internal/policy"
)

func main() {
	chaos := flag.Bool("chaos", false,
		"run the suite under the fault/latency-injection profile and report degradation")
	chaosBlob := flag.Bool("chaos-blob", false,
		"run the suite over a fault-injecting content-addressed backend store")
	traceOut := flag.String("trace-out", "",
		"trace the suite and write the generated policy profile JSON to this file")
	enforce := flag.String("enforce", "",
		"replay the suite under the policy profile JSON at this path and report denials")
	audit := flag.Bool("audit", false,
		"with -enforce: record off-profile operations without denying them")
	cacheSvc := flag.Bool("cachesvc", false,
		"run the shared-cache-tier fleet demo instead of the suite")
	mounts := flag.Int("mounts", 4,
		"with -cachesvc: number of CntrFS mounts in the fleet (2-8)")
	cacheNodes := flag.Int("cache-nodes", 1,
		"with -cachesvc: number of cache nodes the shards are placed across")
	cacheReplicas := flag.Int("cache-replicas", 0,
		"with -cachesvc: replica copies per shard beyond the primary")
	cacheKill := flag.Bool("cache-kill-node", false,
		"with -cachesvc: kill the highest-id node once half the fleet has read")
	cacheDrain := flag.Bool("cache-drain-node", false,
		"with -cachesvc: drain node 0 mid-workload and migrate its shards away")
	mergeReplay := flag.Bool("merge-replay", false,
		"record the suite twice (independent seeds), merge the two profiles, and replay under the merge")
	flag.Parse()

	if *cacheSvc {
		if (*cacheKill || *cacheDrain) && *cacheNodes < 2 {
			fmt.Fprintln(os.Stderr, "phoronix: -cache-kill-node/-cache-drain-node need -cache-nodes >= 2")
			os.Exit(2)
		}
		runCacheSvcDemo(*mounts, *cacheNodes, *cacheReplicas, *cacheKill, *cacheDrain)
		return
	}
	if *mergeReplay {
		runMergedReplay()
		return
	}

	if *audit && *enforce == "" {
		fmt.Fprintln(os.Stderr, "phoronix: -audit requires -enforce")
		os.Exit(2)
	}
	if *chaos && *traceOut != "" {
		fmt.Fprintln(os.Stderr, "phoronix: -chaos cannot be combined with -trace-out")
		os.Exit(2)
	}

	if *chaos && *enforce != "" {
		runChaosEnforced(*enforce, *audit)
		return
	}

	if *chaosBlob {
		results := phoronix.RunChaosBlobAll(nil)
		fmt.Println("== Backend-store chaos: CntrFS over a faulty blob store ==")
		fmt.Print(phoronix.FormatChaosBlobTable(results))
		return
	}

	if *chaos {
		results, err := phoronix.RunChaosAll(nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("== Chaos profile: CntrFS under injected faults/latency ==")
		fmt.Print(phoronix.FormatChaosTable(results))
		return
	}

	if *traceOut != "" || *enforce != "" {
		runPolicy(*traceOut, *enforce, *audit)
		return
	}

	results, err := phoronix.RunAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("== Figure 2: relative overhead of CntrFS ==")
	fmt.Print(phoronix.FormatTable(results))

	fmt.Println("\n== Figure 3: optimization effectiveness ==")
	panel := func(fn func() (phoronix.OptResult, error)) phoronix.OptResult {
		r, err := fn()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("%-32s before=%-14v after=%-14v speedup=%.2fx\n",
			r.Name, r.Before, r.After, r.Speedup)
		return r
	}
	for _, fn := range []func() (phoronix.OptResult, error){
		phoronix.Figure3ReadCache, phoronix.Figure3Writeback,
		phoronix.Figure3Batching, phoronix.Figure3Splice,
	} {
		panel(fn)
	}
	// The last three panels are beyond the paper, whose configuration is
	// their "before" side: report how far each side leaves the panel's row
	// from the paper's Figure 2.
	for _, beyond := range []struct {
		row string
		fn  func() (phoronix.OptResult, error)
	}{
		{"IOzone: Write", phoronix.Figure3NoSec},
		{"Compilebench: Create", phoronix.Figure3SmallFile},
		{"IOzone: Read", phoronix.Figure3SingleBuffer},
	} {
		r := panel(beyond.fn)
		for _, row := range results {
			if row.Name != beyond.row {
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
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, n := range []int{1, 2, 4, 8, 16} {
		fmt.Printf("threads=%-3d time=%v\n", n, m[n])
	}
}

// runMergedReplay runs the full policy lifecycle: two independent
// recordings of the suite, one merged profile, one enforcement replay.
// The merge must admit its own recordings with zero denials.
func runMergedReplay() {
	fmt.Println("== Policy lifecycle: record x2 -> merge -> enforce ==")
	rep, err := phoronix.RunMergedReplay()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	m := rep.Merged
	fmt.Printf("profile A: generation %d, %d rules (%s)\n",
		rep.ProfileA.Generation, len(rep.ProfileA.Rules), rep.ProfileA.SourceRuns)
	fmt.Printf("profile B: generation %d, %d rules (%s)\n",
		rep.ProfileB.Generation, len(rep.ProfileB.Rules), rep.ProfileB.SourceRuns)
	fmt.Printf("merged:    generation %d, %d rules, %d runs, window %d ops (read %d B, write %d B)\n",
		m.Generation, len(m.Rules), m.Runs, m.WindowOps, m.ReadBytesPerWindow, m.WriteBytesPerWindow)
	fmt.Printf("diff A -> merged: %s\n\n", rep.Diff.Summary())
	fmt.Print(phoronix.FormatEnforceTable(rep.Results))
	fmt.Printf("\ntotal denials=%d (a merged profile must admit its own recordings)\n", rep.Denials)
	if rep.Denials != 0 {
		os.Exit(1)
	}
}

// runCacheSvcDemo runs the multi-mount cold-read experiment with and
// without the shared cache tier and prints the comparison, plus the
// per-node split and migration counters when the tier is multi-node.
func runCacheSvcDemo(mounts, nodes, replicas int, kill, drain bool) {
	if mounts < 2 {
		mounts = 2
	}
	if mounts > 8 {
		mounts = 8
	}
	opts := phoronix.MultiMountOptions{
		Mounts: mounts, Nodes: nodes, Replicas: replicas,
		KillNodeMid: kill, DrainNodeMid: drain,
	}

	fmt.Printf("== Shared cache tier: %d mounts, one CAS, Top-50 image tree ==\n", mounts)
	if nodes > 1 {
		fmt.Printf("   tier: %d nodes, %d replica(s) per shard", nodes, replicas)
		if kill {
			fmt.Printf(", node %d killed mid-fleet", nodes-1)
		}
		if drain {
			fmt.Printf(", node 0 drained mid-fleet")
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

	if nodes > 1 {
		fmt.Printf("\n%-6s %-6s %-9s %8s %10s %10s %8s\n",
			"node", "live", "draining", "shards", "hits", "puts", "fenced")
		for _, ns := range svc.NodeStats {
			fmt.Printf("%-6d %-6t %-9t %8d %10d %10d %8d\n",
				ns.ID, ns.Live, ns.Draining, ns.Shards, ns.Hits, ns.Puts, ns.FencedWrites)
		}
		m := svc.Migration
		fmt.Printf("\nplacement v%d: %d shards moved, %d entries copied, %d fallthrough hits, %d lost\n",
			m.PlacementVersion, m.ShardsMoved, m.EntriesCopied, m.FallthroughHits, m.LostShards)
	}
}

const fmtRound = 100 * 1000 // 100us, in time.Duration units

// runChaosEnforced composes the chaos and policy paths: the suite
// replays with errno-injecting fault rules under the given enforced
// profile, a collector recording the chaotic run. Injected faults must
// never register as denials; they land in the errno histograms instead.
func runChaosEnforced(enforce string, audit bool) {
	blob, err := os.ReadFile(enforce)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	profile, err := policy.Load(blob)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	mode := "enforce"
	if audit {
		mode = "audit"
	}
	col := policy.NewCollector()
	fmt.Printf("== Chaos + policy (%s mode): injected faults under the profile ==\n", mode)
	results := phoronix.RunChaosEnforcedAll(nil, profile, audit, col)
	fmt.Print(phoronix.FormatChaosEnforceTable(results))
	var denials int64
	for _, r := range results {
		denials += r.Denials
	}
	// The injected faults land here — as errno histogram buckets in the
	// recorded activity, not as denials.
	var lines []string
	for _, act := range col.Snapshot() {
		for kind, k := range act.Kinds {
			for name, n := range k.Errnos {
				if name != "ok" {
					lines = append(lines, fmt.Sprintf("  %-10s %-24s %d", kind, name, n))
				}
			}
		}
	}
	sort.Strings(lines)
	fmt.Println("\nnon-ok errno buckets across the chaotic run:")
	for _, l := range lines {
		fmt.Println(l)
	}
	fmt.Printf("\ntotal denials=%d (injected faults must contribute none)\n", denials)
	if denials != 0 {
		os.Exit(1)
	}
}

// runPolicy executes the trace and/or enforce halves of the policy
// workflow. When both paths are given the profile generated by the
// trace is immediately replayed under enforcement — the full loop in
// one invocation.
func runPolicy(traceOut, enforce string, audit bool) {
	var profile *policy.Profile

	if traceOut != "" {
		col := policy.NewCollector()
		results, err := phoronix.RunTracedAll(col)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("== Traced run ==")
		fmt.Print(phoronix.FormatTraceTable(results))
		profile = col.Profile(policy.GenOptions{})
		blob, err := profile.Marshal()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := os.WriteFile(traceOut, blob, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote profile (%d rules) to %s\n", len(profile.Rules), traceOut)
	}

	if enforce != "" {
		if profile == nil || enforce != traceOut {
			blob, err := os.ReadFile(enforce)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			profile, err = policy.Load(blob)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
		mode := "enforce"
		if audit {
			mode = "audit"
		}
		fmt.Printf("\n== Replay under policy (%s mode) ==\n", mode)
		results := phoronix.RunEnforcedAll(profile, audit)
		fmt.Print(phoronix.FormatEnforceTable(results))
		var denials, audited int64
		failed := false
		for _, r := range results {
			denials += r.Denials
			audited += r.Audited
			if r.Err != nil {
				failed = true
			}
		}
		fmt.Printf("total denials=%d audited=%d\n", denials, audited)
		if failed {
			os.Exit(1)
		}
	}
}

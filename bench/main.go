// Command bench is the repo's benchmark: the paper's §5.2 / Figure 2
// overhead of CntrFS over native, the virtual latency of one vfs op and
// what the simulator itself costs the host, on five workloads, with a
// per-layer trace recorded from outside the program. README.md in this
// directory is the glossary; BENCHMARK.json at the root of the repo is
// the contract (generated by -manifest).
//
//	go run -C bench .                      every workload, one process each, with its traced round
//	go run -C bench . -workload meta       one workload (add -trace 1 for the layers)
//	go run -C bench . -repeat 2            two sets, asserted to agree within the bounds
//
// One closed-loop generator goroutine drives the stacks; timing and
// tracing run at GOMAXPROCS=1. Every number is labelled virtual (what
// the modelled machine would take: virt_* units) or host (what the
// simulator costs to run).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	name := flag.String("workload", "", "run one workload (meta, read, write, mixed, fleet); default all, one process each")
	seed := flag.Uint64("seed", fingerprintSeed, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", runSeconds, "run timed rounds for this long")
	rounds := flag.Int("rounds", 0, "run exactly this many timed rounds instead of -seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: add the traced round and report per-layer metrics")
	repeat := flag.Int("repeat", 0, "run this many sets of the same code and assert every end-to-end metric agrees within its bound")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	writeFP := flag.Bool("write-fingerprint", false, "re-take the op-stream fingerprint at seed 42 and rewrite fingerprint.json")
	flag.Parse()

	switch {
	case *printManifest:
		fmt.Print(manifest())
	case *writeFP:
		runtime.GOMAXPROCS(1)
		if err := writeFingerprints(); err != nil {
			fatal(err)
		}
	case *repeat > 0:
		if !repeatSets(*repeat, *name, *seed, *seconds, *rounds) {
			os.Exit(1)
		}
	case *name == "":
		if !runAll(*seed, *seconds, *rounds) {
			os.Exit(1)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("no workload %q", *name))
		}
		rep, err := w.run(*seed, *seconds, *rounds, *trace != 0)
		if err != nil {
			fatal(err)
		}
		rep.print(os.Stdout)
		if !rep.correct() {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// minRounds is the fewest timed rounds a median is taken over.
const minRounds = 3

// rowSummary is one row over all timed rounds.
type rowSummary struct {
	Name     string  `json:"name"`
	NativeNS int64   `json:"native_ns"` // median virtual time, as phoronix.RunOn reports it
	CntrNS   int64   `json:"cntr_ns"`
	Paper    float64 `json:"paper"`
}

// report is everything one run of one workload measured.
type report struct {
	workload  string
	seed      uint64
	traced    bool
	rounds    int
	opsRound  int64 // top-level CNTR-side ops in one round
	rows      []rowSummary
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	problems  []string // failed checks; empty means the outputs are correct
	notes     []string // sample counts and the like, printed beside the metrics
}

func (r *report) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// hostNSPerOp is the per-round key of the ungated whole-stack host
// cost; every other key of a reduced round is an end-to-end metric.
const hostNSPerOp = "stack.host_ns_per_op"

// reduceRound turns one round into the per-round value of every
// end-to-end metric (the reported value is the median over rounds),
// plus the ops the CNTR side attempted and how many of them belong to
// rows that failed.
func reduceRound(r *roundResult) (vals map[string]float64, ops, failed int64) {
	var virt, baseline, liveMB float64
	var ok int64
	var mallocs, bytes uint64
	var run, setup time.Duration
	for i := range r.rows {
		row := &r.rows[i]
		virt += ms(row.cntr.virt)
		baseline += ms(row.native.virt)
		n := row.cntr.stream.total()
		if row.failure != "" {
			n = max(n, 1)
			failed += n
		} else {
			ok += n - row.cntr.stream.errors
		}
		ops += n
		mallocs += row.cntr.mallocs
		bytes += row.cntr.allocBytes
		run += row.cntr.run
		setup += row.native.setup + row.cntr.setup
		liveMB = max(liveMB, float64(max(row.native.liveHeap, row.cntr.liveHeap))/(1<<20))
	}
	lat := slices.Clone(r.lat)
	slices.Sort(lat)
	return map[string]float64{
		"virt_ms":              virt,
		"virt_baseline_ms":     baseline,
		"virt_op_p50_us":       float64(percentile(lat, 50)) / 1e3,
		"virt_op_p99_us":       float64(percentile(lat, 99)) / 1e3,
		"host_allocs_per_op":   float64(mallocs) / float64(ops),
		"host_alloc_kb_per_op": float64(bytes) / 1024 / float64(ops),
		"host_heap_live_mb":    liveMB,
		"setup_s":              setup.Seconds(),
		"op_ok_ratio":          float64(ok) / float64(ops),
		hostNSPerOp:            float64(run) / float64(ops),
	}, ops, failed
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// run measures one workload in this process: timed rounds with tracing
// off for the end-to-end metrics, then (traced) the GOMAXPROCS=nproc
// rounds and the traced round for the per-layer metrics.
func (w *workload) run(seed uint64, seconds float64, rounds int, traced bool) (*report, error) {
	runtime.GOMAXPROCS(1)
	fps, err := loadFingerprints()
	if err != nil {
		return nil, err
	}
	want, ok := fps[w.name]
	if !ok {
		return nil, fmt.Errorf("%s has no entry for workload %s", fingerprintFile, w.name)
	}
	rep := &report{workload: w.name, seed: seed, traced: traced, e2e: map[string]float64{}, layer: map[string]float64{}}

	perRound := map[string][]float64{} // metric name to one value per round
	var perRow [][2][]float64          // row to its native and CNTR virtual ns, one per round
	start := time.Now()
	for {
		if rounds > 0 && rep.rounds >= rounds {
			break
		}
		if rounds <= 0 && rep.rounds >= minRounds && time.Since(start).Seconds() >= seconds {
			break
		}
		r, err := w.round(seed, roundOpts{})
		if err != nil {
			return nil, err
		}
		if rep.rounds == 0 {
			// Rounds repeat one op stream; the first is checked in full.
			if err := checkFingerprint(want, roundFingerprint(r), seed, false); err != nil {
				rep.problem("op-stream fingerprint: %v", err)
			}
			perRow = make([][2][]float64, len(r.rows))
			for _, row := range r.rows {
				rep.rows = append(rep.rows, rowSummary{Name: row.name, Paper: row.paper})
			}
		}
		rep.rounds++
		for i, row := range r.rows {
			if row.failure != "" {
				rep.problem("round %d, row %q: %s", rep.rounds, row.name, row.failure)
			}
			perRow[i][0] = append(perRow[i][0], float64(row.native.virt))
			perRow[i][1] = append(perRow[i][1], float64(row.cntr.virt))
		}
		vals, ops, failed := reduceRound(r)
		for name, v := range vals {
			perRound[name] = append(perRound[name], v)
		}
		rep.opsRound = ops
		rep.attempted += ops
		rep.failed += failed
	}
	for i := range rep.rows {
		rep.rows[i].NativeNS = int64(median(perRow[i][0]))
		rep.rows[i].CntrNS = int64(median(perRow[i][1]))
	}
	for name, v := range perRound {
		rep.e2e[name] = median(v)
	}
	delete(rep.e2e, hostNSPerOp)
	rep.e2e["virt_overhead_x"] = rep.e2e["virt_ms"] / rep.e2e["virt_baseline_ms"]
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	n := int(rep.opsRound)
	rep.notes = append(rep.notes,
		fmt.Sprintf("every metric is the median of %d rounds; setup_s is per round, both sides", rep.rounds),
		fmt.Sprintf("virt_op_p50_us/p99_us: %d ops per round, %d beyond p99; the sample supports p%v",
			n, samplesBeyond(n, 99), highestPercentile(n)),
		fmt.Sprintf("op_fail_ratio = 1 - op_ok_ratio = %.6f (errors the workload provokes by design)", 1-rep.e2e["op_ok_ratio"]),
		fmt.Sprintf("host_heap_live_mb is the largest row on either side; the process ends with HeapSys = %.1f MiB (indicative: it depends on collector timing)",
			float64(mem.HeapSys)/(1<<20)),
	)

	if traced {
		host, virt := perRound[hostNSPerOp], perRound["virt_ms"]
		rep.layer[hostNSPerOp] = median(host)
		rep.layer[hostNSPerOp+"_p25"], rep.layer[hostNSPerOp+"_p75"] = quartiles(host)
		rep.layer["sim.virt_spread_ppm"] = (slices.Max(virt) - slices.Min(virt)) / median(virt) * 1e6
		if err := w.traceRun(seed, rep, want); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traceAttempts bounds the re-runs of the traced round: virtual time is
// not quite bit-reproducible (see README, "virtual-time drift"), so one
// traced round in a few dozen lands 1-2 virtual µs off the median
// through no fault of the assembly.
const traceAttempts = 3

// traceRun adds the per-layer metrics: two CNTR-only rounds at
// GOMAXPROCS=nproc (the cross-thread handoff penalty), then the traced
// round, which must pass its self-checks.
func (w *workload) traceRun(seed uint64, rep *report, want []rowFP) error {
	runtime.GOMAXPROCS(runtime.NumCPU())
	var nproc []float64
	for i := 0; i < 2; i++ {
		r, err := w.round(seed, roundOpts{cntrOnly: true})
		if err != nil {
			return err
		}
		vals, _, _ := reduceRound(r)
		nproc = append(nproc, vals[hostNSPerOp])
	}
	runtime.GOMAXPROCS(1)
	rep.layer[hostNSPerOp+"_nproc"] = median(nproc)

	var r *roundResult
	var checkErr error
	for attempt := 0; attempt < traceAttempts; attempt++ {
		var err error
		if r, err = w.round(seed, roundOpts{cntrOnly: true, traced: true}); err != nil {
			return err
		}
		if checkErr = checkTrace(r, rep.rows); checkErr == nil {
			break
		}
	}
	if checkErr != nil {
		rep.problem("trace self-check (%d attempts): %v", traceAttempts, checkErr)
	}
	if err := checkFingerprint(want, roundFingerprint(r), seed, true); err != nil {
		rep.problem("op-stream fingerprint, traced round: %v", err)
	}
	layerMetrics(r, rep)
	return nil
}

// checkTrace holds the traced round to the untraced rows: per row, the
// traced virtual total equals the stack.NewCntr total exactly, no
// layer's self time is negative, and the self times plus the compute
// remainder add up to the row's virtual total.
func checkTrace(r *roundResult, rows []rowSummary) error {
	for i := range r.rows {
		row := &r.rows[i]
		if row.failure != "" {
			return fmt.Errorf("row %q: %s", row.name, row.failure)
		}
		if got, want := int64(row.cntr.virt), rows[i].CntrNS; got != want {
			return fmt.Errorf("row %q: traced virtual total %dns, stack.NewCntr total %dns (bench's traced assembly and internal/stack differ)",
				row.name, got, want)
		}
		self, err := row.cntr.spans.self(row.cntr.chain, int64(row.cntr.raw), int64(row.cntr.run))
		if err != nil {
			return fmt.Errorf("row %q: %v", row.name, err)
		}
		sum := self.computeVirt
		for _, v := range self.virt {
			sum += v
		}
		if sum != int64(row.cntr.raw) {
			return fmt.Errorf("row %q: self times and compute add up to %dns of %dns virtual", row.name, sum, row.cntr.raw)
		}
	}
	return nil
}

// layerMetrics fills in the per-layer metrics from the traced round.
// Self times are scaled per row by virt/raw — RunOn's conversion from
// accumulated virtual CPU time to wall time for multi-worker rows — so
// that the layers and the compute remainder add up to virt_ms.
func layerMetrics(r *roundResult, rep *report) {
	var virtSelf, hostSelf, calls [numLayers]float64
	var computeVirt, computeHost, virtTotal, hostTotal float64
	var ctr counters
	var ops, logical, physical int64
	for i := range r.rows {
		row := &r.rows[i]
		self, _ := row.cntr.spans.self(row.cntr.chain, int64(row.cntr.raw), int64(row.cntr.run))
		scale := 1.0
		if row.cntr.raw > 0 {
			scale = float64(row.cntr.virt) / float64(row.cntr.raw)
		}
		for l := range self.virt {
			virtSelf[l] += float64(self.virt[l]) * scale
			hostSelf[l] += float64(self.host[l])
			calls[l] += float64(row.cntr.spans.calls[l])
		}
		computeVirt += float64(self.computeVirt) * scale
		computeHost += float64(self.computeHost)
		virtTotal += float64(row.cntr.virt)
		hostTotal += float64(row.cntr.run)
		ctr.add(row.cntr.counters)
		logical += row.cntr.logical
		physical += row.cntr.physical
		ops += row.cntr.stream.total()
	}
	m := rep.layer
	for l, name := range layerNames {
		m[name+".calls"] = calls[l]
		m[name+".virt_self_ms"] = virtSelf[l] / 1e6
		m[name+".virt_share"] = ratio(virtSelf[l], virtTotal)
		m[name+".host_self_ns_per_call"] = ratio(hostSelf[l], calls[l])
	}
	m["workload.virt_compute_ms"] = computeVirt / 1e6
	m["workload.host_self_ms"] = computeHost / 1e6
	f := func(c counter) float64 { return float64(ctr[c]) }
	m["pagecache.kernel.hit_ratio"] = ratio(f(ctrKernelHits), f(ctrKernelHits)+f(ctrKernelMisses))
	m["pagecache.kernel.evictions"] = f(ctrKernelEvictions)
	m["pagecache.kernel.flushed_kb"] = f(ctrKernelFlushedB) / 1024
	m["pagecache.host.hit_ratio"] = ratio(f(ctrHostHits), f(ctrHostHits)+f(ctrHostMisses))
	m["pagecache.host.evictions"] = f(ctrHostEvictions)
	m["fuse.requests_per_kop"] = ratio(f(ctrFuseRequests)*1000, float64(ops))
	m["fuse.entry_hit_ratio"] = ratio(f(ctrFuseEntryHits), f(ctrFuseEntryHits)+f(ctrFuseEntryMisses))
	m["fuse.attr_hits"] = f(ctrFuseAttrHits)
	m["fuse.batch_frames"] = f(ctrFuseBatchFrames)
	m["fuse.steals"] = f(ctrFuseSteals)
	m["sim.disk_reads"] = f(ctrDiskReads)
	m["sim.disk_writes"] = f(ctrDiskWrites)
	m["sim.disk_kb_read"] = f(ctrDiskBytesRead) / 1024
	m["sim.disk_kb_written"] = f(ctrDiskBytesWritten) / 1024
	m["blobstore.puts"] = f(ctrBlobPuts)
	m["blobstore.gets"] = f(ctrBlobGets)
	m["blobstore.dedup_ratio"] = 1 // blobstore.Stats.DedupRatio's convention for an empty store
	if physical > 0 {
		m["blobstore.dedup_ratio"] = float64(logical) / float64(physical)
	}
	m["cachecl.hits"] = f(ctrClHits)
	m["cachecl.misses"] = f(ctrClMisses)
	m["cachecl.net_kb"] = f(ctrClNetBytes) / 1024
	m["cachecl.moves"] = f(ctrClMoves)
	m["cachecl.fenced"] = f(ctrClFenced)
	m["cachesvc.hit_ratio"] = ratio(float64(r.tier.hits), float64(r.tier.hits+r.tier.misses))
	m["cachesvc.puts"] = float64(r.tier.puts)
	m["cachesvc.evictions"] = float64(r.tier.evictions)
	m["cachesvc.fenced_writes"] = float64(r.tier.fenced)
	m["cachesvc.node_load_skew"] = r.tier.skew
	m["stack.trace_overhead_x"] = ratio(hostTotal/float64(ops), m[hostNSPerOp])
	var papered int
	m["phoronix.geomean_x"], m["phoronix.paper_log_err"], papered = paperAccuracy(rep.rows)
	rep.notes = append(rep.notes,
		fmt.Sprintf("per-layer virtual values and counts come from one traced round (%d ops) and are exact; host_* values from that single round are indicative", ops),
		fmt.Sprintf("phoronix.*: %d of %d rows carry a paper figure", papered, len(r.rows)))
}

// paperAccuracy compares rows with the paper's Figure 2: the geometric
// mean of the measured overheads and the mean |ln(measured/paper)|,
// over the n rows that carry a paper figure. It is reported and
// deliberately not gated: a real gain in the modelled design moves away
// from the paper's figure. Meta-Storm, the seeded rows and all of fleet
// have no figure; with n = 0 both values are 0, meaning no reference.
func paperAccuracy(rows []rowSummary) (geomean, logErr float64, n int) {
	var logSum float64
	for _, row := range rows {
		if row.Paper > 0 && row.NativeNS > 0 {
			x := float64(row.CntrNS) / float64(row.NativeNS)
			logSum += math.Log(x)
			logErr += math.Abs(math.Log(x / row.Paper))
			n++
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	return math.Exp(logSum / float64(n)), logErr / float64(n), n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report, then the rows line, then the
// result line: with tracing off the metrics are every end-to-end
// metric, with tracing on every per-layer metric.
func (r *report) print(out io.Writer) {
	fmt.Fprintf(out, "== workload %s: seed %d, %d timed rounds of %d top-level ops, one closed-loop generator, GOMAXPROCS=1 ==\n",
		r.workload, r.seed, r.rounds, r.opsRound)
	fmt.Fprintf(out, "%-28s %12s %12s %9s %9s   (virtual)\n", "row", "native", "cntr", "measured", "paper")
	for _, row := range r.rows {
		native, cntr := time.Duration(row.NativeNS), time.Duration(row.CntrNS)
		fmt.Fprintf(out, "%-28s %12v %12v %8.1fx %8.1fx\n", row.Name,
			native.Round(time.Microsecond), cntr.Round(time.Microsecond), ratio(float64(cntr), float64(native)), row.Paper)
	}
	fmt.Fprintln(out, "end-to-end metrics (tracing off; bound = share by which the metric may worsen):")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-24s %16.6f %-10s %s is better, bound %g\n", m.Name, r.e2e[m.Name], m.Unit, m.Better, m.Bound)
	}
	set, defs := r.e2e, endToEnd
	if r.traced {
		set, defs = r.layer, perLayer
		fmt.Fprintln(out, "per-layer metrics (ungated):")
		for _, m := range perLayer {
			fmt.Fprintf(out, "  %-40s %18.6f %s\n", m.Name, r.layer[m.Name], m.Unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "note:", n)
	}
	for _, p := range r.problems {
		fmt.Fprintln(out, "FAILED:", p)
	}
	rows, _ := json.Marshal(r.rows)
	fmt.Fprintf(out, "rows: %s\n", rows)
	res := result{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricJSON{}}
	for _, m := range defs {
		res.Metrics[m.Name] = metricJSON{set[m.Name], m.Unit}
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(out, "%s\n", line)
}

// child runs one workload in a process of its own (host_heap_sys_mb is
// a whole-process figure), echoes its report and parses the two
// machine-readable lines at its end.
func child(name string, seed uint64, seconds float64, rounds int, trace int) (result, []rowSummary, error) {
	var res result
	var rows []rowSummary
	exe, err := os.Executable()
	if err != nil {
		return res, nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-rounds", fmt.Sprint(rounds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return res, nil, err
	}
	if err := cmd.Start(); err != nil {
		return res, nil, err
	}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var last string
	for sc.Scan() {
		last = sc.Text()
		if js, ok := strings.CutPrefix(last, "rows: "); ok {
			if err := json.Unmarshal([]byte(js), &rows); err != nil {
				return res, nil, fmt.Errorf("workload %s: rows line: %w", name, err)
			}
		}
		if !strings.HasPrefix(last, "{") {
			fmt.Println(last)
		}
	}
	runErr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, nil, fmt.Errorf("workload %s printed no result (%v): %w", name, runErr, err)
	}
	return res, rows, nil
}

// runAll is the default mode: every workload (end-to-end metrics from
// its timed rounds, then the traced round), and the Figure 2 summary
// over all twenty rows.
func runAll(seed uint64, seconds float64, rounds int) bool {
	ok := true
	var all []rowSummary
	for _, w := range workloads {
		res, rows, err := child(w.name, seed, seconds, rounds, 1)
		if err != nil {
			fatal(err)
		}
		ok = ok && res.Correct
		all = append(all, rows...)
		fmt.Println()
	}
	geomean, logErr, n := paperAccuracy(all)
	fmt.Printf("== summary: Figure 2 over all %d rows with a paper figure ==\n", n)
	fmt.Printf("  %-40s %18.6f x\n", "phoronix.geomean_x", geomean)
	fmt.Printf("  %-40s %18.6f ln\n", "phoronix.paper_log_err", logErr)
	if !ok {
		fmt.Println("FAILED: a fingerprint, output check or trace self-check failed (see above)")
	}
	return ok
}

// repeatSets runs n sets of end-to-end runs of the same code and
// asserts that every end-to-end metric agrees across the sets within
// its bound, printing the offending workload, metric and values.
func repeatSets(n int, only string, seed uint64, seconds float64, rounds int) bool {
	ok := true
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		values := map[string][]float64{}
		for set := 0; set < n; set++ {
			res, _, err := child(w.name, seed, seconds, rounds, 0)
			if err != nil {
				fatal(err)
			}
			ok = ok && res.Correct
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Printf("== repeat: workload %s, %d sets ==\n", w.name, n)
		for _, m := range endToEnd {
			v := values[m.Name]
			lo, hi := slices.Min(v), slices.Max(v)
			apart := ratio(hi-lo, math.Min(math.Abs(lo), math.Abs(hi)))
			verdict := "ok"
			if apart > m.Bound {
				verdict, ok = "DISAGREES", false
			}
			fmt.Printf("  %-24s %-9s apart %.5f of bound %g  values %v\n", m.Name, verdict, apart, m.Bound, v)
		}
	}
	return ok
}

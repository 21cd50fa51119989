package phoronix

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"cntr/internal/fuse"
	"cntr/internal/policy"
	"cntr/internal/sim"
	"cntr/internal/stack"
)

// rows.golden's line formats, the modes cmd/phoronix offers with the
// passes behind their lines, and README's figure tables rendered from
// the lines (TestRowsGolden and TestReadmeFiguresCurrent hold them).

// line appends one rows.golden line to b: the mode, the row and the
// fields, tab-separated.
func line(b *strings.Builder, mode, row, format string, args ...any) {
	fmt.Fprintf(b, "%s\t%s\t"+format+"\n", append([]any{mode, row}, args...)...)
}

// runFields is a measured row's fields: CNTR's and native virtual time,
// the work, the CntrFS mount's frames and the two ledgers (runLedgers).
const runFields = "cntr_ns=%d native_ns=%d work=%d\t%s\t%s"

// resultLine appends the line of a row measured on both stacks.
func resultLine(b *strings.Builder, mode string, r Result) {
	line(b, mode, r.Name, runFields, r.CntrTime, r.NativeTime, r.Work, frameFields(r.frames),
		runLedgers("cntr", r.cntrRun, "native", r.nativeRun))
}

// runLedgers is the run: field of two runs' ledgers over the timed phase,
// each nonzero bucket as side.layer=ns: before the workers divide it, so
// a side's buckets sum to its time times its parallelism (wall).
func runLedgers(a string, la sim.Ledger, b string, lb sim.Ledger) string {
	return "run: " + la.Fields(a) + " " + lb.Fields(b)
}

// mode is one mode cmd/phoronix offers: lines runs its passes and appends
// its rows.golden lines, whose mode field is name or begins with name/.
type mode struct {
	name  string
	lines func(*passes, *strings.Builder) error
}

var modes = []mode{
	{"fig2", func(p *passes, b *strings.Builder) error {
		def, errDef := p.figure2()
		paper, errPaper := p.figure2Paper()
		if err := errors.Join(errDef, errPaper); err != nil {
			return err
		}
		for _, r := range def {
			resultLine(b, "fig2/default", r)
		}
		for i, r := range paper {
			line(b, "fig2/paper", r.Name, runFields, r.Time, def[i].NativeTime, r.Work, frameFields(r.frames),
				runLedgers("cntr", r.run, "native", def[i].nativeRun))
		}
		return nil
	}},
	{"fig3", func(p *passes, b *strings.Builder) error {
		panels, err := p.figure3()
		if err != nil {
			return err
		}
		for i, r := range panels {
			line(b, "fig3/"+r.Name, Figure3[i].Row, "off_ns=%d on_ns=%d\t%s", r.Before, r.After, runLedgers("off", r.off, "on", r.on))
		}
		return nil
	}},
	{"fig4", func(p *passes, b *strings.Builder) error {
		fig4, err := p.figure4()
		if err != nil {
			return err
		}
		for _, n := range figure4Threads {
			line(b, fmt.Sprintf("fig4/threads=%d", n), "seqread-500mb", "ns=%d", fig4[n])
		}
		return nil
	}},
	{"storm", func(p *passes, b *strings.Builder) error {
		meta, errMeta := p.metaStorm()
		dir, errDir := p.dirStorm()
		if err := errors.Join(errMeta, errDir); err != nil {
			return err
		}
		resultLine(b, "storm/meta", meta)
		resultLine(b, "storm/dir", dir)
		return nil
	}},
	{"chaos/latency", func(p *passes, b *strings.Builder) error {
		rows, err := p.chaosLatency()
		if err != nil {
			return err
		}
		for _, r := range rows {
			line(b, "chaos/latency", r.Name, "clean_ns=%d chaos_ns=%d ops=%d", r.clean, r.Time, r.Ops)
		}
		return nil
	}},
	fleetMode(0), fleetMode(1), fleetMode(2), fleetMode(3),
	{"merge-replay", func(p *passes, b *strings.Builder) error {
		mr, err := p.mergedReplay()
		if err != nil {
			return err
		}
		line(b, "merge-replay", "merged", "%s", profileFields(mr.merged))
		for _, r := range mr.rows {
			line(b, "merge-replay", r.Name, "ns=%d denials=%d", r.Time, r.Denials)
		}
		return nil
	}},
}

// fleetMode is the mode of fleetTiers[i].
func fleetMode(i int) mode {
	name := "fleet/" + fleetTiers[i].name
	return mode{name, func(p *passes, b *strings.Builder) error {
		rs, err := p.fleet()
		if err != nil {
			return err
		}
		r := rs[i]
		line(b, name, fmt.Sprintf("mounts=%d", r.Mounts), "cold_ns=%d max_ns=%d bytes=%d hit_ratio=%v fenced=%d lost=%d",
			r.ColdReadTotal, r.ColdReadMax, r.BytesRead, r.HitRatio, r.TierStats.FencedWrites, r.TierStats.LostShards)
		return nil
	}}
}

// ModeNames are the modes Lines runs, in rows.golden's order.
func ModeNames() []string {
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = m.name
	}
	return names
}

// Lines runs the named modes, each pass once, and returns their
// rows.golden lines in the order named.
func Lines(names ...string) (string, error) {
	var b strings.Builder
	err := newPasses().lines(&b, names...)
	return b.String(), err
}

// lines appends the named modes' lines to b.
func (p *passes) lines(b *strings.Builder, names ...string) error {
	for _, name := range names {
		i := slices.IndexFunc(modes, func(m mode) bool { return m.name == name })
		if i < 0 {
			return fmt.Errorf("no mode %q", name)
		}
		if err := modes[i].lines(p, b); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// Figures runs the fig2, fig3 and fig4 modes and renders README's three
// tables from their lines, a blank line between two.
func Figures() (string, error) {
	text, err := Lines("fig2", "fig3", "fig4")
	if err != nil {
		return "", err
	}
	g := parseGolden(text)
	tables := make([]string, len(figureBlocks))
	for i, f := range figureBlocks {
		rows, err := f.rows(g)
		if err != nil {
			return "", err
		}
		tables[i] = f.header + rows
	}
	return strings.Join(tables, "\n"), nil
}

// passes are the deterministic passes the modes read, each run once, on
// first use.
type passes struct {
	figure2             func() ([]Result, error) // seed 42, the default mount
	figure2Paper        func() ([]Row, error)    // the same rows on the paper's configuration
	figure3             func() ([]OptResult, error)
	figure4             func() (map[int]time.Duration, error)
	metaStorm, dirStorm func() (Result, error)
	chaosLatency        func() ([]chaosRow, error)
	fleet               func() ([]MultiMountResult, error) // by fleetTiers
	// seed42 and seed43 are clean recordings of the twenty rows, a
	// million entries each; callers only read them (Profile, Snapshot).
	seed42, seed43 func() (*policy.Collector, error)
	mergedReplay   func() (*mergedReplay, error)
}

// mergedReplay is the merge of the seed42 and seed43 profiles and the
// suite's replay under it.
type mergedReplay struct {
	merged *policy.Profile
	rows   []Row
}

// chaosRow is a row under ChaosProfile, recorded, and the clean row's
// time.
type chaosRow struct {
	Row
	clean  time.Duration
	record *policy.Collector
}

// fleetTier is one of the 4-mount fleet's cache tiers: none (nodes 0), one
// node, and two and four nodes with a replica per shard and the highest-id
// node killed once half the fleet has read.
type fleetTier struct {
	name            string
	nodes, replicas int
}

var fleetTiers = []fleetTier{{"nosvc", 0, 0}, {"nodes=1", 1, 0}, {"nodes=2", 2, 1}, {"nodes=4", 4, 1}}

func newPasses() *passes {
	p := &passes{
		figure2: sync.OnceValues(func() ([]Result, error) {
			return each(Suite, func(b Benchmark) (Result, error) { return RunBenchmark(&b) })
		}),
		figure2Paper: sync.OnceValues(func() ([]Row, error) {
			return each(Suite, func(b Benchmark) (Row, error) {
				r := Run(&b, Setup{Config: stack.Config{Mount: fuse.PaperMountOptions()}})
				return r, r.Err
			})
		}),
		figure3:   sync.OnceValues(func() ([]OptResult, error) { return each(Figure3, RunPanel) }),
		figure4:   sync.OnceValues(Figure4Threads),
		metaStorm: sync.OnceValues(func() (Result, error) { return RunBenchmark(&MetaStorm) }),
		dirStorm:  sync.OnceValues(func() (Result, error) { return RunBenchmark(&DirStorm) }),
		// Four single-worker rows, clean and under ChaosProfile.
		chaosLatency: sync.OnceValues(func() ([]chaosRow, error) {
			return each([]string{"PostMark", "IOzone: Write", "Compilebench: Create", "SQLite"}, func(name string) (chaosRow, error) {
				clean, col := Run(findBench(name), Setup{}), policy.NewCollector()
				r := Run(findBench(name), Setup{Faults: ChaosProfile(), Record: col})
				return chaosRow{r, clean.Time, col}, errors.Join(clean.Err, r.Err)
			})
		}),
		fleet: sync.OnceValues(func() ([]MultiMountResult, error) {
			return each(fleetTiers, func(tier fleetTier) (MultiMountResult, error) {
				return RunMultiMount(MultiMountOptions{
					Mounts: 4, UseService: tier.nodes > 0,
					Nodes: tier.nodes, Replicas: tier.replicas, KillNodeMid: tier.replicas > 0,
				})
			})
		}),
		seed42: sync.OnceValues(func() (*policy.Collector, error) { return recordSuite(42) }),
		seed43: sync.OnceValues(func() (*policy.Collector, error) { return recordSuite(43) }),
	}
	// The merge of the two recordings' profiles, and the suite replayed
	// under it: the merge must admit each workload it was recorded from.
	p.mergedReplay = sync.OnceValues(func() (*mergedReplay, error) {
		a, errA := p.seed42()
		b, errB := p.seed43()
		if err := errors.Join(errA, errB); err != nil {
			return nil, err
		}
		merged := policy.Merge(policy.MergeOptions{}, a.Profile(policy.GenOptions{RunID: "suite-seed-42"}),
			b.Profile(policy.GenOptions{RunID: "suite-seed-43"}))
		return &mergedReplay{merged, Sweep(nil, Setup{Enforce: merged})}, nil
	})
	return p
}

// recordSuite records a clean run of the twenty rows at seed.
func recordSuite(seed uint64) (*policy.Collector, error) {
	col := policy.NewCollector()
	for _, r := range Sweep(nil, Setup{Record: col, Seed: seed}) {
		if r.Err != nil {
			return nil, fmt.Errorf("recording the suite at seed %d: %w", seed, r.Err)
		}
	}
	return col, nil
}

// each is f of every x, up to the first error.
func each[X, Y any](xs []X, f func(X) (Y, error)) ([]Y, error) {
	out := make([]Y, 0, len(xs))
	for _, x := range xs {
		y, err := f(x)
		if err != nil {
			return nil, err
		}
		out = append(out, y)
	}
	return out, nil
}

// frameFields is every opcode a mount sent and its count, in opcode order.
func frameFields(frames [len(fuse.ConnStats{}.Frames)]int64) string {
	var f []string
	for op, n := range frames {
		if n != 0 {
			f = append(f, fmt.Sprintf("%v=%d", fuse.Opcode(op), n))
		}
	}
	return strings.Join(f, " ")
}

// profileFields is p's rule count and the sha256 of its marshalled form.
func profileFields(p *policy.Profile) string {
	data, _ := p.Marshal() // plain data: Marshal does not fail
	return fmt.Sprintf("rules=%d sha256=%x", len(p.Rules), sha256.Sum256(data))
}

// goldenLines is rows.golden's fields, keyed by mode and row joined by a
// tab.
type goldenLines map[string]string

func parseGolden(text string) goldenLines {
	g := goldenLines{}
	for _, l := range strings.Split(text, "\n") {
		if mode, rest, ok := strings.Cut(l, "\t"); ok {
			row, fields, _ := strings.Cut(rest, "\t")
			g[mode+"\t"+row] = fields
		}
	}
	return g
}

// scan reads the fields of mode's line for row into args; a line that is
// missing or does not read as format is an error.
func (g goldenLines) scan(mode, row, format string, args ...any) error {
	fields, ok := g[mode+"\t"+row]
	if !ok {
		return fmt.Errorf("no %s line for %q", mode, row)
	}
	if n, _ := fmt.Sscanf(fields, format, args...); n != len(args) {
		return fmt.Errorf("%s %q reads %q, not %q", mode, row, fields, format)
	}
	return nil
}

// figureBlock is a README table rendered from rows.golden's lines alone,
// with no suite pass.
type figureBlock struct {
	name, header string
	rows         func(goldenLines) (string, error)
}

var figureBlocks = []figureBlock{
	{"Figure 2", "| Benchmark | native (virtual ms) | default | paper's configuration | paper |\n|---|--:|--:|--:|--:|\n", figure2Rows},
	{"Figure 3", "| Panel | Row | off (virtual ms) | on (virtual ms) | speedup |\n|---|---|--:|--:|--:|\n", figure3Rows},
	{"Figure 4", "| Server threads | virtual ms | ratio to one thread |\n|--:|--:|--:|\n", figure4Rows},
}

// laneLogErr is the mean |ln(measured/paper)| of a Figure 2 lane's golden
// lines over the suite: how far the lane lands from the paper's Figure 2.
func laneLogErr(g goldenLines, mode string) (float64, error) {
	var sum float64
	for _, r := range Suite {
		var cntr, native float64
		if err := g.scan(mode, r.Name, "cntr_ns=%g native_ns=%g", &cntr, &native); err != nil {
			return 0, err
		}
		sum += math.Abs(math.Log(cntr / native / r.PaperOverhead))
	}
	return sum / float64(len(Suite)), nil
}

// figure2Rows is each suite row's native virtual time, its overhead on
// the default mount and on the paper's configuration, and the paper's;
// then each lane's mean |ln(measured/paper)|.
func figure2Rows(g goldenLines) (string, error) {
	var b strings.Builder
	for _, r := range Suite {
		var def, paper [2]float64 // CNTR and native ns
		const format = "cntr_ns=%g native_ns=%g"
		if err := errors.Join(g.scan("fig2/default", r.Name, format, &def[0], &def[1]),
			g.scan("fig2/paper", r.Name, format, &paper[0], &paper[1])); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "| %s | %.2f | %.2fx | %.2fx | %.1fx |\n", r.Name, def[1]/1e6, def[0]/def[1], paper[0]/paper[1], r.PaperOverhead)
	}
	def, errDef := laneLogErr(g, "fig2/default")
	paper, errPaper := laneLogErr(g, "fig2/paper")
	if err := errors.Join(errDef, errPaper); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "| mean \\|ln(measured/paper)\\| | | %.3f | %.3f | |\n", def, paper)
	return b.String(), nil
}

// figure3Rows is each panel's row with its rule off and on, in Figure3
// order.
func figure3Rows(g goldenLines) (string, error) {
	var b strings.Builder
	for _, p := range Figure3 {
		var off, on float64
		if err := g.scan("fig3/"+p.Name, p.Row, "off_ns=%g on_ns=%g", &off, &on); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "| %s | %s | %.2f | %.2f | %.2fx |\n", p.Name, p.Row, off/1e6, on/1e6, off/on)
	}
	return b.String(), nil
}

// figure4Rows is the thread sweep's virtual time per server thread
// count, and its ratio to one thread's.
func figure4Rows(g goldenLines) (string, error) {
	var b strings.Builder
	var one float64
	for _, n := range figure4Threads {
		var ns float64
		if err := g.scan(fmt.Sprintf("fig4/threads=%d", n), "seqread-500mb", "ns=%g", &ns); err != nil {
			return "", err
		}
		if n == 1 {
			one = ns
		}
		fmt.Fprintf(&b, "| %d | %.2f | %.3fx |\n", n, ns/1e6, ns/one)
	}
	return b.String(), nil
}

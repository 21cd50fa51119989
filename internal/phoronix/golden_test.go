package phoronix

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"cntr/internal/fuse"
	"cntr/internal/policy"
	"cntr/internal/stack"
	"cntr/internal/vfs"
)

var updateRows = flag.Bool("update", false, "rewrite testdata/rows.golden and README's figure blocks (Figures 2, 3 and 4) from this run")

// updateCmd rewrites both.
const updateCmd = "go test ./internal/phoronix -run 'Golden|ReadmeFigures' -update"

// The fixtures below are the deterministic run modes, each taken once per
// GOMAXPROCS: TestRowsGolden and the relation tests read the same passes.

// figure2 is RunAll's pass at seed 42: Figure 2 on the default mount.
var figure2 = perProcs(RunAll)

// figure2Paper is the same twenty rows at seed 42 on the paper's
// configuration: what Figure 2 was measured on.
var figure2Paper = perProcs(func() ([]Row, error) {
	return each(Suite, func(b Benchmark) (Row, error) {
		r := Run(&b, Setup{Config: stack.Config{Mount: fuse.PaperMountOptions()}})
		return r, r.Err
	})
})

var (
	figure3Panels = perProcs(func() ([]OptResult, error) { return each(Figure3, RunPanel) })
	figure4       = perProcs(Figure4Threads)
	metaStorm     = perProcs(func() (Result, error) { return RunBenchmark(&MetaStorm) })
	dirStorm      = perProcs(func() (Result, error) { return RunBenchmark(&DirStorm) })
	consolidation = perProcs(func() (*ConsolidationReport, error) { return RunConsolidation(3) })
)

// chaosRow is a row under ChaosProfile and its recording.
type chaosRow struct {
	Row
	record *policy.Collector
}

// chaosLatency runs four single-worker rows under ChaosProfile, recorded;
// the clean side of each is its figure2 row.
var chaosLatency = perProcs(func() ([]chaosRow, error) {
	return each([]string{"PostMark", "IOzone: Write", "Compilebench: Create", "SQLite"}, func(name string) (chaosRow, error) {
		col := policy.NewCollector()
		r := Run(findBench(name), Setup{Faults: ChaosProfile(), Record: col})
		return chaosRow{r, col}, r.Err
	})
})

// suiteRecording and seed43Recording are clean recordings of the twenty
// rows, a million entries each. Callers only read them (Profile,
// Snapshot).
var (
	suiteRecording  = perProcs(func() (*policy.Collector, error) { return recordSuite(42) })
	seed43Recording = perProcs(func() (*policy.Collector, error) { return recordSuite(43) })
)

// enforceChaosPass is the suite replayed under ChaosErrnoProfile with the
// seed-42 profile enforced, recorded into chaotic.
type enforceChaosPass struct {
	prof    *policy.Profile
	rows    []Row
	errnos  []string // per row, " kind:errno=n" for each non-ok bucket it added
	chaotic *policy.Collector
}

var enforceChaos = perProcs(func() (*enforceChaosPass, error) {
	rec, err := suiteRecording()
	if err != nil {
		return nil, err
	}
	p := &enforceChaosPass{prof: rec.Profile(policy.GenOptions{}), chaotic: policy.NewCollector()}
	before := map[string]int64{}
	for i := range Suite {
		p.rows = append(p.rows, Run(&Suite[i], Setup{Faults: ChaosErrnoProfile(), Enforce: p.prof, Record: p.chaotic}))
		after := errnoBuckets(p.chaotic)
		var fields strings.Builder
		for _, k := range slices.Sorted(maps.Keys(after)) {
			if n := after[k] - before[k]; n != 0 {
				fmt.Fprintf(&fields, " %s=%d", k, n)
			}
		}
		p.errnos = append(p.errnos, fields.String())
		before = after
	}
	return p, nil
})

var mergedReplay = perProcs(func() (*MergedReplayReport, error) {
	a, errA := suiteRecording()
	b, errB := seed43Recording()
	if err := errors.Join(errA, errB); err != nil {
		return nil, err
	}
	return RunMergedReplay(a.Profile(policy.GenOptions{RunID: "suite-seed-42"}),
		b.Profile(policy.GenOptions{RunID: "suite-seed-43"})), nil
})

// fleetTier is one of the 4-mount fleet's cache tiers: none (nodes 0), one
// node, and two and four nodes with a replica per shard and the highest-id
// node killed once half the fleet has read.
type fleetTier struct {
	name            string
	nodes, replicas int
}

var fleetTiers = []fleetTier{{"nosvc", 0, 0}, {"nodes=1", 1, 0}, {"nodes=2", 2, 1}, {"nodes=4", 4, 1}}

var fleet = perProcs(func() ([]MultiMountResult, error) {
	return each(fleetTiers, func(tier fleetTier) (MultiMountResult, error) {
		return RunMultiMount(MultiMountOptions{
			Mounts: 4, Dirs: 16, FilesPerDir: 3, FileSize: 64 << 10, UseService: tier.nodes > 0,
			Nodes: tier.nodes, Replicas: tier.replicas, KillNodeMid: tier.replicas > 0,
		})
	})
})

// stream16MB and stream256MB are RunStreaming's passes: a file both page
// caches hold, and one that streams through them.
var (
	stream16MB  = perProcs(func() (StreamingResult, error) { return RunStreaming(16 << 20) })
	stream256MB = perProcs(func() (StreamingResult, error) { return RunStreaming(256 << 20) })
)

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

// perProcs runs f once per GOMAXPROCS setting, so that go test -cpu 1,4
// takes a pass under each scheduler and -count reuses it.
func perProcs[T any](f func() (T, error)) func() (T, error) {
	var mu sync.Mutex
	passes := map[int]func() (T, error){}
	return func() (T, error) {
		mu.Lock()
		pass, ok := passes[runtime.GOMAXPROCS(0)]
		if !ok {
			pass = sync.OnceValues(f)
			passes[runtime.GOMAXPROCS(0)] = pass
		}
		mu.Unlock()
		return pass()
	}
}

// pass is fixture's value; its error fails t.
func pass[T any](t *testing.T, fixture func() (T, error)) T {
	t.Helper()
	v, err := fixture()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

const rowsGolden = "testdata/rows.golden"

// TestRowsGolden holds every deterministic run mode to testdata/rows.golden,
// one line per (mode, row), so a change that moves a number shows as a diff
// of that file; updateCmd rewrites it. -short skips the seed-43 recording,
// merge-replay, consolidation and the 256 MB stream, and compares the file
// up to them.
func TestRowsGolden(t *testing.T) {
	if *updateRows && testing.Short() {
		t.Fatal("-update under -short would drop the modes -short skips")
	}
	var b strings.Builder
	line := func(mode, row, format string, args ...any) {
		fmt.Fprintf(&b, "%s\t%s\t"+format+"\n", append([]any{mode, row}, args...)...)
	}
	const run = "cntr_ns=%d native_ns=%d work=%d\t%s"
	def, paper := pass(t, figure2), pass(t, figure2Paper)
	for _, r := range def {
		line("fig2/default", r.Name, run, r.CntrTime, r.NativeTime, r.Work, frameFields(r.frames))
	}
	for i, r := range paper {
		line("fig2/paper", r.Name, run, r.Time, def[i].NativeTime, r.Work, frameFields(r.frames))
	}
	for i, r := range pass(t, figure3Panels) {
		line("fig3/"+r.Name, Figure3[i].Row, "off_ns=%d on_ns=%d", r.Before, r.After)
	}
	fig4 := pass(t, figure4)
	for _, n := range slices.Sorted(maps.Keys(fig4)) {
		line(fmt.Sprintf("fig4/threads=%d", n), "seqread-500mb", "ns=%d", fig4[n])
	}
	meta, dir := pass(t, metaStorm), pass(t, dirStorm)
	line("storm/meta", meta.Name, run, meta.CntrTime, meta.NativeTime, meta.Work, frameFields(meta.frames))
	line("storm/dir", dir.Name, run, dir.CntrTime, dir.NativeTime, dir.Work, frameFields(dir.frames))
	for _, r := range pass(t, chaosLatency) {
		line("chaos/latency", r.Name, "clean_ns=%d chaos_ns=%d ops=%d", figure2Row(def, r.Name).CntrTime, r.Time, r.Ops)
	}
	line("record/seed42", "suite", "%s", profileFields(pass(t, suiteRecording).Profile(policy.GenOptions{})))
	ec := pass(t, enforceChaos)
	for i, r := range ec.rows {
		line("enforce+chaos", r.Name, "ns=%d denials=%d audited=%d%s", r.Time, r.Denials, r.Audited, ec.errnos[i])
	}
	for i, r := range pass(t, fleet) {
		line("fleet/"+fleetTiers[i].name, fmt.Sprintf("mounts=%d", r.Mounts), "cold_ns=%d max_ns=%d bytes=%d hit_ratio=%v fenced=%d lost=%d",
			r.ColdReadTotal, r.ColdReadMax, r.BytesRead, r.HitRatio, r.TierStats.FencedWrites, r.TierStats.LostShards)
	}
	for i, r := range pass(t, writebackFenced) {
		line("fleet/wb-fenced", wbFencedTiers[i].name, "sync_ns=%d fenced=%d svc_fenced=%d node_fenced=%d backend_bytes=%d epoch=%d",
			r.syncTime, r.mountFenced, r.tier.FencedWrites, nodeFenced(r.nodes), r.backend, r.lease.Epoch)
	}
	const stream = "write_ns=%d read_ns=%d kernel_evictions=%d host_evictions=%d"
	s16 := pass(t, stream16MB)
	line("stream/16MB", "seq-64k", stream, s16.WriteTime, s16.ReadTime, s16.KernelEvictions, s16.HostEvictions)
	// The modes whose tests skip under -short close the file.
	if !testing.Short() {
		line("record/seed43", "suite", "%s", profileFields(pass(t, seed43Recording).Profile(policy.GenOptions{})))
		mr := pass(t, mergedReplay)
		line("merge-replay", "merged", "%s", profileFields(mr.Merged))
		for _, r := range mr.Results {
			line("merge-replay", r.Name, "ns=%d denials=%d", r.Time, r.Denials)
		}
		c := pass(t, consolidation)
		line("consolidation", "total", "ns=%d eio=%d enospc=%d aborted=%d %s", c.VirtTotal, c.EIO, c.ENOSPC, c.Aborted, profileFields(c.Merged))
		for _, r := range c.Results {
			line("consolidation", r.Name, "ns=%d err=%s", r.Time, errnoField(r.Err))
		}
		s256 := pass(t, stream256MB)
		line("stream/256MB", "seq-64k", stream, s256.WriteTime, s256.ReadTime, s256.KernelEvictions, s256.HostEvictions)
	}
	got := b.String()
	if *updateRows {
		if err := os.WriteFile(rowsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	file, err := os.ReadFile(rowsGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := string(file)
	if i := strings.Index(want, "\nrecord/seed43\t"); i >= 0 && testing.Short() {
		want = want[:i+1]
	}
	if got != want {
		t.Errorf("rows differ from %s (%s rewrites it):\n%s", rowsGolden, updateCmd, lineDiff(want, got))
	}
}

// paperLaneRatchet bounds the fig2/paper lines' mean |ln(measured/paper)|
// over the suite: how far the paper's own configuration lands from the
// paper's Figure 2. A change that raises the mean raises this constant and
// says why; one that lowers it may lower it. The default lane is not
// bounded, as the rules beyond the paper move it on purpose.
const paperLaneRatchet = 0.3651

// TestGoldenPaperLaneRatchet holds rows.golden's paper lane to
// paperLaneRatchet.
func TestGoldenPaperLaneRatchet(t *testing.T) {
	golden, err := os.ReadFile(rowsGolden)
	if err != nil {
		t.Fatal(err)
	}
	mean, err := laneLogErr(parseGolden(string(golden)), "fig2/paper")
	if err != nil {
		t.Fatal(err)
	}
	if mean > paperLaneRatchet {
		t.Errorf("fig2/paper mean |ln(measured/paper)| = %.5f, above the ratchet %v", mean, paperLaneRatchet)
	}
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

// figure2Row is the row of rs named name.
func figure2Row(rs []Result, name string) Result {
	return rs[slices.IndexFunc(rs, func(r Result) bool { return r.Name == name })]
}

// errnoBuckets sums col's non-ok errno buckets over its origins, keyed
// kind:errno with the errno's spaces as underscores.
func errnoBuckets(col *policy.Collector) map[string]int64 {
	m := map[string]int64{}
	for _, act := range col.Snapshot() {
		for kind, k := range act.Kinds {
			for name, n := range k.Errnos {
				if name != "ok" {
					m[kind+":"+strings.ReplaceAll(name, " ", "_")] += n
				}
			}
		}
	}
	return m
}

// errnoField names the errno that ended a row, "ok" for none.
func errnoField(err error) string {
	e := vfs.ToErrno(err)
	if errors.As(err, &e); e == vfs.OK {
		return "ok"
	}
	return strings.ReplaceAll(e.Error(), " ", "_")
}

// lineDiff lists the lines only one side has, "-" for want and "+" for
// got. When both hold the same lines, reordered or repeated, it names
// the first line that differs.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for _, l := range w {
		if !slices.Contains(g, l) {
			fmt.Fprintf(&b, "-%s\n", l)
		}
	}
	for _, l := range g {
		if !slices.Contains(w, l) {
			fmt.Fprintf(&b, "+%s\n", l)
		}
	}
	if b.Len() > 0 {
		return b.String()
	}
	i := 0
	for i < len(w)-1 && i < len(g)-1 && w[i] == g[i] {
		i++
	}
	return fmt.Sprintf("the same lines, first differing at line %d:\n-%s\n+%s\n", i+1, w[i], g[i])
}

func TestLineDiff(t *testing.T) {
	for _, c := range []struct{ name, got, diff string }{
		{"reordered", "a\nc\nb\n", "the same lines, first differing at line 2:\n-b\n+c\n"},
		{"duplicated", "a\nb\nb\nc\n", "the same lines, first differing at line 3:\n-c\n+b\n"},
		{"changed", "a\nB\nc\n", "-b\n+B\n"},
	} {
		if d := lineDiff("a\nb\nc\n", c.got); d != c.diff {
			t.Errorf("%s: diff\n%s\nwant\n%s", c.name, d, c.diff)
		}
	}
}

const readme = "../../README.md"

// figureBlock is a README table rendered from rows.golden alone, with no
// suite pass, between figureBegin and figureEnd of its name.
type figureBlock struct {
	name, header string
	rows         func(goldenLines) (string, error)
}

var figureBlocks = []figureBlock{
	{"Figure 2", "| Benchmark | native (virtual ms) | default | paper's configuration | paper |\n|---|--:|--:|--:|--:|\n", figure2Rows},
	{"Figure 3", "| Panel | Row | off (virtual ms) | on (virtual ms) | speedup |\n|---|---|--:|--:|--:|\n", figure3Rows},
	{"Figure 4", "| Server threads | virtual ms | ratio to one thread |\n|--:|--:|--:|\n", figure4Rows},
}

func figureBegin(name string) string {
	return "<!-- " + name + " from internal/phoronix/testdata/rows.golden: " + updateCmd + " -->\n"
}

func figureEnd(name string) string { return "<!-- end of " + name + " -->\n" }

// render is f's whole block, markers included.
func (f figureBlock) render(g goldenLines) (string, error) {
	rows, err := f.rows(g)
	return figureBegin(f.name) + f.header + rows + figureEnd(f.name), err
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
		return fmt.Errorf("%s has no %s line for %q", rowsGolden, mode, row)
	}
	if n, _ := fmt.Sscanf(fields, format, args...); n != len(args) {
		return fmt.Errorf("%s: %s %q reads %q, not %q", rowsGolden, mode, row, fields, format)
	}
	return nil
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
	def, err := laneLogErr(g, "fig2/default")
	if err != nil {
		return "", err
	}
	paper, err := laneLogErr(g, "fig2/paper")
	if err != nil {
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
	var threads []int
	for key := range g {
		var n int
		if _, err := fmt.Sscanf(key, "fig4/threads=%d", &n); err == nil {
			threads = append(threads, n)
		}
	}
	slices.Sort(threads)
	var one float64
	if err := g.scan("fig4/threads=1", "seqread-500mb", "ns=%g", &one); err != nil {
		return "", err
	}
	var b strings.Builder
	for _, n := range threads {
		var ns float64
		if err := g.scan(fmt.Sprintf("fig4/threads=%d", n), "seqread-500mb", "ns=%g", &ns); err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "| %d | %.2f | %.3fx |\n", n, ns/1e6, ns/one)
	}
	return b.String(), nil
}

// spliceFigure puts block in place of text's block of the same name and
// returns the result and lineDiff of the two blocks, "" when they agree.
func spliceFigure(text, name, block string) (string, string, error) {
	begin, end := figureBegin(name), figureEnd(name)
	before, rest, ok := strings.Cut(text, begin)
	cur, after, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		return "", "", fmt.Errorf("%s has no %s block between %q and %q", readme, name, begin, end)
	}
	diff := ""
	if cur = begin + cur + end; cur != block {
		diff = lineDiff(cur, block)
	}
	return before + block + after, diff, nil
}

// TestReadmeFiguresCurrent holds each of README's figure blocks to
// rows.golden; updateCmd rewrites them.
func TestReadmeFiguresCurrent(t *testing.T) {
	golden, err := os.ReadFile(rowsGolden)
	if err != nil {
		t.Fatal(err)
	}
	g := parseGolden(string(golden))
	for _, f := range figureBlocks {
		t.Run(f.name, func(t *testing.T) {
			block, err := f.render(g)
			if err != nil {
				t.Fatal(err)
			}
			text, err := os.ReadFile(readme)
			if err != nil {
				t.Fatal(err)
			}
			spliced, diff, err := spliceFigure(string(text), f.name, block)
			if err != nil {
				t.Fatal(err)
			}
			if *updateRows {
				if err := os.WriteFile(readme, []byte(spliced), 0o644); err != nil {
					t.Fatal(err)
				}
			} else if diff != "" {
				t.Errorf("%s's %s table is not rows.golden's (%s rewrites it):\n%s", readme, f.name, updateCmd, diff)
			}
		})
	}
}

// TestFigureBlockEdits checks what TestReadmeFiguresCurrent reports: a
// hand-edited cell as its line, and a golden line a block needs but cannot
// find as an error rather than an empty cell.
func TestFigureBlockEdits(t *testing.T) {
	golden, err := os.ReadFile(rowsGolden)
	if err != nil {
		t.Fatal(err)
	}
	g := parseGolden(string(golden))
	for _, f := range figureBlocks {
		block, err := f.render(g)
		if err != nil {
			t.Fatal(err)
		}
		// The first data row's last cell, edited by hand.
		lines := strings.SplitAfter(block, "\n")
		row := lines[3]
		cell := strings.LastIndex(row, "| ") + len("| ")
		edited := row[:cell] + "1" + row[cell:]
		text := "intro\n" + strings.Join(slices.Concat(lines[:3], []string{edited}, lines[4:]), "") + "outro\n"
		spliced, diff, err := spliceFigure(text, f.name, block)
		if err != nil {
			t.Fatal(err)
		}
		if want := "-" + edited + "+" + row; diff != want {
			t.Errorf("%s: diff\n%s\nwant\n%s", f.name, diff, want)
		}
		if want := "intro\n" + block + "outro\n"; spliced != want {
			t.Errorf("%s: spliced README\n%s\nwant\n%s", f.name, spliced, want)
		}
		if _, err := f.rows(goldenLines{}); err == nil {
			t.Errorf("%s renders from an empty golden", f.name)
		}
	}
}

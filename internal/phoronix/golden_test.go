package phoronix

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"maps"
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

var updateRows = flag.Bool("update", false, "rewrite testdata/rows.golden and README's Figure 2 table from this run")

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
// merge-replay and consolidation, and compares the file up to them.
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

const (
	readme      = "../../README.md"
	figureBegin = "<!-- Figure 2 from internal/phoronix/testdata/rows.golden: " + updateCmd + " -->\n"
	figureEnd   = "<!-- end of Figure 2 -->\n"
)

// TestReadmeFiguresCurrent holds README's Figure 2 table to rows.golden:
// each row's native virtual time, its overhead on the default mount and on
// the paper's configuration, and the paper's.
func TestReadmeFiguresCurrent(t *testing.T) {
	golden, errG := os.ReadFile(rowsGolden)
	text, errR := os.ReadFile(readme)
	if err := errors.Join(errG, errR); err != nil {
		t.Fatal(err)
	}
	lanes := map[string][2]float64{} // CNTR and native ns, by mode and row
	for _, l := range strings.Split(string(golden), "\n") {
		if f := strings.Split(l, "\t"); strings.HasPrefix(f[0], "fig2/") {
			var cntr, native float64
			if n, _ := fmt.Sscanf(f[2], "cntr_ns=%g native_ns=%g", &cntr, &native); n != 2 {
				t.Fatalf("%s: no times in %q", rowsGolden, l)
			}
			lanes[f[0]+"\t"+f[1]] = [2]float64{cntr, native}
		}
	}
	table := figureBegin + "| Benchmark | native (virtual ms) | default | paper's configuration | paper |\n|---|--:|--:|--:|--:|\n"
	for _, b := range Suite {
		def, paper := lanes["fig2/default\t"+b.Name], lanes["fig2/paper\t"+b.Name]
		table += fmt.Sprintf("| %s | %.2f | %.2fx | %.2fx | %.1fx |\n", b.Name, def[1]/1e6, def[0]/def[1], paper[0]/paper[1], b.PaperOverhead)
	}
	table += figureEnd
	before, rest, ok := strings.Cut(string(text), figureBegin)
	cur, after, ok2 := strings.Cut(rest, figureEnd)
	if !ok || !ok2 {
		t.Fatalf("%s has no Figure 2 block between %q and %q", readme, figureBegin, figureEnd)
	}
	if *updateRows {
		if err := os.WriteFile(readme, []byte(before+table+after), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if cur = figureBegin + cur + figureEnd; cur != table {
		t.Errorf("%s's Figure 2 table is not rows.golden's (%s rewrites it):\n%s", readme, updateCmd, lineDiff(cur, table))
	}
}

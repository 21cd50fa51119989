package phoronix

import (
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
	"time"

	"cntr/internal/policy"
	"cntr/internal/sim"
	"cntr/internal/vfs"
)

// updating reports -update, which package allocs defines for the test
// binaries that import it (this package's alloc test does): here it also
// rewrites testdata/rows.golden and README's figure blocks (Figures 2, 3
// and 4) from this run.
func updating() bool { return flag.Lookup("update").Value.String() == "true" }

// updateCmd re-records rows.golden and README's figure blocks.
const updateCmd = "go test ./internal/phoronix -run 'Golden|ReadmeFigures' -update"

const rowsGolden = "testdata/rows.golden"

// shared is this GOMAXPROCS's passes: TestRowsGolden and the relation
// tests read the same ones.
func shared() *passes {
	p, _ := sharedPasses()
	return p
}

var sharedPasses = perProcs(func() (*passes, error) { return newPasses(), nil })

// The fixtures below are the deterministic passes only tests read, each
// taken once per GOMAXPROCS.

var consolidation = perProcs(func() (*ConsolidationReport, error) { return RunConsolidation(3) })

// enforceChaosPass is the suite replayed under chaosErrnoProfile with the
// seed-42 profile enforced, recorded into chaotic.
type enforceChaosPass struct {
	prof    *policy.Profile
	rows    []Row
	errnos  []string // per row, " kind:errno=n" for each non-ok bucket it added
	chaotic *policy.Collector
}

var enforceChaos = perProcs(func() (*enforceChaosPass, error) {
	rec, err := shared().seed42()
	if err != nil {
		return nil, err
	}
	p := &enforceChaosPass{prof: rec.Profile(policy.GenOptions{}), chaotic: policy.NewCollector()}
	before := map[string]int64{}
	for i := range Suite {
		p.rows = append(p.rows, Run(&Suite[i], Setup{Faults: chaosErrnoProfile(), Enforce: p.prof, Record: p.chaotic}))
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

// stream16MB and stream256MB are RunStreaming's passes: a file both page
// caches hold, and one that streams through them.
var (
	stream16MB  = perProcs(func() (StreamingResult, error) { return RunStreaming(16 << 20) })
	stream256MB = perProcs(func() (StreamingResult, error) { return RunStreaming(256 << 20) })
)

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

// TestRowsGolden holds every deterministic run mode to testdata/rows.golden,
// one line per (mode, row), so a change that moves a number shows as a diff
// of that file; updateCmd rewrites it. The modes cmd/phoronix offers write
// their lines through the program's own table (golden.go); the others are
// written here. -short skips the seed-43 recording, merge-replay,
// consolidation and the 256 MB stream, and compares the file up to them.
func TestRowsGolden(t *testing.T) {
	if updating() && testing.Short() {
		t.Fatal("-update under -short would drop the modes -short skips")
	}
	var b strings.Builder
	p := shared()
	offered := func(names ...string) {
		if err := p.lines(&b, names...); err != nil {
			t.Fatal(err)
		}
	}
	offered("fig2", "fig3", "fig4", "storm", "chaos/latency")
	line(&b, "record/seed42", "suite", "%s", profileFields(pass(t, p.seed42).Profile(policy.GenOptions{})))
	ec := pass(t, enforceChaos)
	for i, r := range ec.rows {
		line(&b, "enforce+chaos", r.Name, "ns=%d denials=%d audited=%d%s", r.Time, r.Denials, r.Audited, ec.errnos[i])
	}
	offered("fleet/nosvc", "fleet/nodes=1", "fleet/nodes=2", "fleet/nodes=4")
	for i, r := range pass(t, writebackFenced) {
		line(&b, "fleet/wb-fenced", wbFencedTiers[i].name, "sync_ns=%d fenced=%d svc_fenced=%d node_fenced=%d backend_bytes=%d epoch=%d",
			r.syncTime, r.mountFenced, r.tier.FencedWrites, nodeFenced(r.nodes), r.backend, r.lease.Epoch)
	}
	const stream = "write_ns=%d read_ns=%d kernel_evictions=%d host_evictions=%d"
	s16 := pass(t, stream16MB)
	line(&b, "stream/16MB", "seq-64k", stream, s16.WriteTime, s16.ReadTime, s16.KernelEvictions, s16.HostEvictions)
	// The modes whose tests skip under -short close the file.
	if !testing.Short() {
		line(&b, "record/seed43", "suite", "%s", profileFields(pass(t, p.seed43).Profile(policy.GenOptions{})))
		offered("merge-replay")
		c := pass(t, consolidation)
		line(&b, "consolidation", "total", "ns=%d eio=%d enospc=%d aborted=%d %s", c.VirtTotal, c.EIO, c.ENOSPC, c.Aborted, profileFields(c.Merged))
		for _, r := range c.Results {
			line(&b, "consolidation", r.Name, "ns=%d err=%s", r.Time, errnoField(r.Err))
		}
		s256 := pass(t, stream256MB)
		line(&b, "stream/256MB", "seq-64k", stream, s256.WriteTime, s256.ReadTime, s256.KernelEvictions, s256.HostEvictions)
	}
	got := b.String()
	if updating() {
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

// TestGoldenLedgersSum: every fig2, fig3 and storm line of rows.golden
// carries each side's ledger over the timed phase, and a side's buckets
// sum to that phase's clock delta: its virtual time on the line, once
// the row's workers divide them (wall). No bucket is LayerOther: the
// stack tags every component that charges the clock.
func TestGoldenLedgersSum(t *testing.T) {
	golden, err := os.ReadFile(rowsGolden)
	if err != nil {
		t.Fatal(err)
	}
	bench := func(row string) *Benchmark {
		for _, b := range []*Benchmark{&MetaStorm, &DirStorm} {
			if b.Name == row {
				return b
			}
		}
		return findBench(row)
	}
	checked := 0
	for key, fields := range parseGolden(string(golden)) {
		mode, row, _ := strings.Cut(key, "\t")
		format, sides := "cntr_ns=%d native_ns=%d", [2]string{"cntr", "native"}
		switch {
		case strings.HasPrefix(mode, "fig3/"):
			format, sides = "off_ns=%d on_ns=%d", [2]string{"off", "on"}
		case !strings.HasPrefix(mode, "fig2/") && !strings.HasPrefix(mode, "storm/"):
			continue
		}
		var want [2]time.Duration
		if n, _ := fmt.Sscanf(fields, format, &want[0], &want[1]); n != 2 {
			t.Fatalf("%s %q reads %q, not %q", mode, row, fields, format)
		}
		_, run, ok := strings.Cut(fields, "\trun: ")
		if !ok {
			t.Errorf("%s %q has no run: field", mode, row)
			continue
		}
		var sum [2]time.Duration
		for _, f := range strings.Fields(run) {
			var ns time.Duration
			name, val, _ := strings.Cut(f, "=")
			side, layer, _ := strings.Cut(name, ".")
			i := slices.Index(sides[:], side)
			if _, err := fmt.Sscan(val, &ns); err != nil || i < 0 || layer == sim.LayerOther.String() {
				t.Errorf("%s %q: bucket %q", mode, row, f)
				continue
			}
			sum[i] += ns
		}
		for i := range sides {
			if got := wall(sum[i], bench(row).Workers); got != want[i] {
				t.Errorf("%s %q: %s buckets sum to %v (%v after the workers), the line says %v", mode, row, sides[i], sum[i], got, want[i])
			}
		}
		checked++
	}
	if checked != 2*len(Suite)+len(Figure3)+2 {
		t.Errorf("checked %d lines, want %d", checked, 2*len(Suite)+len(Figure3)+2)
	}
}

// errnoBuckets returns col's non-ok errno buckets, keyed kind:errno
// with the errno's spaces as underscores.
func errnoBuckets(col *policy.Collector) map[string]int64 {
	m := map[string]int64{}
	for kind, k := range col.Snapshot().Kinds {
		for name, n := range k.Errnos {
			if name != "ok" {
				m[kind+":"+strings.ReplaceAll(name, " ", "_")] = n
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

// README holds each figure block between figureBegin and figureEnd of
// its name.
func figureBegin(name string) string {
	return "<!-- " + name + " from internal/phoronix/testdata/rows.golden: " + updateCmd + " -->\n"
}

func figureEnd(name string) string { return "<!-- end of " + name + " -->\n" }

// render is f's whole block, markers included.
func (f figureBlock) render(g goldenLines) (string, error) {
	rows, err := f.rows(g)
	return figureBegin(f.name) + f.header + rows + figureEnd(f.name), err
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
			if updating() {
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

package phoronix

import (
	"errors"
	"strings"
	"testing"
	"time"

	"cntr/internal/fuse"
)

// TestFigure2Shape verifies the Figure 2 reproduction: who wins, where
// the extremes are, and rough magnitudes. Exact ratios depend on the
// calibrated cost model; the assertions bound the shape.
func TestFigure2Shape(t *testing.T) {
	results := pass(t, shared().figure2)
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	slower := func(name string, min, max float64) {
		r := byName[name]
		if r.Overhead < min || r.Overhead > max {
			t.Errorf("%s overhead %.2fx outside [%v, %v] (paper %.1fx)",
				name, r.Overhead, min, max, findBench(r.Name).PaperOverhead)
		}
	}
	// Rows on the paper's configuration at seed 7: the off side of each
	// panel beyond the paper, and PostMark's own run.
	paperSide := map[string]time.Duration{}
	for i, r := range pass(t, shared().figure3) {
		if Figure3[i].BeyondPaper {
			paperSide[Figure3[i].Row] = r.Before
		}
	}
	postmark := runCntrWith(fuse.PaperMountOptions(), findBench("PostMark"))
	if postmark.Err != nil {
		t.Fatal(postmark.Err)
	}
	paperSide["PostMark"] = postmark.Time
	// Metadata-heavy workloads: CntrFS clearly slower; and double
	// buffering degrades the big re-read. The bands are asserted where the
	// paper measured them, on its configuration; the default, which the fig2 mode
	// runs, drops requests from every small file and keeps the big file
	// once, and may only sit at or under that.
	for _, m := range []struct {
		name     string
		min, max float64
	}{
		{"Compilebench: Create", 4, 15},
		{"Compilebench: Read", 2.5, 20},
		{"PostMark", 4, 12},
		{"IOzone: Read", 1.5, 8},
	} {
		r := byName[m.name]
		paperConfig := float64(paperSide[m.name]) / float64(r.NativeTime)
		if paperConfig < m.min || paperConfig > m.max {
			t.Errorf("%s overhead on the paper's configuration %.2fx outside [%v, %v] (paper %.1fx)",
				m.name, paperConfig, m.min, m.max, findBench(r.Name).PaperOverhead)
		}
		if r.Overhead > paperConfig {
			t.Errorf("%s overhead %.2fx, above the %.2fx of the paper's configuration", m.name, r.Overhead, paperConfig)
		}
	}
	slower("AIO-Stress", 1.8, 5)
	// Moderate overheads.
	slower("Compilebench: Compile", 1.3, 3.5)
	// Apachebench opens a file per request. Its band is asserted where the
	// paper measured it, on the paper's configuration at the same seed; the
	// default opens each file without a message (NoOpen) and must sit at
	// or under that and near parity.
	for i, p := range pass(t, shared().figure2Paper) {
		if p.Name != "Apachebench" {
			continue
		}
		r := results[i]
		paperConfig := float64(p.Time) / float64(r.NativeTime)
		if paperConfig < 1.1 || paperConfig > 2.2 {
			t.Errorf("Apachebench overhead on the paper's configuration %.2fx outside [1.1, 2.2] (paper %.1fx)", paperConfig, findBench(r.Name).PaperOverhead)
		}
		if r.Overhead < 0.95 || r.Overhead > paperConfig {
			t.Errorf("Apachebench overhead %.2fx, want within [0.95, %.2fx of the paper's configuration]", r.Overhead, paperConfig)
		}
	}
	// IOzone: Write is the row the paper puts down to the per-write
	// security.capability lookup. Its band is asserted where the paper
	// measured it, with NoSec off; the default configuration, which
	// the fig2 mode runs, must sit at or under that and near parity.
	w := byName["IOzone: Write"]
	nosecOff := float64(paperSide["IOzone: Write"]) / float64(w.NativeTime)
	if nosecOff < 1.1 || nosecOff > 2.5 {
		t.Errorf("IOzone: Write overhead without NoSec %.2fx outside [1.1, 2.5] (paper %.1fx)", nosecOff, findBench(w.Name).PaperOverhead)
	}
	if w.Overhead > nosecOff || w.Overhead < 0.9 || w.Overhead > 1.3 {
		t.Errorf("IOzone: Write overhead %.2fx, want within [0.9, 1.3] and at most the %.2fx without NoSec", w.Overhead, nosecOff)
	}
	slower("SQLite", 1.1, 2.8)
	slower("FS-Mark", 0.9, 1.6)
	// Cache-served workloads: near parity.
	slower("Gzip", 0.9, 1.2)
	slower("Threaded I/O: Read", 0.9, 1.4)
	for _, d := range []string{"Dbench: 1 Clients", "Dbench: 12 Clients", "Dbench: 48 Clients", "Dbench: 128 Clients"} {
		slower(d, 0.8, 1.8)
	}
	// Single-buffered, the big re-read is served from the one cache that
	// holds it, as natively.
	slower("IOzone: Read", 0.95, 1.1)
	// Writeback depth makes CntrFS *faster* (the paper's crossovers).
	for _, f := range []string{"FIO", "PGBench", "Threaded I/O: Write"} {
		if r := byName[f]; r.Overhead >= 0.9 {
			t.Errorf("%s overhead %.2fx, want < 0.9 (cntr faster; paper %.1fx)",
				f, r.Overhead, findBench(r.Name).PaperOverhead)
		}
	}
	// The worst case must be a metadata workload, as in the paper.
	worst := results[0]
	for _, r := range results {
		if r.Overhead > worst.Overhead {
			worst = r
		}
	}
	switch worst.Name {
	case "Compilebench: Create", "Compilebench: Read", "PostMark":
	default:
		t.Errorf("worst case is %s (%.1fx); paper's worst cases are metadata-bound", worst.Name, worst.Overhead)
	}
}

// TestFigure3Effect holds each panel to the speedup its rule must at least
// buy, 0 asking only that the rule pays (the paper saw ~10x, ~1.65x, ~2.5x
// and ~5% on its four). rows.golden holds both sides of every panel.
func TestFigure3Effect(t *testing.T) {
	floors := []struct {
		name  string
		floor float64
	}{
		{"ReadCache", 1.5}, {"Writeback", 1.15}, {"Batching", 1.05}, {"Splice", 0.98},
		{"NoSec", 0}, {"SmallFile", 0}, {"SingleBuffer", 2.5}, {"SingleBarrier", 0}, {"ZeroMessageOpen", 0},
		{"LargeRequests", 1.04}, {"ZeroMessageOpendir", 1.01}, {"ReaddirPlus", 1.03},
	}
	panels := pass(t, shared().figure3)
	if len(floors) != len(panels) {
		t.Fatalf("%d floors for %d panels", len(floors), len(panels))
	}
	for i, c := range floors {
		t.Run(c.name, func(t *testing.T) {
			r := panels[i]
			if speedup := float64(r.Before) / float64(r.After); speedup < c.floor || c.floor == 0 && r.After >= r.Before {
				t.Errorf("%s: %v off, %v on (%.2fx), want a speedup of at least %v (0: on < off)", r.Name, r.Before, r.After, speedup, c.floor)
			}
		})
	}
}

func TestFigure4ThreadScaling(t *testing.T) {
	m := pass(t, shared().figure4)
	t1, t16 := m[1], m[16]
	if t16 < t1 {
		t.Fatalf("16 threads (%v) should not beat 1 thread (%v) for seq read", t16, t1)
	}
	loss := float64(t16-t1) / float64(t1)
	if loss > 0.20 {
		t.Fatalf("throughput loss at 16 threads = %.1f%%, paper reports up to ~8%%", loss*100)
	}
	if loss <= 0 {
		t.Fatalf("thread contention should cost something: loss = %.3f%%", loss*100)
	}
}

func TestWallTimeConversion(t *testing.T) {
	if wall(4*time.Second, 4) != time.Second {
		t.Fatal("4 workers on 4 hw threads")
	}
	if wall(4*time.Second, 128) != time.Second {
		t.Fatal("capped at hardware threads")
	}
	if wall(4*time.Second, 0) != 4*time.Second {
		t.Fatal("min 1 worker")
	}
}

// TestFormatRows: a counter column appears when some row has a count in
// it, the status column always.
func TestFormatRows(t *testing.T) {
	plain := FormatRows([]Row{{Name: "X", Time: time.Second}})
	if strings.Contains(plain, "denials") || !strings.Contains(plain, "ok") {
		t.Fatalf("table of a bare row:\n%s", plain)
	}
	out := FormatRows([]Row{
		{Name: "X", Time: time.Second, Denials: 3},
		{Name: "Y", Err: errors.New("Y: input/output error")},
	})
	for _, want := range []string{"denials", "Y: input/output error"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "audited") || strings.Contains(out, "traced ops") {
		t.Fatalf("table shows a column no row has:\n%s", out)
	}
}

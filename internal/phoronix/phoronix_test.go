package phoronix

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cntr/internal/fuse"
)

// TestFigure2Shape verifies the Figure 2 reproduction: who wins, where
// the extremes are, and rough magnitudes. Exact ratios depend on the
// calibrated cost model; the assertions bound the shape.
func TestFigure2Shape(t *testing.T) {
	results, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 20 {
		t.Fatalf("suite has %d rows, want 20", len(results))
	}
	byName := map[string]Result{}
	for _, r := range results {
		byName[r.Name] = r
	}
	slower := func(name string, min, max float64) {
		r := byName[name]
		if r.Overhead < min || r.Overhead > max {
			t.Errorf("%s overhead %.2fx outside [%v, %v] (paper %.1fx)",
				name, r.Overhead, min, max, r.PaperOverhead)
		}
	}
	// Metadata-heavy workloads: CntrFS clearly slower; and double
	// buffering degrades the big re-read. The bands are asserted where the
	// paper measured them, on its configuration; the default, which RunAll
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
		cntr, err := runCntrWith(fuse.PaperMountOptions(), findBench(m.name))
		if err != nil {
			t.Fatal(err)
		}
		r := byName[m.name]
		paperConfig := float64(cntr) / float64(r.NativeTime)
		if paperConfig < m.min || paperConfig > m.max {
			t.Errorf("%s overhead on the paper's configuration %.2fx outside [%v, %v] (paper %.1fx)",
				m.name, paperConfig, m.min, m.max, r.PaperOverhead)
		}
		if r.Overhead > paperConfig {
			t.Errorf("%s overhead %.2fx, above the %.2fx of the paper's configuration", m.name, r.Overhead, paperConfig)
		}
	}
	slower("AIO-Stress", 1.8, 5)
	// Moderate overheads.
	slower("Apachebench", 1.1, 2.2)
	slower("Compilebench: Compile", 1.3, 3.5)
	// IOzone: Write is the row the paper puts down to the per-write
	// security.capability lookup. Its band is asserted where the paper
	// measured it, with NoSec off; the default configuration, which
	// RunAll runs, must sit at or under that and near parity.
	nosec, err := nosecPanel()
	if err != nil {
		t.Fatal(err)
	}
	w := byName["IOzone: Write"]
	paperConfig := float64(nosec.Before) / float64(w.NativeTime)
	if paperConfig < 1.1 || paperConfig > 2.5 {
		t.Errorf("IOzone: Write overhead without NoSec %.2fx outside [1.1, 2.5] (paper %.1fx)", paperConfig, w.PaperOverhead)
	}
	if w.Overhead > paperConfig || w.Overhead < 0.9 || w.Overhead > 1.3 {
		t.Errorf("IOzone: Write overhead %.2fx, want within [0.9, 1.3] and at most the %.2fx without NoSec", w.Overhead, paperConfig)
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
				f, r.Overhead, r.PaperOverhead)
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

func TestFigure3ReadCacheEffect(t *testing.T) {
	r, err := runFigure3("read cache (FOPEN_KEEP_CACHE)")
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup < 1.5 {
		t.Fatalf("FOPEN_KEEP_CACHE speedup %.2fx, want >= 1.5x (paper ~10x)", r.Speedup)
	}
	// The off side re-reads from the host's copy, the only one that
	// survives a re-open: DirectRead is inert without KeepCache and does
	// not move this total.
	if off := 5674340 * time.Nanosecond; r.Before != off {
		t.Fatalf("Threaded I/O: Read without FOPEN_KEEP_CACHE %dns, want %dns", r.Before, off)
	}
}

func TestFigure3WritebackEffect(t *testing.T) {
	r, err := runFigure3("writeback cache")
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup < 1.15 {
		t.Fatalf("writeback speedup %.2fx, want >= 1.15x (paper ~1.65x)", r.Speedup)
	}
}

func TestFigure3BatchingEffect(t *testing.T) {
	r, err := runFigure3("batching (PARALLEL_DIROPS)")
	if err != nil {
		t.Fatal(err)
	}
	if r.Speedup < 1.05 {
		t.Fatalf("PARALLEL_DIROPS speedup %.2fx, want >= 1.05x (paper ~2.5x)", r.Speedup)
	}
}

func TestFigure3SpliceEffect(t *testing.T) {
	r, err := runFigure3("splice read")
	if err != nil {
		t.Fatal(err)
	}
	// The paper saw only ~5%; require non-negative and bounded.
	if r.Speedup < 0.98 {
		t.Fatalf("splice read made things worse: %.2fx", r.Speedup)
	}
}

// runFigure3 runs the Figure3 panel of that name.
func runFigure3(name string) (OptResult, error) {
	for _, p := range Figure3 {
		if p.Name == name {
			return RunPanel(p)
		}
	}
	return OptResult{}, fmt.Errorf("no Figure 3 panel named %q", name)
}

// nosecPanel runs the NoSec panel once for the two tests that read it.
var nosecPanel = sync.OnceValues(func() (OptResult, error) { return runFigure3("xattr absence (S_NOSEC)") })

// TestFigure3NoSecEffect pins both sides of the panel: off is what the
// paper's configuration costs IOzone: Write (64 MiB of 4 KiB records,
// each a GETXATTR round trip), on is what the mark leaves of it — the
// file is made through the mount, so not even its first write asks.
func TestFigure3NoSecEffect(t *testing.T) {
	r, err := nosecPanel()
	if err != nil {
		t.Fatal(err)
	}
	const off, on = 814207040 * time.Nanosecond, 472436800 * time.Nanosecond
	if r.Before != off || r.After != on {
		t.Fatalf("IOzone: Write without NoSec %dns, with %dns (%.2fx); want %dns and %dns (1.72x)",
			r.Before, r.After, r.Speedup, off, on)
	}
}

// TestFigure3SmallFileEffect pins both sides of the sixth panel: the
// compilebench create stage on the paper's configuration (its Figure 2
// row: 7.3x) and on the default, where each of its files costs a
// GETXATTR and a FLUSH less.
func TestFigure3SmallFileEffect(t *testing.T) {
	r, err := runFigure3("small file (born mark, no FLUSH)")
	if err != nil {
		t.Fatal(err)
	}
	const paper, def = 49124080 * time.Nanosecond, 30778440 * time.Nanosecond
	if r.Before != paper || r.After != def {
		t.Fatalf("Compilebench: Create on the paper's configuration %dns, on the default %dns (%.2fx); want %dns and %dns (1.60x)",
			r.Before, r.After, r.Speedup, paper, def)
	}
}

// TestFigure3SingleBufferEffect pins both sides of the seventh panel:
// IOzone: Read on the paper's configuration, where the 130 MB set is
// cached on both sides of the connection and does not fit twice, and with
// the server reading past the host's copy, where it fits.
func TestFigure3SingleBufferEffect(t *testing.T) {
	r, err := runFigure3("single buffer (server O_DIRECT)")
	if err != nil {
		t.Fatal(err)
	}
	const paper, single = 43268630 * time.Nanosecond, 13251520 * time.Nanosecond
	if r.Before != paper || r.After != single || r.Speedup < 2.5 {
		t.Fatalf("IOzone: Read on the paper's configuration %dns, with DirectRead %dns (%.2fx); want %dns and %dns (3.27x)",
			r.Before, r.After, r.Speedup, paper, single)
	}
}

// TestFigure3SingleBarrierEffect pins both sides of the eighth panel:
// AIO-Stress's O_SYNC fallback on the paper's configuration, where each
// 32 KiB write pays the host's synchronous write and the FSYNC after it a
// device barrier each, and with SyncByFsync, where the FSYNC's is the only
// one.
func TestFigure3SingleBarrierEffect(t *testing.T) {
	r, err := runFigure3("single barrier (O_SYNC by FSYNC)")
	if err != nil {
		t.Fatal(err)
	}
	const paper, single = 628579840 * time.Nanosecond, 505699840 * time.Nanosecond
	if r.Before != paper || r.After != single {
		t.Fatalf("AIO-Stress on the paper's configuration %dns, with SyncByFsync %dns (%.2fx); want %dns and %dns (1.24x)",
			r.Before, r.After, r.Speedup, paper, single)
	}
}

func TestFigure4ThreadScaling(t *testing.T) {
	m, err := Figure4Threads()
	if err != nil {
		t.Fatal(err)
	}
	t1, t16 := m[1], m[16]
	// The sweep mounts without KeepCache, so every record is a request
	// served from the warm host cache; DirectRead is inert there and does
	// not move these totals.
	if t1 != 21154400 || t16 != 22056200 {
		t.Fatalf("seq read at 1 thread %dns, at 16 %dns; want 21154400 and 22056200", t1, t16)
	}
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

func TestFormatTable(t *testing.T) {
	out := FormatTable([]Result{{Name: "X", NativeTime: time.Second, CntrTime: 2 * time.Second, Overhead: 2, PaperOverhead: 2.1}})
	if len(out) == 0 {
		t.Fatal("empty table")
	}
}

// TestFormatRows: a counter column appears when some row has a count in
// it, the status column always.
func TestFormatRows(t *testing.T) {
	plain := FormatRows([]Row{{Name: "X", Time: time.Second}})
	if strings.Contains(plain, "denials") || strings.Contains(plain, "injected") || !strings.Contains(plain, "ok") {
		t.Fatalf("table of a bare row:\n%s", plain)
	}
	out := FormatRows([]Row{
		{Name: "X", Time: time.Second, Denials: 3},
		{Name: "Y", Err: errors.New("Y: input/output error"), Injected: 2},
	})
	for _, want := range []string{"denials", "injected", "Y: input/output error"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "audited") || strings.Contains(out, "traced ops") {
		t.Fatalf("table shows a column no row has:\n%s", out)
	}
}

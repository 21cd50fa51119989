package phoronix

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cntr/internal/fuse"
	"cntr/internal/stack"
)

var updateRows = flag.Bool("update", false, "rewrite testdata/rows.golden from this run")

// figure2 is RunAll's pass at seed 42, shared by every test that reads
// Figure 2 on the default mount.
var figure2 = perProcs(RunAll)

// figure2Paper is the same twenty rows at seed 42 on the paper's
// configuration: what Figure 2 was measured on.
var figure2Paper = perProcs(func() ([]Row, error) {
	rows := Sweep(nil, Setup{Config: stack.Config{Mount: fuse.PaperMountOptions()}})
	for _, r := range rows {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	return rows, nil
})

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

const rowsGolden = "testdata/rows.golden"

// TestRowsGolden holds every Figure 2 row, on the default mount and on the
// paper's configuration, to testdata/rows.golden: CNTR and native virtual
// time, work, and the mount's wire frames by opcode. A change that moves a
// row shows as a diff of that file;
//
//	go test ./internal/phoronix -run Golden -update
//
// rewrites it.
func TestRowsGolden(t *testing.T) {
	def, err := figure2()
	if err != nil {
		t.Fatal(err)
	}
	paper, err := figure2Paper()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range def {
		goldenRow(&b, "fig2/default", r.Name, r.CntrTime, r.NativeTime, r.Work, r.frames)
	}
	for i, r := range paper {
		goldenRow(&b, "fig2/paper", r.Name, r.Time, def[i].NativeTime, r.Work, r.frames)
	}
	got := b.String()
	if *updateRows {
		if err := os.WriteFile(rowsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(rowsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("rows differ from %s (go test -run Golden -update rewrites it):\n%s", rowsGolden, lineDiff(string(want), got))
	}
}

// goldenRow writes one line: mode, row, times and work, then every opcode
// the mount sent, in opcode order.
func goldenRow(b *strings.Builder, mode, name string, cntr, native time.Duration, work int64, frames [len(fuse.ConnStats{}.Frames)]int64) {
	fmt.Fprintf(b, "%s\t%s\tcntr_ns=%d native_ns=%d work=%d\t", mode, name, int64(cntr), int64(native), work)
	sep := ""
	for op, n := range frames {
		if n != 0 {
			fmt.Fprintf(b, "%s%v=%d", sep, fuse.Opcode(op), n)
			sep = " "
		}
	}
	b.WriteString("\n")
}

// lineDiff lists the lines only one side has, "-" for want and "+" for got.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "-%s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+%s\n", l)
		}
	}
	return b.String()
}

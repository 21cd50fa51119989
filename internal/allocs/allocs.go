// Package allocs holds the repository's heap-object pins in one file,
// testdata/allocs.golden at the module root, one line per pinned case:
//
//	package<TAB>case<TAB>objects=N                 exactly N heap objects
//	package<TAB>case<TAB>objects<=N (seen A-B)     at most N, at least A
//	package<TAB>case<TAB>objects<=N                at most N
//
// where package is the measuring test's directory under internal/. A
// ceiling is for a count that moves between runs. One averaged over many
// runs records the range its last -update measured: a run below A fails
// too, so a pin that falls stays fallen once -update records it. One
// ceiling without a range is for a single run's count, which moves with
// the scheduler in either direction. A change in host cost is a diff of
// that file; -update rewrites it, as internal/phoronix's golden tests
// rewrite rows.golden.
package allocs

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
)

var update = flag.Bool("update", false,
	"rewrite the golden lines of what this run measures: testdata/allocs.golden, and in internal/phoronix rows.golden and README's figure blocks")

const golden = "testdata/allocs.golden"

// Check holds got, the heap objects the calling package's test measured
// for case name, to the case's line and fails t on a break or a missing
// line: a count other than an exact line's, above a ceiling, or below a
// ceiling's range seen. Under -update it first sets an exact line, or a
// missing one, to got, and a ceiling's range to what this process
// measures (run -count=N -cpu 1,4 to see the spread), with the ceiling at
// most about a tenth above the range and never above what it was but to
// hold the range. In a -race build, whose instrumentation allocates on
// its own account, it only logs got.
func Check(t testing.TB, name string, got float64) {
	t.Helper()
	if race() {
		t.Logf("%s: %g heap objects (-race: not checked)", name, got)
		return
	}
	root, pkg, err := module()
	if err != nil {
		t.Fatal(err)
	}
	key := pkg + "\t" + name + "\t"
	if *update {
		if err := rewrite(root, key, got); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(root, golden))
	if err != nil {
		t.Fatal(err)
	}
	p, err := find(string(data), key)
	if err != nil {
		t.Fatalf("%s: %v (%g heap objects measured; -update adds the line)", golden, err, got)
	}
	t.Logf("%s: %g heap objects, %v", name, got, p)
	if msg := p.check(got); msg != "" {
		t.Errorf("%s: %g heap objects, %s: %s (%s; -update rewrites it)", name, got, msg, p, golden)
	}
}

// pin is a golden line's spec: exactly n objects, or with ceiling at most
// n, a run of its last -update having measured lo to hi; with floor, the
// line records that range and a count below lo breaks it.
type pin struct {
	ceiling, floor bool
	n, lo, hi      float64
}

func (p pin) String() string {
	switch {
	case !p.ceiling:
		return "objects=" + num(p.n)
	case !p.floor:
		return "objects<=" + num(p.n)
	}
	return fmt.Sprintf("objects<=%s (seen %s-%s)", num(p.n), num(p.lo), num(p.hi))
}

func num(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

// check says how got breaks p, or "" when it holds.
func (p pin) check(got float64) string {
	switch {
	case !p.ceiling && got != p.n:
		return "want exactly"
	case got > p.n:
		return "above the ceiling"
	case p.floor && got < p.lo:
		return "below the range seen, so the pin fell"
	}
	return ""
}

// record is p after a run of this process measured got, its first of
// the case when first; was is the case's ceiling before that first. An
// exact pin becomes got; a ceiling's range restarts at got or widens to
// it, and the ceiling is at most a tenth above the range's top but never
// lower than the top nor higher than was, but to hold the range.
func (p pin) record(got float64, first bool, was float64) pin {
	if !p.ceiling {
		return pin{n: got}
	}
	if first {
		p.lo, p.hi = got, got
	}
	p.lo, p.hi = min(p.lo, got), max(p.hi, got)
	p.n = max(p.hi, min(was, math.Floor(p.hi*1.1)))
	return p
}

// find returns the pin of key's line.
func find(data, key string) (pin, error) {
	for _, line := range strings.Split(data, "\n") {
		if !strings.HasPrefix(line, key) {
			continue
		}
		spec := line[len(key):]
		var p pin
		if rest, ok := strings.CutPrefix(spec, "objects<="); ok {
			p.ceiling = true
			if n, seen, ok := strings.Cut(rest, " "); ok {
				p.floor = true
				rest = n
				if _, err := fmt.Sscanf(seen, "(seen %g-%g)", &p.lo, &p.hi); err != nil {
					return pin{}, fmt.Errorf("%q: want objects<=N (seen A-B): %v", line, err)
				}
			}
			if _, err := fmt.Sscanf(rest, "%g", &p.n); err != nil {
				return pin{}, fmt.Errorf("%q: want objects<=N: %v", line, err)
			}
			return p, nil
		}
		if _, err := fmt.Sscanf(spec, "objects=%g", &p.n); err != nil {
			return pin{}, fmt.Errorf("%q: want objects=N, objects<=N or objects<=N (seen A-B): %v", line, err)
		}
		return p, nil
	}
	return pin{}, fmt.Errorf("no line %q", key)
}

// recorded holds, for each key this process has rewritten, the ceiling
// it read before the first rewrite and the pin, range and all, it wrote
// last: a line without a range does not keep it.
var recorded struct {
	sync.Mutex
	was  map[string]float64
	last map[string]pin
}

// rewrite sets key's line for a measurement of got, holding a lock on
// the golden's directory: the test binaries of go test ./... run at once.
func rewrite(root, key string, got float64) error {
	dir, err := os.Open(filepath.Join(root, filepath.Dir(golden)))
	if err != nil {
		return err
	}
	defer dir.Close() // and unlocked
	if err := syscall.Flock(int(dir.Fd()), syscall.LOCK_EX); err != nil {
		return err
	}
	path := filepath.Join(root, golden)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	lines := strings.SplitAfter(string(data), "\n")
	found := false
	for i, line := range lines {
		if !strings.HasPrefix(line, key) {
			continue
		}
		found = true
		p, _ := find(line, key) // a line that does not parse becomes exact
		recorded.Lock()
		last, seen := recorded.last[key]
		if !seen {
			if recorded.was == nil {
				recorded.was, recorded.last = map[string]float64{}, map[string]pin{}
			}
			recorded.was[key] = p.n
		} else {
			p.lo, p.hi = last.lo, last.hi
		}
		p = p.record(got, !seen, recorded.was[key])
		recorded.last[key] = p
		recorded.Unlock()
		lines[i] = key + p.String() + "\n"
	}
	if !found {
		lines = append(lines, key+pin{n: got}.String()+"\n")
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(strings.Join(lines, "")), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// module returns the module's root directory and the package key of
// the working directory, which go test sets to the package's.
func module() (root, pkg string, err error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for root = wd; ; root = filepath.Dir(root) {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			rel, err := filepath.Rel(root, wd)
			return root, strings.TrimPrefix(filepath.ToSlash(rel), "internal/"), err
		}
		if filepath.Dir(root) == root {
			return "", "", fmt.Errorf("no go.mod above %s", wd)
		}
	}
}

// race reports whether the binary was built with -race.
func race() bool {
	info, _ := debug.ReadBuildInfo()
	if info == nil {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

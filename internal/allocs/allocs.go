// Package allocs holds the repository's heap-object pins in one file,
// testdata/allocs.golden at the module root, one line per pinned case:
//
//	package<TAB>case<TAB>objects=N     exactly N heap objects
//	package<TAB>case<TAB>objects<=N    at most N
//
// where package is the measuring test's directory under internal/. A
// change in host cost is a diff of that file; -update rewrites it, as
// internal/phoronix's golden tests rewrite rows.golden.
package allocs

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

var update = flag.Bool("update", false,
	"rewrite the golden lines of what this run measures: testdata/allocs.golden, and in internal/phoronix rows.golden and README's figure blocks")

const golden = "testdata/allocs.golden"

// Check holds got, the heap objects the calling package's test measured
// for case name, to the case's line and fails t on a break or a missing
// line. Under -update it first sets an exact line, or a missing one, to
// got and raises a ceiling that got exceeds. In a -race build, whose
// instrumentation allocates on its own account, it only logs got.
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
	spec, ceiling, want, err := find(string(data), key)
	if err != nil {
		t.Fatalf("%s: %v (%g heap objects measured; -update adds the line)", golden, err, got)
	}
	t.Logf("%s: %g heap objects, %s", name, got, spec)
	if got > want || !ceiling && got != want {
		t.Errorf("%s: %g heap objects, want %s (%s; -update rewrites it)", name, got, spec, golden)
	}
}

// find returns the spec of key's line, whether it is a ceiling, and its
// count.
func find(data, key string) (spec string, ceiling bool, n float64, err error) {
	for _, line := range strings.Split(data, "\n") {
		if !strings.HasPrefix(line, key) {
			continue
		}
		spec = line[len(key):]
		num, ceiling := strings.CutPrefix(spec, "objects<=")
		if !ceiling {
			var ok bool
			if num, ok = strings.CutPrefix(spec, "objects="); !ok {
				return "", false, 0, fmt.Errorf("%q: want objects=N or objects<=N", line)
			}
		}
		n, err = strconv.ParseFloat(num, 64)
		return spec, ceiling, n, err
	}
	return "", false, 0, fmt.Errorf("no line %q", key)
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
	count := strconv.FormatFloat(got, 'f', -1, 64)
	lines := strings.SplitAfter(string(data), "\n")
	found := false
	for i, line := range lines {
		if !strings.HasPrefix(line, key) {
			continue
		}
		found = true
		if _, ceiling, n, err := find(line, key); err != nil || !ceiling {
			lines[i] = key + "objects=" + count + "\n"
		} else if got > n {
			lines[i] = key + "objects<=" + count + "\n"
		}
	}
	if !found {
		lines = append(lines, key+"objects="+count+"\n")
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

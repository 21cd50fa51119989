// Command mutcheck runs the mutation table, testdata/mutations.txt: each
// row breaks one rule in one file and names the tests that must catch it.
//
//	go run ./cmd/mutcheck [-table testdata/mutations.txt] [-only regexp]
//
// Run it from the module root. For each row it writes the mutant to a
// temporary directory and runs go test -overlay on the row's package with
// the row's -run pattern, so the tree is never touched. A row passes when
// a selected test fails, or when its tests ran and go test failed without
// a test failing by name (a timeout, or a panic off a test's goroutine):
// the report then names the test that was running. It fails when its
// snippet does not occur exactly once, when the mutant does not build,
// when no test runs, or when every test that runs passes: a rule nothing
// guards. The exit status is 1 when any row fails.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"time"
)

func main() {
	table := flag.String("table", "testdata/mutations.txt", "the mutation table")
	only := flag.String("only", "", "run only the rows whose name matches this regexp")
	flag.Parse()
	os.Exit(run(*table, *only, os.Stdout))
}

func run(table, only string, out io.Writer) int {
	rows, err := loadTable(table)
	if err != nil {
		fmt.Fprintln(out, err)
		return 1
	}
	sel, err := regexp.Compile(only)
	if err != nil {
		fmt.Fprintln(out, "-only:", err)
		return 1
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(out, err)
		return 1
	}
	tmp, err := os.MkdirTemp("", "mutcheck")
	if err != nil {
		fmt.Fprintln(out, err)
		return 1
	}
	defer os.RemoveAll(tmp)

	failed, start := 0, time.Now()
	for _, r := range rows {
		if !sel.MatchString(r.name) {
			continue
		}
		t0 := time.Now()
		note, err := check(r, root, tmp)
		if err != nil {
			failed++
			fmt.Fprintf(out, "FAIL %s (%.1fs): %v\n", r.name, time.Since(t0).Seconds(), err)
			continue
		}
		fmt.Fprintf(out, "ok   %s (%.1fs)%s\n", r.name, time.Since(t0).Seconds(), note)
	}
	fmt.Fprintf(out, "%d rows failed, %.1fs\n", failed, time.Since(start).Seconds())
	if failed > 0 {
		return 1
	}
	return 0
}

// check builds r's mutant in dir and runs its tests, returning nil when a
// test caught it, with a note on how when no test failed by name.
func check(r row, root, dir string) (string, error) {
	src, err := r.mutant(root)
	if err != nil {
		return "", err
	}
	mutant := filepath.Join(dir, filepath.Base(r.file))
	if err := os.WriteFile(mutant, src, 0o644); err != nil {
		return "", err
	}
	overlay, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(root, r.file): mutant},
	})
	if err != nil {
		return "", err
	}
	overlayFile := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		return "", err
	}
	cmd := exec.Command("go", "test", "-overlay", overlayFile, "-count=1", "-failfast",
		"-timeout", "5m", "-json", "-run", r.run, r.pkg)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()
	note, err := classify(stdout.Bytes()).verdict(r, runErr)
	if err != nil && runErr != nil {
		err = fmt.Errorf("%v: %v\n%s%s", err, runErr, stderr.Bytes(), stdout.Bytes())
	}
	return note, err
}

// outcome is what a go test -json stream says of a mutant's tests.
type outcome struct {
	ran     int    // tests started
	failed  bool   // a test failed by name
	running string // the innermost test started and never ended, if any
}

// classify reads a go test -json stream.
func classify(stream []byte) outcome {
	var o outcome
	var open []string // tests started and not yet ended, in start order
	dec := json.NewDecoder(bytes.NewReader(stream))
	for {
		var ev struct{ Action, Test string }
		if err := dec.Decode(&ev); err != nil {
			break
		}
		switch {
		case ev.Test == "":
		case ev.Action == "run":
			o.ran++
			open = append(open, ev.Test)
		case ev.Action == "fail":
			o.failed = true
			fallthrough
		case ev.Action == "pass" || ev.Action == "skip":
			if i := slices.Index(open, ev.Test); i >= 0 {
				open = slices.Delete(open, i, i+1)
			}
		}
	}
	if len(open) > 0 {
		o.running = open[len(open)-1]
	}
	return o
}

// verdict judges r's mutant by its test outcome and go test's error: it
// is caught when a test failed, or when its tests ran and go test failed
// without naming one (a timeout, or a panic off a test's goroutine, which
// stops the binary before any test reports). Tests that never ran, as
// when the mutant does not build, catch nothing.
func (o outcome) verdict(r row, runErr error) (string, error) {
	switch {
	case o.failed:
		return "", nil
	case runErr != nil && o.ran > 0:
		if o.running == "" {
			return ": go test failed after its tests ended", nil
		}
		return fmt.Sprintf(": go test failed while %s ran (a timeout or a panic)", o.running), nil
	case runErr == nil && o.ran == 0:
		return "", fmt.Errorf("no test matches -run %q in %s", r.run, r.pkg)
	case runErr == nil:
		return "", fmt.Errorf("the mutant survived %d tests", o.ran)
	default:
		return "", fmt.Errorf("go test failed before any test ran (does the mutant build?)")
	}
}

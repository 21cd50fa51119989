// Command mutcheck runs the mutation table, testdata/mutations.txt: each
// row breaks one rule in one file and names the tests that must catch it.
//
//	go run ./cmd/mutcheck [-table testdata/mutations.txt] [-only regexp]
//
// Run it from the module root. For each row it writes the mutant to a
// temporary directory and runs go test -overlay on the row's package with
// the row's -run pattern, so the tree is never touched. A row passes when
// a selected test fails. It fails when its snippet does not occur exactly
// once, when the mutant does not build, when no test runs, or when every
// test that runs passes: a rule nothing guards. The exit status is 1 when
// any row fails.
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
		if err := check(r, root, tmp); err != nil {
			failed++
			fmt.Fprintf(out, "FAIL %s (%.1fs): %v\n", r.name, time.Since(t0).Seconds(), err)
			continue
		}
		fmt.Fprintf(out, "ok   %s (%.1fs)\n", r.name, time.Since(t0).Seconds())
	}
	fmt.Fprintf(out, "%d rows failed, %.1fs\n", failed, time.Since(start).Seconds())
	if failed > 0 {
		return 1
	}
	return 0
}

// check builds r's mutant in dir and runs its tests, returning nil when a
// test caught it.
func check(r row, root, dir string) error {
	src, err := r.mutant(root)
	if err != nil {
		return err
	}
	mutant := filepath.Join(dir, filepath.Base(r.file))
	if err := os.WriteFile(mutant, src, 0o644); err != nil {
		return err
	}
	overlay, err := json.Marshal(map[string]map[string]string{
		"Replace": {filepath.Join(root, r.file): mutant},
	})
	if err != nil {
		return err
	}
	overlayFile := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlayFile, overlay, 0o644); err != nil {
		return err
	}
	cmd := exec.Command("go", "test", "-overlay", overlayFile, "-count=1", "-failfast",
		"-timeout", "5m", "-json", "-run", r.run, r.pkg)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	runErr := cmd.Run()

	ran, caught := 0, false
	dec := json.NewDecoder(bytes.NewReader(stdout.Bytes()))
	for {
		var ev struct{ Action, Test string }
		if err := dec.Decode(&ev); err != nil {
			break
		}
		switch {
		case ev.Test == "":
		case ev.Action == "run":
			ran++
		case ev.Action == "fail":
			caught = true
		}
	}
	switch {
	case caught:
		return nil
	case runErr == nil && ran == 0:
		return fmt.Errorf("no test matches -run %q in %s", r.run, r.pkg)
	case runErr == nil:
		return fmt.Errorf("the mutant survived %d tests", ran)
	default:
		return fmt.Errorf("go test failed without a failing test (does the mutant build?): %v\n%s%s",
			runErr, stderr.Bytes(), stdout.Bytes())
	}
}

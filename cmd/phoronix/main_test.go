package main

import (
	"os"
	"strings"
	"testing"

	"cntr/internal/phoronix"
)

// TestModesInGolden: each mode prints rows.golden lines, so each mode's
// name is the mode field of some line there, or that field's first
// element.
func TestModesInGolden(t *testing.T) {
	golden, err := os.ReadFile("../../internal/phoronix/testdata/rows.golden")
	if err != nil {
		t.Fatal(err)
	}
	text := "\n" + string(golden)
	for _, m := range phoronix.ModeNames() {
		if !strings.Contains(text, "\n"+m+"\t") && !strings.Contains(text, "\n"+m+"/") {
			t.Errorf("mode %q has no line in rows.golden", m)
		}
	}
}

// TestUsageErrors: what the command cannot mean exits 2 before any pass
// runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"fig5"},
		{"fig2", "fleet"},
		{"-enforce", "p.json", "fig2"},
		{"-trace-out", "p.json", "storm"},
		{"-audit"},
		{"-chaos"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 || stderr.Len() == 0 {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want 2, nothing and a reason", args, code, stdout.String(), stderr.String())
		}
	}
}

package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMutationTableSnippets is the cheap half of the mutation table: every
// row's old snippet still occurs exactly once in its file and its package
// exists, so the table breaks loudly when the code it breaks moves. go run
// ./cmd/mutcheck runs the tests each mutant must fail.
func TestMutationTableSnippets(t *testing.T) {
	const root = "../.."
	rows, err := loadTable(filepath.Join(root, "testdata/mutations.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("the table has no rows")
	}
	for _, r := range rows {
		if _, err := r.mutant(root); err != nil {
			t.Errorf("line %d: %v", r.line, err)
		}
		if fi, err := os.Stat(filepath.Join(root, r.pkg)); err != nil || !fi.IsDir() {
			t.Errorf("line %d: row %s: no package directory %s", r.line, r.name, r.pkg)
		}
	}
}

// TestParseTable: quoted values are Go strings, comments and blank lines
// separate rows, and a row missing a key or repeating a name is refused.
func TestParseTable(t *testing.T) {
	rows, err := parseTable(strings.NewReader(`# a comment
name: a
file: f.go
old: "x\n\ty"
new: z
pkg: ./p
run: ^TestA$

# another
name: b
file: f.go
old: y
pkg: ./p
run: TestB
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].old != "x\n\ty" || rows[0].new != "z" || rows[1].new != "" || rows[0].line != 2 || rows[1].line != 10 {
		t.Fatalf("rows = %+v", rows)
	}
	for _, bad := range []string{
		"name: a\nfile: f.go\nold: x\npkg: ./p\n",                                                          // no run
		"name: a\nfile: f.go\nold: x\nnew: x\npkg: ./p\nrun: T\n",                                          // new is old
		"name: a\nfile: f.go\nold: x\npkg: ./p\nrun: T\n\nname: a\nfile: f.go\nold: y\npkg: ./p\nrun: T\n", // name twice
		"name: a\nname: b\n",              // key twice
		"nme: a\n",                        // unknown key
		"name: a\nfile: f.go\nold: \"x\n", // bad quote
	} {
		if _, err := parseTable(strings.NewReader(bad)); err == nil {
			t.Errorf("parseTable accepted %q", bad)
		}
	}
}

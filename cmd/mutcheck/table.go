package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// A row breaks one rule in one file and names the tests that must catch it.
type row struct {
	line int // where the row starts in the table
	name string
	file string // relative to the module root
	old  string // occurs exactly once in file
	new  string
	pkg  string // a package pattern, as go test takes it
	run  string // the -run pattern; a test it selects must fail
}

// parseTable reads the mutation table: rows of "key: value" lines,
// separated by blank lines, with "#" lines as comments. A value in double
// quotes is a Go string literal, so a snippet can span lines ("\n") and
// hold tabs ("\t"); any other value is taken as written.
func parseTable(r io.Reader) ([]row, error) {
	var rows []row
	var cur *row
	seen := map[string]int{}
	finish := func() error {
		if cur == nil {
			return nil
		}
		for key, v := range map[string]string{"name": cur.name, "file": cur.file, "old": cur.old, "pkg": cur.pkg, "run": cur.run} {
			if v == "" {
				return fmt.Errorf("line %d: row has no %s", cur.line, key)
			}
		}
		if cur.old == cur.new {
			return fmt.Errorf("line %d: row %s: new is old", cur.line, cur.name)
		}
		if first, dup := seen[cur.name]; dup {
			return fmt.Errorf("line %d: row %s already named at line %d", cur.line, cur.name, first)
		}
		if _, err := regexp.Compile(cur.run); err != nil {
			return fmt.Errorf("line %d: row %s: run: %v", cur.line, cur.name, err)
		}
		seen[cur.name] = cur.line
		rows = append(rows, *cur)
		cur = nil
		return nil
	}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			if err := finish(); err != nil {
				return nil, err
			}
			continue
		case strings.HasPrefix(line, "#"):
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("line %d: want key: value", n)
		}
		val = strings.TrimSpace(val)
		if strings.HasPrefix(val, `"`) {
			s, err := strconv.Unquote(val)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", n, err)
			}
			val = s
		}
		if cur == nil {
			cur = &row{line: n}
		}
		var field *string
		switch key {
		case "name":
			field = &cur.name
		case "file":
			field = &cur.file
		case "old":
			field = &cur.old
		case "new":
			field = &cur.new
		case "pkg":
			field = &cur.pkg
		case "run":
			field = &cur.run
		default:
			return nil, fmt.Errorf("line %d: unknown key %q", n, key)
		}
		if *field != "" {
			return nil, fmt.Errorf("line %d: %s given twice", n, key)
		}
		*field = val
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := finish(); err != nil {
		return nil, err
	}
	return rows, nil
}

// loadTable parses the table at path.
func loadTable(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := parseTable(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return rows, nil
}

// mutant returns the contents of r's file, under module root, with its old
// snippet replaced: the cheap half of the check, which fails when the code
// the row breaks has moved.
func (r row) mutant(root string) ([]byte, error) {
	src, err := os.ReadFile(filepath.Join(root, r.file))
	if err != nil {
		return nil, fmt.Errorf("row %s: %v", r.name, err)
	}
	if n := strings.Count(string(src), r.old); n != 1 {
		return nil, fmt.Errorf("row %s: old occurs %d times in %s, want once", r.name, n, r.file)
	}
	return []byte(strings.Replace(string(src), r.old, r.new, 1)), nil
}

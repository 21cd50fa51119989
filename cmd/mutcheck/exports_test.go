package main

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportReasons are the reasons an exported func or method may have no
// program caller: a test oracle, a hook tests use to inject faults or
// poison, a method an interface outside the repo asks for, or a paper
// mechanism kept for fidelity. There is no "undecided": an export only
// tests use is decided when it lands.
var exportReasons = map[string]bool{"oracle": true, "fault-hook": true, "interface": true, "paper": true}

// programIdents parses every non-test Go file under dirs and returns the
// exported funcs and methods declared under internal/, and the count of
// each identifier's uses: every occurrence but a func or method
// declaration's own name.
func programIdents(t *testing.T, root string, dirs ...string) (declared map[string]string, uses map[string]int) {
	t.Helper()
	declared, uses = make(map[string]string), make(map[string]int)
	fset := token.NewFileSet()
	for _, dir := range dirs {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			name := d.Name()
			if d.IsDir() {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			rel, _ := filepath.Rel(root, path)
			decls := make(map[*ast.Ident]bool)
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				decls[fn.Name] = true
				if dir == "internal" && fn.Name.IsExported() {
					declared[fn.Name.Name] = filepath.ToSlash(rel)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !decls[id] {
					uses[id.Name]++
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return declared, uses
}

// TestTestOnlyExports is the regrowth guard of the subtraction pass. It
// lists every exported func or method in internal/ whose name no
// non-test file under internal/, cmd/, examples/ or bench/ uses, and
// checks the list against testdata/test-only-exports.txt, where each
// such name is given with its reason. A new export only tests reach
// fails until it is listed with a reason (or goes); a listed name fails
// once it is gone or a program calls it.
func TestTestOnlyExports(t *testing.T) {
	const root = "../.."
	declared, uses := programIdents(t, root, "internal", "cmd", "examples", "bench")
	testOnly := make(map[string]string)
	for name, file := range declared {
		if uses[name] == 0 {
			testOnly[name] = file
		}
	}

	const listPath = "testdata/test-only-exports.txt"
	f, err := os.Open(filepath.Join(root, listPath))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	listed := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 || !exportReasons[fields[1]] {
			t.Errorf("%s:%d: want \"<name> <reason>\" with a reason of oracle, fault-hook, interface or paper: %q", listPath, line, text)
			continue
		}
		name := fields[0]
		if listed[name] {
			t.Errorf("%s:%d: %s listed twice", listPath, line, name)
		}
		listed[name] = true
		switch _, ok := declared[name]; {
		case !ok:
			t.Errorf("%s:%d: %s is no longer an exported func or method in internal/: drop it from the list", listPath, line, name)
		case testOnly[name] == "":
			t.Errorf("%s:%d: %s now has a program caller: drop it from the list", listPath, line, name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var missing []string
	for name, file := range testOnly {
		if !listed[name] {
			missing = append(missing, name+" ("+file+")")
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s is exported, but only tests use it: list it in %s with its reason, or remove it", m, listPath)
	}
}

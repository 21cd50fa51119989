package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportReasons are the reasons an exported func or method may have no
// program caller, or an exported field no program writer: a test
// oracle, a hook tests use to inject faults or poison, a method an
// interface outside the repo asks for, a paper mechanism kept for
// fidelity, or a field the bench module reads, which only a change to
// the benchmark may remove. There is no "undecided": an export only
// tests use is decided when it lands.
var exportReasons = map[string]bool{"oracle": true, "fault-hook": true, "interface": true, "paper": true, "bench": true}

// checker type-checks a tree's non-test files from source, each package
// once, so that a use in one package and the declaration it refers to
// in another are the same object. Import paths under a module's path
// are read from that module's directory; the rest (the standard
// library) come from the source importer.
type checker struct {
	fset    *token.FileSet
	std     types.Importer
	modules map[string]string // module path → directory
	pkgs    map[string]*types.Package
	files   map[string][]*ast.File
	info    *types.Info
}

func newChecker(modules map[string]string) *checker {
	fset := token.NewFileSet()
	return &checker{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		modules: modules,
		pkgs:    make(map[string]*types.Package),
		files:   make(map[string][]*ast.File),
		info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		},
	}
}

// dir returns the directory of a package under one of c's modules; the
// longest module path wins, so cntr/bench is not read from cntr.
func (c *checker) dir(path string) (string, bool) {
	best, dir := "", ""
	for mod, d := range c.modules {
		if (path == mod || strings.HasPrefix(path, mod+"/")) && len(mod) > len(best) {
			best, dir = mod, filepath.Join(d, strings.TrimPrefix(path, mod))
		}
	}
	return dir, best != ""
}

func (c *checker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := c.dir(path)
	if !ok {
		return c.std.Import(path)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no non-test Go files in %s", path, dir)
	}
	pkg, err := (&types.Config{Importer: c}).Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path], c.files[path] = pkg, files
	return pkg, nil
}

// checkTree type-checks every package with non-test Go files under the
// directory sub of the module at modPath, skipping testdata and hidden
// directories.
func (c *checker) checkTree(modPath, sub string) error {
	root := c.modules[modPath]
	start := filepath.Join(root, sub)
	return filepath.WalkDir(start, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != start && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		matches, _ := filepath.Glob(filepath.Join(path, "*.go"))
		for _, m := range matches {
			if !strings.HasSuffix(m, "_test.go") {
				rel, _ := filepath.Rel(root, path)
				_, err := c.Import(strings.TrimSuffix(modPath+"/"+filepath.ToSlash(rel), "/."))
				return err
			}
		}
		return nil
	})
}

// testOnlyFuncs returns the exported funcs and methods declared in a
// checked package whose path has the given prefix and that no checked
// file uses, keyed by their name (types.Func.FullName with the prefix
// cut from every package path) and mapped to their file.
//
// A use is a reference to that object, including a selection through
// an embedded field. A method also counts as used when its receiver
// type implements an interface that asks for it: an interface type the
// checked code writes, error, fmt.Stringer or json.Marshaler.
func (c *checker) testOnlyFuncs(prefix string) (map[string]string, error) {
	used := make(map[*types.Func]bool)
	var ifaces []*types.Interface
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, obj := range c.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	for _, tv := range c.info.Types {
		if tv.IsType() {
			addIface(tv.Type)
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for _, q := range [][2]string{{"fmt", "Stringer"}, {"encoding/json", "Marshaler"}} {
		pkg, err := c.std.Import(q[0])
		if err != nil {
			return nil, err
		}
		addIface(pkg.Scope().Lookup(q[1]).Type())
	}

	satisfies := func(fn *types.Func) bool {
		recv := fn.Signature().Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); !ok || named.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				// A pointer's method set holds the value's.
				if it.Method(i).Name() == fn.Name() && types.Implements(types.NewPointer(recv), it) {
					return true
				}
			}
		}
		return false
	}

	testOnly := make(map[string]string)
	for path, files := range c.files {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		for _, f := range files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := c.info.Defs[fd.Name].(*types.Func)
				if used[fn] || fd.Recv != nil && satisfies(fn) {
					continue
				}
				testOnly[strings.ReplaceAll(fn.FullName(), prefix, "")] = filepath.ToSlash(c.fset.Position(fd.Pos()).Filename)
			}
		}
	}
	return testOnly, nil
}

// testOnlyFields returns the exported fields of the exported struct
// types declared in a checked package whose path has the given prefix
// that some checked file reads and none writes: a knob no program
// turns. A field is keyed by pkg.Type.Field, with the prefix cut from
// the package path, and mapped to its file.
//
// A write is a key of a composite literal (or a position in an unkeyed
// one), the target of an assignment or ++/--, and &x.F, which is how
// flag.*Var sets one. A target is the field it selects once indexes,
// parentheses and dereferences are stripped, so c.stats.Frames[op]++
// writes Frames. Every other reference is a read. A default is not a
// write: in if o.F == c { o.F = d } (or o.F <= c), the assignment to
// the field the condition tests is the field's own fallback, and a knob
// no program turns would hide behind it.
func (c *checker) testOnlyFields(prefix string) map[string]string {
	names := make(map[*types.Var]string)
	for path, pkg := range c.pkgs {
		if !strings.HasPrefix(path, prefix) {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					names[f] = strings.TrimPrefix(path, prefix) + "." + name + "." + f.Name()
				}
			}
		}
	}

	written := make(map[*types.Var]bool)
	writes := make(map[*ast.Ident]bool)
	write := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			case *ast.IndexExpr:
				e = x.X
			case *ast.SelectorExpr:
				if v, ok := c.info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
					writes[x.Sel] = true
					written[v.Origin()] = true
				}
				return
			default:
				return
			}
		}
	}
	defaults := make(map[*ast.AssignStmt]bool)
	for _, files := range c.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.IfStmt:
					cond, ok := n.Cond.(*ast.BinaryExpr)
					if !ok || cond.Op != token.EQL && cond.Op != token.LEQ {
						break
					}
					for _, st := range n.Body.List {
						if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 &&
							types.ExprString(as.Lhs[0]) == types.ExprString(cond.X) {
							defaults[as] = true
						}
					}
				case *ast.AssignStmt:
					if defaults[n] {
						break
					}
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						write(n.X)
					}
				case *ast.CompositeLit:
					st, ok := c.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							id := kv.Key.(*ast.Ident)
							writes[id] = true
							written[c.info.Uses[id].(*types.Var).Origin()] = true
						} else {
							written[st.Field(i).Origin()] = true
						}
					}
				}
				return true
			})
		}
	}

	testOnly := make(map[string]string)
	for id, obj := range c.info.Uses {
		v, ok := obj.(*types.Var)
		if !ok || writes[id] {
			continue
		}
		v = v.Origin()
		if name := names[v]; name != "" && !written[v] {
			testOnly[name] = filepath.ToSlash(c.fset.Position(v.Pos()).Filename)
		}
	}
	return testOnly
}

// TestTestOnlyExports is the regrowth guard of the subtraction pass. It
// type-checks every non-test file under internal/, cmd/, examples/ and
// the bench module, lists every exported func or method in internal/
// that none of them uses and every exported field that they read and
// none of them writes, and checks the list against
// testdata/test-only-exports.txt, where each such export is given with
// its reason. A new export only tests reach fails until it is listed
// with a reason (or goes); a listed one fails once it is gone or a
// program uses (a field: sets) it.
func TestTestOnlyExports(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	c := newChecker(map[string]string{"cntr": root, "cntr/bench": filepath.Join(root, "bench")})
	for _, tree := range [][2]string{{"cntr", "internal"}, {"cntr", "cmd"}, {"cntr", "examples"}, {"cntr/bench", "."}} {
		if err := c.checkTree(tree[0], tree[1]); err != nil {
			t.Fatal(err)
		}
	}
	testOnly, err := c.testOnlyFuncs("cntr/internal/")
	if err != nil {
		t.Fatal(err)
	}
	unset := c.testOnlyFields("cntr/internal/")
	for name, file := range unset {
		testOnly[name] = file
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
			t.Errorf("%s:%d: want \"<name> <reason>\" with a reason of oracle, fault-hook, interface, paper or bench: %q", listPath, line, text)
			continue
		}
		name := fields[0]
		if listed[name] {
			t.Errorf("%s:%d: %s listed twice", listPath, line, name)
		}
		listed[name] = true
		if testOnly[name] == "" {
			t.Errorf("%s:%d: %s is gone, is not a qualified name, or now has a program use: drop it from the list", listPath, line, name)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	var missing []string
	for name, file := range testOnly {
		if !listed[name] {
			rel, _ := filepath.Rel(root, file)
			what := "only tests use it"
			if unset[name] != "" {
				what = "the program reads it and only tests set it"
			}
			missing = append(missing, fmt.Sprintf("%s (%s) is exported, but %s", name, filepath.ToSlash(rel), what))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s: list it in %s with its reason, or remove it", m, listPath)
	}
}

// TestGuardFixture runs both passes over testdata/exports, a small tree
// in which TestOnly.Name, called only by a test, shares its name with
// Used.Name, which the program calls, and ViaInterface.Describe is
// called only through an interface. The func pass lists the first and
// not the second; a count of identifiers by name, the guard this pass
// replaced, sees "Name" used by the program and misses the first. Of
// Config's fields, which the program reads, only a test sets Verbose;
// the program sets Limit through & and Hits through an index, and Depth
// only as its own default, which a test overrides. The field pass lists
// Depth and Verbose.
func TestGuardFixture(t *testing.T) {
	c := newChecker(map[string]string{"fixture": "testdata/exports"})
	if err := c.checkTree("fixture", "."); err != nil {
		t.Fatal(err)
	}
	funcs, err := c.testOnlyFuncs("fixture/")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := slices.Sorted(maps.Keys(funcs)), []string{"(lib.TestOnly).Name"}; !slices.Equal(got, want) {
		t.Fatalf("test-only funcs %v, want %v", got, want)
	}
	if got, want := slices.Sorted(maps.Keys(c.testOnlyFields("fixture/"))), []string{"lib.Config.Depth", "lib.Config.Verbose"}; !slices.Equal(got, want) {
		t.Fatalf("test-only fields %v, want %v", got, want)
	}
	byName := 0
	for _, files := range c.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				if fd, ok := n.(*ast.FuncDecl); ok {
					ast.Inspect(fd.Body, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok && id.Name == "Name" {
							byName++
						}
						return true
					})
					return false
				}
				return true
			})
		}
	}
	if byName == 0 {
		t.Fatal("no program identifier is named Name: the fixture no longer shows what a count by name misses")
	}
}

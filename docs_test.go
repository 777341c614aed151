package datablocks

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"datablocks/internal/analysis"
	"datablocks/internal/analysis/errcheckdb"
)

// mdLink matches inline markdown links: [text](target).
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)

// TestMarkdownDocLinks is the repo's link check (run by `make linkcheck`
// and therefore `make ci`): every local link in the user-facing documents
// must point at a file that exists. External links are only checked for a
// scheme, not fetched — CI must not depend on the network.
func TestMarkdownDocLinks(t *testing.T) {
	docs := []string{"README.md", "ARCHITECTURE.md", "ROADMAP.md"}
	for _, doc := range docs {
		buf, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("required document missing: %v", err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(buf), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			// Drop an intra-document anchor; a bare anchor targets doc
			// itself and needs no file check.
			path := target
			if i := strings.IndexByte(path, '#'); i >= 0 {
				path = path[:i]
			}
			if path == "" {
				continue
			}
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: broken link %q: %v", doc, target, err)
			}
		}
	}
}

// TestNoDbvetIgnore keeps the analyzers' exception list empty: no Go file
// outside the analyzer fixtures may carry a //dbvet:ignore directive. A
// contract that needs an exception is restated so the type system or the
// analyzer can check it (as the chunk's atomic epoch stamps replaced the
// five suppressions on the delete bitmap).
func TestNoDbvetIgnore(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Fixtures exercise the directive; dot directories (.git, the
			// benchmark's build cache) hold no source of ours.
			if d.Name() == "testdata" || (len(d.Name()) > 1 && d.Name()[0] == '.') {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.HasPrefix(c.Text, "//dbvet:ignore") {
					t.Errorf("%s: %s", fset.Position(c.Pos()), c.Text)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestProductionImportGraph pins what the engine links: the root package's
// in-module dependencies are exactly these twelve. The comparators the
// paper's tables need (vwise, bitpack) and the experiment and
// data-generation packages (experiments, tpch, datasets, xrand) import
// the engine, never the other way round — so none of them can end up on
// the production path by accident.
func TestProductionImportGraph(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	var got []string
	for _, pkg := range strings.Fields(string(out)) {
		if name, ok := strings.CutPrefix(pkg, "datablocks/internal/"); ok {
			got = append(got, name)
		}
	}
	sort.Strings(got)
	const want = "blockstore compress core exec index obs psma simd storage types wal walfs"
	if strings.Join(got, " ") != want {
		t.Fatalf("the root package depends on\n  %s\nwant exactly\n  %s", strings.Join(got, " "), want)
	}
}

// productionFiles parses the non-test Go files of the root package and of
// every datablocks/internal package it links, except those in skip, and
// calls visit on each.
func productionFiles(t *testing.T, skip map[string]bool, visit func(fset *token.FileSet, f *ast.File)) {
	t.Helper()
	out, err := exec.Command("go", "list", "-deps", "-f", "{{.ImportPath}} {{.Dir}} {{join .GoFiles \" \"}}", ".").Output()
	if err != nil {
		t.Fatalf("go list -deps: %v", err)
	}
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 || skip[fields[0]] ||
			(fields[0] != "datablocks" && !strings.HasPrefix(fields[0], "datablocks/internal/")) {
			continue
		}
		for _, name := range fields[2:] {
			f, err := parser.ParseFile(fset, filepath.Join(fields[1], name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			visit(fset, f)
		}
	}
}

// TestFileCallsGoThroughWalfs keeps internal/walfs the engine's one file
// layer: no production file outside it calls the os package's file
// functions, so every file the engine touches can take an injected fault
// (walfs.FaultFS, TestFileFaultMatrix).
func TestFileCallsGoThroughWalfs(t *testing.T) {
	banned := map[string]bool{"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
		"ReadFile": true, "WriteFile": true, "ReadDir": true, "Remove": true, "RemoveAll": true,
		"Rename": true, "Mkdir": true, "MkdirAll": true, "Truncate": true, "Stat": true}
	productionFiles(t, map[string]bool{"datablocks/internal/walfs": true}, func(fset *token.FileSet, f *ast.File) {
		osName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"os"` {
				osName = "os"
				if imp.Name != nil {
					osName = imp.Name.Name
				}
			}
		}
		if osName == "" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == osName && banned[sel.Sel.Name] {
					t.Errorf("%s: os.%s bypasses internal/walfs", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	})
}

// TestTupleStaysInTheComparator keeps ModeJIT's tuple register file out
// of the production path: in internal/exec only jit.go (the compiled
// tuple scan and chain, Table 2's comparator) and expr.go (the tuple
// expression compiler, which TestEvalParity holds against vexpr.go) name
// Tuple. Every sink takes batches only.
func TestTupleStaysInTheComparator(t *testing.T) {
	allowed := map[string]bool{"jit.go": true, "expr.go": true}
	files := 0
	productionFiles(t, nil, func(fset *token.FileSet, f *ast.File) {
		path := filepath.ToSlash(fset.Position(f.Package).Filename)
		if !strings.HasSuffix(filepath.Dir(path), "/internal/exec") || allowed[filepath.Base(path)] {
			return
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == "Tuple" {
				t.Errorf("%s: names Tuple outside jit.go and expr.go", fset.Position(id.Pos()))
			}
			return true
		})
	})
	if files == 0 {
		t.Fatal("found no production file of internal/exec to check")
	}
}

// TestErrcheckdbNamesExist keeps the errcheckdb analyzer's list honest:
// every name it guards is declared in the engine's production code as a
// function or method whose final result is an error — a stale name
// guards nothing.
func TestErrcheckdbNamesExist(t *testing.T) {
	declared := map[string]bool{}
	productionFiles(t, nil, func(_ *token.FileSet, f *ast.File) {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Type.Results == nil {
				continue
			}
			res := fn.Type.Results.List
			if id, ok := res[len(res)-1].Type.(*ast.Ident); ok && id.Name == "error" {
				declared[fn.Name.Name] = true
			}
		}
	})
	for name := range errcheckdb.Funcs {
		if !declared[name] {
			t.Errorf("errcheckdb.Funcs lists %s, which no production function declares with a final error result", name)
		}
	}
}

// locCeilings is ROADMAP aim 2's tracked figure as a ratchet: the lines
// `make loc` counts, for internal/exec, internal/simd and the whole tree,
// at the PR that last moved them. A PR that needs more says so by raising
// a number here in its own diff, like an entry in lint-budget.json; one
// that deletes code lowers it.
var locCeilings = map[string]int{
	"datablocks/internal/exec": 4410,
	"datablocks/internal/simd": 2660,
	"total":                    20192,
}

// moduleGoFiles calls visit on every non-test Go file of the module's
// packages with its package's import path and its source.
func moduleGoFiles(t *testing.T, visit func(pkg, file, src string)) {
	t.Helper()
	moduleFiles(t, "*.go", visit)
}

// moduleFiles is moduleGoFiles for the files that match pattern in each
// package's directory, test files left out.
func moduleFiles(t *testing.T, pattern string, visit func(pkg, file, src string)) {
	t.Helper()
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}} {{.Dir}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, dir, _ := strings.Cut(line, " ")
		files, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			buf, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			visit(pkg, file, string(buf))
		}
	}
}

// TestLintBudgetNamesHotpathFuncs keeps lint-budget.json an exception
// list that only shrinks: every entry names a //dbvet:hotpath function of
// the module, as hotpathperf matches it (types.Func.FullName). An entry
// for a function that is gone or no longer gated excuses nothing, and
// must go with the function.
func TestLintBudgetNamesHotpathFuncs(t *testing.T) {
	buf, err := os.ReadFile("lint-budget.json")
	if err != nil {
		t.Fatal(err)
	}
	var budget struct {
		Entries []struct {
			Func string `json:"func"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(buf, &budget); err != nil {
		t.Fatal(err)
	}
	hot := map[string]bool{}
	fset := token.NewFileSet()
	moduleGoFiles(t, func(pkg, file, src string) {
		f, err := parser.ParseFile(fset, file, src, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if _, ok := analysis.FuncDirective(fset, fn, "hotpath"); !ok {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				recv, star := fn.Recv.List[0].Type, ""
				if s, ok := recv.(*ast.StarExpr); ok {
					recv, star = s.X, "*"
				}
				if id, ok := recv.(*ast.Ident); ok {
					name = "(" + star + pkg + "." + id.Name + ")." + fn.Name.Name
				}
			}
			hot[name] = true
		}
	})
	for _, e := range budget.Entries {
		if !hot[e.Func] {
			t.Errorf("lint-budget.json has an entry for %s, which is no //dbvet:hotpath function of the module", e.Func)
		}
	}
}

// TestLocCeilings counts what `make loc` counts — every line of a
// package's non-test Go and assembler files that is neither blank nor
// comment-only — and fails when a figure exceeds its ceiling.
func TestLocCeilings(t *testing.T) {
	loc := map[string]int{}
	for _, pattern := range []string{"*.go", "*.s"} {
		moduleFiles(t, pattern, func(pkg, _, src string) {
			for _, l := range strings.Split(src, "\n") {
				if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "//") {
					loc[pkg]++
					loc["total"]++
				}
			}
		})
	}
	for name, ceiling := range locCeilings {
		if loc[name] == 0 || loc[name] > ceiling {
			t.Errorf("%s: %d lines, ceiling %d (make loc)", name, loc[name], ceiling)
		}
	}
}

// fileLineCeiling bounds the raw lines of every non-test Go file of the
// module: a file past it holds more than one mechanism, and wants
// splitting along them. oversizedFiles were past it when the ceiling went
// in; each is held at its size then and may only shrink, and its entry
// goes once the file is back under the ceiling.
const fileLineCeiling = 800

var oversizedFiles = map[string]int{}

// TestFileLineCeilings fails when a non-test Go file of the module exceeds
// its raw-line ceiling, or when an oversizedFiles entry excuses nothing: a
// file that is gone or at most fileLineCeiling lines long.
func TestFileLineCeilings(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	lines := map[string]int{}
	moduleGoFiles(t, func(_, file, src string) {
		rel, err := filepath.Rel(root, file)
		if err != nil {
			t.Fatal(err)
		}
		rel = filepath.ToSlash(rel)
		lines[rel] = strings.Count(src, "\n")
		ceiling, ok := oversizedFiles[rel]
		if !ok {
			ceiling = fileLineCeiling
		}
		if lines[rel] > ceiling {
			t.Errorf("%s: %d lines, ceiling %d", rel, lines[rel], ceiling)
		}
	})
	for rel := range oversizedFiles {
		if n, ok := lines[rel]; !ok || n <= fileLineCeiling {
			t.Errorf("oversizedFiles excuses %s, which is no Go file of the module past %d lines: delete the entry", rel, fileLineCeiling)
		}
	}
}

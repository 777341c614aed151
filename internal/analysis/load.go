package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
)

// A Package is one loaded, parsed and type-checked compilation unit,
// ready for analysis.
type Package struct {
	PkgPath   string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info

	// ListedPath is the import path as `go list` printed it, which for
	// test variants carries the bracket suffix ("p [p.test]",
	// "p_test [p.test]"). It keys the facts map threaded between
	// packages; PkgPath is the clean path handed to the type checker.
	ListedPath string
	// Dir is the package directory on disk.
	Dir string
	// Deps are the listed import paths of all (transitive)
	// dependencies, used to hand each package its dependencies' facts.
	Deps []string
	// SrcFiles are the absolute paths of the files in Files, in order.
	SrcFiles []string
	// DepExports maps each dependency that has compiler export data to
	// that file's path. The path embeds the go build cache's output
	// hash, so it changes whenever the dependency's compiled form
	// does — the result cache keys on it.
	DepExports map[string]string
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	ForTest    string
	GoFiles    []string
	CgoFiles   []string
	Deps       []string
	DepOnly    bool
	Standard   bool
	Name       string
	Module     *struct{ GoVersion string }
	Error      *struct{ Err string }
}

// Load lists the packages matching patterns in dir (module-aware, like
// the go tool itself), then parses and type-checks every matched
// package from source. Dependencies — including the standard library —
// are imported from compiler export data produced by `go list -export`,
// so loading works offline and without any third-party module.
//
// Test files are included, as `go vet` includes them: `go list -test`
// expands each package with tests into its test-augmented variant
// ("p [p.test]", whose GoFiles fold in the in-package _test.go files)
// and the external test package ("p_test [p.test]"); Load analyzes
// those instead of the plain package. The synthesized test-binary mains
// ("p.test") are skipped.
//
// The returned slice is in dependency order: a package appears after
// every package it imports, so drivers can thread analysis facts
// forward in one sweep.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-test", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{} // listed package path -> export data file
	var listed []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		listed = append(listed, lp)
	}

	// A plain package is superseded by its test-augmented variant: the
	// variant's GoFiles are a superset, so analyzing both would duplicate
	// every finding in the non-test files.
	augmented := map[string]bool{}
	for _, lp := range listed {
		if lp.ForTest != "" && lp.ImportPath == lp.ForTest+testSuffix(lp.ImportPath) {
			augmented[lp.ForTest] = true
		}
	}

	var targets []*listPackage
	for _, lp := range listed {
		switch {
		case lp.DepOnly, lp.Standard:
		case lp.Name == "main" && strings.HasSuffix(lp.ImportPath, ".test"):
			// The generated test-binary main: nothing human-written.
		case augmented[lp.ImportPath]:
		default:
			targets = append(targets, lp)
		}
	}

	fset := token.NewFileSet()
	var out []*Package
	for _, lp := range targets {
		if len(lp.CgoFiles) > 0 {
			return nil, fmt.Errorf("analysis: %s uses cgo, which the loader does not support", lp.ImportPath)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := typeCheck(fset, exports, lp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	// `go list -deps` emits dependencies before dependents, so targets
	// (and therefore out) are already in dependency order.
	return out, nil
}

// testSuffix extracts the " [p.test]" bracket suffix of a test-variant
// import path, or "".
func testSuffix(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		return importPath[i:]
	}
	return ""
}

// cleanPath strips the test-variant bracket suffix.
func cleanPath(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		return importPath[:i]
	}
	return importPath
}

// typeCheck parses and checks one listed package from source. Each
// package gets its own importer so the external-test remapping (the
// "p_test [p.test]" package's import of "p" must resolve to the
// test-augmented "p [p.test]" export, which carries the in-package test
// symbols) cannot pollute another package's import cache.
func typeCheck(fset *token.FileSet, exports map[string]string, lp *listPackage) (*Package, error) {
	suffix := testSuffix(lp.ImportPath)
	compilerImp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if suffix != "" {
			if file, ok := exports[path+suffix]; ok {
				return os.Open(file)
			}
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})

	var files []*ast.File
	var srcs []string
	for _, name := range lp.GoFiles {
		if !strings.HasPrefix(name, "/") {
			name = lp.Dir + "/" + name
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %v", err)
		}
		files = append(files, f)
		srcs = append(srcs, name)
	}
	goVersion := ""
	if lp.Module != nil && lp.Module.GoVersion != "" {
		goVersion = "go" + lp.Module.GoVersion
	}
	pkg, err := checkFiles(fset, compilerImp, cleanPath(lp.ImportPath), goVersion, files)
	if err != nil {
		return nil, err
	}
	pkg.ListedPath = lp.ImportPath
	pkg.Dir = lp.Dir
	pkg.Deps = lp.Deps
	pkg.SrcFiles = srcs
	pkg.DepExports = map[string]string{}
	for _, dep := range lp.Deps {
		if file, ok := exports[dep]; ok {
			pkg.DepExports[dep] = file
		}
	}
	return pkg, nil
}

// checkFiles runs the type checker over parsed files, producing the full
// types.Info an analyzer Pass expects.
func checkFiles(fset *token.FileSet, imp types.Importer, path, goVersion string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := &types.Config{Importer: imp, GoVersion: goVersion}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", path, err)
	}
	return &Package{
		PkgPath:   path,
		Fset:      fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

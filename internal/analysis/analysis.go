// Package analysis is a self-contained reimplementation of the core of
// golang.org/x/tools/go/analysis, built only on the standard library so
// the repository carries no module dependencies. It exists to make the
// engine's hand-written contracts — the storage package's lock and epoch
// rules, the blockstore pin/reload protocol, the batch path's
// no-allocation discipline — machine-checkable on every build instead of
// enforced by prose and code review.
//
// The API mirrors go/analysis deliberately: an Analyzer owns a Run
// function over a Pass that exposes the package's syntax and type
// information and reports Diagnostics. Should the upstream module become
// available, the analyzers port by changing one import path.
//
// # Directives
//
// Analyzers and the driver understand three comment directives:
//
//	//dbvet:locks <field>   on a function: callers must hold the named
//	                        mutex field of the receiver (lockcheck).
//	//dbvet:hotpath         on a function or function literal: the body
//	                        must obey the hot-path discipline (hotpath).
//	//dbvet:ignore <reason> suppresses every dbvet diagnostic on the
//	                        same line, or on the next line when the
//	                        directive stands alone. The reason is
//	                        mandatory: an ignore without one is itself
//	                        reported.
//
// Drivers: cmd/dbvet runs the suite over package patterns (Load, then
// RunAnalyzers per package in dependency order); analysistest runs one
// analyzer over a fixture tree annotated with `// want` expectations.
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one static check: a name, a contract description, and a
// Run function invoked once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command
	// line. It must be a valid Go identifier.
	Name string

	// Doc states the contract the analyzer enforces. The first line is
	// the summary shown in dbvet's usage.
	Doc string

	// Run applies the analyzer to one package. It reports findings via
	// pass.Report and returns an error only for internal failures —
	// a finding is a Diagnostic, never an error.
	Run func(*Pass) (any, error)
}

// A Pass hands an Analyzer one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Dir is the package's source directory ("" when unknown), which
	// fact layers that shell out per package (gcfacts) key off.
	Dir string

	// Report delivers one finding. The driver applies //dbvet:ignore
	// suppression after this call.
	Report func(Diagnostic)

	// deps holds the facts exported by this package's dependencies,
	// one PackageFacts per dependency that produced any; export
	// collects the facts this pass produces for its dependents.
	deps   []PackageFacts
	export PackageFacts
}

// PackageFacts is the serialized analysis state one package exports for
// its dependents, keyed by analyzer name. It travels in memory, in
// dependency order, and is stored with the package's result cache entry.
type PackageFacts map[string]json.RawMessage

// DepFacts returns the facts the named analyzer exported from each of
// this package's dependencies, in dependency order.
func (p *Pass) DepFacts(name string) []json.RawMessage {
	var out []json.RawMessage
	for _, d := range p.deps {
		if raw, ok := d[name]; ok {
			out = append(out, raw)
		}
	}
	return out
}

// ExportFact serializes v as this analyzer's fact for dependent
// packages. The value must marshal deterministically (sorted slices;
// maps are fine, encoding/json orders their keys), or the result cache
// keys of dependent packages churn.
func (p *Pass) ExportFact(v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%s: exporting fact: %w", p.Analyzer.Name, err)
	}
	p.export[p.Analyzer.Name] = raw
	return nil
}

// Reportf reports a formatted finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, attributed to the analyzer that produced
// it by the driver.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Validate checks the analyzer set for driver use: non-empty unique
// names and a Run function each.
func Validate(analyzers []*Analyzer) error {
	seen := map[string]bool{}
	for _, a := range analyzers {
		if a.Name == "" || a.Run == nil {
			return fmt.Errorf("analysis: analyzer %q lacks a name or Run", a.Name)
		}
		if seen[a.Name] {
			return fmt.Errorf("analysis: duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	return nil
}

// directivePrefix introduces every dbvet comment directive.
const directivePrefix = "//dbvet:"

// Directive is one parsed //dbvet: comment.
type Directive struct {
	Pos  token.Pos
	Name string // "ignore", "locks", "hotpath", ...
	// Args is the remainder of the line, space-trimmed. An embedded
	// "//" ends the arguments (comment-within-comment convention), so
	// test fixtures can append `// want` expectations to a directive.
	Args string
	// EndOfLine reports whether the directive trails code on its line
	// (true) or stands alone (false). A standalone ignore applies to the
	// next line; a trailing one to its own.
	EndOfLine bool
}

// fileDirectives extracts every dbvet directive of one file. Line
// directives attached to declarations are found through comment groups;
// free-standing comments are found through File.Comments, which includes
// all of them when the file was parsed with parser.ParseComments. A
// directive is classified end-of-line (trailing code) when any other AST
// token ends on its line before it, which is decided by comparing the
// comment's column with the line's first non-comment token.
func fileDirectives(fset *token.FileSet, f *ast.File) []Directive {
	// lineHasCode records lines on which some non-comment syntax ends.
	lineHasCode := map[int]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.File, *ast.Comment, *ast.CommentGroup:
			return true
		}
		lineHasCode[fset.Position(n.Pos()).Line] = true
		lineHasCode[fset.Position(n.End()).Line] = true
		return true
	})
	var out []Directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			name, args := splitDirective(text)
			pos := fset.Position(c.Pos())
			out = append(out, Directive{
				Pos:       c.Pos(),
				Name:      name,
				Args:      args,
				EndOfLine: lineHasCode[pos.Line],
			})
		}
	}
	return out
}

// FileDirectives returns every dbvet directive in one file, for
// analyzers that attach directives to non-declaration nodes (hotpath on
// function literals).
func FileDirectives(fset *token.FileSet, f *ast.File) []Directive {
	return fileDirectives(fset, f)
}

// FuncDirective returns the named directive attached to a function
// declaration's doc comment, if any.
func FuncDirective(fset *token.FileSet, decl *ast.FuncDecl, name string) (Directive, bool) {
	if decl.Doc == nil {
		return Directive{}, false
	}
	for _, c := range decl.Doc.List {
		if text, ok := strings.CutPrefix(c.Text, directivePrefix); ok {
			if n, args := splitDirective(text); n == name {
				return Directive{Pos: c.Pos(), Name: n, Args: args}, true
			}
		}
	}
	return Directive{}, false
}

// splitDirective separates a directive's name from its arguments,
// cutting the arguments at an embedded "//".
func splitDirective(text string) (name, args string) {
	name, args, _ = strings.Cut(text, " ")
	if i := strings.Index(args, "//"); i >= 0 {
		args = args[:i]
	}
	return name, strings.TrimSpace(args)
}

// ignoreIndex records, per file line, whether a //dbvet:ignore directive
// suppresses diagnostics there, and whether the directive carried the
// mandatory reason.
type ignoreIndex struct {
	fset *token.FileSet
	// byLine maps filename -> line -> directive.
	byLine map[string]map[int]Directive
}

func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	idx := &ignoreIndex{fset: fset, byLine: map[string]map[int]Directive{}}
	for _, f := range files {
		for _, d := range fileDirectives(fset, f) {
			if d.Name != "ignore" {
				continue
			}
			pos := fset.Position(d.Pos)
			m := idx.byLine[pos.Filename]
			if m == nil {
				m = map[int]Directive{}
				idx.byLine[pos.Filename] = m
			}
			line := pos.Line
			if !d.EndOfLine {
				// A standalone ignore covers the following line.
				line++
			}
			m[line] = d
		}
	}
	return idx
}

// suppressed reports whether a diagnostic at pos is covered by an ignore
// directive, and returns that directive.
func (idx *ignoreIndex) suppressed(pos token.Pos) (Directive, bool) {
	p := idx.fset.Position(pos)
	d, ok := idx.byLine[p.Filename][p.Line]
	return d, ok
}

// ResultDiagnostic is a finding after suppression, tagged with the
// analyzer that produced it.
type ResultDiagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// RunAnalyzers applies each analyzer to pkg, applies //dbvet:ignore
// suppression, and returns surviving findings sorted by position plus
// the facts the analyzers exported for dependent packages. deps carries
// the facts of the package's dependencies (nil when unknown — the
// analyzers degrade to package-local precision). An ignore directive
// without a reason is reported as a finding of the pseudo-analyzer
// "dbvet". suppressedCount reports how many findings the directives
// swallowed, so drivers can surface the suppression budget.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer, deps []PackageFacts) (diags []ResultDiagnostic, suppressedCount int, facts PackageFacts, err error) {
	idx := buildIgnoreIndex(pkg.Fset, pkg.Files)
	facts = PackageFacts{}

	// Reasonless ignores are findings themselves: the escape hatch
	// demands a written justification.
	for _, m := range idx.byLine {
		for _, d := range m {
			if d.Args == "" {
				diags = append(diags, ResultDiagnostic{
					Analyzer: "dbvet",
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  "//dbvet:ignore requires a written justification",
				})
			}
		}
	}

	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			Dir:       pkg.Dir,
			deps:      deps,
			export:    facts,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			if _, ok := idx.suppressed(d.Pos); ok {
				suppressedCount++
				return
			}
			diags = append(diags, ResultDiagnostic{
				Analyzer: name,
				Pos:      pkg.Fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
		if _, rerr := a.Run(pass); rerr != nil {
			return nil, 0, nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, rerr)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return diags, suppressedCount, facts, nil
}

// Command dbvet is the engine's static-analysis driver. It runs the
// contract checkers under internal/analysis — lockcheck, deadlockcheck,
// nilness, atomiccheck, pincheck, hotpath, hotpathperf, errcheckdb and
// shadow — over package patterns:
//
//	go run ./cmd/dbvet ./...
//	go run ./cmd/dbvet -hotpath=false ./internal/storage
//
// Test files are analyzed: loading expands each package into its
// test-augmented and external-test variants exactly as go vet does.
//
// Interprocedural facts (deadlockcheck's lock summaries) flow between
// packages in memory, in dependency order. A per-package result cache
// (-cachedir, default bin/dbvet-cache) keyed by tool hash, source bytes,
// dependency export data and dependency facts makes a no-change run
// incremental.
//
// Exit status is 1 when any diagnostic survives //dbvet:ignore
// suppression, 0 otherwise. Suppressions must carry a written reason;
// a reasonless ignore is itself a finding. -json reports the surviving
// findings as a JSON array on stdout instead (exit status unchanged),
// which CI uses to diff findings against the base branch.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"datablocks/internal/analysis"
	"datablocks/internal/analysis/atomiccheck"
	"datablocks/internal/analysis/deadlockcheck"
	"datablocks/internal/analysis/errcheckdb"
	"datablocks/internal/analysis/hotpath"
	"datablocks/internal/analysis/hotpathperf"
	"datablocks/internal/analysis/lockcheck"
	"datablocks/internal/analysis/nilness"
	"datablocks/internal/analysis/pincheck"
	"datablocks/internal/analysis/shadow"
)

var suite = []*analysis.Analyzer{
	lockcheck.Analyzer,
	deadlockcheck.Analyzer,
	nilness.Analyzer,
	atomiccheck.Analyzer,
	pincheck.Analyzer,
	hotpath.Analyzer,
	hotpathperf.Analyzer,
	errcheckdb.Analyzer,
	shadow.Analyzer,
}

func main() {
	if err := analysis.Validate(suite); err != nil {
		fmt.Fprintln(os.Stderr, "dbvet:", err)
		os.Exit(1)
	}

	fs := flag.NewFlagSet("dbvet", flag.ExitOnError)
	enabled := map[string]*bool{}
	for _, a := range suite {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		enabled[a.Name] = fs.Bool(a.Name, true, doc)
	}
	jsonOut := fs.Bool("json", false, "print surviving findings as JSON on stdout")
	cacheDir := fs.String("cachedir", "bin/dbvet-cache", "result cache directory (empty disables)")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dbvet [-<analyzer>=false ...] [-json] [-cachedir dir] [package pattern ...]\n\nflags:\n")
		fs.PrintDefaults()
	}
	fs.Parse(os.Args[1:])

	var active []*analysis.Analyzer
	for _, a := range suite {
		if *enabled[a.Name] {
			active = append(active, a)
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dbvet:", err)
		os.Exit(1)
	}

	cache := openCache(*cacheDir, active)

	// Facts flow forward in dependency order, keyed by both the listed
	// path ("p [p.test]") and the clean path, so an external test
	// package's dependency on "p" finds the facts the test-augmented
	// variant exported.
	factsByPath := map[string]analysis.PackageFacts{}
	var all []analysis.ResultDiagnostic
	suppressed := 0
	for _, pkg := range pkgs {
		var deps []analysis.PackageFacts
		seen := map[string]bool{}
		for _, dep := range pkg.Deps {
			if facts, ok := factsByPath[dep]; ok && !seen[dep] {
				seen[dep] = true
				deps = append(deps, facts)
			}
		}

		var entry *analysis.CacheEntry
		key := ""
		if cache != nil {
			if key, err = cache.Key(pkg, deps); err == nil {
				entry, _ = cache.Get(key)
			}
			err = nil
		}
		if entry == nil {
			diags, sup, facts, rerr := analysis.RunAnalyzers(pkg, active, deps)
			if rerr != nil {
				fmt.Fprintln(os.Stderr, "dbvet:", rerr)
				os.Exit(1)
			}
			entry = &analysis.CacheEntry{Diags: diags, Suppressed: sup, Facts: facts}
			if cache != nil && key != "" {
				cache.Put(key, entry)
			}
		}

		if len(entry.Facts) > 0 {
			factsByPath[pkg.ListedPath] = entry.Facts
			factsByPath[pkg.PkgPath] = entry.Facts
		}
		suppressed += entry.Suppressed
		all = append(all, entry.Diags...)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []analysis.ResultDiagnostic{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(os.Stderr, "dbvet:", err)
			os.Exit(1)
		}
	} else {
		for _, d := range all {
			fmt.Fprintf(os.Stderr, "%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
		}
		if suppressed > 0 {
			fmt.Fprintf(os.Stderr, "dbvet: %d finding(s) suppressed by //dbvet:ignore\n", suppressed)
		}
		if len(all) > 0 {
			fmt.Fprintf(os.Stderr, "dbvet: %d finding(s)\n", len(all))
		}
	}
	if len(all) > 0 {
		os.Exit(1)
	}
}

// openCache builds the result cache. The salt folds in the tool binary
// (a rebuilt dbvet invalidates everything it produced), the enabled
// analyzer set and the hot-path budget file, each of which changes
// findings without changing package sources.
func openCache(dir string, active []*analysis.Analyzer) *analysis.Cache {
	if dir == "" {
		return nil
	}
	h := sha256.New()
	// `go run` binaries in temp dirs can vanish mid-run; degrade to
	// uncached analysis rather than failing.
	exe, err := os.Executable()
	if err != nil {
		return nil
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil
	}
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return nil
	}
	for _, a := range active {
		fmt.Fprintf(h, "analyzer=%s\n", a.Name)
	}
	budget, _ := os.ReadFile("lint-budget.json")
	h.Write(budget)
	return analysis.OpenCache(dir, fmt.Sprintf("%x", h.Sum(nil)))
}

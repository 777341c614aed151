package datablocks

import (
	"bufio"
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

// locCeilings is ROADMAP aim 2's tracked figure as a ratchet: the lines
// `make loc` counts, for internal/exec and for the whole tree, at the PR
// that last moved them. A PR that needs more says so by raising a number
// here in its own diff, like an entry in lint-budget.json; one that
// deletes code lowers it.
var locCeilings = map[string]int{
	"datablocks/internal/exec": 4328,
	"total":                    19728,
}

// TestLocCeilings counts what `make loc` counts — every line of a
// package's non-test Go files that is neither blank nor comment-only — and
// fails when a figure exceeds its ceiling.
func TestLocCeilings(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", "{{.ImportPath}} {{.Dir}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	loc := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		pkg, dir, _ := strings.Cut(line, " ")
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := os.Open(file)
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				if l := strings.TrimSpace(sc.Text()); l != "" && !strings.HasPrefix(l, "//") {
					loc[pkg]++
					loc["total"]++
				}
			}
			f.Close()
			if err := sc.Err(); err != nil {
				t.Fatalf("%s: %v", file, err)
			}
		}
	}
	for name, ceiling := range locCeilings {
		if loc[name] == 0 || loc[name] > ceiling {
			t.Errorf("%s: %d lines, ceiling %d (make loc)", name, loc[name], ceiling)
		}
	}
}

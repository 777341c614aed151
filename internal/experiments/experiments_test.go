package experiments

import (
	"strings"
	"testing"

	"datablocks/internal/exec"
)

// The experiment drivers are exercised end-to-end at tiny scale: these are
// smoke tests for the harness itself; the benchmarks and cmd/dbrepro run
// them at measurement scale.

func TestTable1Small(t *testing.T) {
	var sb strings.Builder
	if err := Table1(&sb, 0.001, 3000, 3000); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"TPC-H lineitem", "IMDB cast_info", "Flights", "Data Blocks"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestTable2Small(t *testing.T) {
	var sb strings.Builder
	if err := Table2(&sb, 0.001, 1, 1); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Q1", "Q6", "geometric mean", "VW compressed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in output:\n%s", want, out)
		}
	}
}

func TestTable3Small(t *testing.T) {
	var sb strings.Builder
	if err := Table3(&sb, 0.001, 300); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "PK index") || !strings.Contains(sb.String(), "no index") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestTPCCSmall(t *testing.T) {
	var sb strings.Builder
	if err := TPCC(&sb, 500, 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cold neworder frozen", "read-only (order-status + stock-level)  fully frozen", "read-only overhead"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("missing %q in output:\n%s", want, sb.String())
		}
	}
}

func TestFig5Small(t *testing.T) {
	var sb strings.Builder
	if err := Fig5(&sb, 16); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "jit compile") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestFig8Fig9Small(t *testing.T) {
	var sb strings.Builder
	Fig8(&sb, 1<<10)
	Fig9(&sb, 1<<10)
	if !strings.Contains(sb.String(), "speedup") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestFig10Small(t *testing.T) {
	var sb strings.Builder
	if err := Fig10(&sb, 0.001, 3000, 3000); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "records/block") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestFig11Fig13Small(t *testing.T) {
	var sb strings.Builder
	if err := Fig11(&sb, 0.001, 1); err != nil {
		t.Fatal(err)
	}
	if err := Fig13(&sb, 0.001, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "+SORT +PSMA") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestFig12Small(t *testing.T) {
	var sb strings.Builder
	if err := Fig12(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "bit-packed") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestFlightsQuerySmall(t *testing.T) {
	var sb strings.Builder
	if err := FlightsQuery(&sb, 20000, 1); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Data Blocks +SMA/PSMA") {
		t.Fatalf("output:\n%s", sb.String())
	}
}

func TestLayoutRelationDistinctLayouts(t *testing.T) {
	for _, combos := range []int{1, 4, 16, 64} {
		rel, err := LayoutRelation(combos)
		if err != nil {
			t.Fatal(err)
		}
		cols := make([]int, 8)
		for i := range cols {
			cols[i] = i
		}
		paths, err := exec.CompileOnly(&exec.ScanNode{Rel: rel, Cols: cols}, exec.Options{Mode: exec.ModeJIT})
		if err != nil {
			t.Fatal(err)
		}
		// One JIT path per distinct layout plus the hot path (tail chunk
		// may be hot if rows don't fill it — layoutRelation freezes all).
		if paths < combos || paths > combos+1 {
			t.Fatalf("combos=%d: scan paths = %d", combos, paths)
		}
	}
}

package exec

import (
	"cmp"
	"fmt"
	"math"
	"testing"

	"datablocks/internal/core"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// topkRef computes the reference answer for ORDER BY ... LIMIT by running
// the same plan with Limit = 0 (which takes the materialize + SortBy path)
// and truncating afterwards — the contract the top-k sink must match
// row-for-row, including stable resolution of ties.
func topkRef(t *testing.T, child Node, keys []OrderKey, limit int, opt Options) *Result {
	t.Helper()
	res, err := Run(&OrderByNode{Child: child, Keys: keys}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if limit < res.n {
		idx := make([]int, limit)
		for i := range idx {
			idx[i] = i
		}
		res.permute(idx)
	}
	return res
}

// TestTopKMatchesSortBy proves the streaming top-k sink is result-identical
// to full materialization + stable sort + truncate, across tie-heavy and
// NULL-bearing keys, ascending/descending mixes, the batch chain and
// ModeJIT's tuple chain, and limits straddling the input size.
func TestTopKMatchesSortBy(t *testing.T) {
	rel := ordersRel(t, 3000, 1<<10, 2)
	// status (col 2) is a 4-value nullable string column: maximal ties plus
	// NULLs-first handling. qty (col 3) has 50 distinct values: more ties.
	keySets := map[string][]OrderKey{
		"ties+nulls":    {{Col: 2}, {Col: 3, Desc: true}},
		"desc+nulls":    {{Col: 2, Desc: true}, {Col: 1}},
		"numeric":       {{Col: 1, Desc: true}, {Col: 0}},
		"all-tied-tail": {{Col: 3}}, // huge tie groups decided by arrival order
	}
	limits := []int{1, 7, 25, 2999, 3000, 5000}
	for name, keys := range keySets {
		for _, limit := range limits {
			for _, mode := range []ScanMode{ModeVectorizedSARG, ModeJIT} {
				opt := Options{Mode: mode}
				want := topkRef(t, &ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}}, keys, limit, opt)
				got, err := Run(&OrderByNode{
					Child: &ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}},
					Keys:  keys,
					Limit: limit,
				}, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != want.String() {
					t.Fatalf("%s limit=%d %v: top-k diverges from SortBy\n got:\n%s\nwant:\n%s",
						name, limit, mode, got.String(), want.String())
				}
			}
		}
	}
	t.Run("special-floats", testTopKSpecialFloats)
}

// specialFloatsRel is (k unique int, f nullable double) over 1 Ki-row
// chunks, the first frozen, where f is NaN in one row of twenty and ±Inf,
// -0.0, +0.0 or NULL in as many more.
func specialFloatsRel(t *testing.T, n int) *storage.Relation {
	t.Helper()
	rel := storage.NewRelation(types.NewSchema(
		types.Column{Name: "k", Kind: types.Int64},
		types.Column{Name: "f", Kind: types.Float64, Nullable: true},
	), 1<<10)
	cols := []core.ColumnData{
		{Kind: types.Int64, Ints: make([]int64, n)},
		{Kind: types.Float64, Floats: make([]float64, n), Nulls: make([]bool, n)},
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	for i := 0; i < n; i++ {
		cols[0].Ints[i] = int64(i)
		cols[1].Floats[i] = float64((i*7919)%1000) - 500
		switch r := (i * 31) % 120; {
		case r < 6:
			cols[1].Floats[i] = math.NaN()
		case r < 11:
			cols[1].Floats[i] = specials[r-6]
		case r == 11:
			cols[1].Nulls[i] = true
		}
	}
	if err := rel.BulkAppend(cols, n); err != nil {
		t.Fatal(err)
	}
	if err := rel.FreezeChunk(0, core.FreezeOptions{SortBy: -1}); err != nil {
		t.Fatal(err)
	}
	return rel
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// testTopKSpecialFloats is TestTopKMatchesSortBy's case for a double sort
// key holding NaN, ±Inf and -0.0: the output is sorted (NULLs first, then
// NaN, then the numbers), the same rows at every parallelism and on both
// chains, and the top-k sink returns what sort-then-truncate returns.
// Under a comparison in which NaN ties with everything none of that holds:
// the comparator is not an order.
func testTopKSpecialFloats(t *testing.T) {
	rel := specialFloatsRel(t, 3000)
	scan := func() Node { return &ScanNode{Rel: rel, Cols: []int{0, 1}} }
	for _, desc := range []bool{false, true} {
		// k breaks every tie, so the expected answer is one permutation.
		keys := []OrderKey{{Col: 1, Desc: desc}, {Col: 0}}
		full := topkRef(t, scan(), keys, 3000, Options{Mode: ModeVectorizedSARG})
		f := &full.Cols[1]
		for i := 1; i < full.n; i++ {
			ord := cmp.Compare(f.Floats[i-1], f.Floats[i])
			if f.Nulls[i-1] || f.Nulls[i] { // NULL sorts below everything
				ord = cmp.Compare(btoi(f.Nulls[i]), btoi(f.Nulls[i-1]))
			}
			if ord > 0 != desc && ord != 0 {
				t.Fatalf("desc=%v: rows %d, %d out of order:\n%s", desc, i-1, i, full)
			}
		}
		for _, limit := range []int{0, 5, 200} {
			want := full
			if limit > 0 {
				want = topkRef(t, scan(), keys, limit, Options{Mode: ModeVectorizedSARG})
			}
			for _, par := range []int{1, 2} {
				for _, mode := range []ScanMode{ModeVectorizedSARG, ModeJIT} {
					opt := Options{Mode: mode, Parallelism: par}
					got, err := Run(&OrderByNode{Child: scan(), Keys: keys, Limit: limit}, opt)
					if err != nil {
						t.Fatal(err)
					}
					requireExactResult(t, fmt.Sprintf("desc=%v limit=%d par=%d %v", desc, limit, par, mode), want, got)
				}
			}
		}
	}
}

// TestTopKParallelAndFiltered covers the remaining execution shapes: a
// filter below the order (streamableChain recursion) and parallel morsel
// workers (per-worker sinks merged then re-sorted). The key list ends in
// the unique okey column so the expected answer is a total order —
// deterministic under any worker interleaving.
func TestTopKParallelAndFiltered(t *testing.T) {
	rel := ordersRel(t, 4000, 1<<10, 3)
	keys := []OrderKey{{Col: 3, Desc: true}, {Col: 0}}
	child := func() Node {
		return &FilterNode{
			Child: &ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}},
			Cond:  Cmp(types.Ge, Col(3), CInt(5)),
		}
	}
	want := topkRef(t, child(), keys, 40, Options{Mode: ModeVectorizedSARG})
	for _, par := range []int{1, 4} {
		got, err := Run(&OrderByNode{Child: child(), Keys: keys, Limit: 40},
			Options{Mode: ModeVectorizedSARG, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("parallelism=%d: top-k diverges\n got:\n%s\nwant:\n%s",
				par, got.String(), want.String())
		}
	}
}

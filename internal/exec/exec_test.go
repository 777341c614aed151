package exec

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

var allModes = []ScanMode{ModeJIT, ModeVectorized, ModeVectorizedSARG, ModeVectorizedSARGPSMA}

// ordersRel builds a relation with frozen and hot chunks:
// (okey int, price float, status string nullable, qty int).
func ordersRel(t *testing.T, n, chunkCap int, frozenChunks int) *storage.Relation {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "okey", Kind: types.Int64},
		types.Column{Name: "price", Kind: types.Float64},
		types.Column{Name: "status", Kind: types.String, Nullable: true},
		types.Column{Name: "qty", Kind: types.Int64},
	)
	rel := storage.NewRelation(schema, chunkCap)
	r := rand.New(rand.NewSource(31))
	statuses := []string{"open", "paid", "shipped", "returned"}
	cols := []core.ColumnData{
		{Kind: types.Int64, Ints: make([]int64, n)},
		{Kind: types.Float64, Floats: make([]float64, n)},
		{Kind: types.String, Strs: make([]string, n), Nulls: make([]bool, n)},
		{Kind: types.Int64, Ints: make([]int64, n)},
	}
	for i := 0; i < n; i++ {
		cols[0].Ints[i] = int64(i)
		cols[1].Floats[i] = float64(r.Intn(100000)) / 100
		cols[2].Strs[i] = statuses[r.Intn(len(statuses))]
		cols[2].Nulls[i] = r.Intn(10) == 0
		cols[3].Ints[i] = int64(r.Intn(50))
	}
	if err := rel.BulkAppend(cols, n); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frozenChunks && i < rel.NumChunks(); i++ {
		if err := rel.FreezeChunk(i, core.FreezeOptions{SortBy: -1}); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// sortedRows renders a result to sorted strings for order-insensitive
// comparison.
func sortedRows(r *Result) []string {
	rows := strings.Split(strings.TrimRight(r.String(), "\n"), "\n")
	sort.Strings(rows)
	return rows
}

// requireApproxResult compares results row-wise after sorting, allowing
// relative float error (parallel aggregation changes summation order).
func requireApproxResult(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("%s: shapes differ", name)
	}
	keys := make([]OrderKey, a.NumCols())
	for i := range keys {
		keys[i] = OrderKey{Col: i}
	}
	a.SortBy(keys, 0)
	b.SortBy(keys, 0)
	for i := 0; i < a.NumRows(); i++ {
		for c := 0; c < a.NumCols(); c++ {
			va, vb := a.Value(c, i), b.Value(c, i)
			if va.Kind() == types.Float64 && !va.IsNull() && !vb.IsNull() {
				if !approxEq(va.Float(), vb.Float()) {
					t.Fatalf("%s: cell (%d,%d): %v vs %v", name, i, c, va, vb)
				}
				continue
			}
			if !va.Equal(vb) {
				t.Fatalf("%s: cell (%d,%d): %v vs %v", name, i, c, va, vb)
			}
		}
	}
}

func requireSameResult(t *testing.T, name string, a, b *Result) {
	t.Helper()
	ra, rb := sortedRows(a), sortedRows(b)
	if len(ra) != len(rb) {
		t.Fatalf("%s: row counts differ: %d vs %d", name, len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("%s: row %d differs:\n%s\n%s", name, i, ra[i], rb[i])
		}
	}
}

func TestScanModesAgree(t *testing.T) {
	rel := ordersRel(t, 25000, 1<<13, 2) // 2 frozen chunks + hot tail
	mkPlan := func() Node {
		return &ScanNode{
			Rel:  rel,
			Cols: []int{0, 1, 2, 3},
			Preds: []core.Predicate{
				{Col: 0, Op: types.Between, Lo: types.IntValue(1000), Hi: types.IntValue(20000)},
				{Col: 2, Op: types.Eq, Lo: types.StringValue("paid")},
				{Col: 1, Op: types.Lt, Lo: types.FloatValue(400)},
			},
		}
	}
	var ref *Result
	for _, mode := range allModes {
		res, err := Run(mkPlan(), Options{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.NumRows() == 0 {
			t.Fatalf("%v: empty result", mode)
		}
		if ref == nil {
			ref = res
			continue
		}
		requireSameResult(t, mode.String(), ref, res)
	}
	// Parallel execution returns the same multiset.
	res, err := Run(mkPlan(), Options{Mode: ModeVectorizedSARGPSMA, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "parallel", ref, res)
	// Small vector sizes exercise multi-batch paths.
	res, err = Run(mkPlan(), Options{Mode: ModeVectorizedSARG, VectorSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "vec256", ref, res)
}

func TestScanAgainstNaiveReference(t *testing.T) {
	rel := ordersRel(t, 9000, 1<<12, 1)
	plan := &ScanNode{
		Rel:  rel,
		Cols: []int{0, 3},
		Preds: []core.Predicate{
			{Col: 3, Op: types.Ge, Lo: types.IntValue(25)},
		},
	}
	res, err := Run(plan, Options{Mode: ModeVectorizedSARG})
	if err != nil {
		t.Fatal(err)
	}
	// Naive reference via point accesses.
	want := 0
	for _, ch := range rel.Chunks() {
		for row := 0; row < ch.Rows(); row++ {
			var qty int64
			if ch.IsFrozen() {
				qty = ch.Block().Int(3, row)
			} else {
				qty = ch.Hot().Columns(ch.Rows())[3].Ints[row]
			}
			if qty >= 25 {
				want++
			}
		}
	}
	if res.NumRows() != want {
		t.Fatalf("got %d rows, want %d", res.NumRows(), want)
	}
}

func TestAggregation(t *testing.T) {
	rel := ordersRel(t, 20000, 1<<13, 2)
	mkPlan := func() Node {
		return &AggNode{
			Child:   &ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}},
			GroupBy: []int{2},
			Aggs: []AggSpec{
				{Func: AggCount},
				{Func: AggSum, Arg: Col(1)},
				{Func: AggAvg, Arg: Col(3)},
				{Func: AggMin, Arg: Col(0)},
				{Func: AggMax, Arg: Col(0)},
			},
		}
	}
	var ref *Result
	for _, mode := range allModes {
		res, err := Run(mkPlan(), Options{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		// 4 statuses + NULL group.
		if res.NumRows() != 5 {
			t.Fatalf("%v: %d groups, want 5", mode, res.NumRows())
		}
		if ref == nil {
			ref = res
			continue
		}
		requireSameResult(t, mode.String(), ref, res)
	}
	// Parallel merge must agree (floats up to summation-order rounding).
	res, err := Run(mkPlan(), Options{Mode: ModeVectorized, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	requireApproxResult(t, "parallel-agg", ref, res)
	// Counts add up to the relation size.
	total := int64(0)
	for i := 0; i < ref.NumRows(); i++ {
		total += ref.Cols[1].Ints[i]
	}
	if total != int64(rel.NumRows()) {
		t.Fatalf("counts sum to %d, want %d", total, rel.NumRows())
	}
}

func TestMapAndFilterExpressions(t *testing.T) {
	rel := ordersRel(t, 5000, 1<<12, 1)
	// revenue = price * (1 + 0.1), flagged = qty >= 40 ? 1 : 0
	plan := &AggNode{
		Child: &MapNode{
			Child: &FilterNode{
				Child: &ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}},
				Cond:  Cmp(types.Ge, Col(3), CInt(10)),
			},
			Exprs: []Expr{
				Mul(Col(1), CFloat(1.1)),
				If{Cond: Cmp(types.Ge, Col(3), CInt(40)), Then: CInt(1), Else: CInt(0)},
			},
		},
		GroupBy: []int{},
		Aggs: []AggSpec{
			{Func: AggSum, Arg: Col(0)},
			{Func: AggSum, Arg: Col(1)},
			{Func: AggCount},
		},
	}
	res, err := Run(plan, Options{Mode: ModeVectorizedSARG})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	// Reference computation.
	var wantRev, wantFlag float64
	var wantCount int64
	for _, ch := range rel.Chunks() {
		for row := 0; row < ch.Rows(); row++ {
			var qty int64
			var price float64
			if ch.IsFrozen() {
				qty, price = ch.Block().Int(3, row), ch.Block().Float(1, row)
			} else {
				hot := ch.Hot().Columns(ch.Rows())
				qty, price = hot[3].Ints[row], hot[1].Floats[row]
			}
			if qty >= 10 {
				wantRev += price * 1.1
				if qty >= 40 {
					wantFlag++
				}
				wantCount++
			}
		}
	}
	if got := res.Cols[0].Floats[0]; !approxEq(got, wantRev) {
		t.Fatalf("revenue = %g, want %g", got, wantRev)
	}
	if got := res.Cols[1].Floats[0]; got != wantFlag {
		t.Fatalf("flagged = %g, want %g", got, wantFlag)
	}
	if got := res.Cols[2].Ints[0]; got != wantCount {
		t.Fatalf("count = %d, want %d", got, wantCount)
	}
}

func approxEq(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	return d <= 1e-9*(1+scale)
}

// customersRel: (ckey int, nation string).
func customersRel(t *testing.T, n int) *storage.Relation {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "ckey", Kind: types.Int64},
		types.Column{Name: "nation", Kind: types.String},
	)
	rel := storage.NewRelation(schema, 1<<12)
	nations := []string{"DE", "FR", "US", "JP"}
	cols := []core.ColumnData{
		{Kind: types.Int64, Ints: make([]int64, n)},
		{Kind: types.String, Strs: make([]string, n)},
	}
	for i := 0; i < n; i++ {
		cols[0].Ints[i] = int64(i)
		cols[1].Strs[i] = nations[i%len(nations)]
	}
	if err := rel.BulkAppend(cols, n); err != nil {
		t.Fatal(err)
	}
	if err := rel.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		t.Fatal(err)
	}
	return rel
}

func TestHashJoinInner(t *testing.T) {
	orders := ordersRel(t, 8000, 1<<12, 2)
	customers := customersRel(t, 2000)
	// orders join customers on okey % 2000 == ckey is not expressible;
	// instead join on okey (0..7999) vs ckey (0..1999): 2000 matches.
	plan := &AggNode{
		Child: &JoinNode{
			Build:     &ScanNode{Rel: customers, Cols: []int{0, 1}, Preds: []core.Predicate{{Col: 1, Op: types.Eq, Lo: types.StringValue("DE")}}},
			Probe:     &ScanNode{Rel: orders, Cols: []int{0, 1}},
			BuildKeys: []int{0},
			ProbeKeys: []int{0},
			Kind:      InnerJoin,
		},
		GroupBy: []int{3}, // nation
		Aggs:    []AggSpec{{Func: AggCount}, {Func: AggSum, Arg: Col(1)}},
	}
	var ref *Result
	for _, mode := range allModes {
		res, err := Run(plan, Options{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.NumRows() != 1 {
			t.Fatalf("%v: %d groups, want 1", mode, res.NumRows())
		}
		if got := res.Cols[1].Ints[0]; got != 500 {
			t.Fatalf("%v: count = %d, want 500 (DE customers with ckey<2000)", mode, got)
		}
		if ref == nil {
			ref = res
			continue
		}
		requireSameResult(t, mode.String(), ref, res)
	}
}

// TestSemiAntiJoin counts the orders with and without a customer, in
// every mode, over a scan build side (key-passed) and over a filtered one
// (early-probed, except by the anti join). An anti join must keep the rows
// the build's tags rule out, and a COUNT without GROUP BY over a join that
// keeps no row is one row holding 0.
func TestSemiAntiJoin(t *testing.T) {
	orders := ordersRel(t, 4000, 1<<12, 1)
	customers := customersRel(t, 1000)
	count := func(kind JoinKind, build Node) Node {
		return &AggNode{
			Child: &JoinNode{
				Build:     build,
				Probe:     &ScanNode{Rel: orders, Cols: []int{0}},
				BuildKeys: []int{0},
				ProbeKeys: []int{0},
				Kind:      kind,
			},
			Aggs: []AggSpec{{Func: AggCount}},
		}
	}
	scan := func(preds ...core.Predicate) Node { return &ScanNode{Rel: customers, Cols: []int{0}, Preds: preds} }
	filtered := func(lo int64) Node { return &FilterNode{Child: scan(), Cond: Cmp(types.Ge, Col(0), CInt(lo))} }
	none := core.Predicate{Col: 0, Op: types.Lt, Lo: types.IntValue(0)}
	cases := []struct {
		name string
		plan Node
		want int64
	}{
		{"semi", count(SemiJoin, scan()), 1000},
		{"anti", count(AntiJoin, scan()), 3000},
		{"semi early-probed", count(SemiJoin, filtered(0)), 1000},
		{"anti over a filtered build", count(AntiJoin, filtered(0)), 3000},
		{"semi on no customer", count(SemiJoin, scan(none)), 0},
		{"semi early-probed on no customer", count(SemiJoin, filtered(1000)), 0},
	}
	for _, tc := range cases {
		for _, mode := range allModes {
			res, err := Run(tc.plan, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if res.NumRows() != 1 || res.Cols[0].Ints[0] != tc.want {
				t.Fatalf("%s %v: %d rows %v, want one row, count %d", tc.name, mode, res.NumRows(), res.Cols[0].Ints, tc.want)
			}
		}
	}
}

// visibleRows reads rel's visible rows in scan order — chunk by chunk, each
// in row order — through point reads, not through a scan.
func visibleRows(rel *storage.Relation) []types.Row {
	var rows []types.Row
	for i := 0; i < rel.NumChunks(); i++ {
		for j := 0; j < rel.Chunk(i).Rows(); j++ {
			if row, ok := rel.Get(storage.TupleID{Chunk: uint32(i), Row: uint32(j)}); ok {
				rows = append(rows, row)
			}
		}
	}
	return rows
}

// orderRef is ORDER BY ... LIMIT over rows, written apart from the engine:
// a stable sort (NULLs first, Desc negates, values through cmp.Compare),
// then the first limit rows when limit is positive.
func orderRef(rows []types.Row, keys []OrderKey, limit int) []types.Row {
	out := append([]types.Row(nil), rows...)
	sort.SliceStable(out, func(a, b int) bool {
		for _, k := range keys {
			va, vb := out[a][k.Col], out[b][k.Col]
			var ord int
			switch {
			case va.IsNull() && vb.IsNull():
			case va.IsNull():
				ord = -1
			case vb.IsNull():
				ord = 1
			case va.Kind() == types.Int64:
				ord = cmp.Compare(va.Int(), vb.Int())
			case va.Kind() == types.Float64:
				ord = cmp.Compare(va.Float(), vb.Float())
			default:
				ord = cmp.Compare(va.Str(), vb.Str())
			}
			if k.Desc {
				ord = -ord
			}
			if ord != 0 {
				return ord < 0
			}
		}
		return false
	})
	if limit > 0 && limit < len(out) {
		out = out[:limit]
	}
	return out
}

// requireRows compares got with want row by row, in order.
func requireRows(t *testing.T, name string, want []types.Row, got *Result) {
	t.Helper()
	if got.NumRows() != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, got.NumRows(), len(want))
	}
	for i, row := range want {
		for c, v := range row {
			if g := got.Value(c, i); !g.Equal(v) {
				t.Fatalf("%s: row %d col %d = %v, want %v", name, i, c, g, v)
			}
		}
	}
}

// TestOrderByLimit holds ORDER BY ... LIMIT to orderRef over the
// relation's visible rows: tie-heavy and NULL-bearing keys with limits
// straddling the input size on both chains, a filter below the sort on one
// worker and on four, and double keys holding NaN, ±Inf and -0.0.
func TestOrderByLimit(t *testing.T) {
	t.Run("ties", func(t *testing.T) {
		rel := ordersRel(t, 3000, 1<<10, 2)
		rows := visibleRows(rel)
		// status (col 2) is a 4-value nullable string: maximal ties plus
		// NULLs first. qty (col 3) has 50 distinct values, so ties alone
		// decide which rows a limit keeps: scan order, as a stable sort.
		keySets := map[string][]OrderKey{
			"ties+nulls": {{Col: 2}, {Col: 3, Desc: true}},
			"desc+nulls": {{Col: 2, Desc: true}, {Col: 1}},
			"numeric":    {{Col: 1, Desc: true}, {Col: 0}},
			"all-tied":   {{Col: 3}},
		}
		for name, keys := range keySets {
			for _, limit := range []int{1, 7, 25, 2999, 3000, 5000} {
				want := orderRef(rows, keys, limit)
				for _, mode := range []ScanMode{ModeVectorizedSARG, ModeJIT} {
					got, err := Run(&OrderByNode{
						Child: &ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}},
						Keys:  keys,
						Limit: limit,
					}, Options{Mode: mode, Parallelism: 1})
					if err != nil {
						t.Fatal(err)
					}
					requireRows(t, fmt.Sprintf("%s limit=%d %v", name, limit, mode), want, got)
				}
			}
		}
	})
	t.Run("filtered", func(t *testing.T) {
		// The key list ends in the unique okey, a total order, so the
		// answer does not depend on how morsels fall to workers.
		rel := ordersRel(t, 4000, 1<<10, 3)
		keys := []OrderKey{{Col: 3, Desc: true}, {Col: 0}}
		var kept []types.Row
		for _, row := range visibleRows(rel) {
			if row[3].Int() >= 5 {
				kept = append(kept, row)
			}
		}
		want := orderRef(kept, keys, 40)
		for _, par := range []int{1, 4} {
			for _, mode := range []ScanMode{ModeVectorizedSARG, ModeJIT} {
				got, err := Run(&OrderByNode{
					Child: &FilterNode{
						Child: &ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}},
						Cond:  Cmp(types.Ge, Col(3), CInt(5)),
					},
					Keys:  keys,
					Limit: 40,
				}, Options{Mode: mode, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				requireRows(t, fmt.Sprintf("par=%d %v", par, mode), want, got)
			}
		}
	})
	t.Run("special-floats", func(t *testing.T) {
		// NULLs first, then NaN, then the numbers, -0.0 tied with +0.0;
		// under a comparison in which NaN ties with everything the sort
		// has no order to follow. k breaks every tie.
		rel := specialFloatsRel(t, 3000)
		rows := visibleRows(rel)
		for _, desc := range []bool{false, true} {
			keys := []OrderKey{{Col: 1, Desc: desc}, {Col: 0}}
			for _, limit := range []int{0, 5, 200} {
				want := orderRef(rows, keys, limit)
				for _, par := range []int{1, 2} {
					for _, mode := range []ScanMode{ModeVectorizedSARG, ModeJIT} {
						got, err := Run(&OrderByNode{
							Child: &ScanNode{Rel: rel, Cols: []int{0, 1}},
							Keys:  keys,
							Limit: limit,
						}, Options{Mode: mode, Parallelism: par})
						if err != nil {
							t.Fatal(err)
						}
						requireRows(t, fmt.Sprintf("desc=%v limit=%d par=%d %v", desc, limit, par, mode), want, got)
					}
				}
			}
		}
	})
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

func TestCompileStatsScanPathExplosion(t *testing.T) {
	// Figure 5's mechanism: JIT scans compile one code path per distinct
	// storage layout; vectorized scans compile exactly one.
	schema := types.NewSchema(
		types.Column{Name: "a", Kind: types.Int64},
		types.Column{Name: "b", Kind: types.Int64},
	)
	rel := storage.NewRelation(schema, 256)
	// Chunk 1: small domain (trunc1/trunc1); chunk 2: wide (trunc4);
	// chunk 3: constant (single) — three distinct layouts.
	mk := func(f func(i int) (int64, int64)) {
		cols := []core.ColumnData{
			{Kind: types.Int64, Ints: make([]int64, 256)},
			{Kind: types.Int64, Ints: make([]int64, 256)},
		}
		for i := 0; i < 256; i++ {
			cols[0].Ints[i], cols[1].Ints[i] = f(i)
		}
		if err := rel.BulkAppend(cols, 256); err != nil {
			t.Fatal(err)
		}
	}
	mk(func(i int) (int64, int64) { return int64(i), int64(i) })
	mk(func(i int) (int64, int64) { return int64(i) * 1000000, int64(i) })
	mk(func(i int) (int64, int64) { return 7, 7 })
	if err := rel.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		t.Fatal(err)
	}
	plan := func() Node { return &ScanNode{Rel: rel, Cols: []int{0, 1}} }

	jitPaths, err := CompileOnly(plan(), Options{Mode: ModeJIT})
	if err != nil {
		t.Fatal(err)
	}
	// 3 block layouts + 1 hot path.
	if jitPaths != 4 {
		t.Fatalf("JIT scan paths = %d, want 4", jitPaths)
	}
	vecPaths, err := CompileOnly(plan(), Options{Mode: ModeVectorized})
	if err != nil {
		t.Fatal(err)
	}
	if vecPaths != 1 {
		t.Fatalf("vectorized scan paths = %d, want 1", vecPaths)
	}
}

func TestScanWithDeletesAllModes(t *testing.T) {
	rel := ordersRel(t, 6000, 1<<12, 1)
	// Delete every 7th tuple, across frozen and hot chunks.
	deleted := 0
	for i := 0; i < 6000; i += 7 {
		tid := storage.TupleID{Chunk: uint32(i / (1 << 12)), Row: uint32(i % (1 << 12))}
		if rel.Delete(tid) {
			deleted++
		}
	}
	plan := func() Node {
		return &AggNode{
			Child: &ScanNode{Rel: rel, Cols: []int{0}},
			Aggs:  []AggSpec{{Func: AggCount}},
		}
	}
	for _, mode := range allModes {
		res, err := Run(plan(), Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Cols[0].Ints[0]; got != int64(6000-deleted) {
			t.Fatalf("%v: count = %d, want %d", mode, got, 6000-deleted)
		}
	}
}

func TestPredicateColumnMustBeProjected(t *testing.T) {
	rel := ordersRel(t, 100, 0, 0)
	plan := &ScanNode{
		Rel:   rel,
		Cols:  []int{0},
		Preds: []core.Predicate{{Col: 3, Op: types.Ge, Lo: types.IntValue(1)}},
	}
	if _, err := Run(plan, Options{Mode: ModeVectorizedSARG}); err == nil {
		t.Fatal("expected error for unprojected predicate column")
	}
}

// requireExactResult compares rendered results including row order; serial
// executions are deterministic, so the batch and tuple paths must agree
// exactly.
func requireExactResult(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if a.String() != b.String() {
		t.Fatalf("%s: results differ:\n%s\nvs\n%s", name, a.String(), b.String())
	}
}

// TestBatchSinksMatchTupleExactly drives the batch-at-a-time chain against
// ModeJIT over aggregation shapes the TPC-H subset does not cover: nullable
// string group-bys, float and multi-column group keys, COUNT(col), MIN/MAX
// over every kind, and residual filters in non-pushdown mode. What stays
// independent of the batch chain is ModeJIT's scan, filter, map and join
// probe; the sinks are shared (ModeJIT's batcher feeds them), so this holds
// the vectorized scan and chain, and the batches they hand the sinks, to
// the compiled tuple scan and chain.
func TestBatchSinksMatchTupleExactly(t *testing.T) {
	rel := ordersRel(t, 30000, 1<<13, 2) // frozen blocks + hot tail
	plans := map[string]func() Node{
		"group-by-string": func() Node {
			return &AggNode{
				Child:   &ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}},
				GroupBy: []int{2},
				Aggs: []AggSpec{
					{Func: AggCount},
					{Func: AggCountCol, Arg: Col(2)},
					{Func: AggSum, Arg: Col(1)},
					{Func: AggAvg, Arg: Col(3)},
					{Func: AggMin, Arg: Col(0)},
					{Func: AggMax, Arg: Col(1)},
					{Func: AggMin, Arg: Col(2)},
					{Func: AggMax, Arg: Col(2)},
				},
			}
		},
		"group-by-float-and-int": func() Node {
			return &AggNode{
				Child: &FilterNode{
					Child: &ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}},
					Cond:  Cmp(types.Lt, Col(1), CFloat(50)),
				},
				GroupBy: []int{1, 3},
				Aggs:    []AggSpec{{Func: AggCount}, {Func: AggMax, Arg: Col(0)}},
			}
		},
		"no-group-by": func() Node {
			return &AggNode{
				Child: &ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}, Preds: []core.Predicate{
					{Col: 3, Op: types.Between, Lo: types.IntValue(5), Hi: types.IntValue(40)},
				}},
				Aggs: []AggSpec{
					{Func: AggCount},
					{Func: AggCountCol, Arg: Col(2)},
					{Func: AggSum, Arg: Mul(Col(1), Col(3))},
					{Func: AggAvg, Arg: Col(1)},
					{Func: AggMin, Arg: Col(2)},
					{Func: AggMax, Arg: Col(2)},
					{Func: AggMin, Arg: Col(1)},
					{Func: AggMax, Arg: Col(3)},
				},
			}
		},
		"materialize-with-map": func() Node {
			return &MapNode{
				Child: &FilterNode{
					Child: &ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}},
					Cond: Or(
						Cmp(types.Eq, Col(2), CStr("paid")),
						IsNullExpr{E: Col(2)},
					),
				},
				// Duplicate column references: the batch map must not alias
				// one buffer twice (downstream compaction safety).
				Exprs: []Expr{Col(0), Col(0), Add(Col(0), Col(3)), Col(2)},
			}
		},
	}
	for name, mk := range plans {
		tuple, err := Run(mk(), Options{Mode: ModeJIT})
		if err != nil {
			t.Fatalf("%s jit: %v", name, err)
		}
		for _, mode := range []ScanMode{ModeVectorized, ModeVectorizedSARG, ModeVectorizedSARGPSMA} {
			batch, err := Run(mk(), Options{Mode: mode})
			if err != nil {
				t.Fatalf("%s %v batch: %v", name, mode, err)
			}
			if batch.NumRows() == 0 {
				t.Fatalf("%s %v: empty result", name, mode)
			}
			requireExactResult(t, fmt.Sprintf("%s %v", name, mode), tuple, batch)
			small, err := Run(mk(), Options{Mode: mode, VectorSize: 300})
			if err != nil {
				t.Fatal(err)
			}
			requireExactResult(t, fmt.Sprintf("%s %v vec300", name, mode), tuple, small)
		}
	}
}

// TestBatchJoinStringKeysAndNulls exercises the batch probe with
// non-integer join keys, including NULL probe keys, for inner, semi and
// anti joins, against ModeJIT's tuple chain.
func TestBatchJoinStringKeysAndNulls(t *testing.T) {
	orders := ordersRel(t, 12000, 1<<12, 2)
	// Build side keyed by status strings; "open" appears twice so inner
	// joins emit multiple matches per probe row.
	schema := types.NewSchema(
		types.Column{Name: "status", Kind: types.String},
		types.Column{Name: "weight", Kind: types.Int64},
	)
	build := storage.NewRelation(schema, 1<<12)
	cols := []core.ColumnData{
		{Kind: types.String, Strs: []string{"open", "paid", "open", "missing"}},
		{Kind: types.Int64, Ints: []int64{1, 2, 3, 4}},
	}
	if err := build.BulkAppend(cols, 4); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []JoinKind{InnerJoin, SemiJoin, AntiJoin} {
		mk := func() Node {
			return &JoinNode{
				Build:     &ScanNode{Rel: build, Cols: []int{0, 1}},
				Probe:     &ScanNode{Rel: orders, Cols: []int{0, 2, 3}},
				BuildKeys: []int{0},
				ProbeKeys: []int{1}, // status: nullable string key
				Kind:      kind,
			}
		}
		tuple, err := Run(mk(), Options{Mode: ModeJIT})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []ScanMode{ModeVectorized, ModeVectorizedSARG} {
			batch, err := Run(mk(), Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if batch.NumRows() == 0 {
				t.Fatalf("join kind %v: empty result", kind)
			}
			requireExactResult(t, fmt.Sprintf("join kind %v %v", kind, mode), tuple, batch)
		}
	}
}

// TestParallelErrorStopsWorkers: when one morsel fails, the pipeline
// returns its error, and the stop flag keeps the other workers from
// draining the backlog — once it is set, each claims at most one more
// morsel. The count is the engine's, not the scheduler's: the healthy
// worker's sink holds its first morsel open until the flag is set, so
// however the two goroutines are scheduled, the failing morsel and that
// one are all the executor's morsel counter may show.
func TestParallelErrorStopsWorkers(t *testing.T) {
	const chunkRows = 1 << 10
	rel := ordersRel(t, 400*chunkRows, chunkRows, 1) // chunk 0 frozen
	// Fault-inject exactly one morsel: evict the frozen chunk to a block
	// store, then destroy the store directory so its reload fails.
	dir := t.TempDir()
	bs, err := blockstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rel.SetBlockStore(bs, 0, nil)
	if err = rel.FlushFrozen(); err != nil {
		t.Fatal(err)
	}
	if ok, eerr := rel.EvictChunk(0); eerr != nil || !ok {
		t.Fatalf("evict: ok=%v err=%v", ok, eerr)
	}
	if err = os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	plan := &ScanNode{Rel: rel, Cols: []int{0, 3}}
	opt := Options{Mode: ModeVectorizedSARG, Parallelism: 2, Profile: true}
	ex, err := newExecutor(plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	ex.prof, _ = newProfiler(plan, opt)
	err = ex.runPipeline(plan, func() pipeSink {
		return pipeSink{batch: func(*core.Batch) {
			for !ex.stop.Load() {
				runtime.Gosched()
			}
		}}
	})
	if err == nil {
		t.Fatal("expected the broken chunk's reload error to propagate")
	}
	// Chunk 0 heads the queue, so whichever worker claims it fails before
	// producing a row.
	var morsels uint64
	for _, w := range ex.prof.finish(0).Workers {
		morsels += w.Morsels
	}
	if morsels > 2 {
		t.Fatalf("workers processed %d of 400 morsels after one failed; the stop flag is not stopping the backlog", morsels)
	}
}

// TestJITBatcherHandsOnMorselBatches pins the batcher that ends ModeJIT's
// tuple chain: over frozen chunks, hot chunks and deleted rows it hands
// the sink every visible row, in batches of 1 to VectorSize rows that never
// span two morsels, with the columns the sink does not read left empty.
func TestJITBatcherHandsOnMorselBatches(t *testing.T) {
	const chunkRows, vecSize = 256, 5
	rel := ordersRel(t, 1000, chunkRows, 2) // chunks 0, 1 frozen; 2, 3 hot
	visible := 1000
	for i := 0; i < 1000; i += 7 {
		if rel.Delete(storage.TupleID{Chunk: uint32(i / chunkRows), Row: uint32(i % chunkRows)}) {
			visible--
		}
	}
	// The aggregation reads okey and price: status and qty are dead.
	scan := &ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}}
	plan := &AggNode{Child: scan, GroupBy: []int{0}, Aggs: []AggSpec{{Func: AggSum, Arg: Col(1)}}}
	ex, err := newExecutor(plan, Options{Mode: ModeJIT, VectorSize: vecSize, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	rows, batches := 0, 0
	err = ex.runPipeline(scan, func() pipeSink {
		return pipeSink{batch: func(b *core.Batch) {
			batches++
			rows += b.N
			if b.N < 1 || b.N > vecSize {
				t.Errorf("batch %d holds %d rows, want 1..%d", batches, b.N, vecSize)
			}
			for r, okey := range b.Cols[0].Ints[:b.N] {
				if okey/chunkRows != b.Cols[0].Ints[0]/chunkRows {
					t.Errorf("batch %d spans two morsels: okey %d at row %d after okey %d", batches, okey, r, b.Cols[0].Ints[0])
				}
			}
			for _, c := range []int{2, 3} {
				if col := &b.Cols[c]; len(col.Ints)+len(col.Strs)+len(col.Nulls) != 0 {
					t.Errorf("batch %d: dead column %d holds cells", batches, c)
				}
			}
		}}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rows != visible {
		t.Fatalf("the sink got %d rows in %d batches, want the %d visible", rows, batches, visible)
	}
}

// foreignExpr is an expression of a type the front end does not know.
type foreignExpr struct{}

func (foreignExpr) isExpr() {}

// TestCompileFailureIsTheQuerysError: an expression the front end rejects
// is the query's error — the same one from every mode, chain and degree of
// parallelism and from each place a plan holds an expression (scan
// conjunct, filter, map, aggregate argument) — rather than the query
// running some other way; and the same plan with a well-formed expression
// runs on either chain (every vectorized mode and ModeJIT) and agrees. (Which of two compilers refused is no
// longer a question: neither can. TestMalformedExprIsAnError in the root
// package walks the malformed expressions the exported constructors can
// build.)
func TestCompileFailureIsTheQuerysError(t *testing.T) {
	rel := ordersRel(t, 3000, 1<<10, 1)
	scan := func(filter Expr) *ScanNode { return &ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}, Filter: filter} }
	plans := map[string]func(e Expr) Node{
		"scan-conjunct": func(e Expr) Node { return scan(And(Cmp(types.Ge, Col(3), CInt(10)), e)) },
		"filter":        func(e Expr) Node { return &FilterNode{Child: scan(nil), Cond: e} },
		"map":           func(e Expr) Node { return &MapNode{Child: scan(nil), Exprs: []Expr{Col(0), e}} },
		"aggregate": func(e Expr) Node {
			return &AggNode{Child: scan(nil), GroupBy: []int{2}, Aggs: []AggSpec{{Func: AggCountCol, Arg: e}}}
		},
	}
	want := ""
	for name, mk := range plans {
		for _, mode := range []ScanMode{ModeJIT, ModeVectorized, ModeVectorizedSARG, ModeVectorizedSARGPSMA} {
			for _, opt := range []Options{{Mode: mode}, {Mode: mode, Parallelism: 3, Profile: true}} {
				_, err := Run(mk(foreignExpr{}), opt)
				if err == nil {
					t.Fatalf("%s %+v: the foreign expression ran", name, opt)
				}
				if want == "" {
					want = err.Error()
				}
				if err.Error() != want {
					t.Fatalf("%s %+v: error %q, elsewhere %q", name, opt, err, want)
				}
			}
			if mode == ModeJIT {
				continue
			}
			// The same plan with an expression the front end knows runs on
			// either chain and agrees.
			valid := Cmp(types.Lt, Col(3), CInt(40))
			batch, err := Run(mk(valid), Options{Mode: mode})
			if err != nil {
				t.Fatalf("%s %v: %v", name, mode, err)
			}
			tuple, err := Run(mk(valid), Options{Mode: ModeJIT})
			if err != nil {
				t.Fatalf("%s %v tuple: %v", name, mode, err)
			}
			requireExactResult(t, name, tuple, batch)
		}
	}
	// A plan the front end rejects outside any expression — a sort key
	// past the child's columns, an aggregate function that does not exist
	// — fails the same way, and before a worker goroutine could panic.
	malformed := map[string]Node{
		"sort-key":      &OrderByNode{Child: scan(nil), Keys: []OrderKey{{Col: 7}}},
		"top-k-key":     &OrderByNode{Child: scan(nil), Keys: []OrderKey{{Col: 0}, {Col: 7}}, Limit: 5},
		"aggregate-fn":  &AggNode{Child: scan(nil), GroupBy: []int{2}, Aggs: []AggSpec{{Func: AggFunc(42), Arg: Col(3)}}},
		"negative-sort": &OrderByNode{Child: scan(nil), Keys: []OrderKey{{Col: -1}}, Limit: 5},
	}
	for name, plan := range malformed {
		want := ""
		for _, mode := range []ScanMode{ModeJIT, ModeVectorized, ModeVectorizedSARG, ModeVectorizedSARGPSMA} {
			for _, opt := range []Options{{Mode: mode}, {Mode: mode, Parallelism: 3, Profile: true}} {
				_, err := Run(plan, opt)
				if err == nil {
					t.Fatalf("%s %+v: the malformed plan ran", name, opt)
				}
				if want == "" {
					want = err.Error()
				}
				if err.Error() != want {
					t.Fatalf("%s %+v: error %q, elsewhere %q", name, opt, err, want)
				}
			}
		}
	}
}

// TestJoinProfileReportsBuildTime: a profiled join accounts for its build
// pipeline — rows and wall time — on the join's own row, for every join
// kind and on both chains, and so does an inner join on the probe side of
// a semi join, whose key pass runs that probe side before the semi join
// builds.
func TestJoinProfileReportsBuildTime(t *testing.T) {
	orders := ordersRel(t, 6000, 1<<12, 1)
	customers := customersRel(t, 1500)
	join := func(kind JoinKind) *JoinNode {
		return &JoinNode{
			Build:     &ScanNode{Rel: customers, Cols: []int{0, 1}},
			Probe:     &ScanNode{Rel: orders, Cols: []int{0, 1}},
			BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: kind,
		}
	}
	plans := map[string]*JoinNode{
		"inner": join(InnerJoin), "semi": join(SemiJoin), "anti": join(AntiJoin),
		"semi over inner": {
			Build: &ScanNode{Rel: orders, Cols: []int{0}}, Probe: join(InnerJoin),
			BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: SemiJoin,
		},
	}
	for name, plan := range plans {
		_, stacked := plan.Probe.(*JoinNode)
		for _, mode := range []ScanMode{ModeVectorizedSARG, ModeJIT} {
			res, err := Run(plan, Options{Mode: mode, Profile: true})
			if err != nil {
				t.Fatal(err)
			}
			p := res.Profile
			if p.Fallback != "" {
				t.Fatalf("%s %v: Fallback=%q", name, mode, p.Fallback)
			}
			var joins int
			var built time.Duration
			for _, op := range p.Operators {
				if !op.ProbeDetail {
					continue
				}
				joins++
				built += op.BuildTime
				// ModeJIT runs no key pass: the stacked semi join builds
				// every order, not only the 1 500 its probe side can match.
				rows := uint64(1500)
				if stacked && mode == ModeJIT && op.Name == "semi-join" {
					rows = 6000
				}
				if op.BuildRows != rows || op.BuildTime <= 0 {
					t.Fatalf("%s %v: join row %+v", name, mode, op)
				}
			}
			want := 1
			if stacked {
				want = 2
			}
			if joins != want || built > p.Wall {
				t.Fatalf("%s %v: %d join rows (want %d), build time %v of wall %v", name, mode, joins, want, built, p.Wall)
			}
			if !strings.Contains(p.String(), "build-time=") {
				t.Fatalf("rendered profile omits the build time:\n%s", p)
			}
		}
	}
}

// intRel loads a one-column relation of int64 keys.
func intRel(t *testing.T, keys []int64) *storage.Relation {
	t.Helper()
	rel := storage.NewRelation(types.NewSchema(types.Column{Name: "k", Kind: types.Int64}), 64)
	if err := rel.BulkAppend([]core.ColumnData{{Kind: types.Int64, Ints: keys}}, len(keys)); err != nil {
		t.Fatal(err)
	}
	return rel
}

// TestKeyPassAndProbeReadOneSnapshot: an anti join's build is filtered by
// the probe keys its key pass saw, so the probe must read the snapshot
// that pass read. A probe row inserted between the two, whose key 50 the
// build side holds but the filter (keys 10..19) dropped, would otherwise
// find no match and come out. The same holds one level up: when a second
// anti join's key pass runs the first over the same probe relation after
// the row arrived, both passes and the probe still read the first pass's
// snapshot (the second join's build, keys 100..199, would let 50 through).
func TestKeyPassAndProbeReadOneSnapshot(t *testing.T) {
	keys := func(lo, n int) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = int64(lo + i)
		}
		return ks
	}
	for _, mode := range []ScanMode{ModeVectorized, ModeVectorizedSARG, ModeVectorizedSARGPSMA} {
		for _, stacked := range []bool{false, true} {
			probe := intRel(t, keys(10, 10))
			first := &JoinNode{
				Build:     &ScanNode{Rel: intRel(t, keys(0, 100)), Cols: []int{0}},
				Probe:     &ScanNode{Rel: probe, Cols: []int{0}},
				BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: AntiJoin,
			}
			plan := first
			if stacked {
				plan = &JoinNode{
					Build: &ScanNode{Rel: intRel(t, keys(100, 100)), Cols: []int{0}}, Probe: first,
					BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: AntiJoin,
				}
			}
			ex, err := newExecutor(plan, Options{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			if _, err = ex.prepareBuilds(first); err != nil {
				t.Fatal(err)
			}
			if n := ex.builds[first].entries; n != 10 {
				t.Fatalf("%v: the filtered build holds %d keys, want the probe side's 10", mode, n)
			}
			if _, err = probe.Insert(types.Row{types.IntValue(50)}); err != nil {
				t.Fatal(err)
			}
			res, err := ex.run(plan)
			if err != nil {
				t.Fatal(err)
			}
			if res.NumRows() != 0 {
				t.Fatalf("%v stacked=%v: the anti join emitted %d rows (key %d), want none", mode, stacked, res.NumRows(), res.Cols[0].Ints[0])
			}
		}
	}
}

// TestDenseKeysTakeTheFront pins the density rule of a key-passed join
// (keyFilter.span): its table is keyed — entries at dir[key−lo], no hash
// slots — iff the probe keys' span hi−lo+1 is at most 4 × their count n.
// n probe keys whose span is exactly 4n take the front, for inner, semi
// and anti joins; span 4n+1 hashes. A two-column key and ModeJIT, which
// have no key pass, always hash.
func TestDenseKeysTakeTheFront(t *testing.T) {
	const n = 100
	probeKeys := func(hi int64) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = 4 * int64(i)
		}
		ks[n-1] = hi
		return ks
	}
	buildKeys := make([]int64, 4*n+2)
	for i := range buildKeys {
		buildKeys[i] = int64(i)
	}
	build := intRel(t, buildKeys)
	two := func(keys []int64) *storage.Relation {
		rel := storage.NewRelation(types.NewSchema(types.Column{Name: "a", Kind: types.Int64}, types.Column{Name: "b", Kind: types.Int64}), 64)
		if err := rel.BulkAppend([]core.ColumnData{{Kind: types.Int64, Ints: keys}, {Kind: types.Int64, Ints: keys}}, len(keys)); err != nil {
			t.Fatal(err)
		}
		return rel
	}
	cases := []struct {
		name  string
		hi    int64 // the greatest probe key: the span is hi+1
		two   bool
		mode  ScanMode
		keyed bool
	}{
		{"span 4n", 4*n - 1, false, ModeVectorizedSARG, true},
		{"span 4n+1", 4 * n, false, ModeVectorizedSARG, false},
		{"span 4n, two keys", 4*n - 1, true, ModeVectorizedSARG, false},
		{"span 4n, jit", 4*n - 1, false, ModeJIT, false},
	}
	for _, tc := range cases {
		for _, kind := range []JoinKind{InnerJoin, SemiJoin, AntiJoin} {
			plan := &JoinNode{Build: &ScanNode{Rel: build, Cols: []int{0}}, Probe: &ScanNode{Rel: intRel(t, probeKeys(tc.hi)), Cols: []int{0}},
				BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: kind}
			if tc.two {
				plan.Build = &ScanNode{Rel: two(buildKeys), Cols: []int{0, 1}}
				plan.Probe = &ScanNode{Rel: two(probeKeys(tc.hi)), Cols: []int{0, 1}}
				plan.BuildKeys, plan.ProbeKeys = []int{0, 1}, []int{0, 1}
			}
			ex, err := newExecutor(plan, Options{Mode: tc.mode})
			if err != nil {
				t.Fatal(err)
			}
			ht, _, err := ex.build(plan)
			if err != nil {
				t.Fatal(err)
			}
			if ht.keyed != tc.keyed || (len(ht.dir) == int(tc.hi)+1) != tc.keyed || (ht.slots == nil) != tc.keyed {
				t.Fatalf("%s, kind %d: keyed %v, front of %d, %d slots; want keyed %v", tc.name, kind, ht.keyed, len(ht.dir), len(ht.slots), tc.keyed)
			}
			if want := n; ht.entries != want && tc.keyed {
				t.Fatalf("%s, kind %d: %d entries, want %d", tc.name, kind, ht.entries, want)
			}
		}
	}
}

// TestInnerJoinBuildCopiesRowsOnce: an inner-join build copies each kept
// row once, into segments allocated once, so what it allocates is the kept
// rows and the table, plus a little: at most 1.25 × (kept-row bytes +
// table bytes). A build that grows its rows by doubling and concatenates
// the workers' rows allocates about twice that.
func TestInnerJoinBuildCopiesRowsOnce(t *testing.T) {
	const rows = 100_000
	kinds := []types.Kind{types.Int64, types.Int64, types.Int64, types.Float64, types.String, types.Int64}
	cols := make([]types.Column, len(kinds))
	data := make([]core.ColumnData, len(kinds))
	rowBytes := 0
	for c, k := range kinds {
		cols[c] = types.Column{Name: fmt.Sprintf("c%d", c), Kind: k}
		data[c].Kind = k
		switch k {
		case types.Int64:
			data[c].Ints = make([]int64, rows)
			for r := range data[c].Ints {
				data[c].Ints[r] = int64(r * (c + 1))
			}
			rowBytes += 8 + 1
		case types.Float64:
			data[c].Floats = make([]float64, rows)
			rowBytes += 8 + 1
		default:
			data[c].Strs = make([]string, rows)
			rowBytes += 16 + 1
		}
	}
	build := storage.NewRelation(types.NewSchema(cols...), 1<<14)
	if err := build.BulkAppend(data, rows); err != nil {
		t.Fatal(err)
	}
	// The probe side holds every build key, so the key pass keeps every row.
	probe := storage.NewRelation(types.NewSchema(cols[0]), 1<<14)
	if err := probe.BulkAppend(data[:1], rows); err != nil {
		t.Fatal(err)
	}
	plan := &JoinNode{
		Build:     &ScanNode{Rel: build, Cols: []int{0, 1, 2, 3, 4, 5}},
		Probe:     &ScanNode{Rel: probe, Cols: []int{0}},
		BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: InnerJoin,
	}
	for _, par := range []int{1, 2} {
		ex, err := newExecutor(plan, Options{Mode: ModeVectorizedSARG, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ht, kept, err := ex.build(plan)
		runtime.ReadMemStats(&after)
		if err != nil || kept != rows {
			t.Fatalf("par %d: %d rows kept, err %v", par, kept, err)
		}
		// Every array the table holds: slots, direct front, row chains,
		// per-entry first rows and stored key cells.
		table := 12*len(ht.slots) + 4*len(ht.dir) + 4*len(ht.next) + 4*cap(ht.first)
		for _, k := range ht.keys {
			table += cap(k.gNull) + 8*cap(k.gInt) + 16*cap(k.gStr)
		}
		got, bound := after.TotalAlloc-before.TotalAlloc, uint64(1.25*float64(rows*rowBytes+table))
		t.Logf("par %d: %d bytes allocated, bound %d", par, got, bound)
		if got > bound {
			t.Fatalf("par %d: the build allocated %d bytes for %d kept-row bytes and %d table bytes; bound %d", par, got, rows*rowBytes, table, bound)
		}
	}
}

// TestDeadColumnsAreNeitherUnpackedNorKept: a map above an inner join
// reads two probe columns; the probe scan projects a third, and the build
// side's non-key columns nobody reads. The probe scan unpacks the two live
// columns only, and the build keeps segments for its key column only —
// while the answer is the one ModeJIT's chain, which loads every column,
// gives.
func TestDeadColumnsAreNeitherUnpackedNorKept(t *testing.T) {
	const rows = 1000 // one hot chunk, one batch
	join := &JoinNode{
		Build:     &ScanNode{Rel: ordersRel(t, rows, 1<<12, 0), Cols: []int{0, 1, 2, 3}},
		Probe:     &ScanNode{Rel: ordersRel(t, rows, 1<<12, 0), Cols: []int{0, 1, 3}},
		BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: InnerJoin,
	}
	plan := &MapNode{Child: join, Exprs: []Expr{Col(0), Col(1)}}
	want, err := Run(plan, Options{Mode: ModeJIT})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Mode: ModeVectorizedSARG, Profile: true}
	got, err := Run(plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "map over inner join", want, got)
	if got.NumRows() != rows {
		t.Fatalf("%d rows, want %d", got.NumRows(), rows)
	}
	if n := got.Profile.Scan.ColumnUnpacks; n != 2 {
		t.Fatalf("the probe scan unpacked %d columns, want the 2 live ones", n)
	}
	ex, err := newExecutor(plan, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.prepareBuilds(join); err != nil {
		t.Fatal(err)
	}
	for c, col := range ex.builds[join].rows {
		segs := len(col.ints) + len(col.floats) + len(col.strs) + len(col.nulls)
		if (segs > 0) != (c == 0) {
			t.Fatalf("build column %d holds %d segments; only the key column 0 is live", c, segs)
		}
	}
}

package exec

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// Columns of codedRel.
const (
	cS1   = iota // string, 3–5 values per chunk: dictionary codes
	cS2          // string, 2 values
	cI1          // int 1..15: truncation codes
	cI1b         // int 0..200: truncation codes
	cI2          // int of three far-apart values: dictionary codes
	cNS          // string, NULL in chunks 0 and 3 only
	cV           // int argument
	cF           // float argument: whole numbers and NaN
	cOKey        // int join key, 0..n/8
	codedCols
)

// codedRel builds six 4 Ki-row chunks: 0 frozen, 1 frozen sorted by cI1,
// 2 frozen and evicted to a block store (evict re-evicts it), 3 frozen, 4
// and 5 hot. s1 = "Z" occurs in chunk 3 only and "Q" in chunk 4 only, so
// those groups are first seen late.
func codedRel(t *testing.T) (rel *storage.Relation, evict func()) {
	t.Helper()
	const chunkCap, chunks = 1 << 12, 6
	const n = chunkCap * chunks
	kinds := []types.Kind{types.String, types.String, types.Int64, types.Int64, types.Int64, types.String, types.Int64, types.Float64, types.Int64}
	cols := make([]core.ColumnData, codedCols)
	schema := make([]types.Column, codedCols)
	for c, k := range kinds {
		schema[c] = types.Column{Name: fmt.Sprintf("c%d", c), Kind: k, Nullable: c == cNS}
		cols[c] = core.ColumnData{Kind: k, Ints: make([]int64, n), Floats: make([]float64, n), Strs: make([]string, n)}
	}
	cols[cNS].Nulls = make([]bool, n)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		chunk := i / chunkCap
		cols[cS1].Strs[i] = []string{"A", "N", "R"}[r.Intn(3)]
		if r.Intn(50) == 0 && (chunk == 3 || chunk == 4) {
			cols[cS1].Strs[i] = map[int]string{3: "Z", 4: "Q"}[chunk]
		}
		cols[cS2].Strs[i] = []string{"F", "O"}[r.Intn(2)]
		cols[cI1].Ints[i] = int64(1 + r.Intn(15))
		cols[cI1b].Ints[i] = int64(r.Intn(201))
		cols[cI2].Ints[i] = []int64{-7_000_000, 12, 9_000_000}[r.Intn(3)]
		cols[cNS].Strs[i] = []string{"x", "y"}[r.Intn(2)]
		cols[cNS].Nulls[i] = (chunk == 0 || chunk == 3) && i%7 == 0
		cols[cV].Ints[i] = int64(r.Intn(1000) - 500)
		cols[cF].Floats[i] = float64(r.Intn(2000) - 1000)
		if r.Intn(300) == 0 {
			cols[cF].Floats[i] = math.NaN()
		}
		cols[cOKey].Ints[i] = int64(i / 8)
	}
	rel = storage.NewRelation(types.NewSchema(schema...), chunkCap)
	if err := rel.BulkAppend(cols, n); err != nil {
		t.Fatal(err)
	}
	for i, sortBy := range []int{-1, cI1, -1, -1} {
		if err := rel.FreezeChunk(i, core.FreezeOptions{SortBy: sortBy}); err != nil {
			t.Fatal(err)
		}
	}
	store, err := blockstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rel.SetBlockStore(store, 0, nil)
	evict = func() {
		if _, err := rel.EvictChunk(2); err != nil {
			t.Fatal(err)
		}
	}
	return rel, evict
}

// bitRows renders a result row by row, floats as bit patterns.
func bitRows(res *Result) []string {
	out := make([]string, res.NumRows())
	for i := range out {
		var sb strings.Builder
		for _, v := range res.Row(i) {
			if v.Kind() == types.Float64 && !v.IsNull() {
				fmt.Fprintf(&sb, "f%016x|", math.Float64bits(v.Float()))
			} else {
				fmt.Fprintf(&sb, "%v|", v)
			}
		}
		out[i] = sb.String()
	}
	return out
}

// TestCodedAggregationMatchesTuple: an aggregation directly on a scan takes
// a coded chunk's keys as codes, and on every chunk mix and key shape its
// result equals ModeJIT's (the tuple scan and chain) bit for bit — in the same
// first-seen group order serially, as the same rows with three workers
// (the folds are exact: integer sums, NaN-ruled MIN/MAX). Where a chunk
// cannot be coded (hot, a NULL-able key, a wide domain) or something
// stands between scan and aggregation (the semi-join probe of Q4's shape)
// the keys travel as values.
func TestCodedAggregationMatchesTuple(t *testing.T) {
	rel, evict := codedRel(t)
	other, _ := codedRel(t)
	aggs := []AggSpec{
		{Func: AggCount}, {Func: AggSum, Arg: Col(cV)}, {Func: AggMin, Arg: Col(cF)},
		{Func: AggMax, Arg: Col(cF)}, {Func: AggMin, Arg: Col(cV)}, {Func: AggAvg, Arg: Col(cF)},
	}
	all := make([]int, codedCols)
	for i := range all {
		all[i] = i
	}
	scan := func(preds ...core.Predicate) *ScanNode { return &ScanNode{Rel: rel, Cols: all, Preds: preds} }
	shipped := core.Predicate{Col: cV, Op: types.Le, Lo: types.IntValue(400)}
	cases := []struct {
		name  string
		plan  *AggNode
		coded bool
	}{
		{"string keys", &AggNode{Child: scan(shipped), GroupBy: []int{cS1, cS2}, Aggs: aggs}, true},
		{"integer keys", &AggNode{Child: scan(), GroupBy: []int{cI1, cI2}, Aggs: aggs}, true},
		{"one integer key", &AggNode{Child: scan(shipped), GroupBy: []int{cI1}, Aggs: aggs}, true},
		{"nullable key", &AggNode{Child: scan(), GroupBy: []int{cS1, cNS}, Aggs: aggs}, true},
		{"three keys", &AggNode{Child: scan(), GroupBy: []int{cS2, cI1, cS1}, Aggs: aggs}, true},
		{"over the cap", &AggNode{Child: scan(), GroupBy: []int{cI1, cI1b, cS1}, Aggs: aggs}, false},
		{"key read by an argument", &AggNode{Child: scan(), GroupBy: []int{cS1, cI1}, Aggs: append([]AggSpec{
			{Func: AggMin, Arg: Col(cS1)}, {Func: AggMax, Arg: Col(cS1)}, {Func: AggSum, Arg: Col(cI1)}}, aggs...)}, true},
		{"key read by a residual conjunct", &AggNode{Child: &ScanNode{Rel: rel, Cols: all,
			Filter: And(Cmp(types.Ne, Col(cS1), CStr("N")), Cmp(types.Lt, Col(cI1), CInt(9)))},
			GroupBy: []int{cS1, cI1}, Aggs: aggs}, true},
		{"above a semi-join", &AggNode{Child: &JoinNode{
			Build:     &ScanNode{Rel: other, Cols: []int{cOKey, cI1}, Filter: Cmp(types.Lt, Col(1), CInt(4))},
			Probe:     scan(),
			BuildKeys: []int{0}, ProbeKeys: []int{cOKey}, Kind: SemiJoin,
		}, GroupBy: []int{cS1}, Aggs: aggs}, false},
	}
	for _, tc := range cases {
		for _, mode := range []ScanMode{ModeVectorized, ModeVectorizedSARGPSMA} {
			for _, par := range []int{1, 3} {
				name := fmt.Sprintf("%s/%v/par%d", tc.name, mode, par)
				evict()
				want, err := Run(tc.plan, Options{Mode: ModeJIT, Parallelism: par})
				if err != nil {
					t.Fatalf("%s (jit): %v", name, err)
				}
				evict()
				got, err := Run(tc.plan, Options{Mode: mode, Parallelism: par})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				w, g := bitRows(want), bitRows(got)
				if par > 1 {
					sort.Strings(w)
					sort.Strings(g)
				}
				if len(w) < 2 || len(g) != len(w) {
					t.Fatalf("%s: %d rows, want %d", name, len(g), len(w))
				}
				for i := range w {
					if g[i] != w[i] {
						t.Fatalf("%s: row %d is %s, want %s", name, i, g[i], w[i])
					}
				}
				evict()
				ex, err := newExecutor(tc.plan, Options{Mode: mode, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				workers, err := ex.aggregate(tc.plan)
				if err != nil {
					t.Fatal(err)
				}
				coded := false
				for _, a := range workers {
					coded = coded || a.dir != nil
				}
				if coded != tc.coded {
					t.Fatalf("%s: keys travelled as codes: %v, want %v", name, coded, tc.coded)
				}
			}
		}
	}
}

// TestCodedConsumeBatchAllocatesNothing: once warm, folding coded batches
// allocates nothing — neither per batch nor when a batch from another
// block clears the code table, and an integer SUM neither over the range
// the scan stamped on its column nor over one without, which a
// MinMaxInt64 pass bounds.
func TestCodedConsumeBatchAllocatesNothing(t *testing.T) {
	const n = 1000
	block := func(seed int64) *core.Block {
		r := rand.New(rand.NewSource(seed))
		cols := []core.ColumnData{
			{Kind: types.String, Strs: make([]string, n)},
			{Kind: types.Int64, Ints: make([]int64, n)},
			{Kind: types.Int64, Ints: make([]int64, n)},
		}
		for i := 0; i < n; i++ {
			cols[0].Strs[i] = []string{"A", "N", "R"}[r.Intn(3)]
			cols[1].Ints[i] = int64(1 + r.Intn(7))
			cols[2].Ints[i] = r.Int63n(1000)
		}
		b, err := core.Freeze(cols, n, core.FreezeOptions{SortBy: -1})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	kinds := []types.Kind{types.String, types.Int64, types.Int64}
	batches := make([]*core.Batch, 3)
	for i := range batches[:2] {
		sc, err := core.NewScanner(block(int64(i)), core.ScanSpec{Project: []int{0, 1, 2}, Codes: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		m, _ := sc.NextMatches()
		if !sc.Coded() {
			t.Fatal("block not coded")
		}
		batches[i] = &core.Batch{N: len(m), Pos: m}
		sc.UnpackColumn(batches[i], 2, m)
		sc.UnpackCodes(batches[i], m)
		if c := batches[i].Cols[2]; !c.Ranged || c.Lo < 0 || c.Hi >= 1000 {
			t.Fatalf("block %d: the summed column's range is %v [%d, %d]", i, c.Ranged, c.Lo, c.Hi)
		}
	}
	// The first block's rows again, with no range on the summed column.
	unranged := *batches[0]
	unranged.Cols = slices.Clone(unranged.Cols)
	unranged.Cols[2].Ranged = false
	batches[2] = &unranged
	// An integer SUM, a double one and the AVG of a scaled product.
	node := &AggNode{GroupBy: []int{0, 1}, Aggs: []AggSpec{
		{Func: AggCount}, {Func: AggSum, Arg: Col(2)}, {Func: AggMax, Arg: Col(2)},
		{Func: AggSum, Arg: Mul(Col(2), CFloat(0.5))}, {Func: AggAvg, Arg: Mul(Div(Col(2), CInt(100)), Col(2))},
	}}
	var args []*checked
	for _, spec := range node.Aggs {
		var arg *checked
		if spec.Arg != nil {
			var err error
			if arg, err = check(spec.Arg, kinds); err != nil {
				t.Fatal(err)
			}
		}
		args = append(args, arg)
	}
	if args[1].kind != types.Int64 || args[3].kind != types.Float64 || args[4].scale != 2 {
		t.Fatalf("sum arguments typed %v, %v and scale %d", args[1].kind, args[3].kind, args[4].scale)
	}
	a := newAggregator(node, kinds, args)
	fold := func() {
		for _, b := range batches {
			a.consumeBatch(b)
		}
	}
	fold()
	if allocs := testing.AllocsPerRun(50, fold); allocs != 0 {
		t.Fatalf("%v allocations per three coded batches", allocs)
	}
	if a.groups != 21 || a.dir == nil {
		t.Fatalf("%d groups, code table used: %v", a.groups, a.dir != nil)
	}
}

// TestOnlyCountedArgumentsCountNulls: NULL rows are counted for the
// arguments of COUNT(col), SUM and AVG, which read rows less them, and
// not for one only MIN or MAX read, whose NULL-ness is its seen flag.
func TestOnlyCountedArgumentsCountNulls(t *testing.T) {
	kinds := []types.Kind{types.String, types.Int64}
	node := &AggNode{GroupBy: []int{1}, Aggs: []AggSpec{{Func: AggMin, Arg: Col(0)}, {Func: AggMax, Arg: Col(0)}, {Func: AggCountCol, Arg: Col(1)}}}
	args := make([]*checked, len(node.Aggs))
	for i, spec := range node.Aggs {
		var err error
		if args[i], err = check(spec.Arg, kinds); err != nil {
			t.Fatal(err)
		}
	}
	a := newAggregator(node, kinds, args)
	a.consumeBatch(&core.Batch{N: 3, Cols: []core.BatchCol{
		{ColumnData: core.ColumnData{Kind: types.String, Strs: []string{"b", "", "a"}, Nulls: []bool{false, true, false}}},
		{ColumnData: core.ColumnData{Kind: types.Int64, Ints: []int64{7, 7, 0}, Nulls: []bool{false, false, true}}},
	}})
	if a.slots[a.argSlot[0]].nullRows != nil || a.slots[a.argSlot[2]].nullRows == nil {
		t.Fatalf("NULL counts: MIN/MAX's argument %v, COUNT's %v", a.slots[a.argSlot[0]].nullRows, a.slots[a.argSlot[2]].nullRows)
	}
	res := a.finalize([]types.Kind{types.Int64, types.String, types.String, types.Int64})
	if got := fmt.Sprint(res.Row(0), res.Row(1)); got != `[7 "b" "b" 2] [NULL "a" "a" 0]` {
		t.Fatalf("got %s", got)
	}
}

// TestMinMaxFloatIgnoresOrderAndBatching: MIN and MAX over doubles that
// include NaN come out the same however the rows are ordered, cut into
// batches and split between two workers merged afterwards — with and
// without GROUP BY (the dense and the scatter kernels): NaN sorts below
// every number, so MIN is NaN and MAX the greatest number, or NaN when
// there is none.
func TestMinMaxFloatIgnoresOrderAndBatching(t *testing.T) {
	kinds := []types.Kind{types.Float64, types.Int64}
	arg, err := check(Col(0), kinds)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(9))
	for _, vals := range [][]float64{
		{math.NaN(), 1, 2, 3, 4, 5, 6, 7},
		{3, math.Inf(-1), math.NaN(), math.Inf(1), -2.5},
		{math.NaN(), math.NaN()},
	} {
		wantMax := math.NaN()
		for _, v := range vals {
			if !math.IsNaN(v) && (math.IsNaN(wantMax) || v > wantMax) {
				wantMax = v
			}
		}
		for trial := 0; trial < 100; trial++ {
			for _, groupBy := range [][]int{nil, {1}} {
				node := &AggNode{GroupBy: groupBy, Aggs: []AggSpec{{Func: AggMin, Arg: Col(0)}, {Func: AggMax, Arg: Col(0)}}}
				workers := []*aggregator{newAggregator(node, kinds, []*checked{arg, arg}), newAggregator(node, kinds, []*checked{arg, arg})}
				perm := r.Perm(len(vals))
				split := r.Intn(len(vals) + 1)
				for w, rows := range [][]int{perm[:split], perm[split:]} {
					for len(rows) > 0 {
						k := 1 + r.Intn(len(rows))
						b := &core.Batch{N: k, Cols: []core.BatchCol{{ColumnData: core.ColumnData{Kind: types.Float64}}, {ColumnData: core.ColumnData{Kind: types.Int64, Ints: make([]int64, k)}}}}
						for _, row := range rows[:k] {
							b.Cols[0].Floats = append(b.Cols[0].Floats, vals[row])
						}
						workers[w].consumeBatch(b)
						rows = rows[k:]
					}
				}
				workers[0].merge(workers[1])
				out := []types.Kind{types.Float64, types.Float64}
				if groupBy != nil {
					out = append([]types.Kind{types.Int64}, out...)
				}
				res := workers[0].finalize(out)
				mnCol := len(groupBy)
				mn, mx := res.Cols[mnCol].Floats[0], res.Cols[mnCol+1].Floats[0]
				if !math.IsNaN(mn) || math.Float64bits(mx) != math.Float64bits(wantMax) {
					t.Fatalf("%v in order %v split at %d (group by %v): MIN %v MAX %v, want NaN and %v", vals, perm, split, groupBy, mn, mx, wantMax)
				}
			}
		}
	}
}

// TestIntegerSumFlushesPayForThemselves: a flush walks every group, so
// with more groups than the rows the partials take between flushes it
// would cost more per row than the 128-bit fold. Values near 2^50 in
// 256-row batches fill the partials every 31 batches (7 936 rows); over
// 50 000 groups the aggregator must flush no more cells than it folds
// rows, flush only the sum that ran out of room (the one near 2^40 never
// does), and still answer exactly.
func TestIntegerSumFlushesPayForThemselves(t *testing.T) {
	kinds := []types.Kind{types.Int64, types.Int64, types.Int64}
	node := &AggNode{GroupBy: []int{0}, Aggs: []AggSpec{{Func: AggSum, Arg: Col(1)}, {Func: AggSum, Arg: Col(2)}}}
	args := make([]*checked, len(node.Aggs))
	for i, spec := range node.Aggs {
		var err error
		if args[i], err = check(spec.Arg, kinds); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(48))
	for _, groups := range []int{64, 50000} {
		a := newAggregator(node, kinds, args)
		want := [2]map[int64]*big.Int{{}, {}}
		const n, batches = 256, 200
		for batch := 0; batch < batches; batch++ {
			b := &core.Batch{N: n, Cols: make([]core.BatchCol, 3)}
			for c := range b.Cols {
				b.Cols[c] = core.BatchCol{ColumnData: core.ColumnData{Kind: types.Int64, Ints: make([]int64, n)}}
			}
			for i := 0; i < n; i++ {
				g := int64(r.Intn(groups))
				b.Cols[0].Ints[i] = g
				for c, near := range []int64{1 << 50, 1 << 40} {
					v := near - r.Int63n(1<<20)
					if r.Intn(2) == 0 {
						v = -v
					}
					b.Cols[c+1].Ints[i] = v
					if want[c][g] == nil {
						want[c][g] = new(big.Int)
					}
					want[c][g].Add(want[c][g], big.NewInt(v))
				}
			}
			a.consumeBatch(b)
		}
		if groups == 64 && a.flushed == 0 {
			t.Fatalf("%d groups: no flush", groups)
		}
		if a.flushed > n*batches {
			t.Fatalf("%d groups: %d cells flushed for %d rows", groups, a.flushed, n*batches)
		}
		if slices.ContainsFunc(a.isums[1], func(c [2]uint64) bool { return c != [2]uint64{} }) {
			t.Fatalf("%d groups: the sum near 2^40 was flushed", groups)
		}
		res := a.finalize([]types.Kind{types.Int64, types.Float64, types.Float64})
		if res.NumRows() != len(want[0]) {
			t.Fatalf("%d groups: %d groups out, want %d", groups, res.NumRows(), len(want[0]))
		}
		for i := 0; i < res.NumRows(); i++ {
			row := res.Row(i)
			for c := range want {
				if w, _ := new(big.Rat).SetInt(want[c][row[0].Int()]).Float64(); row[1+c].Float() != w {
					t.Fatalf("%d groups, group %d, sum %d: %v, want %v", groups, row[0].Int(), c, row[1+c].Float(), w)
				}
			}
		}
	}
}

// TestIntegerSumsFlushAndFallBack drives two workers' grouped integer
// SUM/AVG through every leg of the fold: batches near 2^59 fill the int64
// partials until the next one has no room, which flushes them into the
// 128-bit cells mid-stream; a batch near 2^62 has no room of its own
// (4·2^62 ≥ 2^63) and folds straight into the cells; ranged batches take
// their bound from the column, unranged ones from a MinMaxInt64 pass.
// Without GROUP BY every batch folds into the cell. The merged answer,
// grouped and not, must be math/big's.
func TestIntegerSumsFlushAndFallBack(t *testing.T) {
	kinds := []types.Kind{types.Int64, types.Int64}
	r := rand.New(rand.NewSource(59))
	for _, groupBy := range [][]int{nil, {0}} {
		node := &AggNode{GroupBy: groupBy, Aggs: []AggSpec{{Func: AggSum, Arg: Col(1)}, {Func: AggAvg, Arg: Col(1)}, {Func: AggCountCol, Arg: Col(1)}, {Func: AggCount}}}
		args := make([]*checked, len(node.Aggs))
		for i, spec := range node.Aggs {
			if spec.Arg != nil {
				var err error
				if args[i], err = check(spec.Arg, kinds); err != nil {
					t.Fatal(err)
				}
			}
		}
		workers := []*aggregator{newAggregator(node, kinds, args), newAggregator(node, kinds, args)}
		sums, counts, rows := map[int64]*big.Int{}, map[int64]int64{}, map[int64]int64{}
		var flushes, fallbacks int
		// SUM 0's int64 partials, one per group, in the block (none
		// without GROUP BY).
		partials := func(a *aggregator) []int64 {
			var p []int64
			for g := 0; a.cell[0] > 0 && g < a.groups; g++ {
				p = append(p, a.cells[g*a.w+a.cell[0]])
			}
			return p
		}
		for batch := 0; batch < 24; batch++ {
			const n = 8
			near := int64(1) << 59
			if batch == 9 || batch == 17 {
				near = 1 << 62 // no room of its own
			}
			b := &core.Batch{N: n, Cols: []core.BatchCol{
				{ColumnData: core.ColumnData{Kind: types.Int64, Ints: make([]int64, n)}},
				{ColumnData: core.ColumnData{Kind: types.Int64, Ints: make([]int64, n), Nulls: make([]bool, n)}},
			}}
			for i := 0; i < n; i++ {
				g, v := int64(r.Intn(3)), near-int64(r.Intn(1000))
				if r.Intn(3) == 0 {
					v = -v
				}
				b.Cols[0].Ints[i], b.Cols[1].Ints[i] = g, v
				if groupBy == nil {
					g = 0
				}
				rows[g]++
				if b.Cols[1].Nulls[i] = r.Intn(8) == 0; !b.Cols[1].Nulls[i] {
					if sums[g] == nil {
						sums[g] = new(big.Int)
					}
					sums[g].Add(sums[g], big.NewInt(v))
					counts[g]++
				}
			}
			if batch%2 == 0 {
				// A bound looser than the values, as an SMA's can be.
				c := &b.Cols[1]
				c.Ranged, c.Lo, c.Hi = true, -near-5, near+5
			}
			// Which leg ran shows in what changed: the cells alone after
			// a fold into them, the cells and the partials after a flush.
			a := workers[batch%3%2]
			parts, cells := partials(a), slices.Clone(a.isums[0])
			a.consumeBatch(b)
			grown := len(partials(a)) - len(parts)
			parts, cells = append(parts, make([]int64, grown)...), append(cells, make([][2]uint64, grown)...)
			switch {
			case slices.Equal(cells, a.isums[0]):
			case slices.Equal(parts, partials(a)):
				fallbacks++
			default:
				flushes++
			}
		}
		if groupBy != nil && (flushes == 0 || fallbacks != 2) {
			t.Fatalf("group by %v: %d flushes, %d folds into the cells; want some and 2", groupBy, flushes, fallbacks)
		}
		workers[0].merge(workers[1])
		out := []types.Kind{types.Float64, types.Float64, types.Int64, types.Int64}
		if groupBy != nil {
			out = append([]types.Kind{types.Int64}, out...)
		}
		res := workers[0].finalize(out)
		if res.NumRows() != len(rows) {
			t.Fatalf("group by %v: %d groups, want %d", groupBy, res.NumRows(), len(rows))
		}
		for i := 0; i < res.NumRows(); i++ {
			row := res.Row(i)
			g := int64(0)
			if groupBy != nil {
				g, row = row[0].Int(), row[1:]
			}
			sum, _ := new(big.Rat).SetInt(sums[g]).Float64()
			avg, _ := new(big.Rat).SetFrac(sums[g], big.NewInt(counts[g])).Float64()
			if row[0].Float() != sum || row[1].Float() != avg || row[2].Int() != counts[g] || row[3].Int() != rows[g] {
				t.Fatalf("group by %v, group %d: %v, want [%v %v %d %d]", groupBy, g, row, sum, avg, counts[g], rows[g])
			}
		}
	}
}

// TestOnePassFoldMatchesBig: one GROUP BY whose batches fold, in one
// pass, a NULL-free integer SUM and AVG and the row count, while a SUM
// whose column brings NULLs in every other batch takes a masked pass into
// its own cell and COUNT of that column reads rows less its NULLs. Values
// near 2^58 and 2^59 fill the partials until they flush, and every fifth
// batch brings the 2^59 column near 2^62, which has no room and folds
// into the 128-bit cells, leaving a hole in the pass. At parallelism 1
// and over two workers merged, the answers must be math/big's.
func TestOnePassFoldMatchesBig(t *testing.T) {
	kinds := []types.Kind{types.Int64, types.Int64, types.Int64, types.Int64}
	node := &AggNode{GroupBy: []int{0}, Aggs: []AggSpec{
		{Func: AggSum, Arg: Col(1)}, {Func: AggSum, Arg: Col(2)}, {Func: AggAvg, Arg: Col(3)},
		{Func: AggCountCol, Arg: Col(1)}, {Func: AggCount},
	}}
	args := make([]*checked, len(node.Aggs))
	for i, spec := range node.Aggs {
		if spec.Arg != nil {
			var err error
			if args[i], err = check(spec.Arg, kinds); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := rand.New(rand.NewSource(57))
	type want struct {
		sums          [3]*big.Int
		nonNull, rows int64
	}
	wants := map[int64]*want{}
	var batches []*core.Batch
	for batch := 0; batch < 40; batch++ {
		const n = 13
		b := &core.Batch{N: n, Cols: make([]core.BatchCol, 4)}
		for c := range b.Cols {
			b.Cols[c] = core.BatchCol{ColumnData: core.ColumnData{Kind: types.Int64, Ints: make([]int64, n)}}
		}
		if batch%2 == 1 {
			b.Cols[1].Nulls = make([]bool, n)
		}
		for i := 0; i < n; i++ {
			g := int64(r.Intn(3))
			b.Cols[0].Ints[i] = g
			if wants[g] == nil {
				wants[g] = &want{sums: [3]*big.Int{new(big.Int), new(big.Int), new(big.Int)}}
			}
			w := wants[g]
			w.rows++
			for c, near := range []int64{1 << 58, 1 << 59, 1000} {
				if c == 1 && batch%5 == 4 {
					near = 1 << 62
				}
				v := near - r.Int63n(near/4)
				if r.Intn(2) == 0 {
					v = -v
				}
				if c == 0 && b.Cols[1].Nulls != nil && r.Intn(3) == 0 {
					b.Cols[1].Nulls[i], b.Cols[1].Ints[i] = true, math.MinInt64
					continue
				}
				if c == 0 {
					w.nonNull++
				}
				b.Cols[1+c].Ints[i] = v
				w.sums[c].Add(w.sums[c], big.NewInt(v))
			}
		}
		batches = append(batches, b)
	}
	out := []types.Kind{types.Int64, types.Float64, types.Float64, types.Float64, types.Int64, types.Int64}
	for _, workers := range []int{1, 2} {
		aggs := make([]*aggregator, workers)
		for w := range aggs {
			aggs[w] = newAggregator(node, kinds, args)
		}
		for i, b := range batches {
			aggs[i%workers].consumeBatch(b)
		}
		if aggs[0].flushed == 0 {
			t.Fatalf("%d workers: no flush", workers)
		}
		for _, o := range aggs[1:] {
			aggs[0].merge(o)
		}
		res := aggs[0].finalize(out)
		if res.NumRows() != len(wants) {
			t.Fatalf("%d workers: %d groups, want %d", workers, res.NumRows(), len(wants))
		}
		for i := 0; i < res.NumRows(); i++ {
			row := res.Row(i)
			w := wants[row[0].Int()]
			sum0, _ := new(big.Rat).SetInt(w.sums[0]).Float64()
			sum1, _ := new(big.Rat).SetInt(w.sums[1]).Float64()
			avg2, _ := new(big.Rat).SetFrac(w.sums[2], big.NewInt(w.rows)).Float64()
			if row[1].Float() != sum0 || row[2].Float() != sum1 || row[3].Float() != avg2 || row[4].Int() != w.nonNull || row[5].Int() != w.rows {
				t.Fatalf("%d workers, group %d: %v, want [%v %v %v %d %d]", workers, row[0].Int(), row[1:], sum0, sum1, avg2, w.nonNull, w.rows)
			}
		}
	}
}

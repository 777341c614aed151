package exec_test

// The join/aggregate key matrix: every key kind, NULLs on either side,
// duplicate and equal-hash keys, empty inputs — executed through the
// public plan API and compared against a naive reference written here
// (nested loops and a keyed map over []types.Row). The reference shares no
// code with internal/exec, so the one hash table and the one key identity
// are checked against something that has neither.

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

var (
	negZero = math.Copysign(0, -1)
	nanA    = math.NaN()
	nanB    = math.Float64frombits(math.Float64bits(math.NaN()) ^ 1) // same class, other payload
)

func null(k types.Kind) types.Value { return types.NullValue(k) }
func iv(v int64) types.Value        { return types.IntValue(v) }
func fv(v float64) types.Value      { return types.FloatValue(v) }
func sv(v string) types.Value       { return types.StringValue(v) }

// Value pools per key kind, special cases first. Rows are drawn from them
// cyclically with co-prime strides, so duplicates and every pairing occur.
var pools = map[types.Kind][]types.Value{
	types.Int64: {iv(0), iv(1), iv(-1), iv(7), null(types.Int64), iv(math.MaxInt64), iv(math.MinInt64), iv(2), iv(3)},
	types.Float64: {fv(0), fv(negZero), fv(1.5), fv(nanA), null(types.Float64), fv(nanB), fv(math.Inf(1)),
		fv(math.Inf(-1)), fv(-1.5)},
	types.String: {sv(""), sv("a"), sv("ab"), sv("abc"), null(types.String), sv("abd"), sv("b"), sv("ab\x00"), sv("abcabcabcabc")},
}

// keyRows builds n rows of the given key kinds plus a trailing int64 row
// ordinal. Column c of row r takes pool value (r*stride(c) + c) mod len.
func keyRows(kinds []types.Kind, n, seed int) []types.Row {
	rows := make([]types.Row, n)
	for r := range rows {
		row := make(types.Row, 0, len(kinds)+1)
		for c, k := range kinds {
			pool := pools[k]
			row = append(row, pool[(r*(2*c+1)+seed*(c+1)+r/len(pool))%len(pool)])
		}
		rows[r] = append(row, iv(int64(r)))
	}
	return rows
}

// relOf loads rows into a relation of small chunks (so several morsels
// exist) and freezes the leading chunks, leaving a hot tail.
func relOf(t *testing.T, kinds []types.Kind, rows []types.Row) *storage.Relation {
	t.Helper()
	rel := loadRel(t, kinds, rows)
	for i := 0; i < rel.NumChunks()-1 && i < 2; i++ {
		if err := rel.FreezeChunk(i, core.FreezeOptions{SortBy: -1}); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// residentRel loads rows into a relation of small chunks that are all in
// one residency: "hot", "frozen", or "evicted" to a block store. reset
// evicts the chunks again that a query has loaded back.
func residentRel(t *testing.T, kinds []types.Kind, rows []types.Row, residency string) (rel *storage.Relation, reset func()) {
	t.Helper()
	rel = loadRel(t, kinds, rows)
	reset = func() {}
	if residency == "hot" {
		return rel, reset
	}
	for i := 0; i < rel.NumChunks(); i++ {
		if err := rel.FreezeChunk(i, core.FreezeOptions{SortBy: -1}); err != nil {
			t.Fatal(err)
		}
	}
	if residency == "evicted" {
		store, err := blockstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rel.SetBlockStore(store, 0, nil)
		reset = func() {
			for i := 0; i < rel.NumChunks(); i++ {
				if _, err := rel.EvictChunk(i); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return rel, reset
}

// loadRel loads rows into a hot relation of 64-row chunks.
func loadRel(t *testing.T, kinds []types.Kind, rows []types.Row) *storage.Relation {
	t.Helper()
	cols := make([]types.Column, len(kinds))
	data := make([]core.ColumnData, len(kinds))
	for c, k := range kinds {
		cols[c] = types.Column{Name: fmt.Sprintf("c%d", c), Kind: k, Nullable: true}
		data[c] = core.ColumnData{Kind: k, Nulls: make([]bool, len(rows))}
		for r, row := range rows {
			v := row[c]
			data[c].Nulls[r] = v.IsNull()
			switch k {
			case types.Int64:
				x := int64(0)
				if !v.IsNull() {
					x = v.Int()
				}
				data[c].Ints = append(data[c].Ints, x)
			case types.Float64:
				x := 0.0
				if !v.IsNull() {
					x = v.Float()
				}
				data[c].Floats = append(data[c].Floats, x)
			default:
				x := ""
				if !v.IsNull() {
					x = v.Str()
				}
				data[c].Strs = append(data[c].Strs, x)
			}
		}
	}
	rel := storage.NewRelation(types.NewSchema(cols...), 64)
	if len(rows) > 0 {
		if err := rel.BulkAppend(data, len(rows)); err != nil {
			t.Fatal(err)
		}
	}
	return rel
}

// render writes a row with floats as bit patterns, so -0.0, +0.0 and NaN
// payloads stay distinguishable in comparisons.
func render(row types.Row) string {
	var sb strings.Builder
	for i, v := range row {
		if i > 0 {
			sb.WriteByte('|')
		}
		switch {
		case v.IsNull():
			sb.WriteString("NULL")
		case v.Kind() == types.Int64:
			fmt.Fprintf(&sb, "%d", v.Int())
		case v.Kind() == types.Float64:
			fmt.Fprintf(&sb, "f%016x", math.Float64bits(v.Float()))
		default:
			fmt.Fprintf(&sb, "%q", v.Str())
		}
	}
	return sb.String()
}

func renderResult(res *exec.Result) []string {
	out := make([]string, res.NumRows())
	for i := range out {
		out[i] = render(res.Row(i))
	}
	return out
}

func renderRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = render(r)
	}
	return out
}

// joinEq is SQL key equality as the engine defines it: NULL equals
// nothing, -0.0 equals +0.0, NaNs are equal iff their payloads are.
func joinEq(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	switch a.Kind() {
	case types.Int64:
		return a.Int() == b.Int()
	case types.Float64:
		x, y := a.Float(), b.Float()
		return x == y || (x != x && y != y && math.Float64bits(x) == math.Float64bits(y))
	default:
		return a.Str() == b.Str()
	}
}

// refJoin is the nested-loop reference: probe rows in order, and per probe
// row the matching build rows in build order.
func refJoin(kind exec.JoinKind, probe, build []types.Row, nkeys int) []types.Row {
	var out []types.Row
	for _, p := range probe {
		matched := false
		for _, b := range build {
			eq := true
			for k := 0; k < nkeys && eq; k++ {
				eq = joinEq(p[k], b[k])
			}
			if !eq {
				continue
			}
			matched = true
			if kind == exec.InnerJoin {
				out = append(out, append(append(types.Row{}, p...), b...))
			}
		}
		if (kind == exec.SemiJoin && matched) || (kind == exec.AntiJoin && !matched) {
			out = append(out, p)
		}
	}
	return out
}

type runCfg struct {
	name string
	opt  exec.Options
}

// runCfgs is batch / tuple-behind-vectorized-scan / JIT, each serial and
// with four morsel workers.
func runCfgs() []runCfg {
	var out []runCfg
	for _, par := range []int{1, 4} {
		out = append(out,
			runCfg{fmt.Sprintf("batch/p%d", par), exec.Options{Mode: exec.ModeVectorizedSARG, Parallelism: par}},
			runCfg{fmt.Sprintf("tuple/p%d", par), exec.Options{Mode: exec.ModeVectorizedSARG, TupleAtATime: true, Parallelism: par}},
			runCfg{fmt.Sprintf("jit/p%d", par), exec.Options{Mode: exec.ModeJIT, Parallelism: par}},
		)
	}
	return out
}

// requireRows compares got with want: in order for serial runs (emission
// order is part of the contract), as multisets for parallel ones.
func requireRows(t *testing.T, name string, got, want []string, ordered bool) {
	t.Helper()
	if !ordered {
		got, want = append([]string(nil), got...), append([]string(nil), want...)
		sort.Strings(got)
		sort.Strings(want)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d is\n  %s\nwant\n  %s", name, i, got[i], want[i])
		}
	}
}

// keyShapes are the key layouts of the matrix.
var keyShapes = []struct {
	name  string
	kinds []types.Kind
}{
	{"int", []types.Kind{types.Int64}},
	{"float", []types.Kind{types.Float64}},
	{"string", []types.Kind{types.String}},
	{"int+int", []types.Kind{types.Int64, types.Int64}},
	{"string+int", []types.Kind{types.String, types.Int64}},
	{"int+float+string", []types.Kind{types.Int64, types.Float64, types.String}},
}

func TestJoinKeyMatrix(t *testing.T) {
	for _, shape := range keyShapes {
		nk := len(shape.kinds)
		sizes := []struct {
			name         string
			build, probe int
		}{{"full", 45, 300}, {"empty-build", 0, 150}, {"empty-probe", 45, 0}}
		for _, sz := range sizes {
			buildRows := keyRows(shape.kinds, sz.build, 3)
			probeRows := keyRows(shape.kinds, sz.probe, 0)
			rowKinds := append(append([]types.Kind{}, shape.kinds...), types.Int64)
			build, probe := relOf(t, rowKinds, buildRows), relOf(t, rowKinds, probeRows)
			allCols := make([]int, nk+1)
			keys := make([]int, nk)
			for i := range allCols {
				allCols[i] = i
			}
			for i := range keys {
				keys[i] = i
			}
			for _, kind := range []exec.JoinKind{exec.InnerJoin, exec.SemiJoin, exec.AntiJoin} {
				want := renderRows(refJoin(kind, probeRows, buildRows, nk))
				if sz.name == "full" && kind != exec.AntiJoin && len(want) == 0 {
					t.Fatalf("%s: reference join is empty; the matrix tests nothing", shape.name)
				}
				for _, cfg := range runCfgs() {
					plan := &exec.JoinNode{
						Build:     &exec.ScanNode{Rel: build, Cols: allCols},
						Probe:     &exec.ScanNode{Rel: probe, Cols: allCols},
						BuildKeys: keys, ProbeKeys: keys, Kind: kind,
					}
					res, err := exec.Run(plan, cfg.opt)
					name := fmt.Sprintf("%s/%s/kind%d/%s", shape.name, sz.name, kind, cfg.name)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					requireRows(t, name, renderResult(res), want, cfg.opt.Parallelism == 1)
				}
			}
		}
	}
}

// TestJoinDuplicateBuildKeysEmitInBuildOrder pins the emission order the
// chained table must preserve: a probe row's matches come out in ascending
// build-row order, whatever order the build rows were linked in.
func TestJoinDuplicateBuildKeysEmitInBuildOrder(t *testing.T) {
	kinds := []types.Kind{types.Int64, types.Int64}
	var buildRows, probeRows []types.Row
	for r := 0; r < 200; r++ {
		buildRows = append(buildRows, types.Row{iv(int64(r % 5)), iv(int64(r))})
	}
	for r := 0; r < 10; r++ {
		probeRows = append(probeRows, types.Row{iv(int64(r % 7)), iv(int64(r))})
	}
	build, probe := relOf(t, kinds, buildRows), relOf(t, kinds, probeRows)
	plan := &exec.JoinNode{
		Build:     &exec.ScanNode{Rel: build, Cols: []int{0, 1}},
		Probe:     &exec.ScanNode{Rel: probe, Cols: []int{0, 1}},
		BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: exec.InnerJoin,
	}
	for _, cfg := range runCfgs() {
		if cfg.opt.Parallelism != 1 {
			continue
		}
		res, err := exec.Run(plan, cfg.opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 5*2*40-2*40 { // probe keys 0..4 twice, except 3 and 4 once; 5 and 6 never match
			t.Fatalf("%s: %d rows", cfg.name, res.NumRows())
		}
		lastProbe, lastBuild := int64(-1), int64(-1)
		for i := 0; i < res.NumRows(); i++ {
			p, b := res.Cols[1].Ints[i], res.Cols[3].Ints[i]
			if p < lastProbe || (p == lastProbe && b <= lastBuild) {
				t.Fatalf("%s: row %d (probe %d, build %d) follows (probe %d, build %d)", cfg.name, i, p, b, lastProbe, lastBuild)
			}
			lastProbe, lastBuild = p, b
		}
	}
}

// dupKeyRows builds n build rows whose keys repeat heavily: row r takes
// the key combination c of the kinds' pools (column i is pool value
// c mod len, c /= len), every combination in turn. Clustered rows hold
// each combination in one run; scattered rows deal the combinations out
// with a stride co-prime to their number. A trailing int64 ordinal follows.
func dupKeyRows(kinds []types.Kind, n int, clustered bool) []types.Row {
	combos := 1
	for _, k := range kinds {
		combos *= len(pools[k])
	}
	rows := make([]types.Row, n)
	for r := range rows {
		c := r * 7 % combos
		if clustered {
			c = r * combos / n
		}
		row := make(types.Row, 0, len(kinds)+1)
		for _, k := range kinds {
			row = append(row, pools[k][c%len(pools[k])])
			c /= len(pools[k])
		}
		rows[r] = append(row, iv(int64(r)))
	}
	return rows
}

// TestSemiAntiJoinDuplicateBuildKeys: semi and anti joins whose build side
// repeats every key many times — in runs or scattered — with NULL keys on
// both sides, -0.0 and +0.0, NaN payloads and a two-column int+string key,
// over hot, frozen and evicted build chunks, agree with refJoin: in order
// serially, as multisets with four workers. The build side is the scan or
// a GROUP BY of its keys, a pipeline breaker with the same key set.
func TestSemiAntiJoinDuplicateBuildKeys(t *testing.T) {
	shapes := []struct {
		name  string
		kinds []types.Kind
	}{
		{"int", []types.Kind{types.Int64}},
		{"float", []types.Kind{types.Float64}},
		{"string", []types.Kind{types.String}},
		{"int+string", []types.Kind{types.Int64, types.String}},
	}
	for _, shape := range shapes {
		nk := len(shape.kinds)
		rowKinds := append(append([]types.Kind{}, shape.kinds...), types.Int64)
		probeRows := keyRows(shape.kinds, 300, 0)
		probe := relOf(t, rowKinds, probeRows)
		cols, keys := make([]int, nk+1), make([]int, nk)
		for i := range cols {
			cols[i] = i
		}
		for i := range keys {
			keys[i] = i
		}
		for _, clustered := range []bool{true, false} {
			buildRows := dupKeyRows(shape.kinds, 1200, clustered)
			for _, residency := range []string{"hot", "frozen", "evicted"} {
				build, reset := residentRel(t, rowKinds, buildRows, residency)
				for _, kind := range []exec.JoinKind{exec.SemiJoin, exec.AntiJoin} {
					want := renderRows(refJoin(kind, probeRows, buildRows, nk))
					if len(want) == 0 || len(want) == len(probeRows) {
						t.Fatalf("%s: reference keeps %d of %d probe rows; the case tests nothing", shape.name, len(want), len(probeRows))
					}
					scan := &exec.ScanNode{Rel: build, Cols: cols}
					grouped := &exec.AggNode{Child: scan, GroupBy: keys, Aggs: []exec.AggSpec{{Func: exec.AggCount}}}
					for _, buildPlan := range []exec.Node{scan, grouped} {
						for _, cfg := range runCfgs() {
							reset()
							plan := &exec.JoinNode{
								Build:     buildPlan,
								Probe:     &exec.ScanNode{Rel: probe, Cols: cols},
								BuildKeys: keys, ProbeKeys: keys, Kind: kind,
							}
							name := fmt.Sprintf("%s/clustered=%v/%s/kind%d/%T/%s", shape.name, clustered, residency, kind, buildPlan, cfg.name)
							res, err := exec.Run(plan, cfg.opt)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							requireRows(t, name, renderResult(res), want, cfg.opt.Parallelism == 1)
						}
					}
				}
			}
		}
	}
}

// TestSemiJoinBuildAllocatesPerDistinctKey: a semi-join build over rows
// holding 1 000 distinct keys allocates for the keys, not the rows: going
// from 10 000 to 100 000 build rows in the same five chunks, every vector
// full, adds at most 16 KiB, where materializing the key column alone
// would add 810 KB.
func TestSemiJoinBuildAllocatesPerDistinctKey(t *testing.T) {
	const distinct = 1_000
	schema := types.NewSchema(types.Column{Name: "k", Kind: types.Int64})
	probe := storage.NewRelation(schema, 64)
	if err := probe.BulkAppend([]core.ColumnData{{Kind: types.Int64, Ints: []int64{-1, 5, 999, 1000}}}, 4); err != nil {
		t.Fatal(err)
	}
	// allocated returns the bytes a semi join over rows build rows allocates.
	allocated := func(rows, par int) uint64 {
		data := []core.ColumnData{{Kind: types.Int64, Ints: make([]int64, rows)}}
		for r := range data[0].Ints {
			data[0].Ints[r] = int64(r % distinct)
		}
		build := storage.NewRelation(schema, rows/5)
		if err := build.BulkAppend(data, rows); err != nil {
			t.Fatal(err)
		}
		plan := &exec.JoinNode{
			Build:     &exec.ScanNode{Rel: build, Cols: []int{0}},
			Probe:     &exec.ScanNode{Rel: probe, Cols: []int{0}},
			BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: exec.SemiJoin,
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := exec.Run(plan, exec.Options{Mode: exec.ModeVectorizedSARG, Parallelism: par, VectorSize: 1024})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumRows() != 2 {
			t.Fatalf("par %d: %d rows, want 2", par, res.NumRows())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// Every worker that claims a morsel builds its own key table, and how
	// many do depends on scheduling: under CPU load a small build can end
	// before the last worker starts. So hold the least a large build
	// allocated against the most a small one did.
	for _, par := range []int{1, 4} {
		var small, large uint64
		for i := 0; i < 5; i++ {
			small = max(small, allocated(10_000, par))
			if l := allocated(100_000, par); i == 0 || l < large {
				large = l
			}
		}
		if large > small+16<<10 {
			t.Fatalf("par %d: %d bytes for 10 000 build rows, %d for 100 000 over the same %d keys", par, small, large, distinct)
		}
	}
}

// FuzzSemiAntiJoin holds semi and anti joins over random key multisets to
// refJoin. The first byte picks the key shape — one float, int or string
// column, or a float+string pair — and where build rows end; every further
// byte is one row, its key cells drawn from the kinds' pools (NULLs, NaN
// payloads, -0.0 and +0.0 among them). Both chains run, serially and with
// three workers.
func FuzzSemiAntiJoin(f *testing.F) {
	f.Add([]byte{0x13, 0, 1, 2, 3, 4, 5, 1, 1, 0, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{0x40, 9, 9, 9, 9, 3, 4, 13, 22, 31, 40, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 400 {
			return
		}
		shapes := [][]types.Kind{{types.Float64}, {types.Int64}, {types.String}, {types.Float64, types.String}}
		kinds := shapes[data[0]%4]
		nk := len(kinds)
		body := data[1:]
		nb := int(data[0]>>2) * len(body) / 64
		var buildRows, probeRows []types.Row
		for i, b := range body {
			row := types.Row{}
			c := int(b)
			for _, k := range kinds {
				row = append(row, pools[k][c%len(pools[k])])
				c /= len(pools[k])
			}
			row = append(row, iv(int64(i)))
			if i < nb {
				buildRows = append(buildRows, row)
			} else {
				probeRows = append(probeRows, row)
			}
		}
		rowKinds := append(append([]types.Kind{}, kinds...), types.Int64)
		build, probe := relOf(t, rowKinds, buildRows), relOf(t, rowKinds, probeRows)
		cols, keys := make([]int, nk+1), make([]int, nk)
		for i := range cols {
			cols[i] = i
		}
		for i := range keys {
			keys[i] = i
		}
		for _, kind := range []exec.JoinKind{exec.SemiJoin, exec.AntiJoin} {
			want := renderRows(refJoin(kind, probeRows, buildRows, nk))
			for _, opt := range []exec.Options{
				{Mode: exec.ModeVectorizedSARG},
				{Mode: exec.ModeVectorizedSARG, TupleAtATime: true},
				{Mode: exec.ModeVectorizedSARG, Parallelism: 3},
				{Mode: exec.ModeJIT, Parallelism: 3},
			} {
				plan := &exec.JoinNode{
					Build:     &exec.ScanNode{Rel: build, Cols: cols},
					Probe:     &exec.ScanNode{Rel: probe, Cols: cols},
					BuildKeys: keys, ProbeKeys: keys, Kind: kind,
				}
				res, err := exec.Run(plan, opt)
				if err != nil {
					t.Fatal(err)
				}
				requireRows(t, fmt.Sprintf("kind%d/%+v", kind, opt), renderResult(res), want, opt.Parallelism <= 1)
			}
		}
	})
}

// TestJITSingleValueChunksKeepTheirNulls: a JIT scan path serves every
// block of its layout, so two frozen chunks whose string column is a single
// value — "x" in one, NULL in the other — must each read as themselves,
// whichever chunk the path was compiled against.
func TestJITSingleValueChunksKeepTheirNulls(t *testing.T) {
	kinds := []types.Kind{types.String, types.Int64}
	for _, first := range []types.Value{sv("x"), null(types.String)} {
		second := sv("x")
		if !first.IsNull() {
			second = null(types.String)
		}
		var rows []types.Row
		for r := 0; r < 128; r++ {
			v := first
			if r >= 64 {
				v = second
			}
			rows = append(rows, types.Row{v, iv(int64(r))})
		}
		rel, _ := residentRel(t, kinds, rows, "frozen")
		res, err := exec.Run(&exec.ScanNode{Rel: rel, Cols: []int{0, 1}}, exec.Options{Mode: exec.ModeJIT})
		if err != nil {
			t.Fatal(err)
		}
		requireRows(t, fmt.Sprintf("first %v", first), renderResult(res), renderRows(rows), true)
	}
}

// groupKey identifies a group the way the engine promises to: NULL is its
// own value and floats are distinct by bit pattern.
func groupKey(row types.Row, nkeys int) string { return render(row[:nkeys]) }

// refGroupBy is the reference aggregation: COUNT(*), SUM(ordinal),
// MIN(ordinal), MAX(ordinal) per group, groups in first-seen order.
func refGroupBy(rows []types.Row, nkeys int) []types.Row {
	type acc struct {
		key           types.Row
		count, lo, hi int64
		sum           float64
	}
	var order []*acc
	byKey := map[string]*acc{}
	for _, row := range rows {
		ord := row[nkeys].Int()
		g := byKey[groupKey(row, nkeys)]
		if g == nil {
			g = &acc{key: row[:nkeys], lo: ord, hi: ord}
			byKey[groupKey(row, nkeys)] = g
			order = append(order, g)
		}
		g.count++
		g.sum += float64(ord)
		g.lo, g.hi = min(g.lo, ord), max(g.hi, ord)
	}
	var out []types.Row
	for _, g := range order {
		out = append(out, append(append(types.Row{}, g.key...), iv(g.count), fv(g.sum), iv(g.lo), iv(g.hi)))
	}
	return out
}

func groupPlan(rel *storage.Relation, nkeys int) exec.Node {
	cols := make([]int, nkeys+1)
	keys := make([]int, nkeys)
	for i := range cols {
		cols[i] = i
	}
	for i := range keys {
		keys[i] = i
	}
	ord := exec.Col(nkeys)
	return &exec.AggNode{
		Child:   &exec.ScanNode{Rel: rel, Cols: cols},
		GroupBy: keys,
		Aggs: []exec.AggSpec{
			{Func: exec.AggCount}, {Func: exec.AggSum, Arg: ord},
			{Func: exec.AggMin, Arg: ord}, {Func: exec.AggMax, Arg: ord},
		},
	}
}

func TestGroupByKeyMatrix(t *testing.T) {
	for _, shape := range keyShapes {
		nk := len(shape.kinds)
		for _, n := range []int{0, 400} {
			rows := keyRows(shape.kinds, n, 1)
			rel := relOf(t, append(append([]types.Kind{}, shape.kinds...), types.Int64), rows)
			want := renderRows(refGroupBy(rows, nk))
			for _, cfg := range runCfgs() {
				res, err := exec.Run(groupPlan(rel, nk), cfg.opt)
				name := fmt.Sprintf("%s/n%d/%s", shape.name, n, cfg.name)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				// Serial runs must also reproduce first-seen group order.
				requireRows(t, name, renderResult(res), want, cfg.opt.Parallelism == 1)
			}
		}
	}
}

// TestGroupByManyDistinctKeysParallel: 120 000 distinct two-column keys
// (every int key in both orders) spread over four workers must merge into
// exactly the serial result.
func TestGroupByManyDistinctKeysParallel(t *testing.T) {
	const n = 120_000
	rows := make([]types.Row, 0, n+n/10)
	for r := 0; r < n; r += 2 {
		a, b := int64(r), int64(r+1)
		rows = append(rows, types.Row{iv(a), iv(b), iv(int64(r))}, types.Row{iv(b), iv(a), iv(int64(r + 1))})
	}
	for r := 0; r < n; r += 10 { // one row in ten recurs, far from its first occurrence
		rows = append(rows, types.Row{rows[r][0], rows[r][1], iv(int64(n + r))})
	}
	kinds := []types.Kind{types.Int64, types.Int64, types.Int64}
	cols := make([]core.ColumnData, 3)
	for c := range cols {
		cols[c] = core.ColumnData{Kind: types.Int64, Ints: make([]int64, len(rows))}
		for r, row := range rows {
			cols[c].Ints[r] = row[c].Int()
		}
	}
	rel := storage.NewRelation(types.NewSchema(
		types.Column{Name: "a", Kind: kinds[0]}, types.Column{Name: "b", Kind: kinds[1]}, types.Column{Name: "ord", Kind: kinds[2]},
	), 1<<13)
	if err := rel.BulkAppend(cols, len(rows)); err != nil {
		t.Fatal(err)
	}
	want := renderRows(refGroupBy(rows, 2))
	if len(want) != n {
		t.Fatalf("reference has %d groups, want %d", len(want), n)
	}
	sort.Strings(want)
	for _, opt := range []exec.Options{
		{Mode: exec.ModeVectorizedSARG},
		{Mode: exec.ModeVectorizedSARG, Parallelism: 4},
		{Mode: exec.ModeVectorizedSARG, Parallelism: 4, TupleAtATime: true},
	} {
		res, err := exec.Run(groupPlan(rel, 2), opt)
		if err != nil {
			t.Fatal(err)
		}
		got := renderResult(res)
		sort.Strings(got)
		requireRows(t, fmt.Sprintf("par%d tuple=%v", opt.Parallelism, opt.TupleAtATime), got, want, true)
	}
}

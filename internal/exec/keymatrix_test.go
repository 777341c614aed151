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
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"testing"

	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/simd"
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
	var b []byte
	for i, v := range row {
		if i > 0 {
			b = append(b, '|')
		}
		switch {
		case v.IsNull():
			b = append(b, "NULL"...)
		case v.Kind() == types.Int64:
			b = strconv.AppendInt(b, v.Int(), 10)
		case v.Kind() == types.Float64:
			bits := math.Float64bits(v.Float())
			b = append(b, 'f')
			for shift := 60; shift >= 0; shift -= 4 {
				b = append(b, "0123456789abcdef"[bits>>shift&15])
			}
		default:
			b = strconv.AppendQuote(b, v.Str())
		}
	}
	return string(b)
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
// row the matching build rows in build order. Probe column probeKeys[i]
// is compared with build column buildKeys[i].
func refJoin(kind exec.JoinKind, probe, build []types.Row, probeKeys, buildKeys []int) []types.Row {
	var out []types.Row
	for _, p := range probe {
		matched := false
		for _, b := range build {
			eq := true
			for k := 0; k < len(probeKeys) && eq; k++ {
				eq = joinEq(p[probeKeys[k]], b[buildKeys[k]])
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

// runCfgs is the batch chain behind a vectorized scan and ModeJIT's tuple
// chain behind its tuple scan, each serial and with four morsel workers.
func runCfgs() []runCfg {
	var out []runCfg
	for _, par := range []int{1, 4} {
		out = append(out,
			runCfg{fmt.Sprintf("batch/p%d", par), exec.Options{Mode: exec.ModeVectorizedSARG, Parallelism: par}},
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
				want := renderRows(refJoin(kind, probeRows, buildRows, keys, keys))
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
// chains must preserve: a probe row's matches come out complete and in
// ascending build-row order — per build sink, so serially in all — with
// the probe rows in order serially. Two inputs: 200 build rows over 5
// keys, and 20 000 over 700 keys with a third of them on one hot key,
// whose table ends far past its first 64 slots.
func TestJoinDuplicateBuildKeysEmitInBuildOrder(t *testing.T) {
	const hot = 1 << 40
	inputs := []struct {
		name         string
		nb, np       int
		build, probe func(r int) int64
	}{
		{"5 keys", 200, 10, func(r int) int64 { return int64(r % 5) }, func(r int) int64 { return int64(r % 7) }},
		{"700 keys, one hot", 20_000, 702, func(r int) int64 {
			if r%3 == 0 {
				return hot
			}
			return int64(r % 700)
		}, func(r int) int64 {
			if r == 700 {
				return hot
			}
			return int64(r) // 701 matches nothing
		}},
	}
	kinds := []types.Kind{types.Int64, types.Int64}
	for _, in := range inputs {
		var buildRows, probeRows []types.Row
		want := map[int64][]int64{} // build ordinals per key, ascending
		for r := 0; r < in.nb; r++ {
			k := in.build(r)
			buildRows = append(buildRows, types.Row{iv(k), iv(int64(r))})
			want[k] = append(want[k], int64(r))
		}
		matches := 0
		for r := 0; r < in.np; r++ {
			probeRows = append(probeRows, types.Row{iv(in.probe(r)), iv(int64(r))})
			matches += len(want[in.probe(r)])
		}
		build, probe := relOf(t, kinds, buildRows), relOf(t, kinds, probeRows)
		plan := &exec.JoinNode{
			Build:     &exec.ScanNode{Rel: build, Cols: []int{0, 1}},
			Probe:     &exec.ScanNode{Rel: probe, Cols: []int{0, 1}},
			BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: exec.InnerJoin,
		}
		for _, par := range []int{1, 2} {
			for _, mode := range []exec.ScanMode{exec.ModeVectorizedSARG, exec.ModeJIT} {
				name := fmt.Sprintf("%s/%v/p%d", in.name, mode, par)
				res, err := exec.Run(plan, exec.Options{Mode: mode, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				if res.NumRows() != matches {
					t.Fatalf("%s: %d rows, want %d", name, res.NumRows(), matches)
				}
				got := map[int64][]int64{} // build ordinals per probe row, as emitted
				lastProbe := int64(-1)
				for i := 0; i < res.NumRows(); i++ {
					p, b := res.Cols[1].Ints[i], res.Cols[3].Ints[i]
					if par == 1 && p < lastProbe {
						t.Fatalf("%s: row %d (probe %d) follows probe %d", name, i, p, lastProbe)
					}
					got[p], lastProbe = append(got[p], b), p
				}
				for p, bs := range got {
					// A chain is each sink's rows in ascending order, the
					// sinks one after another: at most par ascending runs.
					runs := 1
					for i := 1; i < len(bs); i++ {
						if bs[i] <= bs[i-1] {
							runs++
						}
					}
					sorted := slices.Clone(bs)
					slices.Sort(sorted)
					if k := in.probe(int(p)); runs > par || !slices.Equal(sorted, want[k]) {
						t.Fatalf("%s: probe %d (key %d) matched build rows %v in %d runs, want %v", name, p, k, bs, runs, want[k])
					}
				}
			}
		}
	}
}

// TestJoinEqualHashDistinctKeysNeverMatch is the join twin of
// TestEqualHashDistinctKeysNeverMerge: two-column integer keys (i, i+n)
// and (i+n, y) that provably share their combined hash are build and
// probe keys of inner, semi and anti joins. The build holds every first
// key, some twice, and the twins of even i only, so an odd i's twin probes
// a chain whose one slot stores its hash under another key and must miss;
// two workers each meet collisions in their own tables and again when
// one absorbs the other. Every run agrees with refJoin.
func TestJoinEqualHashDistinctKeysNeverMatch(t *testing.T) {
	const n = 400
	hash := func(x, y int64) uint64 { return simd.HashCombine(simd.Mix64(uint64(x)), simd.Mix64(uint64(y))) }
	var buildRows, twins, probeRows []types.Row
	for i := int64(0); i < n; i++ {
		y2 := exec.EqualHashTwin(i, i+n, i+n)
		if hash(i+n, y2) != hash(i, i+n) {
			t.Fatalf("(%d, %d) does not collide with (%d, %d)", i+n, y2, i, i+n)
		}
		buildRows = append(buildRows, types.Row{iv(i), iv(i + n), iv(i)})
		if i%3 == 0 {
			buildRows = append(buildRows, types.Row{iv(i), iv(i + n), iv(-i)})
		}
		if i%2 == 0 {
			twins = append(twins, types.Row{iv(i + n), iv(y2), iv(i + n)})
		}
		probeRows = append(probeRows, types.Row{iv(i + n), iv(y2), iv(i)}, types.Row{iv(i), iv(i + n), iv(i)})
	}
	buildRows = append(buildRows, twins...)
	kinds := []types.Kind{types.Int64, types.Int64, types.Int64}
	build, probe := relOf(t, kinds, buildRows), relOf(t, kinds, probeRows)
	keys, cols := []int{0, 1}, []int{0, 1, 2}
	cfgs := []runCfg{
		{"batch/p1", exec.Options{Mode: exec.ModeVectorizedSARG, Parallelism: 1}},
		{"batch/p2", exec.Options{Mode: exec.ModeVectorizedSARG, Parallelism: 2}},
		{"jit/p1", exec.Options{Mode: exec.ModeJIT, Parallelism: 1}},
	}
	for _, kind := range []exec.JoinKind{exec.InnerJoin, exec.SemiJoin, exec.AntiJoin} {
		want := renderRows(refJoin(kind, probeRows, buildRows, keys, keys))
		for _, cfg := range cfgs {
			plan := &exec.JoinNode{
				Build:     &exec.ScanNode{Rel: build, Cols: cols},
				Probe:     &exec.ScanNode{Rel: probe, Cols: cols},
				BuildKeys: keys, ProbeKeys: keys, Kind: kind,
			}
			res, err := exec.Run(plan, cfg.opt)
			name := fmt.Sprintf("kind%d/%s", kind, cfg.name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			requireRows(t, name, renderResult(res), want, cfg.opt.Parallelism == 1)
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

// TestSemiAntiJoinDuplicateBuildKeys: inner, semi and anti joins whose
// build side repeats every key many times — in runs or scattered — with
// NULL keys on both sides, -0.0 and +0.0, NaN payloads and a two-column
// int+string key, over hot, frozen and evicted build chunks, agree with
// refJoin: in order serially, as multisets with four workers. The build
// side is the scan or a GROUP BY of its keys with a count, a pipeline
// breaker with the same key set, whose rows an inner join emits.
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
			var groupedRows []types.Row // the keys and their count, first seen first
			for _, g := range refGroupBy(buildRows, nk) {
				groupedRows = append(groupedRows, g[:nk+1])
			}
			kinds := []exec.JoinKind{exec.InnerJoin, exec.SemiJoin, exec.AntiJoin}
			wants := map[exec.JoinKind][][]string{} // per kind: over the scan, over the GROUP BY
			for _, kind := range kinds {
				for _, ref := range [][]types.Row{buildRows, groupedRows} {
					want := renderRows(refJoin(kind, probeRows, ref, keys, keys))
					if len(want) == 0 || (kind != exec.InnerJoin && len(want) == len(probeRows)) {
						t.Fatalf("%s: reference keeps %d of %d probe rows; the case tests nothing", shape.name, len(want), len(probeRows))
					}
					wants[kind] = append(wants[kind], want)
				}
			}
			for _, residency := range []string{"hot", "frozen", "evicted"} {
				build, reset := residentRel(t, rowKinds, buildRows, residency)
				for _, kind := range kinds {
					scan := &exec.ScanNode{Rel: build, Cols: cols}
					grouped := &exec.AggNode{Child: scan, GroupBy: keys, Aggs: []exec.AggSpec{{Func: exec.AggCount}}}
					for i, buildPlan := range []exec.Node{scan, grouped} {
						want := wants[kind][i]
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
// holding 1 000 distinct keys allocates for the keys, not the rows. A
// serial build of 100 000 rows allocates at most 16 KiB more than one of
// 10 000 rows in the same five chunks, every vector full, where
// materializing the key column alone would add 810 KB. A build on four
// workers allocates at most what four serial builds of the 10 000 rows
// do: each worker that claims a morsel keeps its own table of at most the
// 1 000 keys. How many workers claim one is up to the scheduler, and the
// bound holds for every count, so the verdict does not depend on it. The
// probe side holds every build key, so the key pass's filter drops no
// build row: the build sinks consume all of them.
func TestSemiJoinBuildAllocatesPerDistinctKey(t *testing.T) {
	const distinct = 1_000
	schema := types.NewSchema(types.Column{Name: "k", Kind: types.Int64})
	probe := storage.NewRelation(schema, 64)
	probeKeys := make([]int64, distinct)
	for k := range probeKeys {
		probeKeys[k] = int64(k)
	}
	if err := probe.BulkAppend([]core.ColumnData{{Kind: types.Int64, Ints: probeKeys}}, distinct); err != nil {
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
		if res.NumRows() != distinct {
			t.Fatalf("par %d: %d rows, want %d", par, res.NumRows(), distinct)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// Allocation by anything else running only adds: take the least of a
	// few runs.
	least := func(rows, par int) uint64 {
		return min(allocated(rows, par), allocated(rows, par), allocated(rows, par))
	}
	small := least(10_000, 1)
	if large := least(100_000, 1); large > small+16<<10 {
		t.Fatalf("serial: %d bytes for 10 000 build rows, %d for 100 000 over the same %d keys", small, large, distinct)
	}
	if large := least(100_000, 4); large > 4*small {
		t.Fatalf("par 4: %d bytes for 100 000 build rows over %d keys, more than four serial builds of 10 000 rows (%d bytes each)", large, distinct, small)
	}
}

// FuzzJoin holds inner, semi and anti joins over random key multisets to
// refJoin. The first byte picks the key shape — one float, int or string
// column, or a float+string pair — and where build rows end; every further
// byte is one row, its key cells drawn from the kinds' pools (NULLs, NaN
// payloads, -0.0 and +0.0 among them). Both chains run, serially and with
// three workers. The int shape, whose semi and anti joins filter their
// build scan by the probe keys' range and tags, also runs over all-frozen
// copies of both sides under ModeVectorizedSARGPSMA, so SMAs and PSMAs
// decide that range.
func FuzzJoin(f *testing.F) {
	f.Add([]byte{0x13, 0, 1, 2, 3, 4, 5, 1, 1, 0, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{0x40, 9, 9, 9, 9, 3, 4, 13, 22, 31, 40, 0, 255})
	// Int keys: a sparse probe side (MaxInt64, MinInt64, 0) over every
	// build key, an all-NULL probe side and an empty one.
	f.Add([]byte{50<<2 | 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1, 0, 5, 6, 5, 0, 6})
	f.Add([]byte{32<<2 | 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	f.Add([]byte{63<<2 | 1, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 400 {
			return
		}
		shapes := [][]types.Kind{{types.Float64}, {types.Int64}, {types.String}, {types.Float64, types.String}}
		kinds := shapes[data[0]%4]
		nk := len(kinds)
		body := data[1:]
		nb := int(data[0]>>2) * len(body) / 63
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
		sides := [][2]*storage.Relation{{relOf(t, rowKinds, buildRows), relOf(t, rowKinds, probeRows)}}
		opts := []exec.Options{
			{Mode: exec.ModeVectorizedSARG},
			{Mode: exec.ModeJIT},
			{Mode: exec.ModeVectorizedSARG, Parallelism: 3},
			{Mode: exec.ModeJIT, Parallelism: 3},
		}
		if data[0]%4 == 1 {
			build, _ := residentRel(t, rowKinds, buildRows, "frozen")
			probe, _ := residentRel(t, rowKinds, probeRows, "frozen")
			sides = append(sides, [2]*storage.Relation{build, probe})
			opts = append(opts, exec.Options{Mode: exec.ModeVectorizedSARGPSMA}, exec.Options{Mode: exec.ModeVectorizedSARGPSMA, Parallelism: 3})
		}
		cols, keys := make([]int, nk+1), make([]int, nk)
		for i := range cols {
			cols[i] = i
		}
		for i := range keys {
			keys[i] = i
		}
		for _, kind := range []exec.JoinKind{exec.InnerJoin, exec.SemiJoin, exec.AntiJoin} {
			want := renderRows(refJoin(kind, probeRows, buildRows, keys, keys))
			for si, side := range sides {
				for _, opt := range opts {
					plan := &exec.JoinNode{
						Build:     &exec.ScanNode{Rel: side[0], Cols: cols},
						Probe:     &exec.ScanNode{Rel: side[1], Cols: cols},
						BuildKeys: keys, ProbeKeys: keys, Kind: kind,
					}
					res, err := exec.Run(plan, opt)
					if err != nil {
						t.Fatal(err)
					}
					requireRows(t, fmt.Sprintf("kind%d/side%d/%+v", kind, si, opt), renderResult(res), want, opt.Parallelism <= 1)
				}
			}
		}
	})
}

// TestKeyedJoinAtInt64Extremes: a key-passed join indexes dense probe
// keys directly (a keyed table's front at key − lo), so its range must be
// computed without int64 overflow and must miss every key outside it.
// The key sets: {MinInt64, -1, 0, MaxInt64} and {MinInt64, 0}, whose
// range hi − lo + 1 overflows int64 (the join hashes); dense ranges at
// either end of int64 and around 0 (keyed). Every set has NULL keys on
// both sides, probe keys one below and one above the build's, and build
// keys one below and one above the probe's. Inner, semi and anti joins
// run on one worker and on two, in every vectorized mode, against refJoin.
func TestKeyedJoinAtInt64Extremes(t *testing.T) {
	span := func(lo int64, n int) []int64 {
		ks := make([]int64, n)
		for i := range ks {
			ks[i] = lo + int64(i)
		}
		return ks
	}
	sets := []struct {
		name         string
		probe, build []int64
	}{
		{"extremes", []int64{math.MinInt64, -1, 0, math.MaxInt64}, []int64{math.MinInt64, -1, 0, math.MaxInt64, 5}},
		{"min-and-0", []int64{math.MinInt64, 0}, []int64{math.MinInt64, 0, -1, 1}},
		{"dense-min", span(math.MinInt64, 12), span(math.MinInt64+1, 12)},
		{"dense-max", span(math.MaxInt64-11, 12), span(math.MaxInt64-12, 12)},
		{"dense-0", span(-6, 13), append(span(-5, 11), -7, 7)},
	}
	kinds := []types.Kind{types.Int64, types.Int64}
	// rows repeats keys (NULL among them) times, each row with its ordinal,
	// in a shuffled order, so several 64-row chunks and duplicates exist.
	rows := func(keys []int64, times int, seed int64) []types.Row {
		var vals []types.Value
		for i := 0; i < times; i++ {
			vals = append(vals, null(types.Int64))
			for _, k := range keys {
				vals = append(vals, iv(k))
			}
		}
		rand.New(rand.NewSource(seed)).Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		out := make([]types.Row, len(vals))
		for i, v := range vals {
			out[i] = types.Row{v, iv(int64(i))}
		}
		return out
	}
	for _, set := range sets {
		probeRows, buildRows := rows(set.probe, 20, 1), rows(set.build, 3, 2)
		probe, build := relOf(t, kinds, probeRows), relOf(t, kinds, buildRows)
		for _, kind := range []exec.JoinKind{exec.InnerJoin, exec.SemiJoin, exec.AntiJoin} {
			want := renderRows(refJoin(kind, probeRows, buildRows, []int{0}, []int{0}))
			for _, mode := range []exec.ScanMode{exec.ModeVectorized, exec.ModeVectorizedSARG, exec.ModeVectorizedSARGPSMA} {
				for _, par := range []int{1, 2} {
					plan := &exec.JoinNode{
						Build:     &exec.ScanNode{Rel: build, Cols: []int{0, 1}},
						Probe:     &exec.ScanNode{Rel: probe, Cols: []int{0, 1}},
						BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: kind,
					}
					name := fmt.Sprintf("%s/kind%d/%v/par%d", set.name, kind, mode, par)
					res, err := exec.Run(plan, exec.Options{Mode: mode, Parallelism: par})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					requireRows(t, name, renderResult(res), want, par == 1)
				}
			}
		}
	}
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
func groupKey(row types.Row, keys []int) string {
	key := make(types.Row, len(keys))
	for i, k := range keys {
		key[i] = row[k]
	}
	return render(key)
}

// refGroups splits rows into groups of equal key columns (groupKey), in
// first-seen order, each group's rows in input order.
func refGroups(rows []types.Row, keys []int) [][]types.Row {
	var groups [][]types.Row
	byKey := map[string]int{}
	for _, row := range rows {
		g, ok := byKey[groupKey(row, keys)]
		if !ok {
			g = len(groups)
			byKey[groupKey(row, keys)] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], row)
	}
	return groups
}

// refGroupBy is the reference aggregation: COUNT(*), SUM(ordinal),
// MIN(ordinal), MAX(ordinal) per group of the first nkeys columns, groups
// in first-seen order.
func refGroupBy(rows []types.Row, nkeys int) []types.Row {
	keys := make([]int, nkeys)
	for i := range keys {
		keys[i] = i
	}
	var out []types.Row
	for _, g := range refGroups(rows, keys) {
		lo, hi, sum := g[0][nkeys].Int(), g[0][nkeys].Int(), 0.0
		for _, row := range g {
			ord := row[nkeys].Int()
			sum += float64(ord)
			lo, hi = min(lo, ord), max(hi, ord)
		}
		out = append(out, append(append(types.Row{}, g[0][:nkeys]...), iv(int64(len(g))), fv(sum), iv(lo), iv(hi)))
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
		{Mode: exec.ModeJIT, Parallelism: 4},
	} {
		res, err := exec.Run(groupPlan(rel, 2), opt)
		if err != nil {
			t.Fatal(err)
		}
		got := renderResult(res)
		sort.Strings(got)
		requireRows(t, fmt.Sprintf("%v par%d", opt.Mode, opt.Parallelism), got, want, true)
	}
}

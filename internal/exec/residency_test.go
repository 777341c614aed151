package exec

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// residency is one state a frozen relation with a block store can be in
// when a query starts. reset puts the relation into that state and returns
// it; for "reopened" that is a fresh relation restored from the manifest.
type residency struct {
	name  string
	reset func() *storage.Relation
}

// evictFrozen evicts every frozen chunk of rel.
func evictFrozen(t testing.TB, rel *storage.Relation) {
	t.Helper()
	for i := 0; i < rel.NumChunks(); i++ {
		if rel.Chunk(i).State() != storage.ChunkFrozen {
			continue
		}
		if ok, err := rel.EvictChunk(i); err != nil || !ok {
			t.Fatalf("evict chunk %d: ok=%v err=%v", i, ok, err)
		}
	}
}

// residencies attaches a block store to the completely frozen rel and
// returns the states its payload can be in: resident, evicted, partially
// loaded (first and last column of every chunk) and reopened from a
// manifest (nothing in RAM, not even the directories).
func residencies(t testing.TB, rel *storage.Relation) (*blockstore.Store, []residency) {
	t.Helper()
	store, err := blockstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rel.SetBlockStore(store, 0, nil)
	if err := rel.FlushFrozen(); err != nil {
		t.Fatal(err)
	}
	return store, []residency{
		{"resident", func() *storage.Relation { return rel }},
		{"evicted", func() *storage.Relation { evictFrozen(t, rel); return rel }},
		{"partial", func() *storage.Relation {
			evictFrozen(t, rel)
			views := rel.Snapshot()
			for i := range views {
				if err := views[i].Acquire([]int{0, rel.Schema().NumColumns() - 1}); err != nil {
					t.Fatal(err)
				}
				views[i].Release()
			}
			return rel
		}},
		{"reopened", func() *storage.Relation {
			re := storage.NewRelation(rel.Schema(), rel.ChunkCapacity())
			re.SetBlockStore(store, 0, nil)
			for _, mc := range rel.ManifestChunks() {
				if err := re.RestoreEvicted(mc.Handle, mc.Rows, mc.Bytes, mc.Deleted, mc.NumDeleted); err != nil {
					t.Fatal(err)
				}
			}
			return re
		}},
	}
}

// TestScansAgreeAcrossResidency: a scan returns the same rows whether the
// blocks it reads are resident, evicted, partly loaded or freshly reopened
// from a manifest, and whether its chunks are frozen at all (hot: none;
// half-hot: the first half) — in every scan mode, serial and parallel —
// as the same relation frozen without a block store.
func TestScansAgreeAcrossResidency(t *testing.T) {
	const n, chunkCap = 20000, 1 << 12
	plans := []struct {
		name string
		scan func(rel *storage.Relation) Node
	}{
		{"sarg", func(rel *storage.Relation) Node {
			return &ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}, Preds: []core.Predicate{
				{Col: 0, Op: types.Between, Lo: types.IntValue(1000), Hi: types.IntValue(15000)},
				{Col: 2, Op: types.Eq, Lo: types.StringValue("paid")},
				{Col: 1, Op: types.Lt, Lo: types.FloatValue(400)},
			}}
		}},
		{"one-chunk", func(rel *storage.Relation) Node {
			return &ScanNode{Rel: rel, Cols: []int{3, 0}, Preds: []core.Predicate{
				{Col: 0, Op: types.Between, Lo: types.IntValue(5000), Hi: types.IntValue(5100)},
			}}
		}},
		{"nulls+filter", func(rel *storage.Relation) Node {
			return &ScanNode{Rel: rel, Cols: []int{2, 3},
				Preds:  []core.Predicate{{Col: 2, Op: types.IsNull}},
				Filter: Compare{Op: types.Gt, L: Col(1), R: CInt(40)}}
		}},
		{"aggregate", func(rel *storage.Relation) Node {
			return &AggNode{
				Child:   &ScanNode{Rel: rel, Cols: []int{2, 1}},
				GroupBy: []int{0},
				Aggs:    []AggSpec{{Func: AggSum, Arg: Col(1)}, {Func: AggCount}},
			}
		}},
		{"no-columns", func(rel *storage.Relation) Node {
			return &AggNode{Child: &ScanNode{Rel: rel}, Aggs: []AggSpec{{Func: AggCount}}}
		}},
	}
	const k = n/chunkCap + 1
	build := func(frozenChunks int) *storage.Relation {
		rel := ordersRel(t, n, chunkCap, frozenChunks)
		for _, row := range []uint32{3, 77, 4000} {
			if !rel.Delete(storage.TupleID{Chunk: 1, Row: row}) {
				t.Fatal("delete failed")
			}
		}
		return rel
	}
	ref := build(k)
	_, states := residencies(t, build(k))
	hot, halfHot := build(0), build(k/2)
	states = append(states,
		residency{"hot", func() *storage.Relation { return hot }},
		residency{"half-hot", func() *storage.Relation { return halfHot }})
	for _, p := range plans {
		want, err := Run(p.scan(ref), Options{Mode: ModeVectorizedSARG})
		if err != nil {
			t.Fatal(err)
		}
		if want.NumRows() == 0 {
			t.Fatalf("%s: empty reference result", p.name)
		}
		for _, st := range states {
			for _, mode := range allModes {
				for _, par := range []int{1, 4} {
					got, err := Run(p.scan(st.reset()), Options{Mode: mode, Parallelism: par})
					name := fmt.Sprintf("%s/%s/mode=%v/par=%d", p.name, st.name, mode, par)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					requireApproxResult(t, name, want, got)
				}
			}
		}
	}
}

// TestSMASkipsEvictedChunksWithoutIO: on a relation frozen sorted, with
// every chunk evicted, a range predicate that falls into one chunk reads
// that chunk's scanned columns and nothing else — the resident directories
// rule the other chunks out, so they are neither pinned nor read. After a
// reopen the same holds once the directories have been read once.
func TestSMASkipsEvictedChunksWithoutIO(t *testing.T) {
	const n, chunkCap = 16384, 1 << 12 // 4 chunks, okey ascending across them
	rel := ordersRel(t, n, chunkCap, 0)
	if err := rel.FreezeAll(core.FreezeOptions{SortBy: 0}, false); err != nil {
		t.Fatal(err)
	}
	bs, states := residencies(t, rel)
	kinds := []types.Kind{types.Int64, types.Float64, types.String, types.Int64}
	plan := func(rel *storage.Relation) Node {
		return &ScanNode{Rel: rel, Cols: []int{0, 3}, Preds: []core.Predicate{
			{Col: 0, Op: types.Between, Lo: types.IntValue(2*chunkCap + 10), Hi: types.IntValue(2*chunkCap + 500)},
		}}
	}
	for _, st := range states {
		if st.name != "evicted" && st.name != "reopened" {
			continue
		}
		rel := st.reset()
		// What the one matching chunk's two columns occupy on disk.
		d, err := bs.ReadDirectory(rel.ManifestChunks()[2].Handle, kinds)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(d.AttrBytes(0) + d.AttrBytes(3))
		for _, mode := range []ScanMode{ModeVectorizedSARG, ModeVectorizedSARGPSMA} {
			for _, par := range []int{1, 4} {
				rel = st.reset()
				if st.name == "reopened" {
					// Nothing is resident after a reopen, so the first scan
					// has to pin every chunk to learn its SMAs. From then on
					// the directories stay, evicted or not.
					if _, err := Run(plan(rel), Options{Mode: mode, Parallelism: par}); err != nil {
						t.Fatal(err)
					}
					evictFrozen(t, rel)
				}
				before := bs.Stats()
				res, err := Run(plan(rel), Options{Mode: mode, Parallelism: par, Profile: true})
				if err != nil {
					t.Fatal(err)
				}
				after := bs.Stats()
				name := fmt.Sprintf("%s/mode=%v/par=%d", st.name, mode, par)
				if res.NumRows() != 491 {
					t.Fatalf("%s: %d rows, want 491", name, res.NumRows())
				}
				if loads, read := after.Loads-before.Loads, after.BytesRead-before.BytesRead; loads != 1 || read != want {
					t.Fatalf("%s: %d loads reading %d bytes; the matching chunk's two columns are 1 load of %d bytes", name, loads, read, want)
				}
				sp := res.Profile.Scan
				if sp.SkippedChunks != 3 || sp.FrozenChunks != 1 || sp.Reloads != 1 || sp.ReloadBytes != uint64(want) {
					t.Fatalf("%s: profile skipped=%d frozen=%d reloads=%d reload-bytes=%d, want 3/1/1/%d",
						name, sp.SkippedChunks, sp.FrozenChunks, sp.Reloads, sp.ReloadBytes, want)
				}
				for i := 0; i < rel.NumChunks(); i++ {
					if resident := rel.Chunk(i).Block() != nil; resident != (i == 2) {
						t.Fatalf("%s: chunk %d resident=%v after the scan", name, i, resident)
					}
				}
			}
		}
	}
}

// TestBatchRangesNeverStale: a scan stamps a frozen block's SMA on the
// integer columns it unpacks (core.BatchCol.Ranged), and the range proofs
// and the int64 sum partials trust it. One scan here meets small values in
// resident frozen blocks, values near ±2^62 — far outside those blocks'
// SMAs — in hot chunks that follow them, and values near 2^61 in a block
// evicted before every run and reloaded by it. Grouped and ungrouped
// SUM/AVG of a column and of a scaled product (NULL where it leaves int64)
// must equal math/big's answer straight off the scan, after an inner
// join's build-side gather and through a MapNode, in every mode at
// parallelism 1 and 4: a hot batch that kept a frozen block's bound would
// fold past int64 in the partials and wrap the product.
func TestBatchRangesNeverStale(t *testing.T) {
	const chunkCap = 1024
	schema := types.NewSchema(
		types.Column{Name: "g", Kind: types.Int64},
		types.Column{Name: "v", Kind: types.Int64, Nullable: true},
		types.Column{Name: "w", Kind: types.Int64},
	)
	layout := []string{"small", "hot", "reloaded", "hot", "small", "hot"}
	n := len(layout)*chunkCap - chunkCap/2 // the last chunk is the hot tail
	cols := core.MakeColumns(schema, n)
	r := rand.New(rand.NewSource(53))
	const groups = 4
	type agg struct{ rows, nv, np int64 }
	want, sumV, sumP := make([]agg, groups), make([]*big.Int, groups), make([]*big.Int, groups)
	for g := range sumV {
		sumV[g], sumP[g] = new(big.Int), new(big.Int)
	}
	for i := 0; i < n; i++ {
		g, v, w := int64(r.Intn(groups)), int64(0), int64(1+r.Intn(9))
		switch layout[i/chunkCap] {
		case "small":
			v = int64(r.Intn(1001) - 500)
		case "hot":
			if v = 1<<62 - int64(r.Intn(1000)); r.Intn(4) == 0 {
				v = -v
			}
		default:
			v = 1<<61 + int64(r.Intn(1000))
		}
		cols[0].Ints[i], cols[1].Ints[i], cols[2].Ints[i] = g, v, w
		want[g].rows++
		if cols[1].Nulls[i] = r.Intn(16) == 0; cols[1].Nulls[i] {
			continue
		}
		want[g].nv++
		sumV[g].Add(sumV[g], big.NewInt(v))
		if p := new(big.Int).Mul(big.NewInt(v), big.NewInt(w)); p.IsInt64() {
			want[g].np++
			sumP[g].Add(sumP[g], p)
		}
	}
	rel := storage.NewRelation(schema, chunkCap)
	if err := rel.BulkAppend(cols, n); err != nil {
		t.Fatal(err)
	}
	for i, kind := range layout {
		if kind != "hot" {
			if err := rel.FreezeChunk(i, core.FreezeOptions{SortBy: -1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	store, err := blockstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rel.SetBlockStore(store, 0, nil)
	if err := rel.FlushFrozen(); err != nil {
		t.Fatal(err)
	}
	keys := storage.NewRelation(types.NewSchema(types.Column{Name: "k", Kind: types.Int64}), chunkCap)
	if err := keys.BulkAppend([]core.ColumnData{{Kind: types.Int64, Ints: []int64{0, 1, 2, 3}}}, groups); err != nil {
		t.Fatal(err)
	}

	// Every plan's output columns from off are g, v, w.
	aggs := func(off int) []AggSpec {
		v, prod := Col(off+1), Mul(Div(Col(off+1), CInt(100)), Col(off+2))
		return []AggSpec{{Func: AggSum, Arg: v}, {Func: AggAvg, Arg: v}, {Func: AggSum, Arg: prod}, {Func: AggAvg, Arg: prod}, {Func: AggCountCol, Arg: v}, {Func: AggCount}}
	}
	scan := func() Node { return &ScanNode{Rel: rel, Cols: []int{0, 1, 2}} }
	plans := []struct {
		name    string
		grouped bool
		plan    func() Node
	}{
		{"grouped", true, func() Node { return &AggNode{Child: scan(), GroupBy: []int{0}, Aggs: aggs(0)} }},
		{"ungrouped", false, func() Node { return &AggNode{Child: scan(), Aggs: aggs(0)} }},
		{"join", true, func() Node {
			j := &JoinNode{Build: scan(), Probe: &ScanNode{Rel: keys, Cols: []int{0}}, BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: InnerJoin}
			return &AggNode{Child: j, GroupBy: []int{0}, Aggs: aggs(1)}
		}},
		{"map", true, func() Node {
			m := &MapNode{Child: scan(), Exprs: []Expr{Col(0), Col(1), Col(2)}}
			return &AggNode{Child: m, GroupBy: []int{0}, Aggs: aggs(0)}
		}},
	}
	quo := func(sum *big.Int, n, scale int64) types.Value {
		if n == 0 {
			return types.NullValue(types.Float64)
		}
		f, _ := new(big.Rat).SetFrac(sum, big.NewInt(n*scale)).Float64()
		return types.FloatValue(f)
	}
	// The expected row of the groups in gs, summed.
	expect := func(gs ...int) types.Row {
		var a agg
		v, p := new(big.Int), new(big.Int)
		for _, g := range gs {
			a.rows, a.nv, a.np = a.rows+want[g].rows, a.nv+want[g].nv, a.np+want[g].np
			v.Add(v, sumV[g])
			p.Add(p, sumP[g])
		}
		return types.Row{quo(v, min(a.nv, 1), 1), quo(v, a.nv, 1), quo(p, min(a.np, 1), 100), quo(p, a.np, 100), types.IntValue(a.nv), types.IntValue(a.rows)}
	}
	for _, p := range plans {
		for _, mode := range allModes {
			for _, par := range []int{1, 4} {
				name := fmt.Sprintf("%s/mode=%v/par=%d", p.name, mode, par)
				if ok, err := rel.EvictChunk(2); err != nil || !ok {
					t.Fatalf("%s: evict: ok=%v err=%v", name, ok, err)
				}
				res, err := Run(p.plan(), Options{Mode: mode, Parallelism: par})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !p.grouped {
					if got, w := res.Row(0), expect(0, 1, 2, 3); res.NumRows() != 1 || !reflect.DeepEqual(got, w) {
						t.Fatalf("%s: %v, want %v", name, got, w)
					}
					continue
				}
				if res.NumRows() != groups {
					t.Fatalf("%s: %d groups, want %d", name, res.NumRows(), groups)
				}
				for i := 0; i < groups; i++ {
					row := res.Row(i)
					if got, w := row[1:], expect(int(row[0].Int())); !reflect.DeepEqual(got, w) {
						t.Fatalf("%s: group %v: %v, want %v", name, row[0], got, w)
					}
				}
			}
		}
	}
}

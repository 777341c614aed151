package datablocks_test

// One benchmark family per table and figure of the paper's evaluation.
// Run with: go test -bench=. -benchmem
//
//	BenchmarkTable1Compression  — Table 1: freeze throughput + sizes
//	BenchmarkTable2TPCH         — Table 2/4: query runtimes per scan type
//	BenchmarkTable3PointAccess  — Table 3: point-lookup paths
//	BenchmarkTPCC               — §5.3: transaction throughput
//	BenchmarkFig5CompileTime    — Figure 5: code-path explosion
//	BenchmarkFig8FindMatches    — Figure 8: find-initial-matches kernels
//	BenchmarkFig9ReduceMatches  — Figure 9: reduce-matches kernels
//	BenchmarkFig10BlockSize     — Figure 10: compression vs block size
//	BenchmarkFig11SortedQ6      — Figure 11: Q6 on sorted blocks
//	BenchmarkFig12aSARG         — Figure 12a: SARG on packed vs byte codes
//	BenchmarkFig12bUnpack       — Figure 12b: unpack matches
//	BenchmarkFig13VectorSize    — Figure 13: vector-size sweep
//	BenchmarkFlightsQuery       — Appendix D: SMA/PSMA block skipping

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"datablocks"

	"datablocks/internal/bitpack"
	"datablocks/internal/compress"
	"datablocks/internal/core"
	"datablocks/internal/datasets"
	"datablocks/internal/exec"
	"datablocks/internal/experiments"
	"datablocks/internal/index"
	"datablocks/internal/simd"
	"datablocks/internal/storage"
	"datablocks/internal/tpcc"
	"datablocks/internal/tpch"
	"datablocks/internal/types"
	"datablocks/internal/xrand"
)

const benchSF = 0.01 // ~15000 orders / ~60000 lineitems

var (
	benchOnce sync.Once
	benchHot  *tpch.DB
	benchCold *tpch.DB
	benchSort *tpch.DB
)

func benchDBs(b *testing.B) (hot, cold, sorted *tpch.DB) {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		if benchHot, err = tpch.Generate(benchSF, 0); err != nil {
			panic(err)
		}
		if benchCold, err = tpch.Generate(benchSF, 0); err != nil {
			panic(err)
		}
		if err = benchCold.FreezeAll(false, false); err != nil {
			panic(err)
		}
		if benchSort, err = tpch.Generate(benchSF, 0); err != nil {
			panic(err)
		}
		if err = benchSort.FreezeAll(true, false); err != nil {
			panic(err)
		}
	})
	return benchHot, benchCold, benchSort
}

// BenchmarkTable1Compression measures freezing a 2^16-row lineitem-shaped
// chunk into a Data Block (the operation whose output sizes Table 1
// reports) and records the achieved compression ratio.
func BenchmarkTable1Compression(b *testing.B) {
	hot, _, _ := benchDBs(b)
	cols, n := experiments.RelationColumns(hot.Lineitem)
	if n > core.MaxRows {
		n = core.MaxRows
	}
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk, err := core.Freeze(truncate(cols, n), n, core.FreezeOptions{SortBy: -1})
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(blk.UncompressedSize()) / float64(blk.CompressedSize())
	}
	b.ReportMetric(ratio, "compression-ratio")
	b.ReportMetric(float64(n), "rows/block")
}

func truncate(cols []core.ColumnData, n int) []core.ColumnData {
	out := make([]core.ColumnData, len(cols))
	for i, c := range cols {
		out[i] = c
		if c.Ints != nil {
			out[i].Ints = c.Ints[:n]
		}
		if c.Floats != nil {
			out[i].Floats = c.Floats[:n]
		}
		if c.Strs != nil {
			out[i].Strs = c.Strs[:n]
		}
		if c.Nulls != nil {
			out[i].Nulls = c.Nulls[:n]
		}
	}
	return out
}

// BenchmarkTable2TPCH runs each supported TPC-H query under every Table 2
// scan configuration.
func BenchmarkTable2TPCH(b *testing.B) {
	hot, cold, _ := benchDBs(b)
	for _, q := range tpch.SupportedQueries {
		for _, cfg := range experiments.Table2Configs {
			db := hot
			if cfg.Frozen {
				db = cold
			}
			b.Run(fmt.Sprintf("Q%d/%s", q, cfg.Name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := db.Query(q, exec.Options{Mode: cfg.Mode}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable3PointAccess measures the point-lookup paths of Table 3.
func BenchmarkTable3PointAccess(b *testing.B) {
	hot, cold, _ := benchDBs(b)
	n := hot.Customer.NumRows()
	mkIndex := func(rel *storage.Relation) *index.Hash {
		pk := index.NewHash(n)
		if err := pk.Rebuild(rel, 0); err != nil {
			b.Fatal(err)
		}
		return pk
	}
	hotIdx, coldIdx := mkIndex(hot.Customer), mkIndex(cold.Customer)
	r := xrand.New(1)
	b.Run("index/uncompressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tid, _ := hotIdx.Lookup(r.Range(1, int64(n)))
			if _, ok := hot.Customer.Get(tid); !ok {
				b.Fatal("missing")
			}
		}
	})
	b.Run("index/datablocks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tid, _ := coldIdx.Lookup(r.Range(1, int64(n)))
			if _, ok := cold.Customer.Get(tid); !ok {
				b.Fatal("missing")
			}
		}
	})
	cols := make([]int, hot.Customer.Schema().NumColumns())
	for i := range cols {
		cols[i] = i
	}
	scan := func(rel *storage.Relation, mode exec.ScanMode) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan := &exec.ScanNode{Rel: rel, Cols: cols, Preds: []core.Predicate{
					{Col: 0, Op: types.Eq, Lo: types.IntValue(r.Range(1, int64(n)))},
				}}
				res, err := exec.Run(plan, exec.Options{Mode: mode})
				if err != nil || res.NumRows() != 1 {
					b.Fatalf("rows=%d err=%v", res.NumRows(), err)
				}
			}
		}
	}
	b.Run("scan/uncompressed-jit", scan(hot.Customer, exec.ModeJIT))
	b.Run("scan/uncompressed-vectorized", scan(hot.Customer, exec.ModeVectorizedSARG))
	b.Run("scan/datablocks", scan(cold.Customer, exec.ModeVectorizedSARG))
	b.Run("scan/datablocks-psma", scan(cold.Customer, exec.ModeVectorizedSARGPSMA))
}

// BenchmarkTPCC measures the §5.3 transaction paths.
func BenchmarkTPCC(b *testing.B) {
	newDB := func(b *testing.B) *tpcc.DB {
		db, err := tpcc.New(tpcc.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		return db
	}
	b.Run("neworder/uncompressed", func(b *testing.B) {
		db := newDB(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.NewOrderTx(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("neworder/cold-frozen", func(b *testing.B) {
		db := newDB(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := db.NewOrderTx(); err != nil {
				b.Fatal(err)
			}
			if i%2000 == 1999 {
				if err := db.FreezeNewOrderCold(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	for _, frozen := range []bool{false, true} {
		name := "readonly/uncompressed"
		if frozen {
			name = "readonly/frozen"
		}
		b.Run(name, func(b *testing.B) {
			db := newDB(b)
			for i := 0; i < 3000; i++ {
				if err := db.NewOrderTx(); err != nil {
					b.Fatal(err)
				}
			}
			if frozen {
				if err := db.FreezeAll(); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					if _, err := db.OrderStatusTx(); err != nil {
						b.Fatal(err)
					}
				} else {
					if _, err := db.StockLevelTx(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkFig5CompileTime isolates query compilation cost as the number
// of storage-layout combinations grows.
func BenchmarkFig5CompileTime(b *testing.B) {
	for _, combos := range []int{1, 16, 256, 1024} {
		rel, err := experiments.LayoutRelation(combos)
		if err != nil {
			b.Fatal(err)
		}
		cols := make([]int, 8)
		for i := range cols {
			cols[i] = i
		}
		plan := &exec.ScanNode{Rel: rel, Cols: cols}
		b.Run(fmt.Sprintf("layouts=%d/jit", combos), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.CompileOnly(plan, exec.Options{Mode: exec.ModeJIT}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("layouts=%d/vectorized", combos), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.CompileOnly(plan, exec.Options{Mode: exec.ModeVectorized}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8FindMatches measures the find-initial-matches kernels per
// lane width, scalar vs SWAR, at 20% selectivity.
func BenchmarkFig8FindMatches(b *testing.B) {
	const n = 1 << 14
	for _, width := range []int{1, 2, 4, 8} {
		r := xrand.New(3)
		data := make([]byte, n*width+8)
		for i := 0; i < n; i++ {
			simd.WriteUint(data, i, width, r.Uint64()%100)
		}
		out := make([]uint32, 0, n+8)
		b.Run(fmt.Sprintf("w%d/scalar", 8*width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out = simd.FindScalar(data, width, n, simd.OpBetween, 10, 29, 0, out[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
		b.Run(fmt.Sprintf("w%d/swar", 8*width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out = simd.Find(data, width, n, simd.OpBetween, 10, 29, 0, out[:0])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
}

// BenchmarkFig9ReduceMatches measures the reduce-matches kernels across
// first-predicate selectivities (second predicate fixed at 40%).
func BenchmarkFig9ReduceMatches(b *testing.B) {
	const n = 1 << 14
	for _, width := range []int{1, 4} {
		r := xrand.New(4)
		data := make([]byte, n*width+8)
		for i := 0; i < n; i++ {
			simd.WriteUint(data, i, width, r.Uint64()%200)
		}
		for _, sel := range []int{10, 50, 100} {
			matches := simd.Find(data, width, n, simd.OpLt, uint64(2*sel), 0, 0, nil)
			scratch := make([]uint32, len(matches))
			b.Run(fmt.Sprintf("w%d/sel%d/scalar", 8*width, sel), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(scratch, matches)
					simd.ReduceScalar(data, width, simd.OpLt, 80, 0, scratch[:len(matches)])
				}
			})
			b.Run(fmt.Sprintf("w%d/sel%d/swar", 8*width, sel), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(scratch, matches)
					simd.Reduce(data, width, simd.OpLt, 80, 0, scratch[:len(matches)])
				}
			})
		}
	}
}

// BenchmarkFig10BlockSize measures freeze + size across block sizes.
func BenchmarkFig10BlockSize(b *testing.B) {
	hot, _, _ := benchDBs(b)
	cols, n := experiments.RelationColumns(hot.Lineitem)
	for _, size := range []int{2048, 8192, 65536} {
		b.Run(fmt.Sprintf("block=%d", size), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				rel, err := experiments.CloneRelation(hot.Lineitem.Schema(), cols, n, size, true)
				if err != nil {
					b.Fatal(err)
				}
				st := rel.MemoryStats()
				ratio = float64(experiments.UncompressedBytes(cols, n)) / float64(st.FrozenBytes)
			}
			b.ReportMetric(ratio, "compression-ratio")
		})
	}
}

// BenchmarkFig11SortedQ6 measures Q6 under the Figure 11 configurations.
func BenchmarkFig11SortedQ6(b *testing.B) {
	hot, cold, sorted := benchDBs(b)
	cfgs := []struct {
		name string
		db   *tpch.DB
		mode exec.ScanMode
	}{
		{"jit", hot, exec.ModeJIT},
		{"vec", hot, exec.ModeVectorized},
		{"datablocks+psma", cold, exec.ModeVectorizedSARGPSMA},
		{"sorted+psma", sorted, exec.ModeVectorizedSARGPSMA},
	}
	for _, cfg := range cfgs {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cfg.db.Query(6, exec.Options{Mode: cfg.mode}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12aSARG measures predicate evaluation on byte-aligned codes
// vs horizontal bit-packing.
func BenchmarkFig12aSARG(b *testing.B) {
	d, err := experiments.NewFig12Data()
	if err != nil {
		b.Fatal(err)
	}
	n := d.N
	bm := make([]uint64, (n+63)/64)
	out := make([]uint32, 0, n+8)
	for _, sel := range []int{10, 50, 100} {
		hi := uint64(1<<16) * uint64(sel) / 100
		tr := d.ACodes.TranslateRange(0, int64(hi))
		b.Run(fmt.Sprintf("sel%d/datablocks", sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if tr.Verdict == compress.Range {
					out = simd.Find(d.ACodes.Data, d.ACodes.Width, n, simd.OpBetween, tr.C1, tr.C2, 0, out[:0])
				}
			}
		})
		b.Run(fmt.Sprintf("sel%d/bitpack-branchy", sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.APacked.FindBetweenBitmap(0, uint32(hi), bm)
				out = simd.PositionsFromBitmapBranchy(bm, n, 0, out[:0])
			}
		})
		b.Run(fmt.Sprintf("sel%d/bitpack-table", sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.APacked.FindBetweenBitmap(0, uint32(hi), bm)
				out = simd.PositionsFromBitmap(bm, n, 0, out[:0])
			}
		})
	}
}

// BenchmarkFig12bUnpack measures unpacking three attributes at the matched
// positions.
func BenchmarkFig12bUnpack(b *testing.B) {
	d, err := experiments.NewFig12Data()
	if err != nil {
		b.Fatal(err)
	}
	n := d.N
	outI := make([]int64, n)
	outU := make([]uint32, n)
	full := make([]uint32, n)
	for _, sel := range []int{1, 20, 100} {
		hi := uint64(1<<16) * uint64(sel) / 100
		if hi == 0 {
			hi = 650
		}
		var matches []uint32
		if tr := d.ACodes.TranslateRange(0, int64(hi)); tr.Verdict == compress.All {
			matches = simd.Sequence(nil, n, 0)
		} else {
			matches = simd.Find(d.ACodes.Data, d.ACodes.Width, n, simd.OpBetween, tr.C1, tr.C2, 0, nil)
		}
		b.Run(fmt.Sprintf("sel%d/datablocks", sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.ACodes.Gather(matches, outI[:len(matches)])
				d.BCodes.Gather(matches, outI[:len(matches)])
				d.CCodes.Gather(matches, outI[:len(matches)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(matches)), "ns/match")
		})
		b.Run(fmt.Sprintf("sel%d/bitpack-positional", sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d.APacked.GatherPositions(matches, outU[:len(matches)])
				d.BPacked.GatherPositions(matches, outU[:len(matches)])
				d.CPacked.GatherPositions(matches, outU[:len(matches)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(matches)), "ns/match")
		})
		b.Run(fmt.Sprintf("sel%d/bitpack-unpackall", sel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, v := range []*bitpack.Vector{d.APacked, d.BPacked, d.CPacked} {
					v.UnpackAll(full)
					for j, p := range matches {
						outU[j] = full[p]
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(matches)), "ns/match")
		})
	}
}

// BenchmarkFig13VectorSize sweeps the scan vector size over Q6.
func BenchmarkFig13VectorSize(b *testing.B) {
	_, cold, _ := benchDBs(b)
	for _, vs := range []int{256, 2048, 8192, 65536} {
		b.Run(fmt.Sprintf("vec=%d", vs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cold.Query(6, exec.Options{Mode: exec.ModeVectorizedSARGPSMA, VectorSize: vs}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlightsQuery measures the Appendix D query: JIT over hot data vs
// Data Blocks with SMA/PSMA block skipping on naturally ordered data.
func BenchmarkFlightsQuery(b *testing.B) {
	hot, err := datasets.Flights(200_000, 0)
	if err != nil {
		b.Fatal(err)
	}
	frozen, err := datasets.Flights(200_000, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := frozen.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		b.Fatal(err)
	}
	b.Run("jit-uncompressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exec.Run(datasets.FlightsQuery(hot), exec.Options{Mode: exec.ModeJIT}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("datablocks-psma", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := exec.Run(datasets.FlightsQuery(frozen), exec.Options{Mode: exec.ModeVectorizedSARGPSMA}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEarlyProbe is the Appendix E ablation: a selective hash join
// probed by a lineitem scan, with and without early probing of the build
// side's tagged hash table inside the vectorized scan.
func BenchmarkEarlyProbe(b *testing.B) {
	_, cold, _ := benchDBs(b)
	li := cold.Lineitem.Schema()
	ord := cold.Orders.Schema()
	mkPlan := func(early bool) exec.Node {
		return &exec.AggNode{
			Child: &exec.JoinNode{
				Build: &exec.ScanNode{
					Rel:  cold.Orders,
					Cols: []int{ord.MustColumn("o_orderkey"), ord.MustColumn("o_orderdate")},
					Preds: []core.Predicate{{
						Col: ord.MustColumn("o_orderdate"), Op: types.Lt,
						Lo: types.DateValue(1992, 6, 1), // very selective build side
					}},
				},
				Probe: &exec.ScanNode{
					Rel:  cold.Lineitem,
					Cols: []int{li.MustColumn("l_orderkey"), li.MustColumn("l_extendedprice")},
				},
				BuildKeys:  []int{0},
				ProbeKeys:  []int{0},
				Kind:       exec.InnerJoin,
				EarlyProbe: early,
			},
			Aggs: []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggSum, Arg: exec.Col(1)}},
		}
	}
	for _, early := range []bool{false, true} {
		name := "off"
		if early {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(mkPlan(early), exec.Options{Mode: exec.ModeVectorizedSARG}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPointAccessMicro isolates the O(1) positional decompression of
// a single attribute (§3.4) against hot-chunk access.
func BenchmarkPointAccessMicro(b *testing.B) {
	hot, cold, _ := benchDBs(b)
	hotCh := hot.Lineitem.Chunk(0)
	coldCh := cold.Lineitem.Chunk(0)
	n := coldCh.Rows()
	r := xrand.New(2)
	b.Run("hot", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += hotCh.Hot().Ints(4)[r.Intn(n)]
		}
		_ = sink
	})
	b.Run("datablock", func(b *testing.B) {
		var sink int64
		for i := 0; i < b.N; i++ {
			sink += coldCh.Block().Int(4, r.Intn(n))
		}
		_ = sink
	})
}

// BenchmarkSerialize measures flattening a block to its pointer-free
// buffer and back (Figure 3).
func BenchmarkSerialize(b *testing.B) {
	_, cold, _ := benchDBs(b)
	blk := cold.Lineitem.Chunk(0).Block()
	kinds := make([]types.Kind, cold.Lineitem.Schema().NumColumns())
	for i, c := range cold.Lineitem.Schema().Columns {
		kinds[i] = c.Kind
	}
	b.Run("marshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := blk.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	buf, _ := blk.MarshalBinary()
	b.Run("unmarshal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.UnmarshalBlock(buf, kinds); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(len(buf)), "bytes/block")
}

// BenchmarkConsumePath isolates the consume side of vectorized scans: the
// same query, same scan mode, same frozen Data Blocks — once with the
// batch-at-a-time pipeline (vectorized aggregation/materialization) and
// once forced onto the tuple-at-a-time fallback chain. Q1 is the
// aggregation-heavy extreme (nearly all tuples qualify), Q6 the selective
// sum; the batch/tuple ratio is the PR 5 acceptance metric.
func BenchmarkConsumePath(b *testing.B) {
	_, cold, _ := benchDBs(b)
	for _, q := range []int{1, 6} {
		for _, mode := range []exec.ScanMode{exec.ModeVectorized, exec.ModeVectorizedSARG} {
			for _, tuple := range []bool{true, false} {
				path := "batch"
				if tuple {
					path = "tuple"
				}
				b.Run(fmt.Sprintf("Q%d/%s/%s", q, mode, path), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						opt := exec.Options{Mode: mode, TupleAtATime: tuple}
						if _, err := cold.Query(q, opt); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkStripedInsert measures multi-writer insert throughput across
// write-stripe counts (PR 9 tentpole): GOMAXPROCS writers hammer one
// in-memory table whose write path is sharded 1/2/4/8 ways. The
// acceptance metric is the stripes=1 → stripes=8 scaling factor.
func BenchmarkStripedInsert(b *testing.B) {
	cols := []datablocks.Column{
		{Name: "id", Kind: datablocks.Int64},
		{Name: "amount", Kind: datablocks.Float64},
		{Name: "status", Kind: datablocks.String},
	}
	for _, stripes := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("stripes=%d", stripes), func(b *testing.B) {
			db := datablocks.Open(datablocks.WithChunkRows(4096), datablocks.WithWriteStripes(stripes))
			defer db.Close()
			tbl, err := db.CreateTable("bench", cols, datablocks.WithPrimaryKey("id"))
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					k := next.Add(1)
					row := datablocks.Row{
						datablocks.Int(k),
						datablocks.Float(float64(k)),
						datablocks.Str("new"),
					}
					if _, err := tbl.Insert(row); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkNewOrderWrites measures new-order-style write throughput
// through the striped WAL group commit at 1, 4 and GOMAXPROCS writers:
// each transaction inserts one order row and three order lines, all
// acknowledged by the stripe logs' fsyncs.
func BenchmarkNewOrderWrites(b *testing.B) {
	orderCols := []datablocks.Column{
		{Name: "o_id", Kind: datablocks.Int64},
		{Name: "o_total", Kind: datablocks.Float64},
		{Name: "o_status", Kind: datablocks.String},
	}
	lineCols := []datablocks.Column{
		{Name: "ol_id", Kind: datablocks.Int64},
		{Name: "ol_amount", Kind: datablocks.Float64},
		{Name: "ol_item", Kind: datablocks.String},
	}
	counts := []int{1, 4}
	if all := runtime.GOMAXPROCS(0); all > 4 {
		counts = append(counts, all)
	}
	for _, writers := range counts {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			db, err := datablocks.OpenPath(b.TempDir(),
				datablocks.WithChunkRows(4096), datablocks.WithWriteStripes(8), datablocks.WithWAL())
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			orders, err := db.CreateTable("orders", orderCols, datablocks.WithPrimaryKey("o_id"))
			if err != nil {
				b.Fatal(err)
			}
			lines, err := db.CreateTable("order_lines", lineCols, datablocks.WithPrimaryKey("ol_id"))
			if err != nil {
				b.Fatal(err)
			}
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						tx := next.Add(1)
						if tx > int64(b.N) {
							return
						}
						if _, err := orders.Insert(datablocks.Row{
							datablocks.Int(tx),
							datablocks.Float(float64(tx)),
							datablocks.Str("new"),
						}); err != nil {
							b.Error(err)
							return
						}
						for l := int64(0); l < 3; l++ {
							if _, err := lines.Insert(datablocks.Row{
								datablocks.Int(tx*4 + l),
								datablocks.Float(float64(l)),
								datablocks.Str("item"),
							}); err != nil {
								b.Error(err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
		})
	}
}

package experiments

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"datablocks/internal/core"
	"datablocks/internal/datasets"
	"datablocks/internal/exec"
	"datablocks/internal/storage"
	"datablocks/internal/tpch"
	"datablocks/internal/types"
	"datablocks/internal/vwise"
	"datablocks/internal/xrand"
)

// Table2Config is one scan configuration of Table 2 / Table 4.
type Table2Config struct {
	Name   string
	Frozen bool
	Mode   exec.ScanMode
}

// Table2Configs lists the six HyPer-side configurations in paper order.
var Table2Configs = []Table2Config{
	{"JIT (uncompressed)", false, exec.ModeJIT},
	{"Vectorized (uncompressed)", false, exec.ModeVectorized},
	{"+SARG (uncompressed)", false, exec.ModeVectorizedSARG},
	{"Data Blocks", true, exec.ModeVectorized},
	{"+SARG/SMA", true, exec.ModeVectorizedSARG},
	{"+PSMA", true, exec.ModeVectorizedSARGPSMA},
}

// Table2 reproduces Table 2 / Table 4 (Appendix F): TPC-H query runtimes
// per scan configuration on uncompressed storage and Data Blocks, with the
// geometric mean, plus the Vectorwise compressed-vs-uncompressed contrast
// on Q1/Q6 (§5.2 reports those two are 18%/38% slower compressed).
// parallelism <= 0 uses every core (runtime.GOMAXPROCS).
func Table2(w io.Writer, sf float64, rounds, parallelism int) error {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	hot, err := tpch.Generate(sf, 0)
	if err != nil {
		return err
	}
	cold, err := tpch.Generate(sf, 0)
	if err != nil {
		return err
	}
	if err := cold.FreezeAll(false, false); err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 2/4 — TPC-H (SF %g) runtimes per scan type (median of %d runs)\n", sf, rounds)
	header := []string{"query"}
	for _, c := range Table2Configs {
		header = append(header, c.Name)
	}
	header = append(header, "PSMA speedup over JIT")
	tbl := newTable(w, header...)
	times := make([][]float64, len(Table2Configs))
	for _, q := range tpch.SupportedQueries {
		row := []any{fmt.Sprintf("Q%d", q)}
		var jit, psma time.Duration
		for ci, cfg := range Table2Configs {
			db := hot
			if cfg.Frozen {
				db = cold
			}
			var res *exec.Result
			d := measureBest(rounds, func() {
				var err error
				res, err = db.Query(q, exec.Options{Mode: cfg.Mode, Parallelism: parallelism})
				if err != nil {
					panic(err)
				}
			})
			_ = res
			times[ci] = append(times[ci], d.Seconds())
			row = append(row, d)
			if ci == 0 {
				jit = d
			}
			if ci == len(Table2Configs)-1 {
				psma = d
			}
		}
		row = append(row, float64(jit)/float64(psma))
		addRow(tbl, row...)
	}
	geo := []any{"geometric mean"}
	for ci := range Table2Configs {
		geo = append(geo, time.Duration(geoMean(times[ci])*float64(time.Second)))
	}
	geo = append(geo, geoMean(times[0])/geoMean(times[len(Table2Configs)-1]))
	addRow(tbl, geo...)
	if err := tbl.Flush(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nVectorwise baseline (decompress-then-filter; §5.2 contrast on Q1/Q6):")
	if err := vectorwiseQ1Q6(w, cold, rounds); err != nil {
		return err
	}
	return nil
}

// vectorwiseQ1Q6 runs hand-coded Q1/Q6 equivalents on the Vectorwise
// baseline, uncompressed (raw slices) vs compressed (full decompression
// per scan) — no early filtering in either, per Vectorwise's design.
func vectorwiseQ1Q6(w io.Writer, db *tpch.DB, rounds int) error {
	cols, n := RelationColumns(db.Lineitem)
	vw, err := vwise.NewTable(cols, n, 1<<16)
	if err != nil {
		return err
	}
	li := db.Lineitem.Schema()
	var (
		qtyC   = li.MustColumn("l_quantity")
		priceC = li.MustColumn("l_extendedprice")
		discC  = li.MustColumn("l_discount")
		shipC  = li.MustColumn("l_shipdate")
	)
	loDate := types.DateToDays(1994, time.January, 1)
	hiDate := types.DateToDays(1994, time.December, 31)

	q6Raw := func(ship, disc, qty, price []int64) float64 {
		rev := 0.0
		for i := range ship {
			if ship[i] >= loDate && ship[i] <= hiDate && disc[i] >= 5 && disc[i] <= 7 && qty[i] < 24 {
				rev += float64(price[i]) / 100 * float64(disc[i]) / 100
			}
		}
		return rev
	}
	// Uncompressed: loops over the raw columnar arrays.
	rawTime := measureBest(rounds, func() {
		_ = q6Raw(cols[shipC].Ints, cols[discC].Ints, cols[qtyC].Ints, cols[priceC].Ints)
	})
	// Compressed: full decompression of every scanned column, then filter.
	bufs := map[int][]int64{
		shipC: make([]int64, n), discC: make([]int64, n),
		qtyC: make([]int64, n), priceC: make([]int64, n),
	}
	compTime := measureBest(rounds, func() {
		for col, buf := range bufs {
			off := 0
			vw.ScanInts(col, func(_ int, vals []int64) {
				copy(buf[off:], vals)
				off += len(vals)
			})
		}
		_ = q6Raw(bufs[shipC], bufs[discC], bufs[qtyC], bufs[priceC])
	})
	tbl := newTable(w, "query", "VW uncompressed", "VW compressed", "slowdown")
	addRow(tbl, "Q6 scan+filter+sum", rawTime, compTime, float64(compTime)/float64(rawTime))
	return tbl.Flush()
}

// Fig5 reproduces Figure 5: compile time of a select * over an 8-attribute
// relation as the number of storage-layout combinations grows — exploding
// for JIT-compiled scans, flat for the interpreted vectorized scan.
func Fig5(w io.Writer, maxCombos int) error {
	fmt.Fprintln(w, "Figure 5 — compile time vs storage layout combinations (8-attribute relation)")
	tbl := newTable(w, "layouts", "jit compile", "jit scan paths", "vectorized compile", "vectorized scan paths")
	for combos := 1; combos <= maxCombos; combos *= 4 {
		rel, err := LayoutRelation(combos)
		if err != nil {
			return err
		}
		cols := make([]int, 8)
		for i := range cols {
			cols[i] = i
		}
		plan := &exec.ScanNode{Rel: rel, Cols: cols}
		var jitStats, vecStats exec.CompileStats
		jit := measureBest(3, func() {
			s, err := exec.CompileOnly(plan, exec.Options{Mode: exec.ModeJIT})
			if err != nil {
				panic(err)
			}
			jitStats = s
		})
		vec := measureBest(3, func() {
			s, err := exec.CompileOnly(plan, exec.Options{Mode: exec.ModeVectorized})
			if err != nil {
				panic(err)
			}
			vecStats = s
		})
		addRow(tbl, combos, jit, jitStats.ScanPaths, vec, vecStats.ScanPaths)
	}
	return tbl.Flush()
}

// LayoutRelation builds an 8-int-attribute relation whose frozen blocks
// exhibit exactly `combos` distinct storage-layout combinations.
func LayoutRelation(combos int) (*storage.Relation, error) {
	colsDef := make([]types.Column, 8)
	for i := range colsDef {
		colsDef[i] = types.Column{Name: fmt.Sprintf("a%d", i), Kind: types.Int64}
	}
	const rows = 64 // tiny blocks: Figure 5 measures compilation, not scans
	rel := storage.NewRelation(types.NewSchema(colsDef...), rows)
	r := xrand.New(5)
	for b := 0; b < combos; b++ {
		data := make([]core.ColumnData, 8)
		for c := 0; c < 8; c++ {
			vals := make([]int64, rows)
			// Two scheme-determining digits per column: the block index
			// selects one of 4 physical layouts per attribute.
			switch (b >> (2 * uint(c))) & 3 {
			case 0: // 1-byte truncation
				for i := range vals {
					vals[i] = r.Range(0, 200)
				}
			case 1: // 2-byte truncation
				for i := range vals {
					vals[i] = r.Range(0, 40000)
				}
			case 2: // 4-byte truncation
				for i := range vals {
					vals[i] = r.Range(0, 1<<30)
				}
			default: // single value
				v := int64(b)
				for i := range vals {
					vals[i] = v
				}
			}
			data[c] = core.ColumnData{Kind: types.Int64, Ints: vals}
		}
		if err := rel.BulkAppend(data, rows); err != nil {
			return nil, err
		}
	}
	if err := rel.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		return nil, err
	}
	return rel, nil
}

// Fig11 reproduces Figure 11: TPC-H Q6 speedup over the JIT scan, adding
// vectorization, Data Blocks (+PSMA), block-wise sorting on l_shipdate
// without PSMA, and sorting with PSMA.
func Fig11(w io.Writer, sf float64, rounds int) error {
	hot, err := tpch.Generate(sf, 0)
	if err != nil {
		return err
	}
	frozen, err := tpch.Generate(sf, 0)
	if err != nil {
		return err
	}
	if err = frozen.FreezeAll(false, false); err != nil {
		return err
	}
	sortedNoPsma, err := tpch.Generate(sf, 0)
	if err != nil {
		return err
	}
	if err = sortedNoPsma.FreezeAll(true, true); err != nil {
		return err
	}
	sorted, err := tpch.Generate(sf, 0)
	if err != nil {
		return err
	}
	if err := sorted.FreezeAll(true, false); err != nil {
		return err
	}
	type cfg struct {
		name string
		db   *tpch.DB
		mode exec.ScanMode
	}
	cfgs := []cfg{
		{"JIT", hot, exec.ModeJIT},
		{"VEC", hot, exec.ModeVectorized},
		{"Data Blocks (+PSMA)", frozen, exec.ModeVectorizedSARGPSMA},
		{"+SORT (-PSMA)", sortedNoPsma, exec.ModeVectorizedSARG},
		{"+SORT +PSMA", sorted, exec.ModeVectorizedSARGPSMA},
	}
	fmt.Fprintf(w, "Figure 11 — TPC-H Q6 (SF %g) speedup over JIT with block-wise l_shipdate sorting\n", sf)
	tbl := newTable(w, "configuration", "runtime", "speedup over JIT")
	var jit time.Duration
	for i, c := range cfgs {
		d := measureBest(rounds, func() {
			if _, err := c.db.Query(6, exec.Options{Mode: c.mode}); err != nil {
				panic(err)
			}
		})
		if i == 0 {
			jit = d
		}
		addRow(tbl, c.name, d, float64(jit)/float64(d))
	}
	return tbl.Flush()
}

// Fig13 reproduces Figure 13 (Appendix A): geometric mean of the TPC-H
// subset versus the scan vector size, on uncompressed chunks and Data
// Blocks.
func Fig13(w io.Writer, sf float64, rounds int) error {
	hot, err := tpch.Generate(sf, 0)
	if err != nil {
		return err
	}
	cold, err := tpch.Generate(sf, 0)
	if err != nil {
		return err
	}
	if err := cold.FreezeAll(false, false); err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 13 — TPC-H (SF %g) geometric mean vs vector size\n", sf)
	tbl := newTable(w, "vector size", "vectorized uncompressed", "data block scan")
	for _, vs := range []int{256, 1024, 4096, 8192, 16384, 65536} {
		var hotTimes, coldTimes []float64
		for _, q := range tpch.SupportedQueries {
			d := measureBest(rounds, func() {
				if _, err := hot.Query(q, exec.Options{Mode: exec.ModeVectorizedSARG, VectorSize: vs}); err != nil {
					panic(err)
				}
			})
			hotTimes = append(hotTimes, d.Seconds())
			d = measureBest(rounds, func() {
				if _, err := cold.Query(q, exec.Options{Mode: exec.ModeVectorizedSARGPSMA, VectorSize: vs}); err != nil {
					panic(err)
				}
			})
			coldTimes = append(coldTimes, d.Seconds())
		}
		addRow(tbl, vs,
			time.Duration(geoMean(hotTimes)*float64(time.Second)),
			time.Duration(geoMean(coldTimes)*float64(time.Second)))
	}
	return tbl.Flush()
}

// FlightsQuery reproduces the Appendix D experiment: the SFO arrival-delay
// query on naturally date-ordered data, JIT on uncompressed vs Data Blocks
// with SMAs and PSMAs (the paper reports >20x).
func FlightsQuery(w io.Writer, rows, rounds int) error {
	hot, err := datasets.Flights(rows, 0)
	if err != nil {
		return err
	}
	frozenRel, err := datasets.Flights(rows, 0)
	if err != nil {
		return err
	}
	if err := frozenRel.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		return err
	}
	fmt.Fprintf(w, "Appendix D — flights query (%d rows): carriers by avg arrival delay, SFO, 1998-2008\n", rows)
	tbl := newTable(w, "configuration", "runtime", "speedup over JIT")
	jit := measureBest(rounds, func() {
		if _, err := exec.Run(datasets.FlightsQuery(hot), exec.Options{Mode: exec.ModeJIT}); err != nil {
			panic(err)
		}
	})
	addRow(tbl, "JIT (uncompressed)", jit, 1.0)
	blocks := measureBest(rounds, func() {
		if _, err := exec.Run(datasets.FlightsQuery(frozenRel), exec.Options{Mode: exec.ModeVectorizedSARGPSMA}); err != nil {
			panic(err)
		}
	})
	addRow(tbl, "Data Blocks +SMA/PSMA", blocks, float64(jit)/float64(blocks))
	return tbl.Flush()
}

package experiments

import (
	"fmt"
	"io"
	"time"

	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/index"
	"datablocks/internal/storage"
	"datablocks/internal/tpcc"
	"datablocks/internal/tpch"
	"datablocks/internal/types"
	"datablocks/internal/xrand"
)

// Table3 reproduces Table 3: throughput of random point-access queries
// (select * from customer where c_custkey = ?) under
// {uncompressed JIT, uncompressed vectorized, Data Blocks, +PSMA}
// x {PK index, no index} x {ordered, shuffled}.
func Table3(w io.Writer, sf float64, lookups int) error {
	base, err := tpch.Generate(sf, 0)
	if err != nil {
		return err
	}
	cols, n := RelationColumns(base.Customer)
	shuffled := shuffleColumns(cols, n)

	type variant struct {
		name   string
		rel    *storage.Relation
		frozen bool
		mode   exec.ScanMode
	}
	build := func(c []core.ColumnData, freeze bool) (*storage.Relation, error) {
		return CloneRelation(base.Customer.Schema(), c, n, 0, freeze)
	}
	mkVariants := func(c []core.ColumnData) ([]variant, error) {
		hot, err := build(c, false)
		if err != nil {
			return nil, err
		}
		cold, err := build(c, true)
		if err != nil {
			return nil, err
		}
		return []variant{
			{"uncompressed (JIT)", hot, false, exec.ModeJIT},
			{"uncompressed (Vectorized)", hot, false, exec.ModeVectorizedSARG},
			{"Data Blocks", cold, true, exec.ModeVectorizedSARG},
			{"Data Blocks +PSMA", cold, true, exec.ModeVectorizedSARGPSMA},
		}, nil
	}
	ordered, err := mkVariants(cols)
	if err != nil {
		return err
	}
	shuffledV, err := mkVariants(shuffled)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Table 3 — point-access throughput (lookups/s), customer SF %g (%d rows), %d lookups\n", sf, n, lookups)
	tbl := newTable(w, "storage", "index", "ordered", "shuffled")
	allCols := allColumnOrdinals(base.Customer.Schema())
	for vi := range ordered {
		for _, withIndex := range []bool{true, false} {
			row := []any{ordered[vi].name, idxName(withIndex)}
			for _, vs := range [][]variant{ordered, shuffledV} {
				v := vs[vi]
				nLookups := lookups
				if !withIndex {
					nLookups = lookups / 100 // scans are ~1000x slower; keep runs short
					if nLookups < 3 {
						nLookups = 3
					}
				}
				tput, err := pointLookupThroughput(v.rel, v.mode, withIndex, nLookups, allCols)
				if err != nil {
					return err
				}
				row = append(row, fmt.Sprintf("%.0f", tput))
			}
			addRow(tbl, row...)
		}
	}
	if err := tbl.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "(expected shape: index ≫ scans; without index, SMAs/PSMAs help only on ordered keys)")
	return nil
}

func idxName(b bool) string {
	if b {
		return "PK index"
	}
	return "no index"
}

func allColumnOrdinals(s *types.Schema) []int {
	out := make([]int, s.NumColumns())
	for i := range out {
		out[i] = i
	}
	return out
}

// pointLookupThroughput measures select-star point queries per second.
func pointLookupThroughput(rel *storage.Relation, mode exec.ScanMode, withIndex bool, lookups int, cols []int) (float64, error) {
	n := 0
	for _, ch := range rel.Chunks() {
		n += ch.Rows()
	}
	r := xrand.New(0xA11)
	var pk *index.Hash
	if withIndex {
		pk = index.NewHash(n)
		if err := pk.Rebuild(rel, 0); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < lookups; i++ {
		key := r.Range(1, int64(n))
		if withIndex {
			tid, ok := pk.Lookup(key)
			if !ok {
				return 0, fmt.Errorf("key %d missing", key)
			}
			if _, ok := rel.Get(tid); !ok {
				return 0, fmt.Errorf("tuple %v missing", tid)
			}
			continue
		}
		plan := &exec.ScanNode{
			Rel:   rel,
			Cols:  cols,
			Preds: []core.Predicate{{Col: 0, Op: types.Eq, Lo: types.IntValue(key)}},
		}
		res, err := exec.Run(plan, exec.Options{Mode: mode})
		if err != nil {
			return 0, err
		}
		if res.NumRows() != 1 {
			return 0, fmt.Errorf("key %d: %d rows", key, res.NumRows())
		}
	}
	return float64(lookups) / time.Since(start).Seconds(), nil
}

// shuffleColumns permutes all columns with one random permutation,
// destroying the c_custkey ordering (the Table 3 "shuffled" column).
func shuffleColumns(cols []core.ColumnData, n int) []core.ColumnData {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	xrand.New(0x5F).Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	out := make([]core.ColumnData, len(cols))
	for ci, c := range cols {
		out[ci].Kind = c.Kind
		switch c.Kind {
		case types.Int64:
			out[ci].Ints = make([]int64, n)
			for i, p := range perm {
				out[ci].Ints[i] = c.Ints[p]
			}
		case types.Float64:
			out[ci].Floats = make([]float64, n)
			for i, p := range perm {
				out[ci].Floats[i] = c.Floats[p]
			}
		default:
			out[ci].Strs = make([]string, n)
			for i, p := range perm {
				out[ci].Strs[i] = c.Strs[p]
			}
		}
		if c.Nulls != nil {
			out[ci].Nulls = make([]bool, n)
			for i, p := range perm {
				out[ci].Nulls[i] = c.Nulls[p]
			}
		}
	}
	return out
}

// TPCC reproduces the §5.3 experiments: (1) new-order throughput with cold
// new-order chunks frozen versus all-uncompressed, and (2) read-only
// transaction throughput on an uncompressed versus fully frozen database.
func TPCC(w io.Writer, txCount int) error {
	fmt.Fprintf(w, "TPC-C (§5.3) — 5 warehouses, %d transactions per measurement\n", txCount)
	tbl := newTable(w, "experiment", "configuration", "tx/s")

	run := func(freezeCold bool) (float64, error) {
		db, err := tpcc.New(tpcc.DefaultConfig())
		if err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < txCount; i++ {
			if err := db.NewOrderTx(); err != nil {
				return 0, err
			}
			if freezeCold && i%2000 == 1999 {
				if err := db.FreezeNewOrderCold(); err != nil {
					return 0, err
				}
			}
		}
		return float64(txCount) / time.Since(start).Seconds(), nil
	}
	unc, err := run(false)
	if err != nil {
		return err
	}
	frz, err := run(true)
	if err != nil {
		return err
	}
	addRow(tbl, "new-order stream", "uncompressed", fmt.Sprintf("%.0f", unc))
	addRow(tbl, "new-order stream", "cold neworder frozen", fmt.Sprintf("%.0f", frz))

	runRO := func(freezeAll bool) (float64, error) {
		db, err := tpcc.New(tpcc.DefaultConfig())
		if err != nil {
			return 0, err
		}
		for i := 0; i < txCount/2; i++ {
			if err := db.NewOrderTx(); err != nil {
				return 0, err
			}
		}
		if freezeAll {
			if err := db.FreezeAll(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		for i := 0; i < txCount; i++ {
			if i%2 == 0 {
				if _, err := db.OrderStatusTx(); err != nil {
					return 0, err
				}
			} else {
				if _, err := db.StockLevelTx(); err != nil {
					return 0, err
				}
			}
		}
		return float64(txCount) / time.Since(start).Seconds(), nil
	}
	uncRO, err := runRO(false)
	if err != nil {
		return err
	}
	frzRO, err := runRO(true)
	if err != nil {
		return err
	}
	addRow(tbl, "read-only (order-status + stock-level)", "uncompressed", fmt.Sprintf("%.0f", uncRO))
	addRow(tbl, "read-only (order-status + stock-level)", "fully frozen", fmt.Sprintf("%.0f", frzRO))
	if err := tbl.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "(read-only overhead on Data Blocks: %.1f%%; the paper reports ~9%%)\n",
		100*(uncRO-frzRO)/uncRO)
	return nil
}

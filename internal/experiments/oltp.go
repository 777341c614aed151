package experiments

import (
	"errors"
	"fmt"
	"io"
	"time"

	"datablocks"
	"datablocks/internal/core"
	"datablocks/internal/tpch"
	"datablocks/internal/xrand"
)

// Table3 reproduces Table 3: throughput of random point-access queries
// (select * from customer where c_custkey = ?) under
// {uncompressed JIT, uncompressed vectorized, Data Blocks, +PSMA}
// x {PK index, no index} x {ordered, shuffled}. Every variant is a
// datablocks table keyed on c_custkey: the PK index rows time
// Table.Lookup, the no-index rows Table.LookupScan.
func Table3(w io.Writer, sf float64, lookups int) error {
	base, err := tpch.Generate(sf, 0)
	if err != nil {
		return err
	}
	cols, n := RelationColumns(base.Customer)
	shuffled := shuffleColumns(cols, n)

	db := datablocks.Open()
	defer db.Close() // in memory without a block store: nothing to flush
	type variant struct {
		name string
		tbl  *datablocks.Table
		mode datablocks.ScanMode
	}
	load := func(name string, c []core.ColumnData, freeze bool) (*datablocks.Table, error) {
		t, lerr := db.CreateTable(name, base.Customer.Schema().Columns, datablocks.WithPrimaryKey("c_custkey"))
		if lerr == nil {
			lerr = t.BulkLoad(c, n)
		}
		if lerr == nil && freeze {
			lerr = t.FreezeAll()
		}
		return t, lerr
	}
	mkVariants := func(name string, c []core.ColumnData) ([]variant, error) {
		hot, err := load(name+"_hot", c, false)
		if err != nil {
			return nil, err
		}
		cold, err := load(name+"_frozen", c, true)
		if err != nil {
			return nil, err
		}
		return []variant{
			{"uncompressed (JIT)", hot, datablocks.ModeJIT},
			{"uncompressed (Vectorized)", hot, datablocks.ModeVectorizedSARG},
			{"Data Blocks", cold, datablocks.ModeVectorizedSARG},
			{"Data Blocks +PSMA", cold, datablocks.ModeVectorizedSARGPSMA},
		}, nil
	}
	ordered, err := mkVariants("ordered", cols)
	if err != nil {
		return err
	}
	shuffledV, err := mkVariants("shuffled", shuffled)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "Table 3 — point-access throughput (lookups/s), customer SF %g (%d rows), rounds of >= %v\n", sf, n, minCellTime)
	tbl := newTable(w, "storage", "index", "ordered", "shuffled")
	for vi := range ordered {
		for _, withIndex := range []bool{true, false} {
			row := []any{ordered[vi].name, idxName(withIndex)}
			for _, vs := range [][]variant{ordered, shuffledV} {
				v := vs[vi]
				tput, err := pointLookupThroughput(v.tbl, v.mode, withIndex, lookups, n)
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

// minCellTime is the least time the timed round of a cell runs. A count
// taken from -lookups alone runs for about a millisecond through the index
// and a few through scans (one costs about 1000 index probes), too short
// to time the same way twice.
const minCellTime = 100 * time.Millisecond

// pointLookupThroughput returns select-star point queries per second on
// keys drawn from 1..n: lookups of them through the primary-key index, or
// as scans with an equality SARG in the given mode. Both kinds of cell
// calibrate alike: a first round of lookups (index) or lookups/100 (scans)
// queries, then rounds scaled by the last one's time until one runs for
// minCellTime; that round is the cell's.
func pointLookupThroughput(t *datablocks.Table, mode datablocks.ScanMode, withIndex bool, lookups, n int) (float64, error) {
	var err error
	round := func(count int) time.Duration {
		return measureBest(1, func() {
			if err == nil {
				err = pointLookups(t, mode, withIndex, count, n)
			}
		})
	}
	count := lookups
	if !withIndex {
		count = max(lookups/100, 3)
	}
	d := round(count)
	for d < minCellTime && err == nil {
		// Aim 20 % past the floor, growing at most 100-fold a round, so a
		// round that a timer fluke cut short cannot run away.
		grow := min(1.2*float64(minCellTime)/float64(max(d, time.Microsecond)), 100)
		count = int(float64(count) * grow)
		d = round(count)
	}
	return float64(count) / d.Seconds(), err
}

// pointLookups runs count point queries (see pointLookupThroughput).
func pointLookups(t *datablocks.Table, mode datablocks.ScanMode, withIndex bool, count, n int) error {
	r := xrand.New(0xA11)
	for i := 0; i < count; i++ {
		key := r.Range(1, int64(n))
		var ok bool
		if withIndex {
			_, ok = t.Lookup(key)
		} else {
			var err error
			if _, ok, err = t.LookupScan("c_custkey", key, mode); err != nil {
				return err
			}
		}
		if !ok {
			return fmt.Errorf("key %d missing", key)
		}
	}
	return nil
}

// shuffleColumns permutes all columns with one random permutation,
// destroying the c_custkey ordering (the Table 3 "shuffled" column).
func shuffleColumns(cols []core.ColumnData, n int) []core.ColumnData {
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	xrand.New(0x5F).Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	out := make([]core.ColumnData, len(cols))
	for ci := range cols {
		core.Gather(&out[ci], &cols[ci], perm)
	}
	return out
}

// tpccConfig scales the TPC-C database. TPC-C specifies 10 districts per
// warehouse, 3000 customers per district and 100000 items; tests shrink
// those.
type tpccConfig struct {
	warehouses, districts, customers, items int64
	linesLo, linesHi                        int64 // order lines per new-order
	chunkRows                               int
	seed                                    uint64
}

// defaultTPCC is the paper's 5-warehouse setup, scaled down one order of
// magnitude so laptop runs converge quickly.
var defaultTPCC = tpccConfig{warehouses: 5, districts: 10, customers: 300, items: 10000,
	linesLo: 5, linesHi: 15, chunkRows: 1 << 14, seed: 0x7C9}

// tpccDB is the TPC-C subset §5.3 measures — new-order plus the read-only
// order-status and stock-level — on the engine's own tables, in memory
// and without a WAL. Each composite TPC-C key is one computed int64
// primary-key column, so every access is a Table.Lookup, and stock rows
// are rewritten through Table.Update. District order counters live in
// memory: HyPer updates them in place, where here every new-order would
// append a version of its district's row.
type tpccDB struct {
	cfg tpccConfig
	rng *xrand.Rand
	eng *datablocks.DB

	customer, item, stock, orders, newOrder, orderLine *datablocks.Table
	all                                                []*datablocks.Table

	lastOID []int64 // per district: the last committed order id
}

func (db *tpccDB) dist(w, d int64) int64         { return w*db.cfg.districts + d }
func (db *tpccDB) custKey(w, d, c int64) int64   { return db.dist(w, d)*(db.cfg.customers+1) + c }
func (db *tpccDB) stockKey(w, i int64) int64     { return w*(db.cfg.items+1) + i }
func (db *tpccDB) orderKey(w, d, o int64) int64  { return db.dist(w, d)<<32 + o }
func (db *tpccDB) olKey(w, d, o, ln int64) int64 { return db.orderKey(w, d, o)*16 + ln }

// newTPCC creates the six tables and loads items, stock and customers.
func newTPCC(cfg tpccConfig) (*tpccDB, error) {
	db := &tpccDB{cfg: cfg, rng: xrand.New(cfg.seed), lastOID: make([]int64, cfg.warehouses*cfg.districts)}
	db.eng = datablocks.Open(datablocks.WithChunkRows(cfg.chunkRows))
	var err error
	table := func(name string, cols ...datablocks.Column) *datablocks.Table {
		t, cerr := db.eng.CreateTable(name, cols, datablocks.WithPrimaryKey(cols[0].Name))
		err = errors.Join(err, cerr)
		db.all = append(db.all, t)
		return t
	}
	ic := func(name string) datablocks.Column { return datablocks.Column{Name: name, Kind: datablocks.Int64} }
	sc := func(name string) datablocks.Column { return datablocks.Column{Name: name, Kind: datablocks.String} }
	db.customer = table("customer", ic("c_key"), ic("c_w_id"), ic("c_d_id"), ic("c_id"), sc("c_name"), ic("c_balance"), ic("c_payment_cnt"))
	db.item = table("item", ic("i_id"), sc("i_name"), ic("i_price"), sc("i_data"))
	db.stock = table("stock", ic("s_key"), ic("s_w_id"), ic("s_i_id"), ic("s_quantity"), ic("s_ytd"), ic("s_order_cnt"))
	db.orders = table("orders", ic("o_key"), ic("o_w_id"), ic("o_d_id"), ic("o_id"), ic("o_c_id"), ic("o_entry_d"), ic("o_ol_cnt"))
	db.newOrder = table("new_order", ic("no_key"), ic("no_w_id"), ic("no_d_id"), ic("no_o_id"))
	db.orderLine = table("order_line", ic("ol_key"), ic("ol_w_id"), ic("ol_d_id"), ic("ol_o_id"),
		ic("ol_number"), ic("ol_i_id"), ic("ol_quantity"), ic("ol_amount"))
	I, S := datablocks.Int, datablocks.Str
	for i := int64(1); i <= cfg.items && err == nil; i++ {
		_, err = db.item.Insert(datablocks.Row{I(i), S(fmt.Sprintf("item-%06d", i)), I(db.rng.Range(100, 10000)), S("data")})
	}
	for w := int64(0); w < cfg.warehouses && err == nil; w++ {
		for i := int64(1); i <= cfg.items && err == nil; i++ {
			_, err = db.stock.Insert(datablocks.Row{I(db.stockKey(w, i)), I(w), I(i), I(db.rng.Range(10, 100)), I(0), I(0)})
		}
		for d := int64(0); d < cfg.districts; d++ {
			for c := int64(1); c <= cfg.customers && err == nil; c++ {
				name := S(fmt.Sprintf("Cust-%d-%d-%04d", w, d, c))
				_, err = db.customer.Insert(datablocks.Row{I(db.custKey(w, d, c)), I(w), I(d), I(c), name, I(0), I(0)})
			}
		}
	}
	return db, err
}

// newOrderTx runs one new-order transaction: it reads the customer and
// the ordered items, inserts the order, new-order and order-line rows, and
// rewrites each ordered item's stock row.
func (db *tpccDB) newOrderTx() error {
	cfg, I := &db.cfg, datablocks.Int
	w, d := db.rng.Int63n(cfg.warehouses), db.rng.Int63n(cfg.districts)
	c := db.rng.Range(1, cfg.customers)
	if _, ok := db.customer.Lookup(db.custKey(w, d, c)); !ok {
		return fmt.Errorf("tpcc: customer (%d,%d,%d) missing", w, d, c)
	}
	oid := db.lastOID[db.dist(w, d)] + 1
	okey := db.orderKey(w, d, oid)
	lines := db.rng.Range(cfg.linesLo, cfg.linesHi)
	if _, err := db.orders.Insert(datablocks.Row{I(okey), I(w), I(d), I(oid), I(c), I(oid), I(lines)}); err != nil {
		return err
	}
	if _, err := db.newOrder.Insert(datablocks.Row{I(okey), I(w), I(d), I(oid)}); err != nil {
		return err
	}
	for ln := int64(1); ln <= lines; ln++ {
		item := db.rng.Range(1, cfg.items)
		it, ok := db.item.Lookup(item)
		if !ok {
			return fmt.Errorf("tpcc: item %d missing", item)
		}
		qty := db.rng.Range(1, 10)
		skey := db.stockKey(w, item)
		s, ok := db.stock.Lookup(skey)
		if !ok {
			return fmt.Errorf("tpcc: stock (%d,%d) missing", w, item)
		}
		left := s[3].Int() - qty
		if left < 10 {
			left += 91
		}
		s[3], s[4], s[5] = I(left), I(s[4].Int()+qty), I(s[5].Int()+1)
		if err := db.stock.Update(skey, s); err != nil {
			return err
		}
		row := datablocks.Row{I(db.olKey(w, d, oid, ln)), I(w), I(d), I(oid), I(ln), I(item), I(qty), I(qty * it[2].Int())}
		if _, err := db.orderLine.Insert(row); err != nil {
			return err
		}
	}
	db.lastOID[db.dist(w, d)] = oid
	return nil
}

// newOrders runs n new-order transactions. With freezeCold, every 2000th
// also freezes the sealed new_order chunks — the paper's first
// configuration ("only compressed old neworder records into Data Blocks").
func (db *tpccDB) newOrders(n int, freezeCold bool) error {
	for i := 0; i < n; i++ {
		if err := db.newOrderTx(); err != nil {
			return err
		}
		if freezeCold && i%2000 == 1999 {
			if err := db.newOrder.Freeze(); err != nil {
				return err
			}
		}
	}
	return nil
}

// orderStatusTx runs one order-status transaction: the customer, the
// district's last order and its order lines, and returns the order total.
func (db *tpccDB) orderStatusTx() (int64, error) {
	w, d := db.rng.Int63n(db.cfg.warehouses), db.rng.Int63n(db.cfg.districts)
	if _, ok := db.customer.Lookup(db.custKey(w, d, db.rng.Range(1, db.cfg.customers))); !ok {
		return 0, fmt.Errorf("tpcc: customer missing")
	}
	oid := db.lastOID[db.dist(w, d)]
	if oid == 0 {
		return 0, nil // no orders yet in this district
	}
	o, ok := db.orders.Lookup(db.orderKey(w, d, oid))
	if !ok {
		return 0, fmt.Errorf("tpcc: order (%d,%d,%d) missing", w, d, oid)
	}
	total := int64(0)
	for ln := int64(1); ln <= o[6].Int(); ln++ {
		ol, ok := db.orderLine.Lookup(db.olKey(w, d, oid, ln))
		if !ok {
			return 0, fmt.Errorf("tpcc: order line (%d,%d,%d,%d) missing", w, d, oid, ln)
		}
		total += ol[7].Int()
	}
	return total, nil
}

// stockLevelTx runs one stock-level transaction: it resolves the order
// lines of the district's last 20 orders and counts the ordered items
// whose stock is below a threshold.
func (db *tpccDB) stockLevelTx() int {
	w, d := db.rng.Int63n(db.cfg.warehouses), db.rng.Int63n(db.cfg.districts)
	last := db.lastOID[db.dist(w, d)]
	threshold := db.rng.Range(10, 20)
	low := 0
	for oid := last; oid > 0 && oid > last-20; oid-- {
		o, found := db.orders.Lookup(db.orderKey(w, d, oid))
		for ln := int64(1); found && ln <= o[6].Int(); ln++ {
			ol, ok := db.orderLine.Lookup(db.olKey(w, d, oid, ln))
			if !ok {
				continue
			}
			if s, ok := db.stock.Lookup(db.stockKey(w, ol[5].Int())); ok && s[3].Int() < threshold {
				low++
			}
		}
	}
	return low
}

// readOnly runs n transactions, alternately order-status and stock-level,
// from a fixed seed: every call replays the same sequence.
func (db *tpccDB) readOnly(n int) error {
	db.rng = xrand.New(db.cfg.seed + 1)
	for i := 0; i < n; i++ {
		if i%2 == 1 {
			db.stockLevelTx()
		} else if _, err := db.orderStatusTx(); err != nil {
			return err
		}
	}
	return nil
}

// freezeAll freezes every table whole — the paper's second configuration.
func (db *tpccDB) freezeAll() error {
	for _, t := range db.all {
		if err := t.FreezeAll(); err != nil {
			return err
		}
	}
	return nil
}

// txPerSec runs a stream of n transactions, run(n), rounds times and
// returns the median throughput. After a failed run the later ones do
// nothing.
func txPerSec(rounds, n int, run func(n int) error) (float64, error) {
	var err error
	d := measureBest(rounds, func() {
		if err == nil {
			err = run(n)
		}
	})
	return float64(n) / d.Seconds(), err
}

// TPCC reproduces the §5.3 experiments: (1) new-order throughput with cold
// new_order chunks frozen versus all uncompressed, and (2) read-only
// transaction throughput on one database before and after it is frozen
// whole. Each row is the median of rounds runs: a new-order row continues
// one seeded stream on its own database, and both read-only rows replay
// one seeded sequence on the shared one.
func TPCC(w io.Writer, txCount, rounds int) error {
	rounds = max(rounds, 1)
	fmt.Fprintf(w, "TPC-C (§5.3) — %d warehouses, %d transactions per measurement, median of %d runs\n",
		defaultTPCC.warehouses, txCount, rounds)
	tbl := newTable(w, "experiment", "configuration", "tx/s")
	for i, config := range []string{"uncompressed", "cold neworder frozen"} {
		db, err := newTPCC(defaultTPCC)
		if err != nil {
			return err
		}
		tput, err := txPerSec(rounds, txCount, func(n int) error { return db.newOrders(n, i == 1) })
		// Close stops the database's background worker, which would
		// otherwise keep its tables reachable for the rest of the run.
		if err = errors.Join(err, db.eng.Close()); err != nil {
			return err
		}
		addRow(tbl, "new-order stream", config, fmt.Sprintf("%.0f", tput))
	}

	db, err := newTPCC(defaultTPCC)
	if err == nil {
		defer db.eng.Close() // in memory without a block store: nothing to flush
		err = db.newOrders(txCount/2, false)
	}
	if err != nil {
		return err
	}
	uncRO, err := txPerSec(rounds, txCount, db.readOnly)
	if err != nil {
		return err
	}
	if err = db.freezeAll(); err != nil {
		return err
	}
	frzRO, err := txPerSec(rounds, txCount, db.readOnly)
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

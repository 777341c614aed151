package main

import (
	"fmt"
	"time"

	"datablocks"
	"datablocks/internal/core"
	"datablocks/internal/experiments"
	"datablocks/internal/storage"
	"datablocks/internal/tpch"
	"datablocks/internal/types"
	"datablocks/internal/xrand"
)

// tableData is one table's preload: schema, primary key and the columns to
// bulk load. bytes is the raw size of its rows as a user would count them:
// 8 per number plus the length of every string.
type tableData struct {
	name  string
	cols  []datablocks.Column
	pk    string
	data  []datablocks.ColumnData
	n     int
	bytes int64
}

// tpchFamily is the TPC-H side of the benchmark: tpch.Generate's data in
// public Tables, the eight implemented queries as the cycle, a refresh
// (RF1-style) transaction and primary-key lookups on orders.
//
// tpch.Generate seeds its generator with a constant, so the data is the
// same for every -seed; the seed drives the lookup keys and the content of
// the refresh transactions.
type tpchFamily struct {
	sf   float64
	seed uint64

	numOrders, numCust, numParts int

	tabs []*tableData
	// refs holds, per query number, the reference answer: a naive row loop
	// for Q1 and Q6, the JIT tuple path over the unfrozen generated
	// relations for the rest.
	refs map[int][]refRow
	// hot keeps the generated unfrozen relations for the traced run's
	// hot-storage contrast; nil otherwise.
	hot *tpch.DB
	// custOfOrder[k-1] is o_custkey of order k, kept to verify lookups
	// after the generated columns have been released.
	custOfOrder []int32

	plans                            *tpch.DB
	customer, orders, part, lineitem *datablocks.Table
}

var tpchPrimaryKeys = map[string]string{
	"orders": "o_orderkey", "customer": "c_custkey", "part": "p_partkey",
	"supplier": "s_suppkey", "nation": "n_nationkey", "region": "r_regionkey",
}

// tpchTableOrder is the creation order; lineitem has a composite key in
// TPC-H and therefore no primary-key index here.
var tpchTableOrder = []string{"lineitem", "orders", "customer", "part", "supplier", "nation", "region"}

func newTPCH(sf float64, seed uint64) *tpchFamily {
	f := &tpchFamily{sf: sf, seed: seed}
	f.numOrders, _, f.numCust, f.numParts, _ = tpch.Sizes(sf)
	return f
}

// generate builds the preload and the reference answers. keepHot retains
// the generated relations for the traced run.
func (f *tpchFamily) generate(keepHot bool) error {
	g, err := tpch.Generate(f.sf, 0)
	if err != nil {
		return err
	}
	rels := g.Relations()
	for _, name := range tpchTableOrder {
		rel := rels[name]
		td := &tableData{name: name, cols: rel.Schema().Columns, pk: tpchPrimaryKeys[name]}
		td.data, td.n = experiments.RelationColumns(rel)
		td.bytes = userBytes(td.data, td.n)
		f.tabs = append(f.tabs, td)
	}
	f.refs = map[int][]refRow{
		1: naiveQ1(f.table("lineitem")),
		6: naiveQ6(f.table("lineitem")),
	}
	for _, q := range tpch.SupportedQueries {
		if _, done := f.refs[q]; done {
			continue
		}
		res, err := g.Query(q, datablocks.QueryOptions{Mode: datablocks.ModeJIT})
		if err != nil {
			return fmt.Errorf("reference Q%d: %w", q, err)
		}
		f.refs[q] = canon(res)
	}
	ord := f.table("orders")
	f.custOfOrder = make([]int32, ord.n)
	for i := 0; i < ord.n; i++ {
		f.custOfOrder[ord.data[0].Ints[i]-1] = int32(ord.data[1].Ints[i])
	}
	if keepHot {
		f.hot = g
	}
	return nil
}

func (f *tpchFamily) table(name string) *tableData {
	for _, t := range f.tabs {
		if t.name == name {
			return t
		}
	}
	return nil
}

func (f *tpchFamily) tables() []*tableData { return f.tabs }

// release drops the generated columns (the harness's buffers) so that the
// heap measurement sees the engine alone.
func (f *tpchFamily) release() {
	for _, t := range f.tabs {
		t.data = nil
	}
}

func userBytes(cols []datablocks.ColumnData, n int) int64 {
	var b int64
	for _, c := range cols {
		if c.Kind == types.String {
			for _, s := range c.Strs[:n] {
				b += int64(len(s))
			}
		} else {
			b += 8 * int64(n)
		}
	}
	return b
}

func rowBytes(row datablocks.Row) int64 {
	var b int64
	for _, v := range row {
		if v.Kind() == types.String {
			b += int64(len(v.Str()))
		} else {
			b += 8
		}
	}
	return b
}

// bind points the query plans at the live tables of db.
func (f *tpchFamily) bind(db *datablocks.DB) error {
	rel := func(name string) *storage.Relation {
		if t := db.Table(name); t != nil {
			return t.Relation()
		}
		return nil
	}
	f.plans = &tpch.DB{
		SF: f.sf, Lineitem: rel("lineitem"), Orders: rel("orders"), Customer: rel("customer"),
		Part: rel("part"), Supplier: rel("supplier"), Nation: rel("nation"), Region: rel("region"),
	}
	for name, r := range f.plans.Relations() {
		if r == nil {
			return fmt.Errorf("table %q missing", name)
		}
	}
	f.customer, f.orders = db.Table("customer"), db.Table("orders")
	f.part, f.lineitem = db.Table("part"), db.Table("lineitem")
	return nil
}

func (f *tpchFamily) queries() []string {
	names := make([]string, len(tpch.SupportedQueries))
	for i, q := range tpch.SupportedQueries {
		names[i] = fmt.Sprintf("q%d", q)
	}
	return names
}

func (f *tpchFamily) run(qi int, opt datablocks.QueryOptions) (*datablocks.Result, error) {
	return f.plans.Query(tpch.SupportedQueries[qi], opt)
}

// check compares a query result with its reference. The refresh
// transactions date their rows in 1999, outside every query's date
// predicate except Q1's open-ended one, and give them a ship instruction
// Q19 rejects — so once any transaction has run only Q1 changes, and it is
// then left to the row-count check.
func (f *tpchFamily) check(qi int, res *datablocks.Result, txDone int) error {
	q := tpch.SupportedQueries[qi]
	if txDone > 0 && q == 1 {
		return nil
	}
	return equalRows(canon(res), f.refs[q])
}

func (f *tpchFamily) firstQuery() int { return 4 } // index of Q6 in SupportedQueries

// naiveQ1 is TPC-H Q1 as a row loop over the generated columns.
func naiveQ1(li *tableData) []refRow {
	const (
		qty, price, disc, tax, rf, ls, ship = 4, 5, 6, 7, 8, 9, 10
	)
	cutoff := types.DateToDays(1998, time.September, 2)
	type acc struct {
		sumQty, sumPrice, sumDisc, sumCharge, sumDiscFrac float64
		n                                                 int64
	}
	groups := map[string]*acc{}
	d := li.data
	for i := 0; i < li.n; i++ {
		if d[ship].Ints[i] > cutoff {
			continue
		}
		k := d[rf].Strs[i] + "|" + d[ls].Strs[i] + "|"
		a := groups[k]
		if a == nil {
			a = &acc{}
			groups[k] = a
		}
		p := float64(d[price].Ints[i]) / 100
		df := float64(d[disc].Ints[i]) / 100
		dp := p * (1 - df)
		a.sumQty += float64(d[qty].Ints[i])
		a.sumPrice += p
		a.sumDisc += dp
		a.sumCharge += dp * (1 + float64(d[tax].Ints[i])/100)
		a.sumDiscFrac += df
		a.n++
	}
	var rows []refRow
	for k, a := range groups {
		n := float64(a.n)
		rows = append(rows, refRow{
			Key:  fmt.Sprintf("%s%d|", k, a.n),
			Nums: []float64{a.sumQty, a.sumPrice, a.sumDisc, a.sumCharge, a.sumQty / n, a.sumPrice / n, a.sumDiscFrac / n},
		})
	}
	sortRefRows(rows)
	return rows
}

// naiveQ6 is TPC-H Q6 as a row loop over the generated columns.
func naiveQ6(li *tableData) []refRow {
	const (
		qty, price, disc, ship = 4, 5, 6, 10
	)
	lo, hi := types.DateToDays(1994, time.January, 1), types.DateToDays(1994, time.December, 31)
	d := li.data
	sum := 0.0
	for i := 0; i < li.n; i++ {
		s, dc := d[ship].Ints[i], d[disc].Ints[i]
		if s < lo || s > hi || dc < 5 || dc > 7 || d[qty].Ints[i] >= 24 {
			continue
		}
		sum += float64(d[price].Ints[i]) / 100 * (float64(dc) / 100)
	}
	return []refRow{{Nums: []float64{sum}}}
}

// lookupKeys is the key space of the lookup phase: orders' primary key.
func (f *tpchFamily) lookupTable() (*datablocks.Table, int64) { return f.orders, int64(f.numOrders) }

func (f *tpchFamily) checkLookup(key int64, row datablocks.Row) error {
	if row[0].Int() != key || row[1].Int() != int64(f.custOfOrder[key-1]) {
		return fmt.Errorf("orders %d: got key %d custkey %d, want custkey %d", key, row[0].Int(), row[1].Int(), f.custOfOrder[key-1])
	}
	return nil
}

// refreshDate dates every refresh row after the generated data ends.
var refreshDate = types.DateToDays(1999, time.January, 1)

// tx is one refresh transaction, a pure function of (seed, id): look the
// customer up, insert the order, and for each of 1..7 lines look the part
// up and insert the line.
func (f *tpchFamily) tx(id int, tr *tracer, parent, req uint64) (txInfo, error) {
	r := xrand.New(mix(f.seed, uint64(id)))
	okey := int64(f.numOrders + 1 + id)
	cust := r.Range(1, int64(f.numCust))
	odate := refreshDate + int64(id%300)
	lines := r.Intn(7) + 1
	info := txInfo{lines: lines}

	s := tr.begin("table.lookup customer", parent, req)
	_, ok := f.customer.Lookup(cust)
	tr.end(s)
	if !ok {
		return info, fmt.Errorf("tx %d: customer %d not found", id, cust)
	}
	orow := datablocks.Row{
		datablocks.Int(okey), datablocks.Int(cust), datablocks.Str("O"), datablocks.Int(0),
		datablocks.Int(odate), datablocks.Str("3-MEDIUM"), datablocks.Str("Clerk#000000001"),
		datablocks.Int(0), datablocks.Str("refresh order"),
	}
	s = tr.begin("table.insert orders", parent, req)
	_, err := f.orders.Insert(orow)
	tr.end(s)
	if err != nil {
		return info, fmt.Errorf("tx %d: insert order: %w", id, err)
	}
	info.bytes += rowBytes(orow)
	info.ops = 2
	for ln := 1; ln <= lines; ln++ {
		pkey := r.Range(1, int64(f.numParts))
		s = tr.begin("table.lookup part", parent, req)
		_, ok := f.part.Lookup(pkey)
		tr.end(s)
		if !ok {
			return info, fmt.Errorf("tx %d: part %d not found", id, pkey)
		}
		qty := r.Range(1, 50)
		lrow := datablocks.Row{
			datablocks.Int(okey), datablocks.Int(pkey), datablocks.Int(1), datablocks.Int(int64(ln)),
			datablocks.Int(qty), datablocks.Int(qty * 1000), datablocks.Int(r.Range(0, 10)), datablocks.Int(r.Range(0, 8)),
			datablocks.Str("N"), datablocks.Str("O"), datablocks.Int(odate + 10), datablocks.Int(odate + 40),
			datablocks.Int(odate + 20), datablocks.Str("NONE"), datablocks.Str("MAIL"), datablocks.Str("refresh line"),
		}
		s = tr.begin("table.insert lineitem", parent, req)
		_, err := f.lineitem.Insert(lrow)
		tr.end(s)
		if err != nil {
			return info, fmt.Errorf("tx %d: insert line: %w", id, err)
		}
		info.bytes += rowBytes(lrow)
		info.ops += 2
	}
	return info, nil
}

// expectRows returns the live row count every table must hold after
// txDone transactions with lines order lines in total.
func (f *tpchFamily) expectRows(txDone, lines int) map[string]int {
	rows := map[string]int{}
	for _, t := range f.tabs {
		rows[t.name] = t.n
	}
	rows["orders"] += txDone
	rows["lineitem"] += lines
	return rows
}

// verifyRecovered has nothing beyond the row counts and the first query
// to check: the olap workloads close cleanly.
func (f *tpchFamily) verifyRecovered(*datablocks.DB, int) error { return nil }

func (f *tpchFamily) factTable() string { return "lineitem" }

// scanProbe returns Q6's predicates in lineitem's ordinals and the column
// the unpack and point-access probes read (l_extendedprice).
func (f *tpchFamily) scanProbe() ([]core.Predicate, int) {
	const qty, price, disc, ship = 4, 5, 6, 10
	return []core.Predicate{
		{Col: ship, Op: types.Between, Lo: types.DateValue(1994, time.January, 1), Hi: types.DateValue(1994, time.December, 31)},
		{Col: disc, Op: types.Between, Lo: types.IntValue(5), Hi: types.IntValue(7)},
		{Col: qty, Op: types.Lt, Lo: types.IntValue(24)},
	}, price
}

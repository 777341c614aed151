package main

import (
	"fmt"
	"sync"

	"datablocks"
	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/types"
	"datablocks/internal/xrand"
)

// chFamily is the CH-benCHmark side: a TPC-C-style schema (customer,
// stock, orders, order_line) written by new-order transactions and read by
// the CH adaptations of TPC-H Q1, Q4, Q6 and Q12.
//
// Every row is a pure function of (seed, key): the preload, the
// transactions, the naive reference answers and the post-crash
// verification all regenerate rows instead of remembering them, and two
// clients racing for transaction ids still produce the same database.
type chFamily struct {
	seed      uint64
	customers int
	items     int
	preload   int // orders (with their lines) loaded and frozen before the run
	perDay    int // orders per entry day
	txTotal   int // transactions the run will execute

	tabs []*tableData
	// refs0/refsAll are the naive answers of the four queries with no and
	// with all transactions applied.
	refs0, refsAll [][]refRow

	customer, stock, orders, orderLine *datablocks.Table
	plans                              []exec.Node
	// locks is the application's row-lock table for stock: the read-
	// modify-write of one stock row must not interleave with another
	// client's.
	locks [256]sync.Mutex
}

const (
	chDayBase     = 10000 // first entry day
	chPreloadDays = 60    // the preload spans this many entry days; the queries' date windows lie inside them
)

var chSchemas = map[string][]datablocks.Column{
	"customer": {
		{Name: "c_id", Kind: datablocks.Int64}, {Name: "c_name", Kind: datablocks.String},
		{Name: "c_state", Kind: datablocks.String}, {Name: "c_balance", Kind: datablocks.Int64},
		{Name: "c_since", Kind: datablocks.Int64},
	},
	"stock": {
		{Name: "s_i_id", Kind: datablocks.Int64}, {Name: "s_quantity", Kind: datablocks.Int64},
		{Name: "s_ytd", Kind: datablocks.Int64}, {Name: "s_cnt", Kind: datablocks.Int64},
		{Name: "s_dist", Kind: datablocks.String},
	},
	"orders": {
		{Name: "o_id", Kind: datablocks.Int64}, {Name: "o_c_id", Kind: datablocks.Int64},
		{Name: "o_entry_d", Kind: datablocks.Int64}, {Name: "o_carrier_id", Kind: datablocks.Int64},
		{Name: "o_ol_cnt", Kind: datablocks.Int64},
	},
	"order_line": {
		{Name: "ol_key", Kind: datablocks.Int64}, {Name: "ol_o_id", Kind: datablocks.Int64},
		{Name: "ol_number", Kind: datablocks.Int64}, {Name: "ol_i_id", Kind: datablocks.Int64},
		{Name: "ol_quantity", Kind: datablocks.Int64}, {Name: "ol_amount", Kind: datablocks.Int64},
		{Name: "ol_due_d", Kind: datablocks.Int64}, {Name: "ol_delivery_d", Kind: datablocks.Int64},
		{Name: "ol_dist_info", Kind: datablocks.String},
	},
}

var chTableOrder = []string{"customer", "stock", "orders", "order_line"}

var chStates = []string{"CA", "NY", "TX", "WA", "IL", "FL", "OH", "MI"}

func newCH(customers, items, preload, txTotal int, seed uint64) *chFamily {
	f := &chFamily{seed: seed, customers: customers, items: items, preload: preload, txTotal: txTotal}
	f.perDay = preload / chPreloadDays
	if f.perDay < 1 {
		f.perDay = 1
	}
	return f
}

func (f *chFamily) customerRow(id int64) datablocks.Row {
	h := mix(f.seed^0xC057, uint64(id))
	return datablocks.Row{
		datablocks.Int(id), datablocks.Str(fmt.Sprintf("Customer#%09d", id)),
		datablocks.Str(chStates[h%uint64(len(chStates))]), datablocks.Int(int64(h>>8) % 100000),
		datablocks.Int(chDayBase - int64(h>>32)%3000),
	}
}

func stockDist(item int64) string { return fmt.Sprintf("dist-info-%014d", item*7919) }

// stockRow is the preloaded state of a stock row; transactions move
// s_quantity, s_ytd and s_cnt from there.
func (f *chFamily) stockRow(item int64) datablocks.Row {
	h := mix(f.seed^0x570C, uint64(item))
	return datablocks.Row{
		datablocks.Int(item), datablocks.Int(1000 + int64(h%9000)), datablocks.Int(0), datablocks.Int(0),
		datablocks.Str(stockDist(item)),
	}
}

type chLine struct {
	item, qty, amount, due, delivery int64
}

type chOrder struct {
	id, cust, entry, carrier int64
	lines                    []chLine
}

// order regenerates order number n (0-based; the preload is [0, preload),
// transaction id t is order preload+t). Entry days grow with n, as they
// do in a system that stamps orders on arrival, so order_line chunks are
// clustered by date.
func (f *chFamily) order(n int, buf []chLine) chOrder {
	r := xrand.New(mix(f.seed^0x04DE4, uint64(n)))
	o := chOrder{
		id:      int64(n) + 1,
		cust:    r.Range(1, int64(f.customers)),
		entry:   chDayBase + int64(n/f.perDay),
		carrier: r.Range(1, 10),
	}
	nl := int(r.Range(5, 15))
	o.lines = buf[:0]
	for i := 0; i < nl; i++ {
		item := r.Range(1, int64(f.items))
		qty := r.Range(1, 10)
		o.lines = append(o.lines, chLine{
			item: item, qty: qty, amount: qty * (100 + item%900),
			due: o.entry + r.Range(5, 25), delivery: o.entry + r.Range(1, 30),
		})
	}
	return o
}

func (o *chOrder) row() datablocks.Row {
	return datablocks.Row{
		datablocks.Int(o.id), datablocks.Int(o.cust), datablocks.Int(o.entry),
		datablocks.Int(o.carrier), datablocks.Int(int64(len(o.lines))),
	}
}

func lineKey(orderID int64, number int) int64 { return orderID*16 + int64(number) }

func (o *chOrder) lineRow(i int) datablocks.Row {
	l := &o.lines[i]
	return datablocks.Row{
		datablocks.Int(lineKey(o.id, i+1)), datablocks.Int(o.id), datablocks.Int(int64(i + 1)),
		datablocks.Int(l.item), datablocks.Int(l.qty), datablocks.Int(l.amount),
		datablocks.Int(l.due), datablocks.Int(l.delivery), datablocks.Str(stockDist(l.item)[:16]),
	}
}

// colBuilder accumulates rows into bulk-load columns.
type colBuilder struct {
	td *tableData
}

func newColBuilder(name, pk string) *colBuilder {
	td := &tableData{name: name, cols: chSchemas[name], pk: pk}
	td.data = make([]datablocks.ColumnData, len(td.cols))
	for i, c := range td.cols {
		td.data[i].Kind = c.Kind
	}
	return &colBuilder{td: td}
}

func (b *colBuilder) add(row datablocks.Row) {
	for i, v := range row {
		if v.Kind() == types.String {
			b.td.data[i].Strs = append(b.td.data[i].Strs, v.Str())
		} else {
			b.td.data[i].Ints = append(b.td.data[i].Ints, v.Int())
		}
	}
	b.td.n++
	b.td.bytes += rowBytes(row)
}

// generate builds the preload columns and the naive references.
func (f *chFamily) generate(bool) error {
	cust := newColBuilder("customer", "c_id")
	for id := int64(1); id <= int64(f.customers); id++ {
		cust.add(f.customerRow(id))
	}
	stock := newColBuilder("stock", "s_i_id")
	for id := int64(1); id <= int64(f.items); id++ {
		stock.add(f.stockRow(id))
	}
	orders := newColBuilder("orders", "o_id")
	lines := newColBuilder("order_line", "ol_key")
	var buf []chLine
	for n := 0; n < f.preload; n++ {
		o := f.order(n, buf)
		buf = o.lines
		orders.add(o.row())
		for i := range o.lines {
			lines.add(o.lineRow(i))
		}
	}
	f.tabs = []*tableData{cust.td, stock.td, orders.td, lines.td}
	f.refs0 = f.naive(f.preload)
	f.refsAll = f.naive(f.preload + f.txTotal)
	// Q4, Q6 and Q12 select date windows inside the preload, so the
	// transaction stream must not change their answers; the concurrent
	// checks of hybrid_ch rely on it.
	for _, qi := range []int{1, 2, 3} {
		if err := equalRows(f.refs0[qi], f.refsAll[qi]); err != nil {
			return fmt.Errorf("ch reference %s is not invariant under the transaction stream: %w", chQueryNames[qi], err)
		}
	}
	return nil
}

func (f *chFamily) tables() []*tableData { return f.tabs }

func (f *chFamily) release() {
	for _, t := range f.tabs {
		t.data = nil
	}
}

// Date windows of the queries, all inside the first preloaded days.
const (
	chQ1After   = chDayBase + 2
	chQ6Lo      = chDayBase + 10
	chQ6Hi      = chDayBase + 16
	chQ4Lo      = chDayBase + 5
	chQ4Hi      = chDayBase + 24
	chQ12Lo     = chDayBase + 8
	chQ12Hi     = chDayBase + 37
	chQ6QtyLo   = 2
	chQ6QtyHi   = 4
	chFastCarry = 2 // carriers 1..2 count as "high priority" in Q12
)

var chQueryNames = []string{"q1", "q4", "q6", "q12"}

// naive answers the four queries by regenerating orders [0, upTo) and
// looping over their rows; it shares no code with internal/exec.
func (f *chFamily) naive(upTo int) [][]refRow {
	type q1acc struct{ qty, amount, n int64 }
	q1 := map[int64]*q1acc{}
	q4 := map[int64]int64{}
	var q6 int64
	type q12acc struct{ high, low int64 }
	q12 := map[int64]*q12acc{}
	var buf []chLine
	for n := 0; n < upTo; n++ {
		o := f.order(n, buf)
		buf = o.lines
		late := false
		for i, l := range o.lines {
			if l.delivery > chQ1After {
				a := q1[int64(i+1)]
				if a == nil {
					a = &q1acc{}
					q1[int64(i+1)] = a
				}
				a.qty += l.qty
				a.amount += l.amount
				a.n++
			}
			if l.delivery >= chQ6Lo && l.delivery <= chQ6Hi && l.qty >= chQ6QtyLo && l.qty <= chQ6QtyHi {
				q6 += l.amount
			}
			if l.due < l.delivery {
				late = true
			}
			if l.delivery >= chQ12Lo && l.delivery <= chQ12Hi {
				a := q12[int64(len(o.lines))]
				if a == nil {
					a = &q12acc{}
					q12[int64(len(o.lines))] = a
				}
				if o.carrier <= chFastCarry {
					a.high++
				} else {
					a.low++
				}
			}
		}
		if late && o.entry >= chQ4Lo && o.entry <= chQ4Hi {
			q4[int64(len(o.lines))]++
		}
	}
	out := make([][]refRow, 4)
	for k, a := range q1 {
		n := float64(a.n)
		out[0] = append(out[0], refRow{
			Key:  fmt.Sprintf("%d|%d|", k, a.n),
			Nums: []float64{float64(a.qty), float64(a.amount), float64(a.qty) / n, float64(a.amount) / n},
		})
	}
	for k, n := range q4 {
		out[1] = append(out[1], refRow{Key: fmt.Sprintf("%d|%d|", k, n)})
	}
	out[2] = []refRow{{Nums: []float64{float64(q6)}}}
	for k, a := range q12 {
		out[3] = append(out[3], refRow{Key: fmt.Sprintf("%d|", k), Nums: []float64{float64(a.high), float64(a.low)}})
	}
	for i := range out {
		sortRefRows(out[i])
	}
	return out
}

func (f *chFamily) bind(db *datablocks.DB) error {
	f.customer, f.stock = db.Table("customer"), db.Table("stock")
	f.orders, f.orderLine = db.Table("orders"), db.Table("order_line")
	for _, name := range chTableOrder {
		if db.Table(name) == nil {
			return fmt.Errorf("table %q missing", name)
		}
	}
	ol, ord := f.orderLine.Relation(), f.orders.Relation()
	olc := func(n string) int { return ol.Schema().MustColumn(n) }
	oc := func(n string) int { return ord.Schema().MustColumn(n) }
	iv := types.IntValue

	q1 := &exec.OrderByNode{
		Child: &exec.AggNode{
			Child: &exec.ScanNode{
				Rel:   ol,
				Cols:  []int{olc("ol_number"), olc("ol_quantity"), olc("ol_amount"), olc("ol_delivery_d")},
				Preds: []core.Predicate{{Col: olc("ol_delivery_d"), Op: types.Gt, Lo: iv(chQ1After)}},
			},
			GroupBy: []int{0},
			Aggs: []exec.AggSpec{
				{Func: exec.AggSum, Arg: exec.Col(1)}, {Func: exec.AggSum, Arg: exec.Col(2)},
				{Func: exec.AggAvg, Arg: exec.Col(1)}, {Func: exec.AggAvg, Arg: exec.Col(2)},
				{Func: exec.AggCount},
			},
		},
		Keys: []exec.OrderKey{{Col: 0}},
	}
	q4 := &exec.OrderByNode{
		Child: &exec.AggNode{
			Child: &exec.JoinNode{
				Build: &exec.ScanNode{
					Rel:    ol,
					Cols:   []int{olc("ol_o_id"), olc("ol_due_d"), olc("ol_delivery_d")},
					Filter: exec.Cmp(types.Lt, exec.Col(1), exec.Col(2)),
				},
				Probe: &exec.ScanNode{
					Rel:   ord,
					Cols:  []int{oc("o_id"), oc("o_ol_cnt"), oc("o_entry_d")},
					Preds: []core.Predicate{{Col: oc("o_entry_d"), Op: types.Between, Lo: iv(chQ4Lo), Hi: iv(chQ4Hi)}},
				},
				BuildKeys: []int{0}, ProbeKeys: []int{0},
				Kind: exec.SemiJoin,
			},
			GroupBy: []int{1},
			Aggs:    []exec.AggSpec{{Func: exec.AggCount}},
		},
		Keys: []exec.OrderKey{{Col: 0}},
	}
	q6 := &exec.AggNode{
		Child: &exec.ScanNode{
			Rel:  ol,
			Cols: []int{olc("ol_delivery_d"), olc("ol_amount"), olc("ol_quantity")},
			Preds: []core.Predicate{
				{Col: olc("ol_delivery_d"), Op: types.Between, Lo: iv(chQ6Lo), Hi: iv(chQ6Hi)},
				{Col: olc("ol_quantity"), Op: types.Between, Lo: iv(chQ6QtyLo), Hi: iv(chQ6QtyHi)},
			},
		},
		Aggs: []exec.AggSpec{{Func: exec.AggSum, Arg: exec.Col(1)}},
	}
	fast := exec.Cmp(types.Le, exec.Col(3), exec.CInt(chFastCarry))
	q12 := &exec.OrderByNode{
		Child: &exec.AggNode{
			// join output: [ol_o_id ol_delivery_d | o_id o_carrier_id o_ol_cnt]
			Child: &exec.JoinNode{
				Build: &exec.ScanNode{Rel: ord, Cols: []int{oc("o_id"), oc("o_carrier_id"), oc("o_ol_cnt")}},
				Probe: &exec.ScanNode{
					Rel:   ol,
					Cols:  []int{olc("ol_o_id"), olc("ol_delivery_d")},
					Preds: []core.Predicate{{Col: olc("ol_delivery_d"), Op: types.Between, Lo: iv(chQ12Lo), Hi: iv(chQ12Hi)}},
				},
				BuildKeys: []int{0}, ProbeKeys: []int{0},
				Kind: exec.InnerJoin,
			},
			GroupBy: []int{4},
			Aggs: []exec.AggSpec{
				{Func: exec.AggSum, Arg: exec.If{Cond: fast, Then: exec.CInt(1), Else: exec.CInt(0)}},
				{Func: exec.AggSum, Arg: exec.If{Cond: fast, Then: exec.CInt(0), Else: exec.CInt(1)}},
			},
		},
		Keys: []exec.OrderKey{{Col: 0}},
	}
	f.plans = []exec.Node{q1, q4, q6, q12}
	return nil
}

func (f *chFamily) queries() []string { return chQueryNames }

func (f *chFamily) run(qi int, opt datablocks.QueryOptions) (*datablocks.Result, error) {
	return datablocks.Query(f.plans[qi], opt)
}

// check compares a result with the naive answer for the number of
// transactions applied. While transactions are in flight only Q1 moves;
// it is then held to the bracket between the two known states.
func (f *chFamily) check(qi int, res *datablocks.Result, txDone int) error {
	got := canon(res)
	switch {
	case txDone == 0:
		return equalRows(got, f.refs0[qi])
	case txDone >= f.txTotal:
		return equalRows(got, f.refsAll[qi])
	case qi != 0:
		return equalRows(got, f.refs0[qi])
	}
	if len(got) != len(f.refsAll[0]) {
		return fmt.Errorf("q1: %d groups, reference has %d", len(got), len(f.refsAll[0]))
	}
	for i := range got {
		lo, hi := f.refs0[0][i].Nums[0], f.refsAll[0][i].Nums[0]
		if v := got[i].Nums[0]; v < lo || v > hi {
			return fmt.Errorf("q1 group %d: sum(quantity) %v outside [%v, %v]", i, v, lo, hi)
		}
	}
	return nil
}

func (f *chFamily) firstQuery() int { return 2 } // q6

func (f *chFamily) lookupTable() (*datablocks.Table, int64) { return f.stock, int64(f.items) }

// checkLookup holds a looked-up stock row to its immutable columns; the
// counters move with the transactions.
func (f *chFamily) checkLookup(key int64, row datablocks.Row) error {
	if row[0].Int() != key || row[4].Str() != stockDist(key) {
		return fmt.Errorf("stock %d: got key %d dist %q", key, row[0].Int(), row[4].Str())
	}
	return nil
}

// tx is one new-order transaction, a pure function of (seed, id).
func (f *chFamily) tx(id int, tr *tracer, parent, req uint64) (txInfo, error) {
	var buf [15]chLine
	o := f.order(f.preload+id, buf[:0])
	info := txInfo{lines: len(o.lines)}

	s := tr.begin("table.lookup customer", parent, req)
	_, ok := f.customer.Lookup(o.cust)
	tr.end(s)
	if !ok {
		return info, fmt.Errorf("tx %d: customer %d not found", id, o.cust)
	}
	orow := o.row()
	s = tr.begin("table.insert orders", parent, req)
	_, err := f.orders.Insert(orow)
	tr.end(s)
	if err != nil {
		return info, fmt.Errorf("tx %d: insert order: %w", id, err)
	}
	info.bytes += rowBytes(orow)
	info.ops = 2
	for i := range o.lines {
		l := &o.lines[i]
		lock := &f.locks[l.item%int64(len(f.locks))]
		lock.Lock()
		s = tr.begin("table.lookup stock", parent, req)
		srow, ok := f.stock.Lookup(l.item)
		tr.end(s)
		if !ok {
			lock.Unlock()
			return info, fmt.Errorf("tx %d: stock %d not found", id, l.item)
		}
		nrow := datablocks.Row{
			srow[0], datablocks.Int(srow[1].Int() - l.qty), datablocks.Int(srow[2].Int() + l.qty),
			datablocks.Int(srow[3].Int() + 1), srow[4],
		}
		s = tr.begin("table.update stock", parent, req)
		err := f.stock.Update(l.item, nrow)
		tr.end(s)
		lock.Unlock()
		if err != nil {
			return info, fmt.Errorf("tx %d: update stock %d: %w", id, l.item, err)
		}
		lrow := o.lineRow(i)
		s = tr.begin("table.insert order_line", parent, req)
		_, err = f.orderLine.Insert(lrow)
		tr.end(s)
		if err != nil {
			return info, fmt.Errorf("tx %d: insert line: %w", id, err)
		}
		info.bytes += rowBytes(lrow)
		info.ops += 3
	}
	return info, nil
}

func (f *chFamily) expectRows(txDone, lines int) map[string]int {
	rows := map[string]int{}
	for _, t := range f.tabs {
		rows[t.name] = t.n
	}
	rows["orders"] += txDone
	rows["order_line"] += lines
	return rows
}

// verifyRecovered checks, after a restart, that every acknowledged
// transaction is fully there: the order with its line count, each of its
// lines, and every stock counter at the value the acknowledged lines add
// up to.
func (f *chFamily) verifyRecovered(db *datablocks.DB, txDone int) error {
	if err := f.bind(db); err != nil {
		return err
	}
	cnt := make(map[int64]int64)
	var buf []chLine
	for t := 0; t < txDone; t++ {
		o := f.order(f.preload+t, buf)
		buf = o.lines
		row, ok := f.orders.Lookup(o.id)
		if !ok {
			return fmt.Errorf("acknowledged order %d lost", o.id)
		}
		if got := row[4].Int(); got != int64(len(o.lines)) {
			return fmt.Errorf("order %d recovered with %d lines, wrote %d", o.id, got, len(o.lines))
		}
		for i, l := range o.lines {
			lrow, ok := f.orderLine.Lookup(lineKey(o.id, i+1))
			if !ok {
				return fmt.Errorf("acknowledged line %d of order %d lost", i+1, o.id)
			}
			if lrow[3].Int() != l.item || lrow[5].Int() != l.amount {
				return fmt.Errorf("line %d of order %d recovered as item %d amount %d, wrote %d %d",
					i+1, o.id, lrow[3].Int(), lrow[5].Int(), l.item, l.amount)
			}
			cnt[l.item]++
		}
	}
	var sum, want int64
	for item := int64(1); item <= int64(f.items); item++ {
		row, ok := f.stock.Lookup(item)
		if !ok {
			return fmt.Errorf("stock %d lost", item)
		}
		if got := row[3].Int(); got != cnt[item] {
			return fmt.Errorf("stock %d: s_cnt %d, acknowledged lines %d", item, got, cnt[item])
		}
		sum += row[3].Int()
		want += cnt[item]
	}
	if sum != want {
		return fmt.Errorf("sum(s_cnt) %d, acknowledged lines %d", sum, want)
	}
	return nil
}

func (f *chFamily) factTable() string { return "order_line" }

// scanProbe returns ch_q6's predicates in order_line's ordinals and the
// column the unpack and point-access probes read (ol_amount).
func (f *chFamily) scanProbe() ([]core.Predicate, int) {
	const qty, amount, delivery = 4, 5, 7
	return []core.Predicate{
		{Col: delivery, Op: types.Between, Lo: types.IntValue(chQ6Lo), Hi: types.IntValue(chQ6Hi)},
		{Col: qty, Op: types.Between, Lo: types.IntValue(chQ6QtyLo), Hi: types.IntValue(chQ6QtyHi)},
	}, amount
}

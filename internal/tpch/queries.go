package tpch

import (
	"fmt"
	"time"

	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/types"
)

// SupportedQueries lists the implemented TPC-H subset, chosen to cover the
// paper's Table 2 extremes (Q1: nearly all tuples qualify; Q6: few qualify)
// plus join, semi-join, multi-way-join, CASE-aggregation and complex-OR
// shapes.
var SupportedQueries = []int{1, 3, 4, 5, 6, 12, 14, 19}

// Query builds and runs the physical plan of the given TPC-H query.
func (db *DB) Query(q int, opt exec.Options) (*exec.Result, error) {
	plan, err := db.Plan(q)
	if err != nil {
		return nil, err
	}
	return exec.Run(plan, opt)
}

// Plan returns the physical plan of the given TPC-H query.
func (db *DB) Plan(q int) (exec.Node, error) {
	switch q {
	case 1:
		return db.q1(), nil
	case 3:
		return db.q3(), nil
	case 4:
		return db.q4(), nil
	case 5:
		return db.q5(), nil
	case 6:
		return db.q6(), nil
	case 12:
		return db.q12(), nil
	case 14:
		return db.q14(), nil
	case 19:
		return db.q19(), nil
	default:
		return nil, fmt.Errorf("tpch: query %d not implemented (supported: %v)", q, SupportedQueries)
	}
}

func date(y int, m time.Month, d int) types.Value { return types.DateValue(y, m, d) }

// dollars converts a scaled-cents integer column expression to dollars.
func dollars(e exec.Expr) exec.Expr { return exec.Div(e, exec.CInt(100)) }

// frac converts a hundredths column (discount, tax) to a fraction.
func frac(e exec.Expr) exec.Expr { return exec.Div(e, exec.CInt(100)) }

func (db *DB) li(name string) int  { return db.Lineitem.Schema().MustColumn(name) }
func (db *DB) ord(name string) int { return db.Orders.Schema().MustColumn(name) }

// q1 — pricing summary report: scan-dominated, nearly all tuples qualify
// (the vectorized-scan worst case, §4.1).
func (db *DB) q1() exec.Node {
	cols := []int{
		db.li("l_quantity"), db.li("l_extendedprice"), db.li("l_discount"),
		db.li("l_tax"), db.li("l_returnflag"), db.li("l_linestatus"), db.li("l_shipdate"),
	}
	const (
		qty = iota
		price
		disc
		tax
		rf
		ls
	)
	discPrice := exec.Mul(dollars(exec.Col(price)), exec.Sub(exec.CInt(1), frac(exec.Col(disc))))
	charge := exec.Mul(discPrice, exec.Add(exec.CInt(1), frac(exec.Col(tax))))
	return &exec.OrderByNode{
		Child: &exec.AggNode{
			Child: &exec.ScanNode{
				Rel:  db.Lineitem,
				Cols: cols,
				Preds: []core.Predicate{
					{Col: db.li("l_shipdate"), Op: types.Le, Lo: date(1998, time.September, 2)},
				},
			},
			GroupBy: []int{rf, ls},
			Aggs: []exec.AggSpec{
				{Func: exec.AggSum, Arg: exec.Col(qty)},
				{Func: exec.AggSum, Arg: dollars(exec.Col(price))},
				{Func: exec.AggSum, Arg: discPrice},
				{Func: exec.AggSum, Arg: charge},
				{Func: exec.AggAvg, Arg: exec.Col(qty)},
				{Func: exec.AggAvg, Arg: dollars(exec.Col(price))},
				{Func: exec.AggAvg, Arg: frac(exec.Col(disc))},
				{Func: exec.AggCount},
			},
		},
		Keys: []exec.OrderKey{{Col: 0}, {Col: 1}},
	}
}

// q3 — shipping priority: customer ⋈ orders ⋈ lineitem with top-10.
func (db *DB) q3() exec.Node {
	cust := &exec.ScanNode{
		Rel:  db.Customer,
		Cols: []int{db.Customer.Schema().MustColumn("c_custkey"), db.Customer.Schema().MustColumn("c_mktsegment")},
		Preds: []core.Predicate{
			{Col: db.Customer.Schema().MustColumn("c_mktsegment"), Op: types.Eq, Lo: types.StringValue("BUILDING")},
		},
	}
	ordersScan := &exec.ScanNode{
		Rel: db.Orders,
		Cols: []int{
			db.ord("o_orderkey"), db.ord("o_custkey"), db.ord("o_orderdate"), db.ord("o_shippriority"),
		},
		Preds: []core.Predicate{
			{Col: db.ord("o_orderdate"), Op: types.Lt, Lo: date(1995, time.March, 15)},
		},
	}
	// orders ⋈ customer keyed on custkey; output: o_* ++ c_*.
	oc := &exec.JoinNode{
		Build: cust, Probe: ordersScan,
		BuildKeys: []int{0}, ProbeKeys: []int{1},
		Kind: exec.InnerJoin,
	}
	liScan := &exec.ScanNode{
		Rel:  db.Lineitem,
		Cols: []int{db.li("l_orderkey"), db.li("l_extendedprice"), db.li("l_discount"), db.li("l_shipdate")},
		Preds: []core.Predicate{
			{Col: db.li("l_shipdate"), Op: types.Gt, Lo: date(1995, time.March, 15)},
		},
	}
	// lineitem ⋈ (orders ⋈ customer): probe cols [okey price disc ship] ++
	// build cols [o_orderkey o_custkey o_orderdate o_shippriority c_custkey c_mktsegment]
	j := &exec.JoinNode{
		Build: oc, Probe: liScan,
		BuildKeys: []int{0}, ProbeKeys: []int{0},
		Kind: exec.InnerJoin,
	}
	revenue := exec.Mul(dollars(exec.Col(1)), exec.Sub(exec.CInt(1), frac(exec.Col(2))))
	return &exec.OrderByNode{
		Child: &exec.AggNode{
			Child:   j,
			GroupBy: []int{4, 6, 7}, // l_orderkey(from build o_orderkey), o_orderdate, o_shippriority
			Aggs:    []exec.AggSpec{{Func: exec.AggSum, Arg: revenue}},
		},
		Keys:  []exec.OrderKey{{Col: 3, Desc: true}, {Col: 1}},
		Limit: 10,
	}
}

// q4 — order priority checking: semi join against late lineitems.
func (db *DB) q4() exec.Node {
	late := &exec.ScanNode{
		Rel:    db.Lineitem,
		Cols:   []int{db.li("l_orderkey"), db.li("l_commitdate"), db.li("l_receiptdate")},
		Filter: exec.Cmp(types.Lt, exec.Col(1), exec.Col(2)),
	}
	ordersScan := &exec.ScanNode{
		Rel:  db.Orders,
		Cols: []int{db.ord("o_orderkey"), db.ord("o_orderpriority"), db.ord("o_orderdate")},
		Preds: []core.Predicate{
			{Col: db.ord("o_orderdate"), Op: types.Between, Lo: date(1993, time.July, 1), Hi: date(1993, time.September, 30)},
		},
	}
	semi := &exec.JoinNode{
		Build: late, Probe: ordersScan,
		BuildKeys: []int{0}, ProbeKeys: []int{0},
		Kind: exec.SemiJoin,
	}
	return &exec.OrderByNode{
		Child: &exec.AggNode{
			Child:   semi,
			GroupBy: []int{1},
			Aggs:    []exec.AggSpec{{Func: exec.AggCount}},
		},
		Keys: []exec.OrderKey{{Col: 0}},
	}
}

// q5 — local supplier volume: six-way join with a residual nation match.
func (db *DB) q5() exec.Node {
	region := &exec.ScanNode{
		Rel:  db.Region,
		Cols: []int{db.Region.Schema().MustColumn("r_regionkey"), db.Region.Schema().MustColumn("r_name")},
		Preds: []core.Predicate{
			{Col: db.Region.Schema().MustColumn("r_name"), Op: types.Eq, Lo: types.StringValue("ASIA")},
		},
	}
	nation := &exec.ScanNode{
		Rel: db.Nation,
		Cols: []int{
			db.Nation.Schema().MustColumn("n_nationkey"),
			db.Nation.Schema().MustColumn("n_name"),
			db.Nation.Schema().MustColumn("n_regionkey"),
		},
	}
	// nation ⋈ region: [n_nationkey n_name n_regionkey r_regionkey r_name]
	nr := &exec.JoinNode{Build: region, Probe: nation, BuildKeys: []int{0}, ProbeKeys: []int{2}, Kind: exec.InnerJoin}
	supplier := &exec.ScanNode{
		Rel:  db.Supplier,
		Cols: []int{db.Supplier.Schema().MustColumn("s_suppkey"), db.Supplier.Schema().MustColumn("s_nationkey")},
	}
	// supplier ⋈ (nation ⋈ region): [s_suppkey s_nationkey n_nationkey n_name ...]
	snr := &exec.JoinNode{Build: nr, Probe: supplier, BuildKeys: []int{0}, ProbeKeys: []int{1}, Kind: exec.InnerJoin}

	cust := &exec.ScanNode{
		Rel:  db.Customer,
		Cols: []int{db.Customer.Schema().MustColumn("c_custkey"), db.Customer.Schema().MustColumn("c_nationkey")},
	}
	ordersScan := &exec.ScanNode{
		Rel:  db.Orders,
		Cols: []int{db.ord("o_orderkey"), db.ord("o_custkey"), db.ord("o_orderdate")},
		Preds: []core.Predicate{
			{Col: db.ord("o_orderdate"), Op: types.Between, Lo: date(1994, time.January, 1), Hi: date(1994, time.December, 31)},
		},
	}
	// orders ⋈ customer: [o_orderkey o_custkey o_orderdate c_custkey c_nationkey]
	oc := &exec.JoinNode{Build: cust, Probe: ordersScan, BuildKeys: []int{0}, ProbeKeys: []int{1}, Kind: exec.InnerJoin}

	liScan := &exec.ScanNode{
		Rel:  db.Lineitem,
		Cols: []int{db.li("l_orderkey"), db.li("l_suppkey"), db.li("l_extendedprice"), db.li("l_discount")},
	}
	// lineitem ⋈ oc on orderkey:
	// [l_orderkey l_suppkey l_price l_disc | o_orderkey o_custkey o_orderdate c_custkey c_nationkey]
	jo := &exec.JoinNode{Build: oc, Probe: liScan, BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: exec.InnerJoin}
	// ⋈ snr on suppkey:
	// ++ [s_suppkey s_nationkey n_nationkey n_name n_regionkey r_regionkey r_name]
	js := &exec.JoinNode{Build: snr, Probe: jo, BuildKeys: []int{0}, ProbeKeys: []int{1}, Kind: exec.InnerJoin}
	// residual: customer and supplier share the nation.
	filtered := &exec.FilterNode{
		Child: js,
		Cond:  exec.Cmp(types.Eq, exec.Col(8), exec.Col(10)), // c_nationkey == s_nationkey
	}
	revenue := exec.Mul(dollars(exec.Col(2)), exec.Sub(exec.CInt(1), frac(exec.Col(3))))
	return &exec.OrderByNode{
		Child: &exec.AggNode{
			Child:   filtered,
			GroupBy: []int{12}, // n_name
			Aggs:    []exec.AggSpec{{Func: exec.AggSum, Arg: revenue}},
		},
		Keys: []exec.OrderKey{{Col: 1, Desc: true}},
	}
}

// q6 — forecasting revenue change: the paper's highly selective
// scan-dominated query, the PSMA/SARG showcase.
func (db *DB) q6() exec.Node {
	revenue := exec.Mul(dollars(exec.Col(1)), frac(exec.Col(2)))
	return &exec.AggNode{
		Child: &exec.ScanNode{
			Rel:  db.Lineitem,
			Cols: []int{db.li("l_shipdate"), db.li("l_extendedprice"), db.li("l_discount"), db.li("l_quantity")},
			Preds: []core.Predicate{
				{Col: db.li("l_shipdate"), Op: types.Between, Lo: date(1994, time.January, 1), Hi: date(1994, time.December, 31)},
				{Col: db.li("l_discount"), Op: types.Between, Lo: types.IntValue(5), Hi: types.IntValue(7)},
				{Col: db.li("l_quantity"), Op: types.Lt, Lo: types.IntValue(24)},
			},
		},
		Aggs: []exec.AggSpec{{Func: exec.AggSum, Arg: revenue}},
	}
}

// q12 — shipping modes and order priority: join plus CASE aggregation.
func (db *DB) q12() exec.Node {
	ordersScan := &exec.ScanNode{
		Rel:  db.Orders,
		Cols: []int{db.ord("o_orderkey"), db.ord("o_orderpriority")},
	}
	liScan := &exec.ScanNode{
		Rel: db.Lineitem,
		Cols: []int{
			db.li("l_orderkey"), db.li("l_shipmode"), db.li("l_commitdate"),
			db.li("l_receiptdate"), db.li("l_shipdate"),
		},
		Preds: []core.Predicate{
			// MAIL..SHIP narrows the dictionary range; the exact IN list is
			// the residual filter below.
			{Col: db.li("l_shipmode"), Op: types.Between, Lo: types.StringValue("MAIL"), Hi: types.StringValue("SHIP")},
			{Col: db.li("l_receiptdate"), Op: types.Between, Lo: date(1994, time.January, 1), Hi: date(1994, time.December, 31)},
		},
		Filter: exec.And(
			exec.Or(
				exec.Cmp(types.Eq, exec.Col(1), exec.CStr("MAIL")),
				exec.Cmp(types.Eq, exec.Col(1), exec.CStr("SHIP")),
			),
			exec.And(
				exec.Cmp(types.Lt, exec.Col(2), exec.Col(3)), // commit < receipt
				exec.Cmp(types.Lt, exec.Col(4), exec.Col(2)), // ship < commit
			),
		),
	}
	j := &exec.JoinNode{Build: ordersScan, Probe: liScan, BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: exec.InnerJoin}
	isUrgent := exec.Or(
		exec.Cmp(types.Eq, exec.Col(6), exec.CStr("1-URGENT")),
		exec.Cmp(types.Eq, exec.Col(6), exec.CStr("2-HIGH")),
	)
	return &exec.OrderByNode{
		Child: &exec.AggNode{
			Child:   j,
			GroupBy: []int{1}, // l_shipmode
			Aggs: []exec.AggSpec{
				{Func: exec.AggSum, Arg: exec.If{Cond: isUrgent, Then: exec.CInt(1), Else: exec.CInt(0)}},
				{Func: exec.AggSum, Arg: exec.If{Cond: isUrgent, Then: exec.CInt(0), Else: exec.CInt(1)}},
			},
		},
		Keys: []exec.OrderKey{{Col: 0}},
	}
}

// q14 — promotion effect: lineitem ⋈ part with a LIKE-prefix CASE.
func (db *DB) q14() exec.Node {
	part := &exec.ScanNode{
		Rel:  db.Part,
		Cols: []int{db.Part.Schema().MustColumn("p_partkey"), db.Part.Schema().MustColumn("p_type")},
	}
	liScan := &exec.ScanNode{
		Rel:  db.Lineitem,
		Cols: []int{db.li("l_partkey"), db.li("l_extendedprice"), db.li("l_discount"), db.li("l_shipdate")},
		Preds: []core.Predicate{
			{Col: db.li("l_shipdate"), Op: types.Between, Lo: date(1995, time.September, 1), Hi: date(1995, time.September, 30)},
		},
	}
	j := &exec.JoinNode{Build: part, Probe: liScan, BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: exec.InnerJoin}
	revenue := exec.Mul(dollars(exec.Col(1)), exec.Sub(exec.CInt(1), frac(exec.Col(2))))
	isPromo := exec.Cmp(types.Prefix, exec.Col(5), exec.CStr("PROMO"))
	return &exec.AggNode{
		Child: j,
		Aggs: []exec.AggSpec{
			{Func: exec.AggSum, Arg: exec.If{Cond: isPromo, Then: revenue, Else: exec.CInt(0)}},
			{Func: exec.AggSum, Arg: revenue},
		},
	}
}

// q19 — discounted revenue: three OR-ed conjunct groups over part and
// lineitem attributes.
func (db *DB) q19() exec.Node {
	part := &exec.ScanNode{
		Rel: db.Part,
		Cols: []int{
			db.Part.Schema().MustColumn("p_partkey"), db.Part.Schema().MustColumn("p_brand"),
			db.Part.Schema().MustColumn("p_container"), db.Part.Schema().MustColumn("p_size"),
		},
	}
	liScan := &exec.ScanNode{
		Rel: db.Lineitem,
		Cols: []int{
			db.li("l_partkey"), db.li("l_quantity"), db.li("l_extendedprice"),
			db.li("l_discount"), db.li("l_shipinstruct"), db.li("l_shipmode"),
		},
		Preds: []core.Predicate{
			{Col: db.li("l_shipinstruct"), Op: types.Eq, Lo: types.StringValue("DELIVER IN PERSON")},
			{Col: db.li("l_shipmode"), Op: types.Between, Lo: types.StringValue("AIR"), Hi: types.StringValue("AIR REG")},
		},
	}
	// join output: [l_partkey qty price disc instr mode | p_partkey brand container size]
	j := &exec.JoinNode{Build: part, Probe: liScan, BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: exec.InnerJoin}
	const (
		qty   = 1
		brand = 7
		cont  = 8
		size  = 9
	)
	group := func(brandV string, containers []string, qLo, qHi, sHi int64) exec.Expr {
		var contMatch exec.Expr
		for _, c := range containers {
			m := exec.Cmp(types.Eq, exec.Col(cont), exec.CStr(c))
			if contMatch == nil {
				contMatch = m
			} else {
				contMatch = exec.Or(contMatch, m)
			}
		}
		return exec.And(
			exec.Cmp(types.Eq, exec.Col(brand), exec.CStr(brandV)),
			exec.And(
				contMatch,
				exec.And(
					exec.BetweenE(exec.Col(qty), exec.CInt(qLo), exec.CInt(qHi)),
					exec.BetweenE(exec.Col(size), exec.CInt(1), exec.CInt(sHi)),
				),
			),
		)
	}
	cond := exec.Or(
		group("Brand#12", []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG"}, 1, 11, 5),
		exec.Or(
			group("Brand#23", []string{"MED BAG", "MED BOX", "MED PKG", "MED PACK"}, 10, 20, 10),
			group("Brand#34", []string{"LG CASE", "LG BOX", "LG PACK", "LG PKG"}, 20, 30, 15),
		),
	)
	revenue := exec.Mul(dollars(exec.Col(2)), exec.Sub(exec.CInt(1), frac(exec.Col(3))))
	return &exec.AggNode{
		Child: &exec.FilterNode{Child: j, Cond: cond},
		Aggs:  []exec.AggSpec{{Func: exec.AggSum, Arg: revenue}},
	}
}

package datablocks

import (
	"fmt"
	"testing"

	"datablocks/internal/exec"
)

// exprTables loads n orders (k PK, price double, status nullable string,
// qty int; the first two of three chunks frozen) and a customers table
// keyed by the same k, and returns the order rows for row-loop references.
func exprTables(t *testing.T, n int) (orders, customers *Table, rows []Row) {
	t.Helper()
	db := Open()
	orders, err := db.CreateTable("orders", []Column{
		{Name: "k", Kind: Int64},
		{Name: "price", Kind: Float64},
		{Name: "status", Kind: String, Nullable: true},
		{Name: "qty", Kind: Int64},
	}, WithPrimaryKey("k"), WithChunkRows(n/3+1))
	if err != nil {
		t.Fatal(err)
	}
	customers, err = db.CreateTable("customers", []Column{{Name: "k", Kind: Int64}}, WithPrimaryKey("k"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row := Row{Int(int64(i)), Float(float64(i%977) / 4), Str(fmt.Sprint("s", i%5)), Int(int64(i*7919) % 50)}
		if i%11 == 0 {
			row[2] = Null(String)
		}
		rows = append(rows, row)
		if _, err := orders.Insert(row); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if _, err := customers.Insert(Row{Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if i == 2*n/3 {
			if err := orders.FreezeAll(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return orders, customers, rows
}

// exprOptions is every way a plan's expressions get compiled: four scan
// modes (ModeJIT's tuple chain, the batch chain in the other three),
// serial and parallel.
func exprOptions() []QueryOptions {
	var opts []QueryOptions
	for _, mode := range sargModes {
		for _, par := range []int{1, 2} {
			opts = append(opts, QueryOptions{Mode: mode, Parallelism: par})
		}
	}
	return opts
}

// TestMalformedExprIsAnError: an expression the exported node types can
// spell but that means nothing — a missing operand or bound, an operator
// that does not exist, kinds that do not go together — is one error, with
// one text, from every scan mode, chain, degree of parallelism and place a
// plan holds an expression; never an answer and never a panic. (Before the
// shared front end the first case was a nil-pointer panic out of
// Table.Query, the third answered 2 400 rows as >=, an unknown logic
// operator was OR and '%' on doubles was division.)
func TestMalformedExprIsAnError(t *testing.T) {
	orders, customers, rows := exprTables(t, 3000)
	price, status, qty := Col(1), Col(2), Col(3)
	malformed := []struct {
		name string
		e    Expr
	}{
		{"BETWEEN without an upper bound", CmpE(Between, qty, CInt(10))},
		{"comparison without an operand", CmpE(Lt, qty, nil)},
		{"IS NULL as a comparison operator", CmpE(IsNull, qty, CInt(10))},
		{"unknown logic operator", exec.Logic{Op: 'x', L: CmpE(Lt, qty, CInt(10)), R: CmpE(Gt, qty, CInt(40))}},
		{"unknown arithmetic operator", exec.Binary{Op: '%', L: price, R: CFloat(7)}},
		{"NOT without an operand", exec.Logic{Op: '!'}},
		{"second bound on <", exec.Compare{Op: Lt, L: qty, R: CInt(1), R2: CInt(2)}},
		{"string = number", CmpE(Eq, status, CInt(1))},
		{"arithmetic on a string", Add(status, CInt(1))},
		{"prefix of a number", CmpE(Prefix, qty, CInt(1))},
		{"IS NULL of a computed value", exec.IsNullExpr{E: Add(qty, CInt(1))}},
		{"column out of range", Col(17)},
		{"node by pointer", &exec.ColRef{Idx: 3}},
	}
	cols := []string{"k", "price", "status", "qty"}
	scan := func(filter Expr) Node {
		plan, err := orders.ScanPlan(cols, nil, filter)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	build, err := customers.ScanPlan([]string{"k"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	holds := func(e Expr) Expr { return CmpE(Gt, e, CInt(0)) }
	positions := map[string]func(e Expr) Node{
		"scan filter": func(e Expr) Node { return scan(AndE(CmpE(Ge, qty, CInt(0)), holds(e))) },
		"filter":      func(e Expr) Node { return &exec.FilterNode{Child: scan(nil), Cond: holds(e)} },
		"map":         func(e Expr) Node { return &exec.MapNode{Child: scan(nil), Exprs: []Expr{Col(0), e}} },
		"aggregate": func(e Expr) Node {
			return &exec.AggNode{Child: scan(nil), GroupBy: []int{2}, Aggs: []exec.AggSpec{{Func: exec.AggSum, Arg: e}}}
		},
		"join probe": func(e Expr) Node {
			return &exec.JoinNode{Build: build, Probe: scan(holds(e)), BuildKeys: []int{0}, ProbeKeys: []int{0}}
		},
	}
	for _, bad := range malformed {
		want := ""
		for pos, plan := range positions {
			for _, opt := range exprOptions() {
				res, err := orders.Query(plan(bad.e), opt)
				if err == nil {
					t.Fatalf("%s as %s, %+v: %d rows, want an error", bad.name, pos, opt, res.NumRows())
				}
				if want == "" {
					want = err.Error()
				}
				if err.Error() != want {
					t.Fatalf("%s as %s, %+v: error %q, elsewhere %q", bad.name, pos, opt, err, want)
				}
			}
		}
	}
	t.Run("kinds-unify-symmetrically", func(t *testing.T) { testExprKindsUnify(t, orders, rows) })
}

// testExprKindsUnify is TestMalformedExprIsAnError's positive half: the
// kind a comparison or a conditional runs in does not depend on the order
// of its operands. An integer column BETWEEN an integer and a double
// compares as doubles (an error before, while BETWEEN a double and an
// integer was an answer), and If is a double whichever branch holds the
// double (an error before when it was Else).
func testExprKindsUnify(t *testing.T, orders *Table, rows []Row) {
	price, qty := Col(1), Col(3)
	cols := []string{"k", "price", "status", "qty"}
	inRange := 0
	for _, row := range rows {
		if q := row[3].Int(); q >= 1 && float64(q) <= 20.5 {
			inRange++
		}
	}
	small := CmpE(Lt, qty, CInt(25))
	for _, opt := range exprOptions() {
		for _, between := range []Expr{BetweenE(qty, CInt(1), CFloat(20.5)), BetweenE(qty, CFloat(1), CFloat(20.5)), BetweenE(qty, CFloat(1), Add(CInt(20), CFloat(0.5)))} {
			plan, err := orders.ScanPlan(cols, nil, between)
			if err != nil {
				t.Fatal(err)
			}
			res, err := orders.Query(plan, opt)
			if err != nil || res.NumRows() != inRange {
				t.Fatalf("%#v, %+v: %v rows, err %v; a row loop finds %d", between, opt, res, err, inRange)
			}
		}
		for _, thenQty := range []bool{true, false} {
			e := exec.If{Cond: small, Then: price, Else: qty}
			if thenQty {
				e = exec.If{Cond: small, Then: qty, Else: price}
			}
			plan, err := orders.ScanPlan(cols, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			res, err := orders.Query(&exec.OrderByNode{Child: &exec.MapNode{Child: plan, Exprs: []Expr{Col(0), e}}, Keys: []exec.OrderKey{{Col: 0}}}, opt)
			if err != nil {
				t.Fatalf("%#v, %+v: %v", e, opt, err)
			}
			if res.Cols[1].Kind != Float64 || res.NumRows() != len(rows) {
				t.Fatalf("%#v, %+v: %d rows of kind %v, want %d doubles", e, opt, res.NumRows(), res.Cols[1].Kind, len(rows))
			}
			for i, row := range rows {
				want := row[1].Float()
				if (row[3].Int() < 25) == thenQty {
					want = float64(row[3].Int())
				}
				if got := res.Cols[1].Floats[i]; got != want || res.Cols[1].Nulls[i] {
					t.Fatalf("%#v, %+v, row %d: got %v, a row loop says %v", e, opt, i, got, want)
				}
			}
		}
	}
}

package exec_test

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// This file holds both expression back ends against an oracle that shares
// no code with them: eval below interprets the exported node types one
// value at a time, over the same rows the engine scans.

var errRejected = errors.New("rejected")

// bit is a boolean as the oracle holds one: the integer 0 or 1.
var bit = map[bool]num{false: {Value: types.IntValue(0)}, true: {Value: types.IntValue(1)}}

// num is a value as the oracle holds one: an Int64 with a scale k stands
// for v/10^k — a scaled integer, what an integer divided by the literal
// 10^k is.
type num struct {
	types.Value
	scale int
}

// maxScale is the largest scale an integer keeps; past it, a double.
const maxScale = 18

// plain is x where a value leaves the oracle: a scaled integer as the
// double v/10^k.
func (x num) plain() types.Value {
	switch {
	case x.scale == 0:
		return x.Value
	case x.IsNull():
		return types.NullValue(types.Float64)
	}
	return types.FloatValue(float64(x.Int()) / math.Pow10(x.scale))
}

// double is the number x as a double.
func (x num) double() types.Value {
	switch v := x.plain(); {
	case v.Kind() != types.Int64:
		return v
	case v.IsNull():
		return types.NullValue(types.Float64)
	default:
		return types.FloatValue(float64(v.Int()))
	}
}

// eval is the oracle: e over one row, typed as it goes (a NULL knows its
// kind, so what eval rejects does not depend on the row's values).
func eval(e exec.Expr, row types.Row) (types.Value, error) {
	x, err := evalNum(e, row)
	return x.plain(), err
}

// evalNum is eval before a scaled integer becomes a double.
func evalNum(e exec.Expr, row types.Row) (num, error) {
	switch e := e.(type) {
	case exec.ColRef:
		if e.Idx >= 0 && e.Idx < len(row) {
			return num{Value: row[e.Idx]}, nil
		}
	case exec.Const:
		return num{Value: e.Val}, nil
	case exec.Binary:
		vs, kind, _, err := unify(row, false, e.L, e.R)
		switch {
		case err != nil || kind == types.String || !strings.ContainsRune("+-*/", rune(e.Op)):
		case kind == types.Int64:
			return intArith(e, vs[0], vs[1]), nil
		default:
			return floatArith(e.Op, vs[0].double(), vs[1].double()), nil
		}
	case exec.Compare:
		args := []exec.Expr{e.L, e.R}
		if e.Op == types.Between {
			args = append(args, e.R2)
		}
		vs, kind, null, err := unify(row, true, args...)
		switch {
		case err != nil || (e.Op == types.Between) != (e.R2 != nil) || e.Op == types.IsNull || e.Op == types.IsNotNull || e.Op > types.Prefix:
		case e.Op == types.Prefix && kind != types.String:
		case null:
			return bit[false], nil
		case e.Op == types.Between:
			return bit[holds(types.Ge, vs[0].Value, vs[1].Value) && holds(types.Le, vs[0].Value, vs[2].Value)], nil
		case e.Op == types.Prefix:
			return bit[strings.HasPrefix(vs[0].Str(), vs[1].Str())], nil
		default:
			return bit[holds(e.Op, vs[0].Value, vs[1].Value)], nil
		}
	case exec.Logic:
		l, lerr := truth(e.L, row)
		r, rerr := truth(e.R, row)
		if res, ok := map[byte]bool{'!': !l, '&': l && r, '|': l || r}[e.Op]; ok && lerr == nil && (rerr == nil || e.Op == '!') {
			return bit[res], nil
		}
	case exec.IsNullExpr:
		if c, ok := e.E.(exec.ColRef); ok && c.Idx >= 0 && c.Idx < len(row) {
			return bit[row[c.Idx].IsNull() != e.Not], nil
		}
	case exec.If:
		c, cerr := truth(e.Cond, row)
		if vs, kind, _, err := unify(row, false, e.Then, e.Else); cerr == nil && err == nil && kind != types.String {
			if kind == types.Int64 {
				s := max(vs[0].scale, vs[1].scale)
				vs[0], vs[1] = rescale(vs[0], s), rescale(vs[1], s)
			}
			return map[bool]num{true: vs[0], false: vs[1]}[c], nil
		}
	}
	return num{}, errRejected
}

// intArith is a op b over integers, scaled or not. A division by the
// literal 10^k scales a; + and − align scales, × adds them, and a scaled
// result that leaves int64 is NULL, where an unscaled one wraps. Any other
// division, or a scale past maxScale, is in doubles.
func intArith(e exec.Binary, a, b num) num {
	k := 0 // e divides by the literal 10^k
	if c, ok := e.R.(exec.Const); ok && c.Val.Kind() == types.Int64 && !c.Val.IsNull() {
		if d := strconv.FormatInt(c.Val.Int(), 10); d == "1"+strings.Repeat("0", len(d)-1) {
			k = len(d) - 1
		}
	}
	s := a.scale + b.scale
	switch {
	case e.Op == '/' && k > 0 && a.scale+k <= maxScale:
		return num{a.Value, a.scale + k}
	case e.Op == '+' || e.Op == '-':
		s = max(a.scale, b.scale)
		a, b = rescale(a, s), rescale(b, s)
	case e.Op == '/' || s > maxScale:
		return floatArith(e.Op, a.double(), b.double())
	}
	if a.IsNull() || b.IsNull() {
		return num{types.NullValue(types.Int64), s}
	}
	x, y := a.Int(), b.Int()
	exact := map[byte]*big.Int{'+': new(big.Int).Add(big.NewInt(x), big.NewInt(y)), '-': new(big.Int).Sub(big.NewInt(x), big.NewInt(y)), '*': new(big.Int).Mul(big.NewInt(x), big.NewInt(y))}[e.Op]
	if s > 0 && !exact.IsInt64() {
		return num{types.NullValue(types.Int64), s}
	}
	return num{types.IntValue(map[byte]int64{'+': x + y, '-': x - y, '*': x * y}[e.Op]), s}
}

// rescale is the integer x at scale s ≥ x.scale: NULL if it leaves int64.
func rescale(x num, s int) num {
	if x.scale == s || x.IsNull() {
		return num{x.Value, s}
	}
	v := new(big.Int).Mul(big.NewInt(x.Int()), new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(s-x.scale)), nil))
	if !v.IsInt64() {
		return num{types.NullValue(types.Int64), s}
	}
	return num{types.IntValue(v.Int64()), s}
}

// floatArith is a op b in doubles; a NULL operand or a zero divisor makes
// it NULL.
func floatArith(op byte, a, b types.Value) num {
	if a.IsNull() || b.IsNull() || op == '/' && b.Float() == 0 {
		return num{Value: types.NullValue(types.Float64)}
	}
	x, y := a.Float(), b.Float()
	return num{Value: types.FloatValue(map[byte]float64{'+': x + y, '-': x - y, '*': x * y, '/': x / y}[op])}
}

// truth evaluates e as a condition: an unscaled integer neither NULL nor 0.
func truth(e exec.Expr, row types.Row) (bool, error) {
	v, err := evalNum(e, row)
	if err != nil || v.Kind() != types.Int64 || v.scale > 0 {
		return false, errRejected
	}
	return !v.IsNull() && v.Int() != 0, nil
}

// unify evaluates es and brings them to one kind — doubles if any is one
// (or, compared, a scaled integer), strings only among strings — and says
// if any is NULL. Integers keep their scales.
func unify(row types.Row, compared bool, es ...exec.Expr) (vs []num, kind types.Kind, null bool, err error) {
	strs, double := 0, false
	for _, e := range es {
		v, err := evalNum(e, row)
		if err != nil || v.Kind() == types.String && strs < len(vs) || v.Kind() != types.String && strs > 0 {
			return nil, 0, false, errRejected
		}
		vs, null = append(vs, v), null || v.IsNull()
		double = double || v.Kind() == types.Float64 || compared && v.scale > 0
		if v.Kind() == types.String {
			strs, kind = strs+1, types.String
		}
	}
	if !double || strs > 0 {
		return vs, kind, null, nil
	}
	for i, v := range vs {
		vs[i] = num{Value: v.double()}
	}
	return vs, types.Float64, null, nil
}

// holds applies a comparison operator to two non-NULL values of one kind;
// a NaN on either side makes everything but <> false (IEEE).
func holds(op types.CompareOp, a, b types.Value) bool {
	if a.Kind() == types.Float64 && (math.IsNaN(a.Float()) || math.IsNaN(b.Float())) {
		return op == types.Ne
	}
	c := a.Compare(b)
	return [...]bool{c == 0, c != 0, c < 0, c <= 0, c > 0, c >= 0}[op]
}

// parityOperands is every operand kind an expression can be built from: a
// column, a literal and a NULL literal of each type, computed values — an
// integer scaled by 10, 100 and 10^18 among them — and booleans.
func parityOperands() []exec.Expr {
	return []exec.Expr{
		exec.Col(0), exec.Col(1), exec.Col(2), exec.Col(9), // int, float, string, out of range
		exec.CInt(3), exec.CFloat(0), exec.CStr("ab"),
		exec.Const{Val: types.NullValue(types.Int64)}, exec.Const{Val: types.NullValue(types.Float64)}, exec.Const{Val: types.NullValue(types.String)},
		exec.Add(exec.Col(0), exec.CInt(1)), exec.Div(exec.Col(0), exec.Col(1)), exec.Div(exec.Col(0), exec.CInt(2)),
		exec.Div(exec.Col(0), exec.CInt(10)), exec.Div(exec.Col(0), exec.CInt(100)), exec.Div(exec.Col(0), exec.CInt(1e18)),
		exec.Cmp(types.Lt, exec.Col(0), exec.CInt(5)), exec.IsNullExpr{E: exec.Col(2)},
		exec.If{Cond: exec.Cmp(types.Gt, exec.Col(1), exec.CFloat(1)), Then: exec.Col(1), Else: exec.CInt(0)},
	}
}

// parityExprs walks every Expr constructor over every operand combination
// (binary constructors over all pairs, ternary ones over a diagonal of
// triples), one level deep on top of parityOperands, after a few scaled
// shapes the pairs do not reach.
func parityExprs() []exec.Expr {
	ops := parityOperands()
	cents, tenths := exec.Div(exec.Col(0), exec.CInt(100)), exec.Div(exec.Col(3), exec.CInt(10))
	nickel := exec.Div(exec.CInt(5), exec.CInt(100))
	out := append([]exec.Expr{
		exec.Div(exec.Div(exec.Col(0), exec.CInt(1e18)), exec.CInt(10)), // scale 19: a double
		exec.Mul(exec.Mul(cents, tenths), exec.Col(0)),                  // three factors
		exec.Mul(cents, exec.Col(0)),                                    // crosses ±2^63: NULL there
		exec.Mul(exec.Sub(cents, exec.CInt(1)), exec.Col(0)),            // the same over an inner operation that fits
		exec.Sub(exec.Add(cents, tenths), exec.CInt(1)),                 // scales 2, 1 and 0
		exec.Cmp(types.Lt, cents, exec.Col(1)),                          // with a double
		exec.If{Cond: exec.Cmp(types.Lt, exec.Col(0), exec.CInt(2)), Then: cents, Else: exec.Col(3)},
		// One literal at scales 2 and 3: the CSE memo must not share them.
		exec.Mul(nickel, exec.Add(nickel, exec.Div(exec.Col(0), exec.CInt(1000)))),
	}, ops...)
	cmpOps := []types.CompareOp{types.Eq, types.Ne, types.Lt, types.Le, types.Gt, types.Ge, types.Prefix}
	for i, l := range ops {
		out = append(out, exec.Not(l), exec.IsNullExpr{E: l}, exec.IsNullExpr{E: l, Not: true})
		for j, r := range ops {
			out = append(out, exec.Add(l, r), exec.Sub(l, r), exec.Mul(l, r), exec.Div(l, r), exec.Binary{Op: '%', L: l, R: r}, exec.And(l, r), exec.Or(l, r))
			for _, op := range cmpOps {
				out = append(out, exec.Cmp(op, l, r))
			}
			third := ops[(i+j)%len(ops)]
			out = append(out, exec.BetweenE(l, r, third), exec.BetweenE(third, l, r), exec.If{Cond: l, Then: r, Else: third}, exec.If{Cond: third, Then: l, Else: r})
		}
	}
	return out
}

// evalRows draws rows (int, double, string, all nullable, plus a row id)
// from pools of the values arithmetic and comparison go wrong on: NULL,
// NaN, ±0, ±Inf, zero divisors, int64s that wrap.
func evalRows(seed int64, n int) []types.Row {
	r := rand.New(rand.NewSource(seed))
	ints := []int64{0, 0, 1, -1, 2, 3, 5, math.MaxInt64, math.MinInt64, 1 << 62, -(1 << 62)}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64, 5e-324}
	strs := []string{"", "a", "ab", "abc", "b"}
	rows := make([]types.Row, n)
	for i := range rows {
		row := types.Row{types.IntValue(ints[r.Intn(len(ints))]), types.FloatValue(floats[r.Intn(len(floats))]), types.StringValue(strs[r.Intn(len(strs))]), types.IntValue(int64(i))}
		if r.Intn(4) == 0 {
			row[0] = types.IntValue(r.Int63n(100) - 50)
		}
		if r.Intn(4) == 0 {
			row[1] = types.FloatValue(r.NormFloat64() * 10)
		}
		for c := 0; c < 3; c++ {
			if r.Intn(6) == 0 {
				row[c] = types.NullValue(row[c].Kind())
			}
		}
		rows[i] = row
	}
	return rows
}

// evalRel stores rows in 16-row chunks, the first frozen.
func evalRel(t testing.TB, rows []types.Row) *storage.Relation {
	t.Helper()
	rel := storage.NewRelation(types.NewSchema(
		types.Column{Name: "i", Kind: types.Int64, Nullable: true},
		types.Column{Name: "f", Kind: types.Float64, Nullable: true},
		types.Column{Name: "s", Kind: types.String, Nullable: true},
		types.Column{Name: "id", Kind: types.Int64},
	), 16)
	n := len(rows)
	cols := []core.ColumnData{
		{Kind: types.Int64, Ints: make([]int64, n), Nulls: make([]bool, n)},
		{Kind: types.Float64, Floats: make([]float64, n), Nulls: make([]bool, n)},
		{Kind: types.String, Strs: make([]string, n), Nulls: make([]bool, n)},
		{Kind: types.Int64, Ints: make([]int64, n)},
	}
	for i, row := range rows {
		for c, v := range row {
			switch {
			case v.IsNull():
				cols[c].Nulls[i] = true
			case v.Kind() == types.Int64:
				cols[c].Ints[i] = v.Int()
			case v.Kind() == types.Float64:
				cols[c].Floats[i] = v.Float()
			default:
				cols[c].Strs[i] = v.Str()
			}
		}
	}
	if err := rel.BulkAppend(cols, n); err != nil {
		t.Fatal(err)
	}
	if err := rel.FreezeChunk(0, core.FreezeOptions{SortBy: -1}); err != nil {
		t.Fatal(err)
	}
	return rel
}

// same is equality bit for bit on value and NULL flag — -0.0 is not +0.0 —
// except that every NaN is one value: which payload an operation on two
// NaNs returns depends on the operand order the compiler picked.
func same(a, b types.Value) bool {
	if a.Kind() == types.Float64 && b.Kind() == types.Float64 && !a.IsNull() && !b.IsNull() {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float()) || (math.IsNaN(a.Float()) && math.IsNaN(b.Float()))
	}
	return a.Kind() == b.Kind() && a.IsNull() == b.IsNull() && (a.IsNull() || a.Equal(b))
}

// evalChains are the two back ends: the batch chain at three vector sizes
// and ModeJIT's tuple chain.
var evalChains = []exec.Options{
	{Mode: exec.ModeVectorizedSARG, VectorSize: 1},
	{Mode: exec.ModeVectorizedSARG, VectorSize: 7},
	{Mode: exec.ModeVectorizedSARG, VectorSize: 1024},
	{Mode: exec.ModeJIT},
}

// requireEval runs e over rel as a projection, as a filter condition and
// as aggregate arguments on every chain and holds each answer — or the
// refusal to give one — against the oracle's over rows.
func requireEval(t testing.TB, rel *storage.Relation, rows []types.Row, e exec.Expr) {
	t.Helper()
	scan := func() exec.Node { return &exec.ScanNode{Rel: rel, Cols: []int{0, 1, 2, 3}} }
	// column evaluates x over every row; ok is false if the oracle rejects x.
	column := func(x exec.Expr) (vals []num, ok bool) {
		for _, row := range rows {
			v, err := evalNum(x, row)
			if err != nil {
				return nil, false
			}
			vals = append(vals, v)
		}
		return vals, true
	}
	nums, ok := column(e)
	want := plain(nums)
	cond := ok && want[0].Kind() == types.Int64
	var ids []types.Value
	for i := 0; cond && i < len(rows); i++ {
		if !want[i].IsNull() && want[i].Int() != 0 {
			ids = append(ids, rows[i][3])
		}
	}
	// MIN of the expression; for numbers also its sum and, through the CSE
	// memo, the sum of an expression that contains it.
	aggs := []exec.AggSpec{{Func: exec.AggMin, Arg: e}}
	var wantAggs []types.Value
	if ok {
		wantAggs = append(wantAggs, minOf(want))
		if want[0].Kind() != types.String {
			shifted := exec.Sub(e, exec.CFloat(0.5))
			aggs = append(aggs, exec.AggSpec{Func: exec.AggSum, Arg: e}, exec.AggSpec{Func: exec.AggSum, Arg: shifted})
			sv, _ := column(shifted)
			wantAggs = append(wantAggs, sumOf(nums, false), sumOf(sv, false))
		}
	}
	for _, opt := range evalChains {
		name := fmt.Sprintf("%#v (%v, vector size %d)", e, opt.Mode, opt.VectorSize)
		requireColumn(t, name+" projected", ok, want, 0)(exec.Run(&exec.MapNode{Child: scan(), Exprs: []exec.Expr{e}}, opt))
		requireColumn(t, name+" as a filter", cond, ids, 3)(exec.Run(&exec.FilterNode{Child: scan(), Cond: e}, opt))
		res, err := exec.Run(&exec.AggNode{Child: scan(), Aggs: aggs}, opt)
		if (err == nil) != ok {
			t.Fatalf("%s aggregated: error %v, oracle accepts: %v", name, err, ok)
		}
		for c, w := range wantAggs {
			if got := res.Value(c, 0); !same(got, w) {
				t.Fatalf("%s, aggregate %d: got %v, want %v", name, c, got, w)
			}
		}
	}
}

// requireColumn returns a check that a query answered with exactly want in
// column col — or, when ok is false, with an error.
func requireColumn(t testing.TB, name string, ok bool, want []types.Value, col int) func(*exec.Result, error) {
	return func(res *exec.Result, err error) {
		t.Helper()
		if (err == nil) != ok {
			t.Fatalf("%s: error %v, oracle accepts: %v", name, err, ok)
		}
		if !ok {
			return
		}
		if res.NumRows() != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, res.NumRows(), len(want))
		}
		for i, w := range want {
			if got := res.Value(col, i); !same(got, w) {
				t.Fatalf("%s, row %d: got %v (null=%v), want %v (null=%v)", name, i, got, got.IsNull(), w, w.IsNull())
			}
		}
	}
}

// plain is vals as they leave the oracle.
func plain(vals []num) []types.Value {
	out := make([]types.Value, len(vals))
	for i, v := range vals {
		out[i] = v.plain()
	}
	return out
}

// sumOf is SUM over vals — or AVG, the sum over the count — NULL when
// there are no non-NULL values: doubles added in row order; integers,
// scaled or not, exactly and rounded once.
func sumOf(vals []num, avg bool) types.Value {
	exact, sum, n := new(big.Int), 0.0, int64(0)
	for _, v := range vals {
		switch {
		case v.IsNull():
			continue
		case v.Kind() == types.Int64:
			exact.Add(exact, big.NewInt(v.Int()))
		default:
			sum += v.Float()
		}
		n++
	}
	switch {
	case n == 0:
		return types.NullValue(types.Float64)
	case vals[0].Kind() == types.Float64 && avg:
		return types.FloatValue(sum / float64(n))
	case vals[0].Kind() == types.Float64:
		return types.FloatValue(sum)
	}
	den := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(vals[0].scale)), nil)
	if avg {
		den.Mul(den, big.NewInt(n))
	}
	f, _ := new(big.Rat).SetFrac(exact, den).Float64()
	return types.FloatValue(f)
}

// minOf is MIN over vals: the least non-NULL value, NULL when there are
// none. NaN sorts below every number, as in ORDER BY, so the least of
// values holding a NaN is NaN.
func minOf(vals []types.Value) types.Value {
	min := types.NullValue(vals[0].Kind())
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		if v.Kind() == types.Float64 && math.IsNaN(v.Float()) {
			return v
		}
		if min.IsNull() || holds(types.Lt, v, min) {
			min = v
		}
	}
	return min
}

// TestEvalParity: every expression of the parityExprs walk evaluates to
// the oracle's answer, bit for bit on value and NULL flag, on both back
// ends and in every position a plan evaluates an expression in — and is
// refused by all of them where the oracle refuses it.
func TestEvalParity(t *testing.T) {
	rows := evalRows(1, 40)
	rel := evalRel(t, rows)
	crossed := exec.Mul(exec.Div(exec.Col(0), exec.CInt(100)), exec.Col(0))
	if !slices.ContainsFunc(rows, func(row types.Row) bool {
		v, err := eval(crossed, row)
		return err == nil && v.IsNull() && !row[0].IsNull()
	}) {
		t.Fatal("no row's scaled product leaves int64")
	}
	for _, e := range parityExprs() {
		requireEval(t, rel, rows, e)
	}
}

// FuzzExprEval is TestEvalParity over random rows and over expressions one
// level deeper: three expressions of the walk under one more constructor.
func FuzzExprEval(f *testing.F) {
	exprs := parityExprs()
	f.Add(int64(1), uint16(0), uint16(1), uint16(2), uint8(0))
	f.Add(int64(7), uint16(300), uint16(4000), uint16(77), uint8(3))
	f.Add(int64(42), uint16(1234), uint16(2345), uint16(3456), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, i, j, k uint16, form uint8) {
		a, b, c := exprs[int(i)%len(exprs)], exprs[int(j)%len(exprs)], exprs[int(k)%len(exprs)]
		e := [...]exec.Expr{a, exec.Sub(a, b), exec.Div(a, b), exec.Cmp(types.Le, a, b), exec.BetweenE(a, b, c),
			exec.If{Cond: a, Then: b, Else: c}, exec.Or(a, exec.Not(b)), exec.Mul(exec.Add(a, b), exec.Add(a, b)),
			exec.And(a, exec.Or(b, exec.Not(c))), exec.If{Cond: exec.Or(a, b), Then: c, Else: exec.CInt(0)}}[form%10]
		rows := evalRows(seed, 40)
		requireEval(t, evalRel(t, rows), rows, e)
	})
}

package exec

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"datablocks/internal/types"
)

// This file is the front end of expression compilation, shared by the two
// back ends (the tuple closures of expr.go, the batch closures of
// vexpr.go): check types an expression once per query and is the only code
// that can reject one. What it returns is a tree the back ends lower
// without looking at a kind to decide whether to fail: every node carries
// its kind, a comparison the kind it compares in, and the int→double and
// int↔boolean conversions are nodes of their own.
//
// The rules (ARCHITECTURE.md, "Query execution", has them as a table):
// arithmetic, comparisons and If bring their operands to one kind — doubles
// if any operand is a double, strings only among strings; a boolean used as
// a value is 0/1 and never NULL; an integer used as a condition is true
// when neither NULL nor 0. An integer divided by the literal 10^k is a
// scaled integer, the same integer read as v/10^k: + − and If align their
// operands' scales, × adds them, and arithmetic on scaled integers reads
// NULL where it leaves int64 instead of wrapping. A scaled integer becomes
// the double v/10^k where a double is wanted — a comparison, any other
// division, MIN/MAX, an output column, a scale past maxScale — and SUM and
// AVG fold it exactly (hashagg.go).

// exprOp is the form of a checked node.
type exprOp uint8

const (
	// Values; kind says of which kind.
	opCol     exprOp = iota // pipeline column col
	opConst                 // the literal val (possibly NULL)
	opArith                 // a arith b: + - * in kind, / in doubles
	opIf                    // b where a holds, c elsewhere
	opToFloat               // the integer a as a double, divided by 10^a.scale
	opBoolInt               // the boolean a as 0/1
	// Booleans, SQL's three-valued logic collapsed: NULL is false.
	opCompare // a cmp b, compared in kind
	opBetween // b <= a <= c, compared in kind
	opPrefix  // string a starts with string b
	opNot     // not a
	opAnd     // a and b
	opOr      // a or b
	opIsNull  // column col is NULL; is not NULL when not is set
	opTruthy  // the integer a is neither NULL nor 0
)

// checked is one node of a type-checked expression.
type checked struct {
	op exprOp
	// kind is the kind of a value, the kind a comparison compares in, and
	// Int64 — what opBoolInt makes of them — on every other boolean.
	kind    types.Kind
	src     Expr // the node this one was checked from: the CSE memo's key
	a, b, c *checked
	col     int
	val     types.Value
	arith   byte
	cmp     types.CompareOp
	not     bool
	// scale is k for a scaled integer, which stands for the value v/10^k;
	// its arithmetic never wraps (overflow reads NULL).
	scale uint8
}

// maxScale is the largest scale: 10^18 is the largest power of ten in an
// int64.
const maxScale = 18

// pow10 holds 10^k for k ≤ maxScale.
var pow10 = [maxScale + 1]int64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18}

func (n *checked) boolean() bool { return n.op >= opCompare }

// value is n where a value is wanted.
func (n *checked) value() *checked {
	if n.boolean() {
		return &checked{op: opBoolInt, kind: types.Int64, src: n.src, a: n}
	}
	return n
}

// float is the numeric value n as a double. A literal converts here, so
// the back ends see a double literal (and can broadcast it).
func (n *checked) float() *checked {
	switch {
	case n.kind == types.Float64:
		return n
	case n.op != opConst:
		return &checked{op: opToFloat, kind: types.Float64, src: n.src, a: n}
	}
	v := types.NullValue(types.Float64)
	if !n.val.IsNull() {
		v = types.FloatValue(float64(n.val.Int()) / float64(pow10[n.scale]))
	}
	return &checked{op: opConst, kind: types.Float64, src: n.src, val: v}
}

// unscaled is the value n where a double or an unscaled integer is
// wanted: a scaled integer as a double, anything else as it is.
func (n *checked) unscaled() *checked {
	if n.scale > 0 {
		return n.float()
	}
	return n
}

// rescale is the integer n at scale s ≥ n.scale, its integer times
// 10^(s−n.scale): a literal multiplied here, anything else by a scaled
// multiplication. A product that leaves int64 is NULL.
func (n *checked) rescale(s uint8) *checked {
	d := s - n.scale
	switch {
	case d == 0:
		return n
	case n.op != opConst:
		// No src: the multiplication is no node of the source, so the CSE
		// memo does not key it.
		ten := &checked{op: opConst, kind: types.Int64, val: types.IntValue(pow10[d])}
		return &checked{op: opArith, kind: types.Int64, arith: '*', a: n, b: ten, scale: s}
	}
	r := *n
	r.scale = s
	if v, ok := literal[int64](n); ok {
		p, fits := arithInt64('*', v, pow10[d])
		if r.val = types.IntValue(p); !fits {
			r.val = types.NullValue(types.Int64)
		}
	}
	return &r
}

// arithInt64 is a op b for op + - *, and whether it fits an int64.
func arithInt64(op byte, a, b int64) (int64, bool) {
	switch op {
	case '+':
		s := a + b
		return s, (s^a)&(s^b) >= 0
	case '-':
		s := a - b
		return s, (a^b)&(a^s) >= 0
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	// The signed high word: the unsigned one, less b where a is negative
	// and a where b is.
	hi -= uint64(a>>63)&uint64(b) + uint64(b>>63)&uint64(a)
	return int64(lo), hi == uint64(int64(lo)>>63)
}

// tenPower is k when the integer n is the literal 10^k, 1 ≤ k ≤
// maxScale, and 0 otherwise.
func tenPower(n *checked) uint8 {
	if v, ok := literal[int64](n); ok && n.scale == 0 {
		return uint8(max(slices.Index(pow10[:], v), 0))
	}
	return 0
}

// cols appends the distinct pipeline columns n reads, in first-reference
// order.
func (n *checked) cols(out []int) []int {
	if n == nil {
		return out
	}
	if (n.op == opCol || n.op == opIsNull) && !slices.Contains(out, n.col) {
		out = append(out, n.col)
	}
	return n.c.cols(n.b.cols(n.a.cols(out)))
}

// allOf is the conjunction of conds, evaluated left to right; nil for none.
func allOf(conds []*checked) *checked {
	var all *checked
	for _, c := range conds {
		if all == nil {
			all = c
		} else {
			all = &checked{op: opAnd, kind: types.Int64, a: all, b: c}
		}
	}
	return all
}

// check types e over a tuple of the given column kinds.
func check(e Expr, kinds []types.Kind) (*checked, error) {
	switch e := e.(type) {
	case nil:
		return nil, errors.New("exec: expression with a nil operand")
	case ColRef:
		if e.Idx < 0 || e.Idx >= len(kinds) {
			return nil, fmt.Errorf("exec: column %d out of range", e.Idx)
		}
		return &checked{op: opCol, kind: kinds[e.Idx], src: e, col: e.Idx}, nil
	case Const:
		return &checked{op: opConst, kind: e.Val.Kind(), src: e, val: e.Val}, nil
	case Binary:
		if e.Op != '+' && e.Op != '-' && e.Op != '*' && e.Op != '/' {
			return nil, fmt.Errorf("exec: unknown arithmetic operator %q", e.Op)
		}
		ns, kind, err := operands(kinds, false, e.L, e.R)
		if err != nil {
			return nil, err
		}
		if kind == types.String {
			return nil, errors.New("exec: arithmetic on strings")
		}
		n := &checked{op: opArith, kind: kind, src: e, arith: e.Op, a: ns[0], b: ns[1]}
		if kind == types.Float64 {
			return n, nil
		}
		switch k := tenPower(n.b); {
		case e.Op == '/' && k > 0 && n.a.scale+k <= maxScale:
			// The integer passes through; only its scale changes.
			s := *n.a
			s.src, s.scale = e, n.a.scale+k
			return &s, nil
		case e.Op == '*' && n.a.scale+n.b.scale <= maxScale:
			n.scale = n.a.scale + n.b.scale
		case e.Op == '+' || e.Op == '-':
			n.scale = max(n.a.scale, n.b.scale)
			n.a, n.b = n.a.rescale(n.scale), n.b.rescale(n.scale)
		default: // a division in doubles, or a scale past maxScale
			n.kind, n.a, n.b = types.Float64, n.a.float(), n.b.float()
		}
		return n, nil
	case Compare:
		n := &checked{op: opCompare, src: e, cmp: e.Op}
		es := []Expr{e.L, e.R}
		switch {
		case e.Op == types.Between && e.R2 == nil:
			return nil, errors.New("exec: BETWEEN without an upper bound (R2)")
		case e.Op != types.Between && e.R2 != nil:
			return nil, fmt.Errorf("exec: %v takes no second bound (R2)", e.Op)
		case e.Op == types.IsNull || e.Op == types.IsNotNull || e.Op > types.Prefix:
			return nil, fmt.Errorf("exec: %v is not a Compare operator", e.Op)
		case e.Op == types.Between:
			n.op, es = opBetween, append(es, e.R2)
		case e.Op == types.Prefix:
			n.op = opPrefix
		}
		ns, kind, err := operands(kinds, true, es...)
		if err != nil {
			return nil, err
		}
		if n.op == opPrefix && kind != types.String {
			return nil, fmt.Errorf("exec: prefix match on %v operands", kind)
		}
		n.kind, n.a, n.b, n.c = kind, ns[0], ns[1], ns[2]
		return n, nil
	case Logic:
		n := &checked{kind: types.Int64, src: e}
		switch e.Op {
		case '!':
			n.op = opNot
		case '&':
			n.op = opAnd
		case '|':
			n.op = opOr
		default:
			return nil, fmt.Errorf("exec: unknown logic operator %q", e.Op)
		}
		var err error
		if n.a, err = checkBool(e.L, kinds); err != nil {
			return nil, err
		}
		if n.op != opNot {
			if n.b, err = checkBool(e.R, kinds); err != nil {
				return nil, err
			}
		}
		return n, nil
	case IsNullExpr:
		col, ok := e.E.(ColRef)
		if !ok {
			return nil, errors.New("exec: IS NULL supports column references only")
		}
		if _, err := check(col, kinds); err != nil {
			return nil, err
		}
		return &checked{op: opIsNull, kind: types.Int64, src: e, col: col.Idx, not: e.Not}, nil
	case If:
		cond, err := checkBool(e.Cond, kinds)
		if err != nil {
			return nil, err
		}
		ns, kind, err := operands(kinds, false, e.Then, e.Else)
		if err != nil {
			return nil, err
		}
		if kind == types.String {
			return nil, errors.New("exec: If over strings")
		}
		s := max(ns[0].scale, ns[1].scale)
		return &checked{op: opIf, kind: kind, src: e, a: cond, b: ns[0].rescale(s), c: ns[1].rescale(s), scale: s}, nil
	}
	return nil, fmt.Errorf("exec: unknown expression node %T", e)
}

// operands checks the two or three es as values of one kind and converts
// each to it: doubles if any is a double (or, when compared, a scaled
// integer), strings only when all are. Integers keep their scales.
func operands(kinds []types.Kind, compared bool, es ...Expr) (ns [3]*checked, kind types.Kind, err error) {
	strs, double := 0, false
	for i, e := range es {
		if ns[i], err = checkValue(e, kinds); err != nil {
			return ns, 0, err
		}
		switch ns[i].kind {
		case types.String:
			strs++
		case types.Float64:
			double = true
		}
		double = double || compared && ns[i].scale > 0
	}
	switch {
	case strs == len(es):
		return ns, types.String, nil
	case strs > 0:
		return ns, 0, errors.New("exec: string and numeric operands mixed")
	case !double:
		return ns, types.Int64, nil
	}
	for i := range es {
		ns[i] = ns[i].float()
	}
	return ns, types.Float64, nil
}

// checkBool checks e as a condition.
func checkBool(e Expr, kinds []types.Kind) (*checked, error) {
	n, err := check(e, kinds)
	switch {
	case err != nil:
		return nil, err
	case n.boolean():
		return n, nil
	case n.kind == types.Int64 && n.scale == 0:
		return &checked{op: opTruthy, kind: types.Int64, src: n.src, a: n}, nil
	}
	return nil, fmt.Errorf("exec: %v expression used as a condition", n.unscaled().kind)
}

// checkValue checks e as a value of its own kind.
func checkValue(e Expr, kinds []types.Kind) (*checked, error) {
	n, err := check(e, kinds)
	if err != nil {
		return nil, err
	}
	return n.value(), nil
}

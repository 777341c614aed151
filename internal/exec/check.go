package exec

import (
	"errors"
	"fmt"
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
// if any operand is a double, strings only among strings; / is always a
// double; a boolean used as a value is 0/1 and never NULL; an integer used
// as a condition is true when neither NULL nor 0.

// exprOp is the form of a checked node.
type exprOp uint8

const (
	// Values; kind says of which kind.
	opCol     exprOp = iota // pipeline column col
	opConst                 // the literal val (possibly NULL)
	opArith                 // a arith b: + - * in kind, / in doubles
	opIf                    // b where a holds, c elsewhere
	opToFloat               // the integer a as a double
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
}

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
		v = types.FloatValue(float64(n.val.Int()))
	}
	return &checked{op: opConst, kind: types.Float64, src: n.src, val: v}
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
		ns, kind, err := operands(kinds, e.Op == '/', e.L, e.R)
		if err != nil {
			return nil, err
		}
		if kind == types.String {
			return nil, errors.New("exec: arithmetic on strings")
		}
		return &checked{op: opArith, kind: kind, src: e, arith: e.Op, a: ns[0], b: ns[1]}, nil
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
		ns, kind, err := operands(kinds, false, es...)
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
		return &checked{op: opIf, kind: kind, src: e, a: cond, b: ns[0], c: ns[1]}, nil
	}
	return nil, fmt.Errorf("exec: unknown expression node %T", e)
}

// operands checks the two or three es as values of one kind and converts
// each to it: doubles if any is a double (or double is set), strings only
// when all are.
func operands(kinds []types.Kind, double bool, es ...Expr) (ns [3]*checked, kind types.Kind, err error) {
	strs := 0
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
	case n.kind == types.Int64:
		return &checked{op: opTruthy, kind: types.Int64, src: n.src, a: n}, nil
	}
	return nil, fmt.Errorf("exec: %v expression used as a condition", n.kind)
}

// checkValue checks e as a value of its own kind.
func checkValue(e Expr, kinds []types.Kind) (*checked, error) {
	n, err := check(e, kinds)
	if err != nil {
		return nil, err
	}
	return n.value(), nil
}

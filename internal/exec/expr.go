// Package exec implements the query engine of §4: a push-based engine
// whose pipelines run batch-at-a-time behind the interpreted,
// pre-compiled vectorized scan, one scan over uncompressed chunks and Data
// Blocks alike (Figure 6) — the production path of every mode but ModeJIT.
// The scan's interface is core.Scanner: this package asks storage
// for a chunk's block or raw columns and core for match vectors and
// unpacked batches, and does not know how a predicate is evaluated on
// either layout. ModeJIT, the comparator, compiles its pipelines into
// fused tuple-at-a-time Go closures (our stand-in for HyPer's LLVM code
// generation) behind compiled scans, one per storage layout (Figure 5),
// which alone read the layouts themselves; its chain ends in a batcher
// that feeds the same batch sinks (jit.go).
//
// Expressions have one front end and two back ends: check (check.go) types
// every expression of a plan once per query and is the only code that can
// reject one; the tuple closures of this file (the reference) and the batch
// closures of vexpr.go (production) each lower the checked tree, written
// independently of one another and held to the same answers by
// TestEvalParity.
//
// The closure-compilation analogy is load-bearing for the reproduction:
// compile time is real work proportional to the number of generated code
// paths, so the Figure 5 explosion (one specialized scan per storage-layout
// combination) and its vectorized-scan remedy are measurable. CompileOnly
// times that work alone and returns the number of scan paths it compiled.
package exec

import (
	"cmp"
	"strings"

	"datablocks/internal/types"
)

// Tuple is the pipeline's register file: one slot per pipeline column, in
// the array matching the column's kind. Operators pass tuples through
// compiled closures without intermediate materialization (§4).
type Tuple struct {
	Ints   []int64
	Floats []float64
	Strs   []string
	Nulls  []bool
}

// NewTuple allocates a register file for n columns.
func NewTuple(n int) *Tuple {
	return &Tuple{
		Ints:   make([]int64, n),
		Floats: make([]float64, n),
		Strs:   make([]string, n),
		Nulls:  make([]bool, n),
	}
}

// Expr is a scalar expression over pipeline tuples: one of the node types
// below, by value. What an expression means — its kind, what converts,
// what is malformed — is check's to say (check.go), once per query.
type Expr interface{ isExpr() }

func (ColRef) isExpr()     {}
func (Const) isExpr()      {}
func (Binary) isExpr()     {}
func (Compare) isExpr()    {}
func (Logic) isExpr()      {}
func (IsNullExpr) isExpr() {}
func (If) isExpr()         {}

// ColRef references pipeline column Idx.
type ColRef struct{ Idx int }

// Const is a literal.
type Const struct{ Val types.Value }

// Binary is an arithmetic expression: Op is one of + - * /.
type Binary struct {
	Op   byte
	L, R Expr
}

// Compare is a comparison yielding a boolean: =, <>, <, <=, >, >=, between
// (R2 as upper bound), like-prefix.
type Compare struct {
	Op   types.CompareOp
	L, R Expr
	R2   Expr // Between upper bound
}

// Logic combines booleans: '&' (and), '|' (or), '!' (not; R unused).
type Logic struct {
	Op   byte
	L, R Expr
}

// IsNullExpr tests a column for NULL (negated when Not).
type IsNullExpr struct {
	E   Expr
	Not bool
}

// If is CASE WHEN Cond THEN Then ELSE Else END.
type If struct {
	Cond, Then, Else Expr
}

// Col returns a column reference.
func Col(i int) Expr { return ColRef{Idx: i} }

// CInt returns an integer literal.
func CInt(v int64) Expr { return Const{Val: types.IntValue(v)} }

// CFloat returns a double literal.
func CFloat(v float64) Expr { return Const{Val: types.FloatValue(v)} }

// CStr returns a string literal.
func CStr(v string) Expr { return Const{Val: types.StringValue(v)} }

// Add, Sub, Mul, Div build arithmetic expressions.
func Add(l, r Expr) Expr { return Binary{Op: '+', L: l, R: r} }
func Sub(l, r Expr) Expr { return Binary{Op: '-', L: l, R: r} }
func Mul(l, r Expr) Expr { return Binary{Op: '*', L: l, R: r} }
func Div(l, r Expr) Expr { return Binary{Op: '/', L: l, R: r} }

// Cmp builds a comparison.
func Cmp(op types.CompareOp, l, r Expr) Expr { return Compare{Op: op, L: l, R: r} }

// BetweenE builds l <= e <= r.
func BetweenE(e, lo, hi Expr) Expr { return Compare{Op: types.Between, L: e, R: lo, R2: hi} }

// And, Or, Not build boolean connectives.
func And(l, r Expr) Expr { return Logic{Op: '&', L: l, R: r} }
func Or(l, r Expr) Expr  { return Logic{Op: '|', L: l, R: r} }
func Not(e Expr) Expr    { return Logic{Op: '!', L: e} }

// The tuple back end: a checked tree lowered to closures over the register
// file, one closure (one emit) per node. Each value closure returns the
// value and a NULL flag; conditions collapse SQL's three-valued logic
// (NULL ⇒ false). It is written apart from the batch back end of vexpr.go
// on purpose: ModeJIT's tuple chain is the comparator the batch chain is
// tested against, and shares with it only what precedes evaluation.
type (
	valFn[T any] func(t *Tuple) (T, bool)
	boolFn       func(t *Tuple) bool
)

// number and value are the kinds arithmetic and everything else range over.
type (
	number interface{ int64 | float64 }
	value  interface{ number | string }
)

// compiler lowers checked expressions to tuple closures.
type compiler struct {
	// wp is the worker's profile shard the chain being compiled should
	// report into; nil when the query is not being profiled.
	wp *workerProf
}

// literal returns the value of a non-NULL literal node — what a constant
// closure returns and a broadcast loop keeps in a register.
func literal[T value](n *checked) (v T, ok bool) {
	if n.op != opConst || n.val.IsNull() {
		return v, false
	}
	switch p := any(&v).(type) {
	case *int64:
		*p = n.val.Int()
	case *float64:
		*p = n.val.Float()
	case *string:
		*p = n.val.Str()
	}
	return v, true
}

func (c *compiler) int(n *checked) valFn[int64] {
	switch n.op {
	case opCol:
		idx := n.col
		return func(t *Tuple) (int64, bool) { return t.Ints[idx], t.Nulls[idx] }
	case opBoolInt:
		b := c.bool(n.a)
		return func(t *Tuple) (int64, bool) {
			if b(t) {
				return 1, false
			}
			return 0, false
		}
	case opArith:
		if n.scale == 0 {
			return tupleArith(c, n, c.int)
		}
		// Scaled arithmetic: a result that leaves int64 is NULL.
		l, r, op := c.int(n.a), c.int(n.b), n.arith
		return func(t *Tuple) (int64, bool) {
			a, an := l(t)
			b, bn := r(t)
			v, ok := arithInt64(op, a, b)
			return v, an || bn || !ok
		}
	}
	return tupleValue(c, n, c.int)
}

func (c *compiler) float(n *checked) valFn[float64] {
	switch n.op {
	case opCol:
		idx := n.col
		return func(t *Tuple) (float64, bool) { return t.Floats[idx], t.Nulls[idx] }
	case opToFloat:
		f, k := c.int(n.a), n.a.scale
		return func(t *Tuple) (float64, bool) {
			v, null := f(t)
			return float64(v) / float64(pow10[k]), null
		}
	case opArith:
		if n.arith != '/' {
			return tupleArith(c, n, c.float)
		}
		l, r := c.float(n.a), c.float(n.b)
		return func(t *Tuple) (float64, bool) {
			a, an := l(t)
			b, bn := r(t)
			if bn || b == 0 {
				return 0, true // a NULL or zero divisor yields NULL
			}
			return a / b, an
		}
	}
	return tupleValue(c, n, c.float)
}

func (c *compiler) str(n *checked) valFn[string] {
	if n.op == opCol {
		idx := n.col
		return func(t *Tuple) (string, bool) { return t.Strs[idx], t.Nulls[idx] }
	}
	return tupleValue(c, n, c.str)
}

// tupleValue lowers the nodes that read the same in every kind — a literal
// and a conditional; rec lowers an operand of the node's own kind.
func tupleValue[T value](c *compiler, n *checked, rec func(*checked) valFn[T]) valFn[T] {
	switch n.op {
	case opConst:
		v, ok := literal[T](n)
		return func(*Tuple) (T, bool) { return v, !ok }
	case opIf:
		cond, th, el := c.bool(n.a), rec(n.b), rec(n.c)
		return func(t *Tuple) (T, bool) {
			if cond(t) {
				return th(t)
			}
			return el(t)
		}
	}
	panic("exec: lowering a node check did not produce")
}

// tupleArith lowers + - *; a NULL operand makes the result NULL.
func tupleArith[T number](c *compiler, n *checked, rec func(*checked) valFn[T]) valFn[T] {
	l, r := rec(n.a), rec(n.b)
	switch n.arith {
	case '+':
		return func(t *Tuple) (T, bool) {
			a, an := l(t)
			b, bn := r(t)
			return a + b, an || bn
		}
	case '-':
		return func(t *Tuple) (T, bool) {
			a, an := l(t)
			b, bn := r(t)
			return a - b, an || bn
		}
	default:
		return func(t *Tuple) (T, bool) {
			a, an := l(t)
			b, bn := r(t)
			return a * b, an || bn
		}
	}
}

func (c *compiler) bool(n *checked) boolFn {
	switch n.op {
	case opCompare, opBetween:
		switch n.kind {
		case types.Int64:
			return tupleCompare(c, n, c.int)
		case types.Float64:
			return tupleCompare(c, n, c.float)
		default:
			return tupleCompare(c, n, c.str)
		}
	case opPrefix:
		l, r := c.str(n.a), c.str(n.b)
		return func(t *Tuple) bool {
			a, an := l(t)
			p, pn := r(t)
			return !an && !pn && strings.HasPrefix(a, p)
		}
	case opNot:
		inner := c.bool(n.a)
		return func(t *Tuple) bool { return !inner(t) }
	case opAnd, opOr:
		l, r := c.bool(n.a), c.bool(n.b)
		if n.op == opAnd {
			return func(t *Tuple) bool { return l(t) && r(t) }
		}
		return func(t *Tuple) bool { return l(t) || r(t) }
	case opIsNull:
		idx, not := n.col, n.not
		return func(t *Tuple) bool { return t.Nulls[idx] != not }
	default: // opTruthy
		f := c.int(n.a)
		return func(t *Tuple) bool {
			v, null := f(t)
			return !null && v != 0
		}
	}
}

// tupleCompare lowers a comparison or BETWEEN in the kind it compares in;
// a NULL operand makes it false.
func tupleCompare[T value](c *compiler, n *checked, rec func(*checked) valFn[T]) boolFn {
	l, r := rec(n.a), rec(n.b)
	if n.op == opBetween {
		r2 := rec(n.c)
		return func(t *Tuple) bool {
			a, an := l(t)
			lo, ln := r(t)
			hi, hn := r2(t)
			return !an && !ln && !hn && a >= lo && a <= hi
		}
	}
	op := n.cmp
	return func(t *Tuple) bool {
		a, an := l(t)
		b, bn := r(t)
		return !an && !bn && compare(op, a, b)
	}
}

// compare applies a comparison operator, written with the operators
// themselves so that doubles compare by the IEEE rule — every comparison
// with NaN is false and <> is true — which is what the simd kernels,
// BETWEEN and therefore a pushed-down predicate answer.
func compare[T cmp.Ordered](op types.CompareOp, a, b T) bool {
	switch op {
	case types.Eq:
		return a == b
	case types.Ne:
		return a != b
	case types.Lt:
		return a < b
	case types.Le:
		return a <= b
	case types.Gt:
		return a > b
	default: // Ge: check admits no other operator
		return a >= b
	}
}

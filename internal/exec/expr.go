// Package exec implements the query engine of §4: a data-centric,
// push-based engine whose pipelines are "compiled" into fused
// tuple-at-a-time Go closures (our stand-in for HyPer's LLVM code
// generation), fed either by compiled scans or by the interpreted,
// pre-compiled vectorized scan over uncompressed chunks and Data Blocks
// behind a single interface (Figure 6). That interface is core.Scanner:
// this package asks storage for a chunk's block or raw columns and core for
// match vectors and unpacked batches, and does not know how a predicate is
// evaluated on either layout. Only the compiled scans — Figure 5's
// per-layout code generation, a comparator — read the layouts themselves.
//
// The closure-compilation analogy is load-bearing for the reproduction:
// compile time is real work proportional to the number of generated code
// paths, so the Figure 5 explosion (one specialized scan per storage-layout
// combination) and its vectorized-scan remedy are measurable.
package exec

import (
	"fmt"

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

// CompileStats counts the code-generation work of a query: the number of
// closures constructed (the analogue of emitted IR instructions) and the
// number of specialized scan code paths (Figure 5's x-axis).
type CompileStats struct {
	Closures  int
	ScanPaths int
}

// Expr is a scalar expression over pipeline tuples.
type Expr interface {
	resultKind(kinds []types.Kind) (types.Kind, error)
}

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

func (e ColRef) resultKind(kinds []types.Kind) (types.Kind, error) {
	if e.Idx < 0 || e.Idx >= len(kinds) {
		return 0, fmt.Errorf("exec: column %d out of range", e.Idx)
	}
	return kinds[e.Idx], nil
}

func (e Const) resultKind([]types.Kind) (types.Kind, error) { return e.Val.Kind(), nil }

func (e Binary) resultKind(kinds []types.Kind) (types.Kind, error) {
	lk, err := e.L.resultKind(kinds)
	if err != nil {
		return 0, err
	}
	rk, err := e.R.resultKind(kinds)
	if err != nil {
		return 0, err
	}
	if lk == types.String || rk == types.String {
		return 0, fmt.Errorf("exec: arithmetic on strings")
	}
	if e.Op == '/' || lk == types.Float64 || rk == types.Float64 {
		return types.Float64, nil
	}
	return types.Int64, nil
}

// boolKind marks boolean results; reuse Int64 (0/1) as the physical kind.
func (e Compare) resultKind(kinds []types.Kind) (types.Kind, error)    { return types.Int64, nil }
func (e Logic) resultKind(kinds []types.Kind) (types.Kind, error)      { return types.Int64, nil }
func (e IsNullExpr) resultKind(kinds []types.Kind) (types.Kind, error) { return types.Int64, nil }

func (e If) resultKind(kinds []types.Kind) (types.Kind, error) {
	return e.Then.resultKind(kinds)
}

// Typed closure signatures: each returns the value and a null flag.
type (
	intFn   func(t *Tuple) (int64, bool)
	floatFn func(t *Tuple) (float64, bool)
	strFn   func(t *Tuple) (string, bool)
	boolFn  func(t *Tuple) bool // SQL three-valued logic collapsed: NULL ⇒ false
)

// compiler lowers expressions to closures against a fixed tuple layout.
type compiler struct {
	kinds []types.Kind
	stats *CompileStats
	// wp is the worker's profile shard the chain being compiled should
	// report into; nil when the query is not being profiled.
	wp *workerProf
}

func (c *compiler) emit() {
	if c.stats != nil {
		c.stats.Closures++
	}
}

func (c *compiler) compileInt(e Expr) (intFn, error) {
	k, err := e.resultKind(c.kinds)
	if err != nil {
		return nil, err
	}
	if k != types.Int64 {
		return nil, fmt.Errorf("exec: expression is %v, want int", k)
	}
	switch e := e.(type) {
	case ColRef:
		idx := e.Idx
		c.emit()
		return func(t *Tuple) (int64, bool) { return t.Ints[idx], t.Nulls[idx] }, nil
	case Const:
		if e.Val.IsNull() {
			c.emit()
			return func(*Tuple) (int64, bool) { return 0, true }, nil
		}
		v := e.Val.Int()
		c.emit()
		return func(*Tuple) (int64, bool) { return v, false }, nil
	case Binary:
		l, err := c.compileInt(e.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileInt(e.R)
		if err != nil {
			return nil, err
		}
		c.emit()
		switch e.Op {
		case '+':
			return func(t *Tuple) (int64, bool) {
				a, an := l(t)
				b, bn := r(t)
				return a + b, an || bn
			}, nil
		case '-':
			return func(t *Tuple) (int64, bool) {
				a, an := l(t)
				b, bn := r(t)
				return a - b, an || bn
			}, nil
		case '*':
			return func(t *Tuple) (int64, bool) {
				a, an := l(t)
				b, bn := r(t)
				return a * b, an || bn
			}, nil
		default:
			return nil, fmt.Errorf("exec: integer division unsupported; use Div for doubles")
		}
	case Compare, Logic, IsNullExpr:
		b, err := c.compileBool(e)
		if err != nil {
			return nil, err
		}
		c.emit()
		return func(t *Tuple) (int64, bool) {
			if b(t) {
				return 1, false
			}
			return 0, false
		}, nil
	case If:
		cond, err := c.compileBool(e.Cond)
		if err != nil {
			return nil, err
		}
		th, err := c.compileInt(e.Then)
		if err != nil {
			return nil, err
		}
		el, err := c.compileInt(e.Else)
		if err != nil {
			return nil, err
		}
		c.emit()
		return func(t *Tuple) (int64, bool) {
			if cond(t) {
				return th(t)
			}
			return el(t)
		}, nil
	}
	return nil, fmt.Errorf("exec: cannot compile %T as int", e)
}

func (c *compiler) compileFloat(e Expr) (floatFn, error) {
	k, err := e.resultKind(c.kinds)
	if err != nil {
		return nil, err
	}
	if k == types.Int64 {
		f, err := c.compileInt(e)
		if err != nil {
			return nil, err
		}
		c.emit()
		return func(t *Tuple) (float64, bool) {
			v, n := f(t)
			return float64(v), n
		}, nil
	}
	if k != types.Float64 {
		return nil, fmt.Errorf("exec: expression is %v, want float", k)
	}
	switch e := e.(type) {
	case ColRef:
		idx := e.Idx
		c.emit()
		return func(t *Tuple) (float64, bool) { return t.Floats[idx], t.Nulls[idx] }, nil
	case Const:
		if e.Val.IsNull() {
			c.emit()
			return func(*Tuple) (float64, bool) { return 0, true }, nil
		}
		v := e.Val.Float()
		c.emit()
		return func(*Tuple) (float64, bool) { return v, false }, nil
	case Binary:
		l, err := c.compileFloat(e.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileFloat(e.R)
		if err != nil {
			return nil, err
		}
		c.emit()
		switch e.Op {
		case '+':
			return func(t *Tuple) (float64, bool) {
				a, an := l(t)
				b, bn := r(t)
				return a + b, an || bn
			}, nil
		case '-':
			return func(t *Tuple) (float64, bool) {
				a, an := l(t)
				b, bn := r(t)
				return a - b, an || bn
			}, nil
		case '*':
			return func(t *Tuple) (float64, bool) {
				a, an := l(t)
				b, bn := r(t)
				return a * b, an || bn
			}, nil
		default:
			return func(t *Tuple) (float64, bool) {
				a, an := l(t)
				b, bn := r(t)
				if bn || b == 0 {
					return 0, true
				}
				return a / b, an
			}, nil
		}
	case If:
		cond, err := c.compileBool(e.Cond)
		if err != nil {
			return nil, err
		}
		th, err := c.compileFloat(e.Then)
		if err != nil {
			return nil, err
		}
		el, err := c.compileFloat(e.Else)
		if err != nil {
			return nil, err
		}
		c.emit()
		return func(t *Tuple) (float64, bool) {
			if cond(t) {
				return th(t)
			}
			return el(t)
		}, nil
	}
	return nil, fmt.Errorf("exec: cannot compile %T as float", e)
}

func (c *compiler) compileStr(e Expr) (strFn, error) {
	k, err := e.resultKind(c.kinds)
	if err != nil {
		return nil, err
	}
	if k != types.String {
		return nil, fmt.Errorf("exec: expression is %v, want string", k)
	}
	switch e := e.(type) {
	case ColRef:
		idx := e.Idx
		c.emit()
		return func(t *Tuple) (string, bool) { return t.Strs[idx], t.Nulls[idx] }, nil
	case Const:
		if e.Val.IsNull() {
			c.emit()
			return func(*Tuple) (string, bool) { return "", true }, nil
		}
		v := e.Val.Str()
		c.emit()
		return func(*Tuple) (string, bool) { return v, false }, nil
	}
	return nil, fmt.Errorf("exec: cannot compile %T as string", e)
}

func (c *compiler) compileBool(e Expr) (boolFn, error) {
	switch e := e.(type) {
	case Compare:
		return c.compileCompare(e)
	case Logic:
		switch e.Op {
		case '!':
			inner, err := c.compileBool(e.L)
			if err != nil {
				return nil, err
			}
			c.emit()
			return func(t *Tuple) bool { return !inner(t) }, nil
		case '&':
			l, err := c.compileBool(e.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compileBool(e.R)
			if err != nil {
				return nil, err
			}
			c.emit()
			return func(t *Tuple) bool { return l(t) && r(t) }, nil
		default:
			l, err := c.compileBool(e.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compileBool(e.R)
			if err != nil {
				return nil, err
			}
			c.emit()
			return func(t *Tuple) bool { return l(t) || r(t) }, nil
		}
	case IsNullExpr:
		col, ok := e.E.(ColRef)
		if !ok {
			return nil, fmt.Errorf("exec: IS NULL supports column references only")
		}
		idx := col.Idx
		not := e.Not
		c.emit()
		return func(t *Tuple) bool { return t.Nulls[idx] != not }, nil
	case ColRef, Const, If, Binary:
		// Treat a 0/1 integer expression as a boolean.
		f, err := c.compileInt(e)
		if err != nil {
			return nil, err
		}
		c.emit()
		return func(t *Tuple) bool {
			v, n := f(t)
			return !n && v != 0
		}, nil
	}
	return nil, fmt.Errorf("exec: cannot compile %T as bool", e)
}

func (c *compiler) compileCompare(e Compare) (boolFn, error) {
	lk, err := e.L.resultKind(c.kinds)
	if err != nil {
		return nil, err
	}
	if e.Op == types.Prefix {
		l, lerr := c.compileStr(e.L)
		if lerr != nil {
			return nil, lerr
		}
		r, rerr := c.compileStr(e.R)
		if rerr != nil {
			return nil, rerr
		}
		c.emit()
		return func(t *Tuple) bool {
			a, an := l(t)
			p, pn := r(t)
			return !an && !pn && len(a) >= len(p) && a[:len(p)] == p
		}, nil
	}
	rk, err := e.R.resultKind(c.kinds)
	if err != nil {
		return nil, err
	}
	useFloat := lk == types.Float64 || rk == types.Float64
	switch {
	case lk == types.String:
		l, err := c.compileStr(e.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileStr(e.R)
		if err != nil {
			return nil, err
		}
		if e.Op == types.Between {
			r2, err := c.compileStr(e.R2)
			if err != nil {
				return nil, err
			}
			c.emit()
			return func(t *Tuple) bool {
				a, an := l(t)
				lo, ln := r(t)
				hi, hn := r2(t)
				return !an && !ln && !hn && a >= lo && a <= hi
			}, nil
		}
		op := e.Op
		c.emit()
		return func(t *Tuple) bool {
			a, an := l(t)
			b, bn := r(t)
			if an || bn {
				return false
			}
			return cmpOrd(op, compareStr(a, b))
		}, nil
	case useFloat:
		l, err := c.compileFloat(e.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileFloat(e.R)
		if err != nil {
			return nil, err
		}
		if e.Op == types.Between {
			r2, err := c.compileFloat(e.R2)
			if err != nil {
				return nil, err
			}
			c.emit()
			return func(t *Tuple) bool {
				a, an := l(t)
				lo, ln := r(t)
				hi, hn := r2(t)
				return !an && !ln && !hn && a >= lo && a <= hi
			}, nil
		}
		op := e.Op
		c.emit()
		return func(t *Tuple) bool {
			a, an := l(t)
			b, bn := r(t)
			if an || bn {
				return false
			}
			return cmpF64(op, a, b)
		}, nil
	default:
		l, err := c.compileInt(e.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileInt(e.R)
		if err != nil {
			return nil, err
		}
		if e.Op == types.Between {
			r2, err := c.compileInt(e.R2)
			if err != nil {
				return nil, err
			}
			c.emit()
			return func(t *Tuple) bool {
				a, an := l(t)
				lo, ln := r(t)
				hi, hn := r2(t)
				return !an && !ln && !hn && a >= lo && a <= hi
			}, nil
		}
		op := e.Op
		c.emit()
		return func(t *Tuple) bool {
			a, an := l(t)
			b, bn := r(t)
			if an || bn {
				return false
			}
			return cmpOrd(op, compareI64(a, b))
		}, nil
	}
}

func compareI64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareF64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareStr(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpF64 compares doubles with the operators themselves, not through the
// three-way compareF64, in which NaN ties with everything: by the IEEE rule
// every comparison with NaN is false and <> is true — what the simd
// kernels, BETWEEN and therefore a pushed-down predicate answer.
func cmpF64(op types.CompareOp, a, b float64) bool {
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
	default: // Ge
		return a >= b
	}
}

func cmpOrd(op types.CompareOp, ord int) bool {
	switch op {
	case types.Eq:
		return ord == 0
	case types.Ne:
		return ord != 0
	case types.Lt:
		return ord < 0
	case types.Le:
		return ord <= 0
	case types.Gt:
		return ord > 0
	default: // Ge
		return ord >= 0
	}
}

package exec

import (
	"errors"
	"fmt"

	"datablocks/internal/core"
	"datablocks/internal/types"
)

// This file is the vectorized twin of the closure compiler in expr.go: it
// lowers scalar expressions into column-at-a-time evaluators over a
// core.Batch. Batch-capable sinks (the vectorized aggregator, filters, maps
// and join probes) use these instead of calling a tuple closure per row.
//
// The evaluators mirror the tuple compiler's semantics operation for
// operation — same NULL collapsing, same division-by-zero rule, same
// per-row arithmetic — so that the batch pipeline produces bit-identical
// results to the tuple-at-a-time pipeline.
//
// Each compiled closure owns its output scratch buffers, reused across
// batches; callers must not retain the returned slices beyond the next
// call. A ColRef returns the batch's column directly (zero copy), so the
// returned slices are read-only.

// errVecUnsupported marks an expression or operator the vectorized
// compiler cannot lower. It fails the query: the vectorized compiler
// accepts exactly what the tuple compiler accepts (TestCompileParity), so
// there is nothing to drop back to.
var errVecUnsupported = errors.New("exec: expression not vectorizable")

// Vectorized closure signatures: value vector plus a null mask (nil = no
// NULLs in this batch).
type (
	vecIntFn   func(b *core.Batch) ([]int64, []bool)
	vecFloatFn func(b *core.Batch) ([]float64, []bool)
	vecStrFn   func(b *core.Batch) ([]string, []bool)
	// vecMaskFn evaluates a boolean expression with SQL three-valued
	// logic collapsed (NULL ⇒ false), one flag per row.
	vecMaskFn func(b *core.Batch) []bool
)

// vcompiler lowers expressions to vectorized closures against a fixed
// batch layout.
type vcompiler struct {
	kinds []types.Kind
	stats *CompileStats
	// cse, when non-nil, enables common-subexpression elimination across
	// everything this compiler lowers: structurally identical float
	// subtrees share one closure whose result is computed once per epoch.
	// Sinks that evaluate several expressions over the same batch (the
	// vectorized aggregator) opt in and bump the epoch before each batch.
	cse *vcse
}

// vcse is the shared memoization state of one vcompiler's CSE mode. Expr
// nodes are comparable value structs, so a subtree is its own memo key:
// two independently built but structurally equal trees compare equal.
type vcse struct {
	epoch uint64 // bumped by the owning sink before each batch
	memo  map[Expr]vecFloatFn
}

// cseWorthy reports whether a float subtree is worth memoizing: only
// nodes that do per-row work (arithmetic, conditionals). ColRef and Const
// already evaluate for free, and wrapping them would only add a call.
func cseWorthy(e Expr) bool {
	switch e.(type) {
	case Binary, If:
		return true
	}
	return false
}

// compileFloat lowers a float expression, routing through the CSE memo
// when enabled: a structurally repeated subtree returns the same shared
// closure, which evaluates its operand tree once per epoch and hands the
// cached vector to every consumer after that.
func (c *vcompiler) compileFloat(e Expr) (vecFloatFn, error) {
	if c.cse == nil || !cseWorthy(e) {
		return c.compileFloatExpr(e)
	}
	if f, ok := c.cse.memo[e]; ok {
		return f, nil
	}
	inner, err := c.compileFloatExpr(e)
	if err != nil {
		return nil, err
	}
	cs := c.cse
	var vals []float64
	var nulls []bool
	var stamp uint64                               // 0 = never evaluated; the sink's first epoch is 1
	f := func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
		if stamp != cs.epoch {
			vals, nulls = inner(b)
			stamp = cs.epoch
		}
		return vals, nulls
	}
	c.cse.memo[e] = f
	return f, nil
}

func (c *vcompiler) emit() {
	if c.stats != nil {
		c.stats.Closures++
	}
}

// The resize helpers return s with length n, reusing capacity when they
// can. The grow side is kept in separate //go:noinline functions so the
// make stays out of the inlined fast path: hot-path callers see only a
// capacity compare, and the (amortized, once-per-growth) allocation is
// attributed to the cold grow frame where it actually runs.

func resizeI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return growI64(n)
	}
	return s[:n]
}

//go:noinline
func growI64(n int) []int64 { return make([]int64, n) }

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return growF64(n)
	}
	return s[:n]
}

//go:noinline
func growF64(n int) []float64 { return make([]float64, n) }

func resizeStr(s []string, n int) []string {
	if cap(s) < n {
		return growStr(n)
	}
	return s[:n]
}

//go:noinline
func growStr(n int) []string { return make([]string, n) }

func resizeBool(s []bool, n int) []bool {
	if cap(s) < n {
		return growBool(n)
	}
	return s[:n]
}

//go:noinline
func growBool(n int) []bool { return make([]bool, n) }

func resizeU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return growU32(n)
	}
	return s[:n]
}

//go:noinline
func growU32(n int) []uint32 { return make([]uint32, n) }

// constInt extracts a non-null integer literal for broadcast loops.
func constInt(e Expr) (int64, bool) {
	c, ok := e.(Const)
	if !ok || c.Val.IsNull() || c.Val.Kind() != types.Int64 {
		return 0, false
	}
	return c.Val.Int(), true
}

// constFloat extracts a non-null numeric literal for broadcast loops.
func constFloat(e Expr) (float64, bool) {
	c, ok := e.(Const)
	if !ok || c.Val.IsNull() {
		return 0, false
	}
	switch c.Val.Kind() {
	case types.Int64:
		return float64(c.Val.Int()), true
	case types.Float64:
		return c.Val.Float(), true
	}
	return 0, false
}

// orNulls merges two null masks into scratch; nil means "no NULLs".
func orNulls(a, b []bool, scratch []bool, n int) ([]bool, []bool) {
	if a == nil && b == nil {
		return nil, scratch
	}
	scratch = resizeBool(scratch, n)
	switch {
	case a == nil:
		copy(scratch, b[:n])
	case b == nil:
		copy(scratch, a[:n])
	default:
		for i := 0; i < n; i++ {
			scratch[i] = a[i] || b[i]
		}
	}
	return scratch, scratch
}

func (c *vcompiler) compileInt(e Expr) (vecIntFn, error) {
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
		return func(b *core.Batch) ([]int64, []bool) { //dbvet:hotpath
			col := &b.Cols[idx]
			return col.Ints[:b.N], col.Nulls
		}, nil
	case Const:
		// Splats are memoized: the buffer is filled once and reused for
		// every batch that fits (callers never mutate operand vectors).
		var out []int64
		var nulls []bool
		if e.Val.IsNull() {
			c.emit()
			return func(b *core.Batch) ([]int64, []bool) { //dbvet:hotpath
				if b.N > len(out) {
					out = make([]int64, b.N)
					nulls = make([]bool, b.N)
					for i := range nulls {
						nulls[i] = true
					}
				}
				return out[:b.N], nulls[:b.N]
			}, nil
		}
		v := e.Val.Int()
		c.emit()
		return func(b *core.Batch) ([]int64, []bool) { //dbvet:hotpath
			if b.N > len(out) {
				out = make([]int64, b.N)
				for i := range out {
					out[i] = v
				}
			}
			return out[:b.N], nil
		}, nil
	case Binary:
		if e.Op != '+' && e.Op != '-' && e.Op != '*' {
			return nil, fmt.Errorf("exec: integer division unsupported; use Div for doubles")
		}
		op := e.Op
		// Broadcast specialization: a constant operand becomes a scalar in
		// the loop instead of a splatted vector.
		if rv, ok := constInt(e.R); ok {
			l, err := c.compileInt(e.L)
			if err != nil {
				return nil, err
			}
			var out []int64
			c.emit()
			return func(b *core.Batch) ([]int64, []bool) { //dbvet:hotpath
				av, an := l(b)
				out = resizeI64(out, b.N)
				switch op {
				case '+':
					for i := range out {
						out[i] = av[i] + rv
					}
				case '-':
					for i := range out {
						out[i] = av[i] - rv
					}
				default:
					for i := range out {
						out[i] = av[i] * rv
					}
				}
				return out, an
			}, nil
		}
		if lv, ok := constInt(e.L); ok {
			r, err := c.compileInt(e.R)
			if err != nil {
				return nil, err
			}
			var out []int64
			c.emit()
			return func(b *core.Batch) ([]int64, []bool) { //dbvet:hotpath
				bv, bn := r(b)
				out = resizeI64(out, b.N)
				switch op {
				case '+':
					for i := range out {
						out[i] = lv + bv[i]
					}
				case '-':
					for i := range out {
						out[i] = lv - bv[i]
					}
				default:
					for i := range out {
						out[i] = lv * bv[i]
					}
				}
				return out, bn
			}, nil
		}
		l, err := c.compileInt(e.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileInt(e.R)
		if err != nil {
			return nil, err
		}
		var out []int64
		var nscratch []bool
		c.emit()
		return func(b *core.Batch) ([]int64, []bool) { //dbvet:hotpath
			av, an := l(b)
			bv, bn := r(b)
			out = resizeI64(out, b.N)
			switch op {
			case '+':
				for i := range out {
					out[i] = av[i] + bv[i]
				}
			case '-':
				for i := range out {
					out[i] = av[i] - bv[i]
				}
			default:
				for i := range out {
					out[i] = av[i] * bv[i]
				}
			}
			var nulls []bool
			nulls, nscratch = orNulls(an, bn, nscratch, b.N)
			return out, nulls
		}, nil
	case Compare, Logic, IsNullExpr:
		m, err := c.compileMask(e)
		if err != nil {
			return nil, err
		}
		var out []int64
		c.emit()
		return func(b *core.Batch) ([]int64, []bool) { //dbvet:hotpath
			mask := m(b)
			out = resizeI64(out, b.N)
			for i := range out {
				if mask[i] {
					out[i] = 1
				} else {
					out[i] = 0
				}
			}
			return out, nil
		}, nil
	case If:
		cond, err := c.compileMask(e.Cond)
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
		var out []int64
		var nscratch []bool
		c.emit()
		return func(b *core.Batch) ([]int64, []bool) { //dbvet:hotpath
			mask := cond(b)
			tv, tn := th(b)
			ev, en := el(b)
			out = resizeI64(out, b.N)
			var nulls []bool
			if tn != nil || en != nil {
				nscratch = resizeBool(nscratch, b.N)
				nulls = nscratch
			}
			for i := range out {
				if mask[i] {
					out[i] = tv[i]
					if nulls != nil {
						nulls[i] = tn != nil && tn[i]
					}
				} else {
					out[i] = ev[i]
					if nulls != nil {
						nulls[i] = en != nil && en[i]
					}
				}
			}
			return out, nulls
		}, nil
	}
	return nil, errVecUnsupported
}

func (c *vcompiler) compileFloatExpr(e Expr) (vecFloatFn, error) {
	k, err := e.resultKind(c.kinds)
	if err != nil {
		return nil, err
	}
	if k == types.Int64 {
		f, err := c.compileInt(e)
		if err != nil {
			return nil, err
		}
		var out []float64
		c.emit()
		return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
			iv, nulls := f(b)
			out = resizeF64(out, b.N)
			for i := range out {
				out[i] = float64(iv[i])
			}
			return out, nulls
		}, nil
	}
	if k != types.Float64 {
		return nil, fmt.Errorf("exec: expression is %v, want float", k)
	}
	switch e := e.(type) {
	case ColRef:
		idx := e.Idx
		c.emit()
		return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
			col := &b.Cols[idx]
			return col.Floats[:b.N], col.Nulls
		}, nil
	case Const:
		var out []float64
		var nulls []bool
		if e.Val.IsNull() {
			c.emit()
			return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
				if b.N > len(out) {
					out = make([]float64, b.N)
					nulls = make([]bool, b.N)
					for i := range nulls {
						nulls[i] = true
					}
				}
				return out[:b.N], nulls[:b.N]
			}, nil
		}
		v := e.Val.Float()
		c.emit()
		return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
			if b.N > len(out) {
				out = make([]float64, b.N)
				for i := range out {
					out[i] = v
				}
			}
			return out[:b.N], nil
		}, nil
	case Binary:
		op := e.Op
		// Broadcast specialization: a constant operand becomes a scalar in
		// the loop instead of a splatted vector. A constant divisor also
		// hoists the zero test out of the loop (division semantics follow
		// the tuple compiler exactly: NULL or zero divisor yields NULL).
		if rv, ok := constFloat(e.R); ok {
			l, err := c.compileFloat(e.L)
			if err != nil {
				return nil, err
			}
			var out []float64
			var nulls []bool
			c.emit()
			if op == '/' && rv == 0 {
				return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
					out = resizeF64(out, b.N)
					nulls = resizeBool(nulls, b.N)
					for i := range nulls {
						out[i], nulls[i] = 0, true
					}
					return out, nulls
				}, nil
			}
			return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
				av, an := l(b)
				out = resizeF64(out, b.N)
				switch op {
				case '+':
					for i := range out {
						out[i] = av[i] + rv
					}
				case '-':
					for i := range out {
						out[i] = av[i] - rv
					}
				case '*':
					for i := range out {
						out[i] = av[i] * rv
					}
				default:
					for i := range out {
						out[i] = av[i] / rv
					}
				}
				return out, an
			}, nil
		}
		if lv, ok := constFloat(e.L); ok {
			r, err := c.compileFloat(e.R)
			if err != nil {
				return nil, err
			}
			var out []float64
			var nscratch []bool
			c.emit()
			if op == '/' {
				return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
					bv, bn := r(b)
					out = resizeF64(out, b.N)
					nscratch = resizeBool(nscratch, b.N)
					for i := range out {
						if (bn != nil && bn[i]) || bv[i] == 0 {
							out[i], nscratch[i] = 0, true
							continue
						}
						out[i], nscratch[i] = lv/bv[i], false
					}
					return out, nscratch
				}, nil
			}
			return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
				bv, bn := r(b)
				out = resizeF64(out, b.N)
				switch op {
				case '+':
					for i := range out {
						out[i] = lv + bv[i]
					}
				case '-':
					for i := range out {
						out[i] = lv - bv[i]
					}
				default:
					for i := range out {
						out[i] = lv * bv[i]
					}
				}
				return out, bn
			}, nil
		}
		l, err := c.compileFloat(e.L)
		if err != nil {
			return nil, err
		}
		r, err := c.compileFloat(e.R)
		if err != nil {
			return nil, err
		}
		var out []float64
		var nscratch []bool
		c.emit()
		if op == '/' {
			// Division follows the tuple compiler exactly: NULL or zero
			// divisor yields NULL (value 0).
			return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
				av, an := l(b)
				bv, bn := r(b)
				out = resizeF64(out, b.N)
				nscratch = resizeBool(nscratch, b.N)
				for i := range out {
					if (bn != nil && bn[i]) || bv[i] == 0 {
						out[i], nscratch[i] = 0, true
						continue
					}
					out[i] = av[i] / bv[i]
					nscratch[i] = an != nil && an[i]
				}
				return out, nscratch
			}, nil
		}
		return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
			av, an := l(b)
			bv, bn := r(b)
			out = resizeF64(out, b.N)
			switch op {
			case '+':
				for i := range out {
					out[i] = av[i] + bv[i]
				}
			case '-':
				for i := range out {
					out[i] = av[i] - bv[i]
				}
			default:
				for i := range out {
					out[i] = av[i] * bv[i]
				}
			}
			var nulls []bool
			nulls, nscratch = orNulls(an, bn, nscratch, b.N)
			return out, nulls
		}, nil
	case If:
		cond, err := c.compileMask(e.Cond)
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
		var out []float64
		var nscratch []bool
		c.emit()
		return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
			mask := cond(b)
			tv, tn := th(b)
			ev, en := el(b)
			out = resizeF64(out, b.N)
			var nulls []bool
			if tn != nil || en != nil {
				nscratch = resizeBool(nscratch, b.N)
				nulls = nscratch
			}
			for i := range out {
				if mask[i] {
					out[i] = tv[i]
					if nulls != nil {
						nulls[i] = tn != nil && tn[i]
					}
				} else {
					out[i] = ev[i]
					if nulls != nil {
						nulls[i] = en != nil && en[i]
					}
				}
			}
			return out, nulls
		}, nil
	}
	return nil, errVecUnsupported
}

func (c *vcompiler) compileStr(e Expr) (vecStrFn, error) {
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
		return func(b *core.Batch) ([]string, []bool) { //dbvet:hotpath
			col := &b.Cols[idx]
			return col.Strs[:b.N], col.Nulls
		}, nil
	case Const:
		var out []string
		var nulls []bool
		if e.Val.IsNull() {
			c.emit()
			return func(b *core.Batch) ([]string, []bool) { //dbvet:hotpath
				if b.N > len(out) {
					out = make([]string, b.N)
					nulls = make([]bool, b.N)
					for i := range nulls {
						nulls[i] = true
					}
				}
				return out[:b.N], nulls[:b.N]
			}, nil
		}
		v := e.Val.Str()
		c.emit()
		return func(b *core.Batch) ([]string, []bool) { //dbvet:hotpath
			if b.N > len(out) {
				out = make([]string, b.N)
				for i := range out {
					out[i] = v
				}
			}
			return out[:b.N], nil
		}, nil
	}
	return nil, errVecUnsupported
}

func (c *vcompiler) compileMask(e Expr) (vecMaskFn, error) {
	switch e := e.(type) {
	case Compare:
		return c.compileCompareMask(e)
	case Logic:
		switch e.Op {
		case '!':
			inner, err := c.compileMask(e.L)
			if err != nil {
				return nil, err
			}
			var out []bool
			c.emit()
			return func(b *core.Batch) []bool { //dbvet:hotpath
				m := inner(b)
				out = resizeBool(out, b.N)
				for i := range out {
					out[i] = !m[i]
				}
				return out
			}, nil
		case '&':
			l, err := c.compileMask(e.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compileMask(e.R)
			if err != nil {
				return nil, err
			}
			var out []bool
			c.emit()
			return func(b *core.Batch) []bool { //dbvet:hotpath
				lm, rm := l(b), r(b)
				out = resizeBool(out, b.N)
				for i := range out {
					out[i] = lm[i] && rm[i]
				}
				return out
			}, nil
		default:
			l, err := c.compileMask(e.L)
			if err != nil {
				return nil, err
			}
			r, err := c.compileMask(e.R)
			if err != nil {
				return nil, err
			}
			var out []bool
			c.emit()
			return func(b *core.Batch) []bool { //dbvet:hotpath
				lm, rm := l(b), r(b)
				out = resizeBool(out, b.N)
				for i := range out {
					out[i] = lm[i] || rm[i]
				}
				return out
			}, nil
		}
	case IsNullExpr:
		col, ok := e.E.(ColRef)
		if !ok {
			return nil, fmt.Errorf("exec: IS NULL supports column references only")
		}
		idx := col.Idx
		not := e.Not
		var out []bool
		c.emit()
		return func(b *core.Batch) []bool { //dbvet:hotpath
			nulls := b.Cols[idx].Nulls
			out = resizeBool(out, b.N)
			if nulls == nil {
				for i := range out {
					out[i] = not
				}
				return out
			}
			for i := range out {
				out[i] = nulls[i] != not
			}
			return out
		}, nil
	case ColRef, Const, If, Binary:
		// Treat a 0/1 integer expression as a boolean.
		f, err := c.compileInt(e)
		if err != nil {
			return nil, err
		}
		var out []bool
		c.emit()
		return func(b *core.Batch) []bool { //dbvet:hotpath
			v, nulls := f(b)
			out = resizeBool(out, b.N)
			for i := range out {
				out[i] = (nulls == nil || !nulls[i]) && v[i] != 0
			}
			return out
		}, nil
	}
	return nil, errVecUnsupported
}

func (c *vcompiler) compileCompareMask(e Compare) (vecMaskFn, error) {
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
		var out []bool
		c.emit()
		return func(b *core.Batch) []bool { //dbvet:hotpath
			av, an := l(b)
			pv, pn := r(b)
			out = resizeBool(out, b.N)
			for i := range out {
				a, p := av[i], pv[i]
				out[i] = (an == nil || !an[i]) && (pn == nil || !pn[i]) &&
					len(a) >= len(p) && a[:len(p)] == p
			}
			return out
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
			var out []bool
			c.emit()
			return func(b *core.Batch) []bool { //dbvet:hotpath
				av, an := l(b)
				lov, lon := r(b)
				hiv, hin := r2(b)
				out = resizeBool(out, b.N)
				for i := range out {
					out[i] = (an == nil || !an[i]) && (lon == nil || !lon[i]) && (hin == nil || !hin[i]) &&
						av[i] >= lov[i] && av[i] <= hiv[i]
				}
				return out
			}, nil
		}
		op := e.Op
		var out []bool
		c.emit()
		return func(b *core.Batch) []bool { //dbvet:hotpath
			av, an := l(b)
			bv, bn := r(b)
			out = resizeBool(out, b.N)
			for i := range out {
				out[i] = (an == nil || !an[i]) && (bn == nil || !bn[i]) &&
					cmpOrd(op, compareStr(av[i], bv[i]))
			}
			return out
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
			var out []bool
			c.emit()
			return func(b *core.Batch) []bool { //dbvet:hotpath
				av, an := l(b)
				lov, lon := r(b)
				hiv, hin := r2(b)
				out = resizeBool(out, b.N)
				for i := range out {
					out[i] = (an == nil || !an[i]) && (lon == nil || !lon[i]) && (hin == nil || !hin[i]) &&
						av[i] >= lov[i] && av[i] <= hiv[i]
				}
				return out
			}, nil
		}
		op := e.Op
		var out []bool
		c.emit()
		return func(b *core.Batch) []bool { //dbvet:hotpath
			av, an := l(b)
			bv, bn := r(b)
			out = resizeBool(out, b.N)
			for i := range out {
				out[i] = (an == nil || !an[i]) && (bn == nil || !bn[i]) &&
					cmpF64(op, av[i], bv[i])
			}
			return out
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
			var out []bool
			c.emit()
			return func(b *core.Batch) []bool { //dbvet:hotpath
				av, an := l(b)
				lov, lon := r(b)
				hiv, hin := r2(b)
				out = resizeBool(out, b.N)
				for i := range out {
					out[i] = (an == nil || !an[i]) && (lon == nil || !lon[i]) && (hin == nil || !hin[i]) &&
						av[i] >= lov[i] && av[i] <= hiv[i]
				}
				return out
			}, nil
		}
		op := e.Op
		var out []bool
		c.emit()
		return func(b *core.Batch) []bool { //dbvet:hotpath
			av, an := l(b)
			bv, bn := r(b)
			out = resizeBool(out, b.N)
			for i := range out {
				out[i] = (an == nil || !an[i]) && (bn == nil || !bn[i]) &&
					cmpOrd(op, compareI64(av[i], bv[i]))
			}
			return out
		}, nil
	}
}

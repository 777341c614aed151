package exec

import (
	"strings"

	"datablocks/internal/core"
	"datablocks/internal/types"
)

// This file is the batch back end: it lowers a checked expression
// (check.go) into column-at-a-time evaluators over a core.Batch. The
// production chain — the vectorized aggregator, filters, maps and join
// probes — evaluates through these; the tuple closures of expr.go are the
// reference they are tested against (TestEvalParity, bit for bit on value
// and NULL flag), written independently from the same checked tree.
//
// Each compiled closure owns its output scratch buffers, reused across
// batches; callers must not retain the returned slices beyond the next
// call. A column reference returns the batch's column directly (zero
// copy), so the returned slices are read-only.

// Vectorized closure signatures: value vector plus a null mask (nil = no
// NULLs in this batch).
type (
	vecFn[T any] func(b *core.Batch) ([]T, []bool)
	// vecMaskFn evaluates a boolean expression with SQL three-valued
	// logic collapsed (NULL ⇒ false), one flag per row.
	vecMaskFn func(b *core.Batch) []bool
)

// vcompiler lowers checked expressions to vectorized closures.
type vcompiler struct {
	stats *CompileStats
	// cse, when non-nil, enables common-subexpression elimination across
	// everything this compiler lowers: structurally identical float
	// subtrees share one closure whose result is computed once per epoch.
	// Sinks that evaluate several expressions over the same batch (the
	// vectorized aggregator) opt in and bump the epoch before each batch.
	cse *vcse
}

// vcse is the shared memoization state of one vcompiler's CSE mode. Expr
// nodes are comparable value structs, so the source of a subtree is its
// memo key: two independently built but structurally equal trees compare
// equal.
type vcse struct {
	epoch uint64 // bumped by the owning sink before each batch
	memo  map[Expr]vecFn[float64]
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

// float lowers a float expression, routing through the CSE memo when
// enabled: a structurally repeated subtree returns the same shared
// closure, which evaluates its operand tree once per epoch and hands the
// cached vector to every consumer after that.
func (c *vcompiler) float(n *checked) vecFn[float64] {
	if c.cse == nil || !cseWorthy(n.src) {
		return c.floatNode(n)
	}
	if f, ok := c.cse.memo[n.src]; ok {
		return f
	}
	inner := c.floatNode(n)
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
	c.cse.memo[n.src] = f
	return f
}

func (c *vcompiler) emit() {
	if c.stats != nil {
		c.stats.Closures++
	}
}

// resize returns s with length n, reusing capacity when it can. The grow
// side is kept in a separate //go:noinline function so the make stays out
// of the inlined fast path: hot-path callers see only a capacity compare,
// and the (amortized, once-per-growth) allocation is attributed to the
// cold grow frame where it actually runs.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return grow[T](n)
	}
	return s[:n]
}

//go:noinline
func grow[T any](n int) []T { return make([]T, n) }

// orNulls merges two null masks into scratch; nil means "no NULLs".
func orNulls(a, b []bool, scratch []bool, n int) ([]bool, []bool) {
	if a == nil && b == nil {
		return nil, scratch
	}
	scratch = resize(scratch, n)
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

func (c *vcompiler) int(n *checked) vecFn[int64] {
	switch n.op {
	case opCol:
		idx := n.col
		c.emit()
		return func(b *core.Batch) ([]int64, []bool) { //dbvet:hotpath
			col := &b.Cols[idx]
			return col.Ints[:b.N], col.Nulls
		}
	case opBoolInt:
		m := c.mask(n.a)
		var out []int64
		c.emit()
		return func(b *core.Batch) ([]int64, []bool) { //dbvet:hotpath
			mask := m(b)
			out = resize(out, b.N)
			for i := range out {
				if mask[i] {
					out[i] = 1
				} else {
					out[i] = 0
				}
			}
			return out, nil
		}
	case opArith:
		return vecArith(c, n, c.int)
	}
	return vecValue(c, n, c.int)
}

func (c *vcompiler) floatNode(n *checked) vecFn[float64] {
	switch n.op {
	case opCol:
		idx := n.col
		c.emit()
		return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
			col := &b.Cols[idx]
			return col.Floats[:b.N], col.Nulls
		}
	case opToFloat:
		f := c.int(n.a)
		var out []float64
		c.emit()
		return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
			iv, nulls := f(b)
			out = resize(out, b.N)
			for i := range out {
				out[i] = float64(iv[i])
			}
			return out, nulls
		}
	case opArith:
		if n.arith == '/' {
			return c.div(n)
		}
		return vecArith(c, n, c.float)
	}
	return vecValue(c, n, c.float)
}

func (c *vcompiler) str(n *checked) vecFn[string] {
	if n.op == opCol {
		idx := n.col
		c.emit()
		return func(b *core.Batch) ([]string, []bool) { //dbvet:hotpath
			col := &b.Cols[idx]
			return col.Strs[:b.N], col.Nulls
		}
	}
	return vecValue(c, n, c.str)
}

// vecValue lowers the nodes that read the same in every kind — a literal
// and a conditional; rec lowers an operand of the node's own kind.
func vecValue[T value](c *vcompiler, n *checked, rec func(*checked) vecFn[T]) vecFn[T] {
	var out []T
	switch n.op {
	case opConst:
		// Splats are memoized: the buffers are filled once and reused for
		// every batch that fits (callers never mutate operand vectors).
		v, ok := literal[T](n)
		var nulls []bool
		c.emit()
		return func(b *core.Batch) ([]T, []bool) { //dbvet:hotpath
			if b.N > len(out) {
				out = make([]T, b.N)
				for i := range out {
					out[i] = v
				}
				if !ok {
					nulls = make([]bool, b.N)
					for i := range nulls {
						nulls[i] = true
					}
				}
			}
			if ok {
				return out[:b.N], nil
			}
			return out[:b.N], nulls[:b.N]
		}
	case opIf:
		cond, th, el := c.mask(n.a), rec(n.b), rec(n.c)
		var nscratch []bool
		c.emit()
		return func(b *core.Batch) ([]T, []bool) { //dbvet:hotpath
			mask := cond(b)
			tv, tn := th(b)
			ev, en := el(b)
			out = resize(out, b.N)
			var nulls []bool
			if tn != nil || en != nil {
				nscratch = resize(nscratch, b.N)
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
		}
	}
	panic("exec: lowering a node check did not produce")
}

// vecArith lowers + - *. Broadcast specialization: a literal operand
// becomes a scalar in the loop instead of a splatted vector; the operator
// switch stays outside every loop.
func vecArith[T number](c *vcompiler, n *checked, rec func(*checked) vecFn[T]) vecFn[T] {
	op := n.arith
	var out []T
	if rv, ok := literal[T](n.b); ok {
		l := rec(n.a)
		c.emit()
		return func(b *core.Batch) ([]T, []bool) { //dbvet:hotpath
			av, an := l(b)
			out = resize(out, b.N)
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
		}
	}
	if lv, ok := literal[T](n.a); ok {
		r := rec(n.b)
		c.emit()
		return func(b *core.Batch) ([]T, []bool) { //dbvet:hotpath
			bv, bn := r(b)
			out = resize(out, b.N)
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
		}
	}
	l, r := rec(n.a), rec(n.b)
	var nscratch []bool
	c.emit()
	return func(b *core.Batch) ([]T, []bool) { //dbvet:hotpath
		av, an := l(b)
		bv, bn := r(b)
		out = resize(out, b.N)
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
	}
}

// div lowers double division: a NULL or zero divisor yields NULL (value
// 0). Literal operands broadcast, and a literal divisor also hoists the
// zero test out of the loop.
func (c *vcompiler) div(n *checked) vecFn[float64] {
	var out []float64
	var nulls []bool
	if rv, ok := literal[float64](n.b); ok {
		l := c.float(n.a)
		c.emit()
		if rv == 0 {
			return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
				out = resize(out, b.N)
				nulls = resize(nulls, b.N)
				for i := range nulls {
					out[i], nulls[i] = 0, true
				}
				return out, nulls
			}
		}
		return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
			av, an := l(b)
			out = resize(out, b.N)
			for i := range out {
				out[i] = av[i] / rv
			}
			return out, an
		}
	}
	if lv, ok := literal[float64](n.a); ok {
		r := c.float(n.b)
		c.emit()
		return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
			bv, bn := r(b)
			out = resize(out, b.N)
			nulls = resize(nulls, b.N)
			for i := range out {
				if (bn != nil && bn[i]) || bv[i] == 0 {
					out[i], nulls[i] = 0, true
					continue
				}
				out[i], nulls[i] = lv/bv[i], false
			}
			return out, nulls
		}
	}
	l, r := c.float(n.a), c.float(n.b)
	c.emit()
	return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
		av, an := l(b)
		bv, bn := r(b)
		out = resize(out, b.N)
		nulls = resize(nulls, b.N)
		for i := range out {
			if (bn != nil && bn[i]) || bv[i] == 0 {
				out[i], nulls[i] = 0, true
				continue
			}
			out[i] = av[i] / bv[i]
			nulls[i] = an != nil && an[i]
		}
		return out, nulls
	}
}

func (c *vcompiler) mask(n *checked) vecMaskFn {
	var out []bool
	switch n.op {
	case opCompare, opBetween:
		switch n.kind {
		case types.Int64:
			return vecCompare(c, n, c.int)
		case types.Float64:
			return vecCompare(c, n, c.float)
		default:
			return vecCompare(c, n, c.str)
		}
	case opPrefix:
		l, r := c.str(n.a), c.str(n.b)
		c.emit()
		return func(b *core.Batch) []bool { //dbvet:hotpath
			av, an := l(b)
			pv, pn := r(b)
			out = resize(out, b.N)
			for i := range out {
				out[i] = (an == nil || !an[i]) && (pn == nil || !pn[i]) && strings.HasPrefix(av[i], pv[i])
			}
			return out
		}
	case opNot:
		inner := c.mask(n.a)
		c.emit()
		return func(b *core.Batch) []bool { //dbvet:hotpath
			m := inner(b)
			out = resize(out, b.N)
			for i := range out {
				out[i] = !m[i]
			}
			return out
		}
	case opAnd, opOr:
		l, r := c.mask(n.a), c.mask(n.b)
		and := n.op == opAnd
		c.emit()
		return func(b *core.Batch) []bool { //dbvet:hotpath
			lm, rm := l(b), r(b)
			out = resize(out, b.N)
			if and {
				for i := range out {
					out[i] = lm[i] && rm[i]
				}
			} else {
				for i := range out {
					out[i] = lm[i] || rm[i]
				}
			}
			return out
		}
	case opIsNull:
		idx, not := n.col, n.not
		c.emit()
		return func(b *core.Batch) []bool { //dbvet:hotpath
			nulls := b.Cols[idx].Nulls
			out = resize(out, b.N)
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
		}
	default: // opTruthy
		f := c.int(n.a)
		c.emit()
		return func(b *core.Batch) []bool { //dbvet:hotpath
			v, nulls := f(b)
			out = resize(out, b.N)
			for i := range out {
				out[i] = (nulls == nil || !nulls[i]) && v[i] != 0
			}
			return out
		}
	}
}

// vecCompare lowers a comparison or BETWEEN in the kind it compares in; a
// NULL operand makes the row false.
func vecCompare[T value](c *vcompiler, n *checked, rec func(*checked) vecFn[T]) vecMaskFn {
	l, r := rec(n.a), rec(n.b)
	var out []bool
	if n.op == opBetween {
		r2 := rec(n.c)
		c.emit()
		return func(b *core.Batch) []bool { //dbvet:hotpath
			av, an := l(b)
			lov, lon := r(b)
			hiv, hin := r2(b)
			out = resize(out, b.N)
			for i := range out {
				out[i] = (an == nil || !an[i]) && (lon == nil || !lon[i]) && (hin == nil || !hin[i]) &&
					av[i] >= lov[i] && av[i] <= hiv[i]
			}
			return out
		}
	}
	op := n.cmp
	c.emit()
	return func(b *core.Batch) []bool { //dbvet:hotpath
		av, an := l(b)
		bv, bn := r(b)
		out = resize(out, b.N)
		for i := range out {
			out[i] = (an == nil || !an[i]) && (bn == nil || !bn[i]) && compare(op, av[i], bv[i])
		}
		return out
	}
}

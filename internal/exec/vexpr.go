package exec

import (
	"math"
	"strings"

	"datablocks/internal/core"
	"datablocks/internal/simd"
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
	// selFn narrows in, an ascending list of batch rows, to the rows where
	// a boolean expression holds, with SQL three-valued logic collapsed
	// (NULL ⇒ false). The result ascends and is read-only: the closure's
	// scratch or in itself, valid until the next call.
	selFn func(b *core.Batch, in []uint32) []uint32
)

// vcompiler lowers checked expressions to vectorized closures.
type vcompiler struct {
	// cse, when non-nil, enables common-subexpression elimination across
	// everything this compiler lowers: structurally identical numeric
	// subtrees and conditions share one closure whose result is computed
	// once per epoch.
	// Sinks that evaluate several expressions over the same batch (the
	// vectorized aggregator) opt in and bump the epoch before each batch.
	cse *vcse
}

// vcse is the shared memoization state of one vcompiler's CSE mode. Expr
// nodes are comparable value structs, so the source of a subtree is its
// memo key: two independently built but structurally equal trees compare
// equal.
type vcse struct {
	epoch  uint64 // bumped by the owning sink before each batch
	floats map[Expr]vecFn[float64]
	ints   map[Expr]vecFn[int64]
	rows   map[Expr]func(*core.Batch) []uint32 // conditions, see holds
}

// memo lowers n through the CSE memo m: a structurally repeated subtree
// that does per-row work (arithmetic, a conditional, a conversion)
// returns the same shared closure, which evaluates its operand tree once
// per epoch and hands the cached vector to every consumer after that. A
// column or a literal already evaluates for free, and is never a key: a
// literal's source can be the division that scaled it, which names
// another literal at each scale the literal is lifted to (rescale).
func memo[T any](cs *vcse, m map[Expr]vecFn[T], n *checked, lower func(*checked) vecFn[T]) vecFn[T] {
	if n.src == nil || n.op != opArith && n.op != opIf && n.op != opToFloat {
		return lower(n)
	}
	if f, ok := m[n.src]; ok {
		return f
	}
	inner := lower(n)
	var vals []T
	var nulls []bool
	var stamp uint64                         // 0 = never evaluated; the sink's first epoch is 1
	f := func(b *core.Batch) ([]T, []bool) { //dbvet:hotpath
		if stamp != cs.epoch {
			vals, nulls = inner(b)
			stamp = cs.epoch
		}
		return vals, nulls
	}
	m[n.src] = f
	return f
}

func (c *vcompiler) float(n *checked) vecFn[float64] {
	if c.cse == nil {
		return c.floatNode(n)
	}
	return memo(c.cse, c.cse.floats, n, c.floatNode)
}

func (c *vcompiler) int(n *checked) vecFn[int64] {
	if c.cse == nil {
		return c.intNode(n)
	}
	return memo(c.cse, c.cse.ints, n, c.intNode)
}

// holds lowers boolean n to the rows of the whole batch where it holds:
// what If and a boolean used as a value read. Under CSE a condition met
// twice is one closure, evaluated once per epoch.
func (c *vcompiler) holds(n *checked) func(b *core.Batch) []uint32 {
	cs := c.cse
	if cs != nil {
		if f, ok := cs.rows[n.src]; ok {
			return f
		}
	}
	s := c.sel(n)
	var all, rows []uint32
	var stamp uint64                    // 0 = never evaluated; the sink's first epoch is 1
	f := func(b *core.Batch) []uint32 { //dbvet:hotpath
		if cs == nil || stamp != cs.epoch {
			all = selAll(all, b.N)
			rows = s(b, all)
			if cs != nil {
				stamp = cs.epoch
			}
		}
		return rows
	}
	if cs != nil {
		cs.rows[n.src] = f
	}
	return f
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

// orNulls merges two null masks, nil meaning "no NULLs": the one that is
// not nil as it is, or both into scratch.
func orNulls(a, b []bool, scratch []bool, n int) ([]bool, []bool) {
	switch {
	case a == nil:
		return b, scratch
	case b == nil:
		return a, scratch
	}
	scratch = resize(scratch, n)
	for i := range scratch {
		scratch[i] = a[i] || b[i]
	}
	return scratch, scratch
}

func (c *vcompiler) intNode(n *checked) vecFn[int64] {
	switch n.op {
	case opCol:
		idx := n.col
		return func(b *core.Batch) ([]int64, []bool) { //dbvet:hotpath
			col := &b.Cols[idx]
			return col.Ints[:b.N], col.Nulls
		}
	case opBoolInt:
		holds := c.holds(n.a)
		var out []int64
		return func(b *core.Batch) ([]int64, []bool) { //dbvet:hotpath
			rows := holds(b)
			out = resize(out, b.N)
			clear(out)
			for _, r := range rows {
				out[r] = 1
			}
			return out, nil
		}
	case opArith:
		if n.scale > 0 {
			return c.scaledArith(n)
		}
		return vecArith(c, n, c.int)
	}
	return vecValue(c, n, c.int)
}

func (c *vcompiler) floatNode(n *checked) vecFn[float64] {
	switch n.op {
	case opCol:
		idx := n.col
		return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
			col := &b.Cols[idx]
			return col.Floats[:b.N], col.Nulls
		}
	case opToFloat:
		f, p := c.int(n.a), float64(pow10[n.a.scale])
		var out []float64
		return func(b *core.Batch) ([]float64, []bool) { //dbvet:hotpath
			iv, nulls := f(b)
			out = resize(out, b.N)
			for i := range out {
				out[i] = float64(iv[i]) / p // exact for an unscaled p = 1
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
		cond, th, el := c.holds(n.a), newIfArm(n.b, rec), newIfArm(n.c, rec)
		var nulls []bool
		return func(b *core.Batch) ([]T, []bool) { //dbvet:hotpath
			rows := cond(b)
			out, nulls = resize(out, b.N), resize(nulls, b.N)
			// The else branch everywhere, then the then branch over the
			// rows where the condition holds.
			if null := el.put(b, out, nulls, nil, true); th.put(b, out, nulls, rows, false) || null {
				return out, nulls
			}
			return out, nil
		}
	}
	panic("exec: lowering a node check did not produce")
}

// ifArm is a branch of If: a literal is the scalar v (NULL when null),
// anything else the closure f.
type ifArm[T value] struct {
	f    vecFn[T]
	v    T
	null bool
}

func newIfArm[T value](n *checked, rec func(*checked) vecFn[T]) ifArm[T] {
	if n.op != opConst {
		return ifArm[T]{f: rec(n)}
	}
	v, ok := literal[T](n)
	return ifArm[T]{v: v, null: !ok}
}

// put writes the arm's values and NULL flags at rows of out and nulls, or
// at every row when all is set, and reports whether a NULL can be among
// them.
func (a *ifArm[T]) put(b *core.Batch, out []T, nulls []bool, rows []uint32, all bool) bool {
	if a.f == nil {
		if all {
			for i := range out {
				out[i], nulls[i] = a.v, a.null
			}
		}
		for _, r := range rows {
			out[r], nulls[r] = a.v, a.null
		}
		return a.null
	}
	vals, vn := a.f(b)
	if all {
		copy(out, vals)
		clear(nulls)
		copy(nulls, vn)
	}
	for _, r := range rows {
		out[r], nulls[r] = vals[r], vn != nil && vn[r]
	}
	return vn != nil
}

// vecArith lowers + - *, wrapping on integers.
func vecArith[T number](c *vcompiler, n *checked, rec func(*checked) vecFn[T]) vecFn[T] {
	o := newBinop(n, rec)
	var out []T
	var nscratch []bool
	return func(b *core.Batch) ([]T, []bool) { //dbvet:hotpath
		av, an, bv, bn := o.operands(b)
		out = o.apply(out, av, bv, b.N)
		var nulls []bool
		nulls, nscratch = orNulls(an, bn, nscratch, b.N)
		return out, nulls
	}
}

// scaledArith lowers + - * on scaled integers, which read NULL where they
// leave int64. A batch whose operands' ranges keep every row in int64
// takes the wrapping loops, any other a checked loop. An operand's range
// is its lowered one (intRange); only where that is unknown — a hot
// chunk's column, a join's or a map's output, a node intRange cannot
// bound — does a simd.MinMaxInt64 pass over its values find it.
func (c *vcompiler) scaledArith(n *checked) vecFn[int64] {
	o := newBinop(n, c.int)
	ra, rb := c.intRange(n.a), c.intRange(n.b)
	var out []int64
	var nulls []bool
	return func(b *core.Batch) ([]int64, []bool) { //dbvet:hotpath
		av, an, bv, bn := o.operands(b)
		alo, ahi := bounds(ra, b, av, an)
		blo, bhi := bounds(rb, b, bv, bn)
		if _, _, ok := span(o.op, alo, ahi, blo, bhi); ok {
			out = o.apply(out, av, bv, b.N)
			var merged []bool
			merged, nulls = orNulls(an, bn, nulls, b.N)
			return out, merged
		}
		out, nulls = resize(out, b.N), resize(nulls, b.N)
		x, y := o.k, o.k
		for i := range out {
			if av != nil {
				x = av[i]
			}
			if bv != nil {
				y = bv[i]
			}
			v, ok := arithInt64(o.op, x, y)
			out[i], nulls[i] = v, !ok || an != nil && an[i] || bn != nil && bn[i]
		}
		return out, nulls
	}
}

// rangeFn is a lowered int64 node's bound on its non-NULL values in the
// batch; ok is false where it is unknown.
type rangeFn func(b *core.Batch) (lo, hi int64, ok bool)

// intRange lowers int64 n to its range, from scalars alone: a column's
// bound as the scan stamped it (core.BatchCol.Ranged), a literal's value
// (a NULL has no values, which [0, 0] bounds), the corners of + − × where
// span proves they stay in int64, the union of If's arms and [0, 1] for a
// boolean. Any other node's range, and one whose operand's is, is unknown.
func (c *vcompiler) intRange(n *checked) rangeFn {
	switch n.op {
	case opCol:
		idx := n.col
		return func(b *core.Batch) (int64, int64, bool) {
			col := &b.Cols[idx]
			return col.Lo, col.Hi, col.Ranged
		}
	case opConst:
		v, _ := literal[int64](n)
		return func(*core.Batch) (int64, int64, bool) { return v, v, true }
	case opBoolInt:
		return func(*core.Batch) (int64, int64, bool) { return 0, 1, true }
	case opArith:
		op, l, r := n.arith, c.intRange(n.a), c.intRange(n.b)
		return func(b *core.Batch) (int64, int64, bool) {
			alo, ahi, aok := l(b)
			blo, bhi, bok := r(b)
			lo, hi, ok := span(op, alo, ahi, blo, bhi)
			return lo, hi, ok && aok && bok
		}
	case opIf:
		th, el := c.intRange(n.b), c.intRange(n.c)
		return func(b *core.Batch) (int64, int64, bool) {
			tlo, thi, tok := th(b)
			elo, ehi, eok := el(b)
			return min(tlo, elo), max(thi, ehi), tok && eok
		}
	}
	return func(*core.Batch) (int64, int64, bool) { return 0, 0, false }
}

// binop is a lowered + - *: its operands' closures, where a literal
// operand (on the right, or else on the left) is instead the scalar k
// and its closure nil.
type binop[T number] struct {
	op   byte
	l, r vecFn[T]
	k    T
}

func newBinop[T number](n *checked, rec func(*checked) vecFn[T]) binop[T] {
	o := binop[T]{op: n.arith}
	if k, ok := literal[T](n.b); ok {
		o.l, o.k = rec(n.a), k
	} else if k, ok := literal[T](n.a); ok {
		o.r, o.k = rec(n.b), k
	} else {
		o.l, o.r = rec(n.a), rec(n.b)
	}
	return o
}

// operands evaluates both operands; the literal's vector and mask are nil.
func (o *binop[T]) operands(b *core.Batch) (av []T, an []bool, bv []T, bn []bool) {
	if o.l != nil {
		av, an = o.l(b)
	}
	if o.r != nil {
		bv, bn = o.r(b)
	}
	return av, an, bv, bn
}

// bounds is the range of an operand's non-NULL values: its lowered range
// r where that is known, else a simd.MinMaxInt64 pass over vals.
func bounds(r rangeFn, b *core.Batch, vals []int64, nulls []bool) (lo, hi int64) {
	lo, hi, ok := r(b)
	if !ok {
		lo, hi, _ = simd.MinMaxInt64(vals, nulls)
	}
	return lo, hi
}

// span is the range of a op b for every a in [alo, ahi] and b in
// [blo, bhi], and whether all of it stays in int64: + - * are monotone in
// each operand, so the corners decide.
func span(op byte, alo, ahi, blo, bhi int64) (lo, hi int64, ok bool) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, a := range [2]int64{alo, ahi} {
		for _, b := range [2]int64{blo, bhi} {
			v, fits := arithInt64(op, a, b)
			if !fits {
				return 0, 0, false
			}
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	return lo, hi, true
}

// apply writes av op bv, wrapping, to the first n rows of out, where a nil
// operand is the scalar o.k in every row. The operator switch and the
// scalar stay outside the loops.
func (o *binop[T]) apply(out, av, bv []T, n int) []T {
	out, k := resize(out, n), o.k
	switch {
	case av == nil && o.op == '-':
		bv = bv[:n]
		for i := range out {
			out[i] = k - bv[i]
		}
		return out
	case av == nil: // + and * commute
		av, bv = bv, nil
	}
	av = av[:n]
	switch {
	case bv == nil && o.op == '+':
		for i := range out {
			out[i] = av[i] + k
		}
	case bv == nil && o.op == '-':
		for i := range out {
			out[i] = av[i] - k
		}
	case bv == nil:
		for i := range out {
			out[i] = av[i] * k
		}
	case o.op == '+':
		bv = bv[:n]
		for i := range out {
			out[i] = av[i] + bv[i]
		}
	case o.op == '-':
		bv = bv[:n]
		for i := range out {
			out[i] = av[i] - bv[i]
		}
	default:
		bv = bv[:n]
		for i := range out {
			out[i] = av[i] * bv[i]
		}
	}
	return out
}

// div lowers double division: a NULL or zero divisor yields NULL (value
// 0).
func (c *vcompiler) div(n *checked) vecFn[float64] {
	l, r := c.float(n.a), c.float(n.b)
	var out []float64
	var nulls []bool
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

// sel lowers boolean n to a selection function. AND evaluates its right
// side on the left side's rows only, OR on the rows its left side did not
// select, and NOT takes its inner rows out of in.
func (c *vcompiler) sel(n *checked) selFn {
	var out []uint32
	switch n.op {
	case opCompare, opBetween:
		switch n.kind {
		case types.Int64:
			return selCompare(c, n, c.int)
		case types.Float64:
			return selCompare(c, n, c.float)
		default:
			return selCompare(c, n, c.str)
		}
	case opAnd:
		return c.and(c.sel(n.a), c.sel(n.b))
	case opPrefix:
		l, r := c.str(n.a), c.str(n.b)
		return func(b *core.Batch, in []uint32) []uint32 { //dbvet:hotpath
			av, an := l(b)
			pv, pn := r(b)
			out = resize(out, len(in))
			w := 0
			for _, i := range in {
				out[w] = i
				w += b2i((an == nil || !an[i]) && (pn == nil || !pn[i]) && strings.HasPrefix(av[i], pv[i]))
			}
			return out[:w]
		}
	case opNot:
		inner := c.sel(n.a)
		return func(b *core.Batch, in []uint32) []uint32 { //dbvet:hotpath
			out = selDiff(out, in, inner(b, in))
			return out
		}
	case opOr:
		l, r := c.sel(n.a), c.sel(n.b)
		var rest []uint32
		return func(b *core.Batch, in []uint32) []uint32 { //dbvet:hotpath
			lrows := l(b, in)
			if len(lrows) == len(in) {
				return lrows
			}
			rest = selDiff(rest, in, lrows)
			out = selMerge(out, lrows, r(b, rest))
			return out
		}
	case opIsNull:
		idx, not := n.col, n.not
		return func(b *core.Batch, in []uint32) []uint32 { //dbvet:hotpath
			nulls := b.Cols[idx].Nulls
			out = resize(out, len(in))
			w := 0
			for _, r := range in {
				out[w] = r
				w += b2i((nulls != nil && nulls[r]) != not)
			}
			return out[:w]
		}
	default: // opTruthy
		f := c.int(n.a)
		return func(b *core.Batch, in []uint32) []uint32 { //dbvet:hotpath
			v, nulls := f(b)
			out = resize(out, len(in))
			w := 0
			for _, r := range in {
				out[w] = r
				w += b2i(v[r] != 0 && (nulls == nil || !nulls[r]))
			}
			return out[:w]
		}
	}
}

// and evaluates r on the rows l keeps; no rows left, no call.
func (c *vcompiler) and(l, r selFn) selFn {
	return func(b *core.Batch, in []uint32) []uint32 { //dbvet:hotpath
		if rows := l(b, in); len(rows) > 0 {
			return r(b, rows)
		}
		return in[:0]
	}
}

// flipped is a comparison with its operands swapped: a op b ⇔ b flipped[op] a.
var flipped = [...]types.CompareOp{types.Eq: types.Eq, types.Ne: types.Ne, types.Lt: types.Gt, types.Le: types.Ge, types.Gt: types.Lt, types.Ge: types.Le}

// selCompare lowers a comparison or BETWEEN — a >= lo, then a <= hi on
// the rows that passed — in the kind it compares in; a NULL operand makes
// the row false. A literal operand stays a scalar (on the left, it swaps
// sides) and its operator switch sits outside the loops. The NULL tests
// are a pass of their own over the rows that compared true, run only for
// an operand that has a NULL vector.
func selCompare[T value](c *vcompiler, n *checked, rec func(*checked) vecFn[T]) selFn {
	op, a, x := n.cmp, n.a, n.b
	if n.op == opBetween {
		ge, le := checked{op: opCompare, cmp: types.Ge, a: a, b: x}, checked{op: opCompare, cmp: types.Le, a: a, b: n.c}
		return c.and(selCompare(c, &ge, rec), selCompare(c, &le, rec))
	}
	if _, ok := literal[T](a); ok {
		a, x, op = x, a, flipped[op]
	}
	l := rec(a)
	var out []uint32
	dropNulls := func(rows []uint32, nulls []bool) []uint32 { //dbvet:hotpath
		if nulls == nil {
			return rows
		}
		w := 0
		for _, r := range rows {
			out[w] = r
			w += b2i(!nulls[r])
		}
		return out[:w]
	}
	if v, ok := literal[T](x); ok {
		return func(b *core.Batch, in []uint32) []uint32 { //dbvet:hotpath
			av, an := l(b)
			out = resize(out, len(in))
			w := 0
			switch op {
			case types.Eq:
				for _, r := range in {
					out[w] = r
					w += b2i(av[r] == v)
				}
			case types.Ne:
				for _, r := range in {
					out[w] = r
					w += b2i(av[r] != v)
				}
			case types.Lt:
				for _, r := range in {
					out[w] = r
					w += b2i(av[r] < v)
				}
			case types.Le:
				for _, r := range in {
					out[w] = r
					w += b2i(av[r] <= v)
				}
			case types.Gt:
				for _, r := range in {
					out[w] = r
					w += b2i(av[r] > v)
				}
			default: // Ge
				for _, r := range in {
					out[w] = r
					w += b2i(av[r] >= v)
				}
			}
			return dropNulls(out[:w], an)
		}
	}
	r := rec(x)
	return func(b *core.Batch, in []uint32) []uint32 { //dbvet:hotpath
		av, an := l(b)
		bv, bn := r(b)
		out = resize(out, len(in))
		w := 0
		for _, i := range in {
			out[w] = i
			w += b2i(compare(op, av[i], bv[i]))
		}
		return dropNulls(dropNulls(out[:w], an), bn)
	}
}

// b2i is 1 for true and 0 for false: selection loops add it to their
// write index instead of branching on the row.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// selAll returns the rows 0..n-1, reusing all: every row below its
// capacity already holds its own index.
//
//dbvet:hotpath
func selAll(all []uint32, n int) []uint32 {
	if cap(all) >= n {
		return all[:n]
	}
	all = grow[uint32](n)
	for i := range all {
		all[i] = uint32(i)
	}
	return all
}

// selDiff writes to dst the rows of in that are not in sub, a subset of in;
// both ascend.
//
//dbvet:hotpath
func selDiff(dst, in, sub []uint32) []uint32 {
	dst = resize(dst, len(in)-len(sub))[:0]
	for _, r := range in {
		if len(sub) > 0 && sub[0] == r {
			sub = sub[1:]
			continue
		}
		dst = append(dst, r)
	}
	return dst
}

// selMerge writes to dst the union of the disjoint ascending lists a and b,
// ascending.
//
//dbvet:hotpath
func selMerge(dst, a, b []uint32) []uint32 {
	dst = resize(dst, len(a)+len(b))[:0]
	for len(a) > 0 && len(b) > 0 {
		if a[0] < b[0] {
			dst, a = append(dst, a[0]), a[1:]
		} else {
			dst, b = append(dst, b[0]), b[1:]
		}
	}
	return append(append(dst, a...), b...)
}

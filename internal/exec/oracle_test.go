package exec_test

// FuzzPlan holds whole plans to refRun, a naive evaluator of the exported
// plan nodes that calls no engine code: it composes eval (eval_test.go)
// with refJoin and refGroups (keymatrix_test.go) over the rows the test
// wrote, in the order each storage state keeps them. Every plan runs in
// all four modes — ModeJIT's tuple scan and chain, the batch chain behind
// the vectorized scan in the other three — over every storage state, on
// one worker and on four.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// The columns of both generated relations: an int, a string and a double
// drawn from pools (NULL, MinInt64, MaxInt64, NaN payloads, ±0.0 and ±Inf
// among them), a small nullable int and the row's ordinal.
const (
	colK = iota
	colS
	colF
	colV
	colID
	numCols
)

var oracleKinds = []types.Kind{types.Int64, types.String, types.Float64, types.Int64, types.Int64}

// oracleStates are the storage states every plan runs over: all chunks
// hot; frozen; frozen sorted by colK; frozen and evicted to a block store;
// frozen but for a hot tail chunk.
var oracleStates = []string{"hot", "frozen", "sorted", "evicted", "hot-tail"}

// oracleRows draws n rows; dead marks the ones to delete: about one in
// eight, and every row of one chunk in a third of the inputs that have
// more than one.
func oracleRows(r *rand.Rand, n int) (rows []types.Row, dead []bool) {
	rows, dead = make([]types.Row, n), make([]bool, n)
	for i := range rows {
		row := types.Row{}
		for _, k := range oracleKinds[:colV] {
			row = append(row, pools[k][r.Intn(len(pools[k]))])
		}
		v := iv(int64(r.Intn(11) - 5))
		if r.Intn(6) == 0 {
			v = null(types.Int64)
		}
		rows[i] = append(row, v, iv(int64(i)))
		dead[i] = r.Intn(8) == 0
	}
	if n > 64 && r.Intn(3) == 0 {
		c := r.Intn((n + 63) / 64)
		for i := c * 64; i < n && i < c*64+64; i++ {
			dead[i] = true
		}
	}
	return rows, dead
}

// oracleRel loads rows into 64-row chunks (loadRel), deletes the dead ones
// and puts the chunks into state. visible is what a scan reads, in the
// order it reads it: the live rows, chunk by chunk, each chunk stably
// sorted by colK (NULLs first) in the sorted state. reset evicts again
// what a query loaded back.
func oracleRel(t *testing.T, rows []types.Row, dead []bool, state string) (rel *storage.Relation, visible []types.Row, reset func()) {
	t.Helper()
	rel, reset = loadRel(t, oracleKinds, rows), func() {}
	for i, d := range dead {
		if d && !rel.Delete(storage.TupleID{Chunk: uint32(i / 64), Row: uint32(i % 64)}) {
			t.Fatalf("row %d was not deleted", i)
		}
	}
	frozen, sortBy := rel.NumChunks(), -1
	switch state {
	case "hot":
		frozen = 0
	case "sorted":
		sortBy = colK
	case "hot-tail":
		frozen--
	}
	for i := 0; i < frozen; i++ {
		if err := rel.FreezeChunk(i, core.FreezeOptions{SortBy: sortBy}); err != nil {
			t.Fatal(err)
		}
	}
	if state == "evicted" {
		store, err := blockstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		rel.SetBlockStore(store, 0, nil)
		reset = func() {
			for i := 0; i < rel.NumChunks(); i++ {
				if _, err := rel.EvictChunk(i); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for c := 0; c < len(rows); c += 64 {
		var live []types.Row
		for i := c; i < len(rows) && i < c+64; i++ {
			if !dead[i] {
				live = append(live, rows[i])
			}
		}
		if state == "sorted" {
			slices.SortStableFunc(live, func(a, b types.Row) int { return orderCmp(a[colK], b[colK]) })
		}
		visible = append(visible, live...)
	}
	return rel, visible, reset
}

// orderCmp is ORDER BY's order on two values of one kind: NULL first, then
// cmp.Compare (for doubles NaN below every number, -0.0 equal to +0.0).
func orderCmp(a, b types.Value) int {
	switch {
	case a.IsNull() || b.IsNull():
		return cmp.Compare(btoi(!a.IsNull()), btoi(!b.IsNull()))
	case a.Kind() == types.Int64:
		return cmp.Compare(a.Int(), b.Int())
	case a.Kind() == types.Float64:
		return cmp.Compare(a.Float(), b.Float())
	default:
		return cmp.Compare(a.Str(), b.Str())
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// canon is how a result column compares with the reference's.
type canon uint8

const (
	exact   canon = iota // bit for bit
	anyNaN               // a computed double: which NaN payload is the compiler's choice
	tied                 // NaN one value, -0.0 as +0.0
	rounded              // SUM/AVG of doubles: to two decimals, and as tied
)

// outCol is what the generator knows about one output column.
type outCol struct {
	kind  types.Kind
	canon canon
	// merged marks a MIN/MAX of doubles: with several workers the merge
	// may keep the other of two equal values (±0.0, two NaNs).
	merged bool
	// small doubles fold exactly in a double sum: SUM and AVG take no
	// other double. Integers fold exactly whatever their size.
	small bool
}

// keyable reports whether a join or GROUP BY may use the column as a key:
// both tell NaN payloads and ±0.0 apart, so the column must be exact.
func (c outCol) keyable() bool { return c.canon == exact && !c.merged }

// planGen draws a plan over relation a (the probe spine's scan) and b
// (every join's build side), n and m rows.
type planGen struct {
	r      *rand.Rand
	a, b   *storage.Relation
	n, m   int
	joins  int
	badArg bool // a SARG constant of the wrong kind: every run must fail
}

func (g *planGen) pick(n int) int { return g.r.Intn(n) }

// constFor draws a non-NULL SARG constant for relation column c.
func (g *planGen) constFor(c, rows int) types.Value {
	switch c {
	case colV:
		return iv(int64(g.pick(11) - 5))
	case colID:
		return iv(int64(g.pick(rows + 1)))
	}
	for {
		if v := pools[oracleKinds[c]][g.pick(9)]; !v.IsNull() {
			return v
		}
	}
}

// sarg draws a predicate on a relation column of rows rows.
func (g *planGen) sarg(rows int) core.Predicate {
	c := g.pick(numCols)
	ops := []types.CompareOp{types.Eq, types.Ne, types.Lt, types.Le, types.Gt, types.Ge, types.Between, types.IsNull, types.IsNotNull}
	if oracleKinds[c] == types.String {
		ops = append(ops, types.Prefix)
	}
	p := core.Predicate{Col: c, Op: ops[g.pick(len(ops))], Lo: g.constFor(c, rows), Hi: g.constFor(c, rows)}
	if p.Op == types.IsNull || p.Op == types.IsNotNull {
		p.Lo, p.Hi = types.Value{}, types.Value{}
	}
	if g.pick(40) == 0 && p.Op != types.IsNull && p.Op != types.IsNotNull {
		// The SARG kind check: an integer column is never compared with a
		// double, nor anything with a string.
		g.badArg = true
		p.Lo = map[types.Kind]types.Value{types.Int64: fv(1), types.Float64: iv(1), types.String: iv(1)}[oracleKinds[c]]
	}
	return p
}

// scan draws a scan of rel with up to two SARGs, a projection holding
// their columns in random order, and sometimes a residual filter.
func (g *planGen) scan(rel *storage.Relation, rows int) (exec.Node, []outCol) {
	s := &exec.ScanNode{Rel: rel}
	take := make([]bool, numCols)
	for i := g.pick(3); i > 0; i-- {
		p := g.sarg(rows)
		s.Preds = append(s.Preds, p)
		take[p.Col] = true
	}
	for c := range take {
		take[c] = take[c] || g.pick(4) > 0
	}
	for _, c := range g.r.Perm(numCols) {
		if take[c] {
			s.Cols = append(s.Cols, c)
		}
	}
	if len(s.Cols) == 0 {
		s.Cols = []int{g.pick(numCols)}
	}
	cols := make([]outCol, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = outCol{kind: oracleKinds[c], small: c >= colF}
	}
	if g.pick(4) == 0 {
		s.Filter = g.cond(cols)
	}
	return s, cols
}

// nullRow is a row of NULLs of cols' kinds: eval types an expression over
// it, since a NULL knows its kind.
func nullRow(cols []outCol) types.Row {
	row := make(types.Row, len(cols))
	for i, c := range cols {
		row[i] = null(c.kind)
	}
	return row
}

// expr draws an expression over cols up to depth levels deep; eval may
// reject it.
func (g *planGen) expr(cols []outCol, depth int) exec.Expr {
	if depth == 0 || g.pick(3) == 0 {
		if g.pick(3) > 0 {
			return exec.Col(g.pick(len(cols)))
		}
		kinds := []types.Kind{types.Int64, types.Float64, types.String}
		pool := pools[kinds[g.pick(3)]]
		return exec.Const{Val: pool[g.pick(len(pool))]}
	}
	a, b := g.expr(cols, depth-1), g.expr(cols, depth-1)
	switch g.pick(10) {
	case 0:
		return exec.Add(a, b)
	case 1:
		return exec.Sub(a, b)
	case 2:
		return exec.Mul(a, b)
	case 3:
		return exec.Div(a, b)
	case 4, 5:
		return exec.Cmp([]types.CompareOp{types.Eq, types.Ne, types.Lt, types.Le, types.Gt, types.Ge, types.Prefix}[g.pick(7)], a, b)
	case 6:
		return exec.BetweenE(a, b, g.expr(cols, depth-1))
	case 7:
		return [...]exec.Expr{exec.And(a, b), exec.Or(a, b), exec.Not(a)}[g.pick(3)]
	case 8:
		return exec.IsNullExpr{E: exec.Col(g.pick(len(cols))), Not: g.pick(2) == 0}
	default:
		return exec.If{Cond: a, Then: b, Else: g.expr(cols, depth-1)}
	}
}

// typed draws expressions until eval accepts one whose kind want accepts,
// and returns it with its kind.
func (g *planGen) typed(cols []outCol, want func(types.Kind) bool) (exec.Expr, types.Kind) {
	for {
		e := g.expr(cols, 2)
		if v, err := eval(e, nullRow(cols)); err == nil && want(v.Kind()) {
			return e, v.Kind()
		}
	}
}

// cond draws a condition: an integer expression, true when neither NULL
// nor 0. Mostly a column compared with a constant of its kind, sometimes
// negated or or-ed with another, so that a few conditions in a row still
// leave rows to check.
func (g *planGen) cond(cols []outCol) exec.Expr {
	if g.pick(3) == 0 {
		e, _ := g.typed(cols, func(k types.Kind) bool { return k == types.Int64 })
		return e
	}
	c := g.pick(len(cols))
	ops := []types.CompareOp{types.Eq, types.Ne, types.Lt, types.Le, types.Gt, types.Ge}
	if cols[c].kind == types.String {
		ops = append(ops, types.Prefix)
	}
	k := pools[cols[c].kind][g.pick(9)]
	if cols[c].kind == types.Int64 && (k.IsNull() || g.pick(2) == 0) {
		k = iv(int64(g.pick(64) - 5)) // within the small columns' range
	}
	for k.IsNull() {
		k = pools[cols[c].kind][g.pick(9)]
	}
	e := exec.Cmp(ops[g.pick(len(ops))], exec.Col(c), exec.Const{Val: k})
	switch g.pick(4) {
	case 0:
		return exec.Not(e)
	case 1:
		return exec.Or(e, g.cond(cols))
	}
	return e
}

// mapNode keeps some of child's columns in random order and appends one or
// two computed ones.
func (g *planGen) mapNode(child exec.Node, cols []outCol) (exec.Node, []outCol) {
	m := &exec.MapNode{Child: child}
	var out []outCol
	for _, c := range g.r.Perm(len(cols)) {
		if g.pick(3) > 0 {
			m.Exprs, out = append(m.Exprs, exec.Col(c)), append(out, cols[c])
		}
	}
	for i := 1 + g.pick(2); i > 0; i-- {
		e, kind := g.typed(cols, func(types.Kind) bool { return true })
		c := outCol{kind: kind}
		if kind == types.Float64 {
			c.canon = anyNaN
		}
		m.Exprs, out = append(m.Exprs, e), append(out, c)
	}
	return m, out
}

// join draws a join of child (the probe side) with a scan of b or a GROUP
// BY over one, on one to three key columns of equal kind. Only exact
// columns are keys: a join matches NaNs by payload.
func (g *planGen) join(probe exec.Node, pcols []outCol) (exec.Node, []outCol) {
	badArg := g.badArg
	build, bcols := g.scan(g.b, g.m)
	if g.pick(4) == 0 {
		build, bcols = g.agg(build, bcols, false)
	}
	j := &exec.JoinNode{Probe: probe, Build: build, Kind: []exec.JoinKind{exec.InnerJoin, exec.SemiJoin, exec.AntiJoin}[g.pick(3)]}
	for want := 1 + g.pick(3); want > 0; want-- {
		p := g.pick(len(pcols))
		if !pcols[p].keyable() || slices.Contains(j.ProbeKeys, p) {
			continue
		}
		for _, b := range g.r.Perm(len(bcols)) {
			if bcols[b].kind == pcols[p].kind && bcols[b].keyable() && !slices.Contains(j.BuildKeys, b) {
				j.ProbeKeys, j.BuildKeys = append(j.ProbeKeys, p), append(j.BuildKeys, b)
				break
			}
		}
	}
	if len(j.ProbeKeys) == 0 {
		g.badArg = badArg // the build side is dropped, with its SARGs
		return probe, pcols
	}
	g.joins++
	if j.Kind != exec.InnerJoin {
		return j, pcols
	}
	return j, append(slices.Clip(pcols), bcols...)
}

// agg draws a GROUP BY of up to three keyable columns with one to four
// aggregates. MIN/MAX of doubles only at the root (merged): a join or
// filter above would turn the merge's choice of -0.0 into other rows.
func (g *planGen) agg(child exec.Node, cols []outCol, root bool) (exec.Node, []outCol) {
	a := &exec.AggNode{Child: child}
	var out []outCol
	for i := g.pick(4); i > 0; i-- {
		if c := g.pick(len(cols)); cols[c].keyable() && !slices.Contains(a.GroupBy, c) {
			a.GroupBy, out = append(a.GroupBy, c), append(out, cols[c])
		}
	}
	for i := 1 + g.pick(4); i > 0; i-- {
		c := g.pick(len(cols))
		switch f := exec.AggFunc(g.pick(6)); {
		case f == exec.AggCount:
			a.Aggs, out = append(a.Aggs, exec.AggSpec{Func: f}), append(out, outCol{kind: types.Int64, small: true})
		case f == exec.AggCountCol:
			a.Aggs, out = append(a.Aggs, exec.AggSpec{Func: f, Arg: exec.Col(c)}), append(out, outCol{kind: types.Int64, small: true})
		case f == exec.AggMin || f == exec.AggMax:
			o := cols[c]
			if o.kind == types.Float64 && !root {
				continue
			}
			o.merged = o.kind == types.Float64
			a.Aggs, out = append(a.Aggs, exec.AggSpec{Func: f, Arg: exec.Col(c)}), append(out, o)
		case cols[c].kind == types.Int64:
			// SUM and AVG of integers, scaled or not, are exact; over
			// small ones, also a double sum in any order (±2^62 and the
			// small values beside it are one double, so the seeds that
			// move them there keep that true). c + 2^60 runs the int64
			// partials out of room within a query: seven rows fit under
			// 2^63, so 7-row batches flush and larger ones fold into the
			// 128-bit cells.
			cents := exec.Div(exec.Col(c), exec.CInt(100))
			args := []exec.Expr{exec.Col(c), exec.Add(exec.Col(c), exec.CInt(1)), cents, exec.Mul(cents, exec.Col(c)), exec.Add(exec.Col(c), exec.CInt(1<<60)), exec.Mul(exec.Col(c), exec.CFloat(0.5))}
			if !cols[c].small {
				args = args[:len(args)-1]
			}
			o, i := outCol{kind: types.Float64}, g.pick(len(args))
			if i == 5 {
				o.canon = rounded
			}
			a.Aggs, out = append(a.Aggs, exec.AggSpec{Func: f, Arg: args[i]}), append(out, o)
		case cols[c].small && cols[c].kind == types.Float64:
			// Over small doubles, a double sum is exact in any order.
			arg := [...]exec.Expr{exec.Col(c), exec.Add(exec.Col(c), exec.CInt(1)), exec.Mul(exec.Col(c), exec.CFloat(0.5))}[g.pick(3)]
			a.Aggs, out = append(a.Aggs, exec.AggSpec{Func: f, Arg: arg}), append(out, outCol{kind: types.Float64, canon: rounded})
		}
	}
	if len(a.Aggs) == 0 {
		a.Aggs, out = append(a.Aggs, exec.AggSpec{Func: exec.AggCount}), append(out, outCol{kind: types.Int64, small: true})
	}
	return a, out
}

// orderBy sorts by one or two random columns, then by every other column,
// so that rows tie only where they are equal (up to ±0.0 and NaN payloads);
// sometimes with a LIMIT.
func (g *planGen) orderBy(child exec.Node, cols []outCol) *exec.OrderByNode {
	o := &exec.OrderByNode{Child: child}
	lead := g.r.Perm(len(cols))[:min(len(cols), 1+g.pick(2))]
	for _, c := range append(lead, g.r.Perm(len(cols))...) {
		if !slices.ContainsFunc(o.Keys, func(k exec.OrderKey) bool { return k.Col == c }) {
			o.Keys = append(o.Keys, exec.OrderKey{Col: c, Desc: g.pick(2) == 0})
		}
	}
	if g.pick(3) > 0 {
		o.Limit = 1 + g.pick(20)
	}
	return o
}

// plan draws a scan of a, up to three filters, maps and joins (at most two
// joins) on its spine, sometimes a GROUP BY and sometimes an ORDER BY.
func (g *planGen) plan() (exec.Node, []outCol) {
	n, cols := g.scan(g.a, g.n)
	for i := g.pick(4); i > 0; i-- {
		switch g.pick(3) {
		case 0:
			n = &exec.FilterNode{Child: n, Cond: g.cond(cols)}
		case 1:
			n, cols = g.mapNode(n, cols)
		default:
			if g.joins < 2 {
				n, cols = g.join(n, cols)
			}
		}
	}
	if g.pick(2) == 0 {
		n, cols = g.agg(n, cols, true)
	}
	if g.pick(3) == 0 {
		n = g.orderBy(n, cols)
	}
	return n, cols
}

// refRun evaluates plan n a value at a time over rows, each relation's
// rows in scan order.
func refRun(t *testing.T, n exec.Node, rows map[*storage.Relation][]types.Row) []types.Row {
	t.Helper()
	value := func(e exec.Expr, row types.Row) num {
		v, err := evalNum(e, row)
		if err != nil {
			t.Fatalf("the oracle rejects %#v", e)
		}
		return v
	}
	holdsOn := func(e exec.Expr, row types.Row) bool {
		v := value(e, row)
		return !v.IsNull() && v.Int() != 0
	}
	var out []types.Row
	switch n := n.(type) {
	case *exec.ScanNode:
		for _, row := range rows[n.Rel] {
			if slices.ContainsFunc(n.Preds, func(p core.Predicate) bool { return !sargHolds(p, row[p.Col]) }) {
				continue
			}
			proj := make(types.Row, len(n.Cols))
			for i, c := range n.Cols {
				proj[i] = row[c]
			}
			if n.Filter == nil || holdsOn(n.Filter, proj) {
				out = append(out, proj)
			}
		}
	case *exec.FilterNode:
		for _, row := range refRun(t, n.Child, rows) {
			if holdsOn(n.Cond, row) {
				out = append(out, row)
			}
		}
	case *exec.MapNode:
		for _, row := range refRun(t, n.Child, rows) {
			proj := make(types.Row, len(n.Exprs))
			for i, e := range n.Exprs {
				proj[i] = value(e, row).plain()
			}
			out = append(out, proj)
		}
	case *exec.JoinNode:
		out = refJoin(n.Kind, refRun(t, n.Probe, rows), refRun(t, n.Build, rows), n.ProbeKeys, n.BuildKeys)
	case *exec.AggNode:
		in := refRun(t, n.Child, rows)
		groups := refGroups(in, n.GroupBy)
		if len(n.GroupBy) == 0 && len(groups) == 0 {
			groups = [][]types.Row{nil} // no GROUP BY: one row, also over no input
		}
		for _, grp := range groups {
			var row types.Row
			for _, k := range n.GroupBy {
				row = append(row, grp[0][k])
			}
			for _, spec := range n.Aggs {
				if spec.Func == exec.AggCount {
					row = append(row, iv(int64(len(grp))))
					continue
				}
				vals := make([]num, len(grp))
				nonNull := 0
				for i, r := range grp {
					vals[i] = value(spec.Arg, r)
					nonNull += btoi(!vals[i].IsNull())
				}
				switch spec.Func {
				case exec.AggCountCol:
					row = append(row, iv(int64(nonNull)))
				case exec.AggSum, exec.AggAvg:
					row = append(row, sumOf(vals, spec.Func == exec.AggAvg))
				case exec.AggMin, exec.AggMax:
					row = append(row, extremeOf(plain(vals), spec.Func == exec.AggMax))
				}
			}
			out = append(out, row)
		}
	case *exec.OrderByNode:
		out = refRun(t, n.Child, rows)
		slices.SortStableFunc(out, func(a, b types.Row) int {
			for _, k := range n.Keys {
				c := orderCmp(a[k.Col], b[k.Col])
				if k.Desc {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		})
		if n.Limit > 0 && n.Limit < len(out) {
			out = out[:n.Limit]
		}
	default:
		t.Fatalf("refRun: %T", n)
	}
	return out
}

// sargHolds applies a SARG to one value: a comparison is false on NULL and
// IEEE on NaN (holds).
func sargHolds(p core.Predicate, v types.Value) bool {
	switch {
	case p.Op == types.IsNull || p.Op == types.IsNotNull:
		return v.IsNull() == (p.Op == types.IsNull)
	case v.IsNull():
		return false
	case p.Op == types.Between:
		return holds(types.Ge, v, p.Lo) && holds(types.Le, v, p.Hi)
	case p.Op == types.Prefix:
		return strings.HasPrefix(v.Str(), p.Lo.Str())
	default:
		return holds(p.Op, v, p.Lo)
	}
}

// extremeOf is MIN (or MAX) over vals in ORDER BY's order: NULLs skipped,
// the first of equal values kept, NULL when there are none (rendered alike
// whatever its kind). NaN sorts below every number, so it is the least of
// values holding one and the greatest only of values that are all NaN.
func extremeOf(vals []types.Value, greatest bool) types.Value {
	best := null(types.Int64)
	for _, v := range vals {
		if v.IsNull() {
			continue
		}
		if c := orderCmp(v, best); best.IsNull() || (greatest && c > 0) || (!greatest && c < 0) {
			best = v
		}
	}
	return best
}

// canonRows renders rows, each column as its canon allows. With several
// workers a merged column may hold the other of two equal values, and a
// LIMIT may keep the other of two rows equal up to ±0.0 and NaN payloads.
func canonRows(rows []types.Row, cols []outCol, par int, limited bool) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		row = slices.Clone(row)
		for c, v := range row {
			if v.IsNull() || v.Kind() != types.Float64 {
				continue
			}
			f := v.Float()
			level := cols[c].canon
			if par > 1 && (cols[c].merged || limited) {
				level = max(level, tied)
			}
			switch {
			case level == exact:
			case math.IsNaN(f):
				f = math.NaN()
			case level == rounded && !math.IsInf(f, 0):
				f = math.Round(f*100)/100 + 0
			case level >= tied:
				f += 0
			}
			row[c] = fv(f)
		}
		out[i] = render(row)
	}
	return out
}

// planString renders a plan for failure messages.
func planString(n exec.Node) string {
	switch n := n.(type) {
	case *exec.ScanNode:
		return fmt.Sprintf("scan(%d rows, cols=%v preds=%+v filter=%#v)", n.Rel.NumRows(), n.Cols, n.Preds, n.Filter)
	case *exec.FilterNode:
		return fmt.Sprintf("filter(%#v, %s)", n.Cond, planString(n.Child))
	case *exec.MapNode:
		return fmt.Sprintf("map(%#v, %s)", n.Exprs, planString(n.Child))
	case *exec.JoinNode:
		return fmt.Sprintf("join(kind=%d probe=%v build=%v, %s, %s)", n.Kind, n.ProbeKeys, n.BuildKeys, planString(n.Probe), planString(n.Build))
	case *exec.AggNode:
		return fmt.Sprintf("agg(by=%v aggs=%#v, %s)", n.GroupBy, n.Aggs, planString(n.Child))
	case *exec.OrderByNode:
		return fmt.Sprintf("order(%+v limit=%d, %s)", n.Keys, n.Limit, planString(n.Child))
	}
	return fmt.Sprintf("%T", n)
}

// drawKeys redraws colK of a's and b's rows from one of four key sets, so
// that joins on it run both through a keyed table's front and hashed: the
// pools as drawn (extremes: hashed); a shuffled dense range lo..lo+k on
// each side (keyed when the probe side has enough rows); the same with a
// stride of 5 to 8 (too sparse: hashed); dense ranges that overlap in
// part, so that probe keys lie below the build's and build keys above the
// probe's. lo sits at either end of int64 or just below 0, the value a
// NULL cell holds underneath. A NULL the pools drew stays NULL.
func drawKeys(r *rand.Rand, a, b []types.Row) {
	set := r.Intn(4)
	if set == 0 {
		return
	}
	lo := []int64{math.MinInt64, -r.Int63n(8), math.MaxInt64 - 4096}[r.Intn(3)]
	stride := int64(1)
	if set == 2 {
		stride = 5 + r.Int63n(4)
	}
	fill := func(rows []types.Row, from int64) {
		k := 1 + r.Intn(len(rows)+1)
		for i, p := range r.Perm(len(rows)) {
			if !rows[i][colK].IsNull() {
				rows[i][colK] = iv(lo + stride*(from+int64(p%k)))
			}
		}
	}
	fill(a, 0)
	from := int64(0)
	if set == 3 {
		from = r.Int63n(int64(len(a)) + 1)
	}
	fill(b, from)
}

// nearEnds is the bit of a FuzzPlan seed that asks for nearInt64Ends; the
// seeds below it keep the draws they had before it.
const nearEnds = 1 << 40

// nearInt64Ends moves each non-NULL colV value v to v ± 2^62, away from
// zero: a few of them sum past int64, and a scaled product of two leaves
// it.
func nearInt64Ends(rows []types.Row) {
	for _, row := range rows {
		if v := row[colV]; !v.IsNull() {
			row[colV] = iv(v.Int() + map[bool]int64{false: 1 << 62, true: -1 << 62}[v.Int() < 0])
		}
	}
}

// FuzzPlan draws one plan and its data from seed and holds every mode ×
// storage state × parallelism 1 and 4 to refRun: in order on one worker,
// as a multiset on four. A plan with a SARG constant of the wrong kind
// must fail everywhere, with one error. A seed with bit nearEnds of its
// magnitude set moves the small int column near ±2^62 (nearInt64Ends).
func FuzzPlan(f *testing.F) {
	for seed := int64(0); seed < 96; seed++ {
		f.Add(seed)
	}
	for seed := int64(0); seed < 16; seed++ {
		f.Add(nearEnds + seed)
	}
	// Plans whose SUM or AVG of c + 2^60 runs the int64 partials out of
	// room in every storage state, so that they flush mid-query, and whose
	// sums then leave int64: a fold that skips the flush wraps them.
	for _, seed := range []int64{812, 1500, 2229, 2583} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		n, m := r.Intn(256), r.Intn(64)
		if r.Intn(8) == 0 {
			n = 0
		}
		if r.Intn(8) == 0 {
			m = 0
		}
		aRows, aDead := oracleRows(r, n)
		bRows, bDead := oracleRows(r, m)
		vecSize := []int{0, 7, 64}[r.Intn(3)]
		planSeed := r.Int63()
		drawKeys(r, aRows, bRows)
		if seed/nearEnds%2 != 0 {
			nearInt64Ends(aRows)
			nearInt64Ends(bRows)
		}
		wantErr := ""
		for _, state := range oracleStates {
			a, aVis, resetA := oracleRel(t, aRows, aDead, state)
			b, bVis, resetB := oracleRel(t, bRows, bDead, state)
			// The same draws over this state's relations: the same plan.
			g := &planGen{r: rand.New(rand.NewSource(planSeed)), a: a, b: b, n: n, m: m}
			plan, cols := g.plan()
			var want []types.Row
			if !g.badArg {
				want = refRun(t, plan, map[*storage.Relation][]types.Row{a: aVis, b: bVis})
			}
			ob, _ := plan.(*exec.OrderByNode)
			limited := ob != nil && ob.Limit > 0
			desc := planString(plan)
			for _, mode := range []exec.ScanMode{exec.ModeJIT, exec.ModeVectorized, exec.ModeVectorizedSARG, exec.ModeVectorizedSARGPSMA} {
				for _, par := range []int{1, 4} {
					resetA()
					resetB()
					name := fmt.Sprintf("seed %d, %s, %v, par %d, vector %d: %s", seed, state, mode, par, vecSize, desc)
					res, err := exec.Run(plan, exec.Options{Mode: mode, Parallelism: par, VectorSize: vecSize})
					if g.badArg {
						if err == nil {
							t.Fatalf("%s: a SARG of the wrong kind ran", name)
						}
						if wantErr == "" {
							wantErr = err.Error()
						}
						if err.Error() != wantErr {
							t.Fatalf("%s: error %q, elsewhere %q", name, err, wantErr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got := make([]types.Row, res.NumRows())
					for i := range got {
						got[i] = res.Row(i)
					}
					requireRows(t, name, canonRows(got, cols, par, limited), canonRows(want, cols, par, limited), par == 1)
				}
			}
		}
	})
}

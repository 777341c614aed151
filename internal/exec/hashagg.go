package exec

import (
	"cmp"
	"math"
	"math/big"
	"math/bits"

	"datablocks/internal/core"
	"datablocks/internal/simd"
	"datablocks/internal/types"
)

// aggregator is a per-worker hash-aggregation sink. Group state is flat
// arrays the simd kernels fold whole argument vectors into, instead of
// chasing a per-group state struct per row: a row-major block of int64
// cells, 1 + k per group — the group's rows, then each of its k integer
// SUM/AVG partials —, and per-aggregate arrays indexed [aggregate][group
// id] for the rest.
//
// Groups are the entries of the embedded keyTable, resolved one way
// whatever feeds the sink: a batch's group-by columns are bound to its
// keys and resolved — or, straight from a coded scan, looked up by code
// (codeTable) — or another worker's table is absorbed (merge). Group ids
// are dense and issued in first-seen row order, which is the order
// finalize renders. Aggregations without GROUP BY skip all of that and
// fold straight into group 0.
//
// Every mode feeds it batches (consumeBatch): the vectorized scan's, or
// those the batcher ending ModeJIT's tuple chain fills. Arguments are
// evaluated as vectors and scatter-folded by group-id vector, in row
// order, so every mode's serial result is bit-identical.
//
// Each argument of a COUNT(col), SUM or AVG that brings NULLs counts those
// (evalSlot.nullRows): those aggregates read rows − NULLs, so no fold
// bumps a count of its own. A SUM or AVG of an integer, scaled or not, is
// exact. Without GROUP BY it folds into a 128-bit cell in registers
// (simd.SumInt64). Grouped, it folds into its int64 partial in the block:
// one pass per batch (simd.GroupFold) reads each row's group id once,
// bumps the row count and adds every NULL-free argument with room, and an
// argument that brings NULLs takes a masked pass into its own cell
// (simd.GroupAddInt64). It has room while the aggregate's running bound
// Σ n·max|v| over the batches folded into its partials stays below 2^63
// (simd.SumBound; max|v| from the argument's range, intRange, or one
// simd.MinMaxInt64 pass where that is unknown). Where the next batch's
// bound would take it to 2^63, that aggregate's partials are flushed into
// a 128-bit cell per group first — unless the groups outnumber the rows
// the partials could take before the next flush: then, as for a batch
// whose own bound reaches 2^63, the batch folds straight into the cells
// (simd.GroupSumInt64). merge and finalize flush before they read, and
// finalize rounds each sum to a double once: the same for every fold
// order, batch split, worker count and mode.
type aggregator struct {
	keyTable // group keys → group id; keys has one column per group-by ordinal

	node     *AggNode
	argKinds []types.Kind
	argScale []uint8 // a scaled sum's scale

	// accIdx maps each aggregate to its canonical accumulator: aggregates
	// whose folds are identical — SUM(x)/AVG(x) (same sum+count),
	// MIN(x)/MAX(x) (one fold maintains both bounds), repeated COUNTs —
	// share one accumulator row, folded once per batch. accIdx[i] == i
	// marks the canonical aggregate; the rest only read at finalize.
	accIdx []int

	// Argument evaluation slots. Aggregates with an identical (argument
	// expression, evaluation kind) share a slot, so e.g. SUM(x) and AVG(x)
	// evaluate x once per batch.
	argSlot []int // per agg; -1 for COUNT(*)
	slots   []evalSlot
	// cse is the vectorized compiler's common-subexpression state; the
	// batch path bumps its epoch before evaluating each batch's slots.
	cse *vcse

	// The block: w cells per group, the group's rows at 0 and, at cell[i],
	// integer sum i's partial since its last flush (grouped only).
	cells []int64
	w     int
	cell  []int     // per agg; 0 for none
	fold  [][]int64 // the columns of the batch's pass, one per partial (scratch)
	zeros []int64   // the column of a partial the pass leaves alone
	// Columnar accumulators, indexed [agg][gid].
	sums    [][]float64
	bound   []uint64      // per agg: Σ n·max|v| over what its partials hold
	isums   [][][2]uint64 // flushed integer sums (simd.SumInt64's cells)
	flushed int           // partial cells flushed into isums, all told
	minI    [][]int64
	maxI    [][]int64
	minF    [][]float64
	maxF    [][]float64
	minS    [][]string
	maxS    [][]string
	seen    [][]bool

	groups int // the groups the accumulators have cells for

	codes codeTable
}

// evalSlot is one distinct aggregate argument: its evaluator, one of f*
// by kind (an integer's with its range), and the batch's values, which
// alias the evaluator's scratch and are valid until the next batch. An
// argument of a COUNT(col), SUM or AVG (counted) counts its NULL rows per
// group from the first batch that has any: those read rows less them.
type evalSlot struct {
	kind     types.Kind
	counted  bool
	fI       vecFn[int64]
	rng      rangeFn
	fF       vecFn[float64]
	fS       vecFn[string]
	ints     []int64
	floats   []float64
	strs     []string
	nulls    []bool
	nullRows []int64
}

// newAggregator builds a worker's sink for node, lowering the checked
// aggregate arguments (nil for COUNT(*)) to vectorized slots.
func newAggregator(node *AggNode, inKinds []types.Kind, args []*checked) *aggregator {
	n := len(node.Aggs)
	a := &aggregator{
		node:     node,
		argKinds: make([]types.Kind, n),
		argScale: make([]uint8, n),
		sums:     make([][]float64, n),
		cell:     make([]int, n),
		w:        1,
		bound:    make([]uint64, n),
		isums:    make([][][2]uint64, n),
		minI:     make([][]int64, n),
		maxI:     make([][]int64, n),
		minF:     make([][]float64, n),
		maxF:     make([][]float64, n),
		minS:     make([][]string, n),
		maxS:     make([][]string, n),
		seen:     make([][]bool, n),
	}
	a.keys = make([]keyCol, len(node.GroupBy))
	for i, g := range node.GroupBy {
		a.keys[i].kind = inKinds[g]
	}
	// Deduplicate identical folds into canonical accumulators. The fold
	// class captures which accumulator rows a fold writes: SUM and AVG
	// both maintain (sum, count); MIN and MAX both maintain the (min,
	// max, seen) triple. Expr values are comparable structs, so equal
	// argument trees compare equal as map keys.
	type foldKey struct {
		cls int
		arg Expr
	}
	a.accIdx = make([]int, n)
	canon := make(map[foldKey]int, n)
	for i, spec := range node.Aggs {
		var cls int
		switch spec.Func {
		case AggCount:
			cls = 0
		case AggCountCol:
			cls = 1
		case AggSum, AggAvg:
			cls = 2
		default:
			cls = 3
		}
		k := foldKey{cls: cls, arg: spec.Arg}
		if j, ok := canon[k]; ok {
			a.accIdx[i] = j
		} else {
			canon[k] = i
			a.accIdx[i] = i
		}
		if args[i] != nil {
			a.argKinds[i], a.argScale[i] = args[i].kind, args[i].scale
		}
		if cls == 2 && a.accIdx[i] == i && a.argKinds[i] == types.Int64 && len(node.GroupBy) > 0 {
			a.cell[i], a.w = a.w, a.w+1
		}
	}
	a.fold = make([][]int64, a.w-1)
	a.vectorize(args)
	return a
}

// vectorize compiles the batch-at-a-time argument evaluators, deduplicating
// identical arguments into shared slots.
func (a *aggregator) vectorize(args []*checked) {
	type slotKey struct {
		e    Expr
		kind types.Kind
	}
	// One CSE scope across every slot: repeated subtrees (an argument
	// reused inside a larger expression, e.g. Q1's discounted price
	// inside its charge) evaluate once per batch. evalSlots bumps the
	// epoch, so the scope is exactly one batch.
	vc := &vcompiler{cse: &vcse{floats: map[Expr]vecFn[float64]{}, ints: map[Expr]vecFn[int64]{}, rows: map[Expr]func(*core.Batch) []uint32{}}}
	a.argSlot = make([]int, len(args))
	seen := make(map[slotKey]int)
	for i, arg := range args {
		if arg == nil {
			a.argSlot[i] = -1
			continue
		}
		// The evaluation kind is the checked argument's: a MIN or MAX of a
		// scaled integer is its double.
		k := slotKey{e: a.node.Aggs[i].Arg, kind: arg.kind}
		counted := a.node.Aggs[i].Func != AggMin && a.node.Aggs[i].Func != AggMax
		if id, ok := seen[k]; ok {
			a.argSlot[i] = id
			a.slots[id].counted = a.slots[id].counted || counted
			continue
		}
		sl := evalSlot{kind: arg.kind, counted: counted}
		switch arg.kind {
		case types.Int64:
			sl.fI, sl.rng = vc.int(arg), vc.intRange(arg)
		case types.Float64:
			sl.fF = vc.float(arg)
		default:
			sl.fS = vc.str(arg)
		}
		seen[k] = len(a.slots)
		a.argSlot[i] = len(a.slots)
		a.slots = append(a.slots, sl)
	}
	a.cse = vc.cse
}

// evalSlots evaluates every distinct aggregate argument once for the batch.
//
//dbvet:hotpath
func (a *aggregator) evalSlots(b *core.Batch) {
	// New batch, new CSE epoch: memoized subtrees recompute on first use.
	a.cse.epoch++
	slots := a.slots
	for s := range slots {
		sl := &slots[s]
		switch sl.kind {
		case types.Int64:
			sl.ints, sl.nulls = sl.fI(b)
		case types.Float64:
			sl.floats, sl.nulls = sl.fF(b)
		default:
			sl.strs, sl.nulls = sl.fS(b)
		}
	}
}

// grow appends zeroed accumulator cells, in every array a canonical
// aggregate folds into, for the groups the key table has entered since
// the last call.
func (a *aggregator) grow() {
	n := a.entries - a.groups
	if n == 0 {
		return
	}
	a.groups = a.entries
	a.cells = append(a.cells, make([]int64, n*a.w)...)
	for s := range a.slots {
		if sl := &a.slots[s]; sl.nullRows != nil {
			sl.nullRows = append(sl.nullRows, make([]int64, n)...)
		}
	}
	for i, spec := range a.node.Aggs {
		if a.accIdx[i] != i {
			continue
		}
		switch spec.Func {
		case AggSum, AggAvg:
			if a.argKinds[i] == types.Int64 {
				a.isums[i] = append(a.isums[i], make([][2]uint64, n)...)
			} else {
				a.sums[i] = append(a.sums[i], make([]float64, n)...)
			}
		case AggMin, AggMax:
			a.seen[i] = append(a.seen[i], make([]bool, n)...)
			switch a.argKinds[i] {
			case types.Int64:
				a.minI[i], a.maxI[i] = append(a.minI[i], make([]int64, n)...), append(a.maxI[i], make([]int64, n)...)
			case types.Float64:
				a.minF[i], a.maxF[i] = append(a.minF[i], make([]float64, n)...), append(a.maxF[i], make([]float64, n)...)
			default:
				a.minS[i], a.maxS[i] = append(a.minS[i], make([]string, n)...), append(a.maxS[i], make([]string, n)...)
			}
		}
	}
}

// widen extends group g's running [min, max] to cover [mn, mx], in the
// order cmp.Compare defines: for doubles NaN sorts below every number,
// as in simd.MinMaxFloat64, so a merge agrees with the fold kernels.
func widen[T cmp.Ordered](mins, maxs []T, seen []bool, g uint32, mn, mx T) {
	if !seen[g] {
		mins[g], maxs[g], seen[g] = mn, mx, true
		return
	}
	if cmp.Less(mn, mins[g]) {
		mins[g] = mn
	}
	if cmp.Less(maxs[g], mx) {
		maxs[g] = mx
	}
}

// globalGroup creates group 0 of an aggregation without GROUP BY, unless
// it exists.
func (a *aggregator) globalGroup() {
	a.entries = 1
	a.grow()
}

// consumeBatch folds a whole batch.
//
//dbvet:hotpath
func (a *aggregator) consumeBatch(b *core.Batch) {
	if b.N == 0 {
		return
	}
	a.evalSlots(b)
	if len(a.keys) == 0 {
		a.foldBatchSingle(b)
		return
	}
	var gids []uint32
	if b.Cols[a.node.GroupBy[0]].Domain != nil {
		a.bindCodes(b)
		gids = a.assignCodes(b.N)
	} else {
		bindBatch(a.keys, b, a.node.GroupBy)
		gids = a.resolve(b.N)
	}
	a.grow()
	a.countNulls(b.N, gids)
	aggs := a.node.Aggs
	argSlot := a.argSlot[:len(aggs)]
	accIdx := a.accIdx[:len(aggs)]
	sums := a.sums[:len(aggs)]
	for i, spec := range aggs {
		if accIdx[i] != i || spec.Func == AggCount || spec.Func == AggCountCol {
			continue // an identical fold feeds this accumulator, or a count
		}
		sl := &a.slots[argSlot[i]]
		switch {
		case spec.Func == AggMin || spec.Func == AggMax:
			a.foldBatchMinMax(i, sl, gids)
		case sl.kind == types.Int64:
			a.sumInts(i, sl, b, gids)
		default:
			simd.GroupSumFloat64(sums[i], gids, sl.floats, sl.nulls)
		}
	}
	simd.GroupFold(a.cells, a.w, gids, a.fold)
}

// countNulls adds the NULL rows of every counted argument that has any in
// the batch to their groups' NULL counts — all n rows' to group 0 when
// gids is nil. It loops over arguments, not rows: the row loops are the
// simd kernels'.
func (a *aggregator) countNulls(n int, gids []uint32) {
	for s := range a.slots {
		sl := &a.slots[s]
		if sl.nulls == nil || !sl.counted {
			continue
		}
		if sl.nullRows == nil {
			sl.nullRows = grow[int64](a.groups)
		}
		if gids == nil {
			sl.nullRows[0] += int64(n) - simd.CountNotNull(n, sl.nulls)
		} else {
			simd.GroupCountNulls(sl.nullRows, gids, sl.nulls)
		}
	}
}

// sumInts folds integer argument sl of batch b into SUM/AVG i's int64
// partials by group when the bound the partials already hold leaves room
// for the batch's. When it does not, the partials are flushed first if
// the rows they can then take before the next flush are at least the
// groups a flush walks; otherwise, and when the batch alone may leave
// int64, the batch folds into the 128-bit cells. A NULL-free argument
// with room is left to the batch's one pass: sumInts sets it as the
// pass's column, and a column of zeros otherwise.
//
//dbvet:hotpath
func (a *aggregator) sumInts(i int, sl *evalSlot, b *core.Batch, gids []uint32) {
	lo, hi := bounds(sl.rng, b, sl.ints, sl.nulls)
	need, room := simd.SumBound(b.N, lo, hi)
	if room && a.bound[i]+need >= 1<<63 {
		// A flush walks every group: it pays when the partials then take
		// more rows than that before the next one. need ≥ 1 here, as the
		// bound alone is below 2^63.
		room = uint64(a.groups) <= uint64(b.N)*((1<<63-1)/need)
		if room {
			a.flush(i)
		}
	}
	c := a.cell[i]
	if !room {
		simd.GroupSumInt64(a.isums[i], gids, sl.ints, sl.nulls)
	} else if a.bound[i] += need; sl.nulls != nil {
		simd.GroupAddInt64(a.cells, a.w, c, gids, sl.ints, sl.nulls)
	} else {
		a.fold[c-1] = sl.ints
		return
	}
	a.zeros = resize(a.zeros, b.N)
	a.fold[c-1] = a.zeros
}

// flush adds integer sum i's int64 partials to its 128-bit cells and
// zeroes them, with their bound.
func (a *aggregator) flush(i int) {
	for g, c := 0, a.cell[i]; g < a.groups; g, c = g+1, c+a.w {
		p := a.cells[c]
		add128(&a.isums[i][g], [2]uint64{uint64(p), uint64(p >> 63)})
		a.cells[c] = 0
	}
	a.flushed += a.groups
	a.bound[i] = 0
}

// flushAll flushes every integer sum's partials.
func (a *aggregator) flushAll() {
	for i, c := range a.cell {
		if c > 0 {
			a.flush(i)
		}
	}
}

// add128 adds x to s, both 128-bit two's complement cells.
func add128(s *[2]uint64, x [2]uint64) {
	var c uint64
	s[0], c = bits.Add64(s[0], x[0], 0)
	s[1] += x[1] + c
}

// foldBatchSingle is the no-GROUP-BY fast path: one global group, folded
// column-at-a-time with the sequential simd kernels — no hash table at all.
//
//dbvet:hotpath
func (a *aggregator) foldBatchSingle(b *core.Batch) {
	a.globalGroup()
	n := b.N
	a.cells[0] += int64(n)
	a.countNulls(n, nil)
	// Aggregate-indexed accesses are proven by re-slicing every
	// accumulator table to the aggregate count; the row-0 accesses into
	// each accumulator row stay checked (run-time group count, see
	// lint-budget.json).
	aggs := a.node.Aggs
	argSlot := a.argSlot[:len(aggs)]
	accIdx := a.accIdx[:len(aggs)]
	sums, isums, seen := a.sums[:len(aggs)], a.isums[:len(aggs)], a.seen[:len(aggs)]
	minI, maxI := a.minI[:len(aggs)], a.maxI[:len(aggs)]
	minF, maxF := a.minF[:len(aggs)], a.maxF[:len(aggs)]
	minS, maxS := a.minS[:len(aggs)], a.maxS[:len(aggs)]
	for i, spec := range aggs {
		if accIdx[i] != i || spec.Func == AggCount || spec.Func == AggCountCol {
			continue // an identical fold feeds this accumulator, or a count
		}
		sl := &a.slots[argSlot[i]]
		switch spec.Func {
		case AggSum, AggAvg:
			if sl.kind == types.Int64 {
				cell := &isums[i][0]
				*cell = simd.SumInt64(*cell, sl.ints, sl.nulls)
			} else {
				cell := &sums[i][0]
				*cell, _ = simd.SumFloat64(*cell, sl.floats, sl.nulls)
			}
		default: // MIN, MAX
			switch sl.kind {
			case types.Int64:
				if mn, mx, any := simd.MinMaxInt64(sl.ints, sl.nulls); any {
					widen(minI[i], maxI[i], seen[i], 0, mn, mx)
				}
			case types.Float64:
				if mn, mx, any := simd.MinMaxFloat64(sl.floats, sl.nulls); any {
					widen(minF[i], maxF[i], seen[i], 0, mn, mx)
				}
			default:
				vals := sl.strs[:n]
				nulls := sl.nulls
				if nulls != nil {
					nulls = nulls[:n]
				}
				for r, v := range vals {
					if nulls == nil || !nulls[r] {
						widen(minS[i], maxS[i], seen[i], 0, v, v)
					}
				}
			}
		}
	}
}

//dbvet:hotpath
func (a *aggregator) foldBatchMinMax(i int, sl *evalSlot, gids []uint32) {
	switch sl.kind {
	case types.Int64:
		simd.GroupMinMaxInt64(a.minI[i], a.maxI[i], a.seen[i], gids, sl.ints, sl.nulls)
	case types.Float64:
		simd.GroupMinMaxFloat64(a.minF[i], a.maxF[i], a.seen[i], gids, sl.floats, sl.nulls)
	default:
		vals := sl.strs[:len(gids)]
		nulls := sl.nulls
		if nulls != nil {
			nulls = nulls[:len(gids)]
		}
		mins, maxs, seen := a.minS[i], a.maxS[i], a.seen[i]
		for r, g := range gids {
			if nulls == nil || !nulls[r] {
				widen(mins, maxs, seen, g, vals[r], vals[r])
			}
		}
	}
}

// merge folds another worker's partial groups into this aggregator, in the
// other worker's first-seen group order (re-aggregation across morsels,
// cf. morsel-driven parallelism [20]): its key table is absorbed, so
// groups match by hash + raw key cells. The other worker's integer sums
// are flushed first, and added cell to cell.
func (a *aggregator) merge(o *aggregator) {
	if o.groups == 0 {
		return
	}
	gids := []uint32{0}
	if len(a.keys) == 0 {
		a.globalGroup()
	} else {
		gids = a.absorb(&o.keyTable)
		a.grow()
	}
	o.flushAll()
	for s := range o.slots {
		if on := o.slots[s].nullRows; on != nil {
			an := &a.slots[s].nullRows
			if *an == nil {
				*an = make([]int64, a.groups)
			}
			for g, gid := range gids {
				(*an)[gid] += on[g]
			}
		}
	}
	for g, gid := range gids {
		og := uint32(g)
		a.cells[int(gid)*a.w] += o.cells[g*o.w]
		for i, spec := range a.node.Aggs {
			if a.accIdx[i] != i {
				continue // an identical fold already feeds this accumulator
			}
			switch spec.Func {
			case AggSum, AggAvg:
				if a.argKinds[i] == types.Int64 {
					add128(&a.isums[i][gid], o.isums[i][og])
				} else {
					a.sums[i][gid] += o.sums[i][og]
				}
			case AggMin, AggMax:
				if !o.seen[i][og] {
					continue
				}
				switch a.argKinds[i] {
				case types.Int64:
					widen(a.minI[i], a.maxI[i], a.seen[i], gid, o.minI[i][og], o.maxI[i][og])
				case types.Float64:
					widen(a.minF[i], a.maxF[i], a.seen[i], gid, o.minF[i][og], o.maxF[i][og])
				default:
					widen(a.minS[i], a.maxS[i], a.seen[i], gid, o.minS[i][og], o.maxS[i][og])
				}
			}
		}
	}
}

// canonNaN maps every NaN to the canonical quiet NaN. A float sum that
// hits Inf + -Inf manufactures a NaN whose payload depends on the ADDSD
// operand order, which the compiler picks per build, and the simd sum
// kernels pass it on as it is: finalize canonicalizes every float SUM and
// AVG, so results stay bit-identical across folds and builds even for
// NaN-producing inputs.
func canonNaN(x float64) float64 {
	if x != x {
		return math.NaN()
	}
	return x
}

// finalize renders the aggregation result in first-seen group order: the
// key columns straight from the stored key cells, the aggregates from
// their canonical accumulators (aggregates with identical folds share one
// row — SUM/AVG, MIN/MAX pairs), after flushing the integer sums.
func (a *aggregator) finalize(outKinds []types.Kind) *Result {
	a.flushAll()
	res := NewResult(outKinds)
	n := a.groups
	res.n = n
	for c := range a.keys {
		k, col := &a.keys[c], &res.Cols[c]
		col.Nulls = k.gNull
		switch col.Kind {
		case types.Int64:
			col.Ints = k.gInt
		case types.Float64:
			col.Floats = make([]float64, n)
			for g, bits := range k.gInt {
				col.Floats[g] = math.Float64frombits(uint64(bits))
			}
		default:
			col.Strs = k.gStr
		}
	}
	for i, spec := range a.node.Aggs {
		col := &res.Cols[len(a.keys)+i]
		ci := a.accIdx[i]
		col.Nulls = make([]bool, n)
		switch spec.Func {
		case AggCount, AggCountCol:
			col.Ints = a.nonNull(ci)
		case AggSum, AggAvg:
			// A sum's NULL-ness is its non-null count being zero; the fold
			// kernels don't maintain seen for sums.
			col.Floats = make([]float64, n)
			for g, cnt := range a.nonNull(ci) {
				if spec.Func == AggSum {
					cnt = min(cnt, 1) // divides by 1, or is NULL
				}
				switch {
				case cnt == 0:
					col.Nulls[g] = true
				case a.argKinds[ci] == types.Int64:
					col.Floats[g] = exactQuo(a.isums[ci][g], cnt, a.argScale[ci])
				default:
					col.Floats[g] = canonNaN(a.sums[ci][g] / float64(cnt))
				}
			}
		case AggMin, AggMax:
			isMin := spec.Func == AggMin
			switch a.argKinds[i] {
			case types.Int64:
				col.Ints = append(col.Ints, pick(isMin, a.minI[ci], a.maxI[ci])...)
			case types.Float64:
				col.Floats = append(col.Floats, pick(isMin, a.minF[ci], a.maxF[ci])...)
			default:
				col.Strs = append(col.Strs, pick(isMin, a.minS[ci], a.maxS[ci])...)
			}
			for g, seen := range a.seen[ci] {
				col.Nulls[g] = !seen
			}
		}
	}
	return res
}

// nonNull is each group's count of aggregate i's non-NULL arguments: its
// rows less its NULL ones (COUNT(*) has no argument).
func (a *aggregator) nonNull(i int) []int64 {
	counts := make([]int64, a.groups)
	for g := range counts {
		counts[g] = a.cells[g*a.w]
	}
	if s := a.argSlot[i]; s >= 0 {
		for g, k := range a.slots[s].nullRows {
			counts[g] -= k
		}
	}
	return counts
}

// exactQuo is the double nearest to sum/(n·10^k), sum a 128-bit cell:
// one division of two doubles where both are exact, else of two big
// integers.
func exactQuo(sum [2]uint64, n int64, k uint8) float64 {
	const exact = 1 << 53
	v := int64(sum[0])
	if d, ok := arithInt64('*', n, pow10[k]); ok && d <= exact && sum[1] == uint64(v>>63) && -exact <= v && v <= exact {
		return float64(v) / float64(d)
	}
	// The high word is signed, the low one not.
	num := new(big.Int).Lsh(big.NewInt(int64(sum[1])), 64)
	num.Add(num, new(big.Int).SetUint64(sum[0]))
	f, _ := new(big.Rat).SetFrac(num, new(big.Int).Mul(big.NewInt(n), big.NewInt(pow10[k]))).Float64()
	return f
}

func pick[T any](first bool, a, b T) T {
	if first {
		return a
	}
	return b
}

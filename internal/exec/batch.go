package exec

import (
	"slices"

	"datablocks/internal/core"
	"datablocks/internal/types"
)

// This file lowers an operator chain into a batch-at-a-time consumer — the
// vectorized twin of compileChain. Where the tuple chain pushes one record
// file through fused closures, the batch chain hands whole core.Batch
// vectors from operator to operator: filters compact the batch with a
// selection vector, maps evaluate their expressions column-at-a-time, and
// join probes hash whole key vectors against the build table before
// gathering the joined output columnar-wise.
//
// Every operator's output batch owns its buffers (reused across calls), so
// downstream in-place compaction can never corrupt an upstream vector.

// batchConsumer consumes one batch. The batch's buffers are only valid for
// the duration of the call.
type batchConsumer func(*core.Batch)

// compileBatchChain lowers the chain above the scan into a batch consumer
// feeding down: vectorized modes run this chain or nothing.
func (ex *executor) compileBatchChain(n Node, down batchConsumer, wp *workerProf) batchConsumer {
	// down consumes n's output batches: the wrapper counts n's emitted
	// rows/batches and times the downstream chain (see compileChain).
	down = wp.wrapBatch(ex.profIdx(n), down)
	switch n := n.(type) {
	case *FilterNode:
		vc := &vcompiler{}
		p := ex.plan.nodes[n]
		f := &batchFilter{sel: vc.sel(p.exprs[0]), live: p.live, down: down}
		return ex.compileBatchChain(n.Child, f.consume, wp)
	case *MapNode:
		return ex.compileBatchChain(n.Child, ex.compileBatchMap(n, down).consume, wp)
	case *JoinNode:
		return ex.compileBatchChain(n.Probe, ex.compileBatchJoin(n, down).consume, wp)
	default: // the ScanNode: prepareBuilds admitted nothing else
		return down
	}
}

// vconjunct is one top-level conjunct of a scan's residual condition,
// compiled as a selection function, plus the scan-output columns it reads.
// The lazy scan unpacks exactly those columns before evaluating it.
type vconjunct struct {
	cols []int
	sel  selFn
}

// batchFilter drops batch rows failing the compiled condition by
// compacting the batch's live columns in place.
type batchFilter struct {
	sel  selFn
	live []bool
	all  []uint32
	down batchConsumer
}

//dbvet:hotpath
func (f *batchFilter) consume(b *core.Batch) {
	f.all = selAll(f.all, b.N)
	compactBatchSel(b, f.sel(b, f.all), f.live)
	if b.N > 0 {
		f.down(b)
	}
}

// compactBatchSel keeps only the selected rows of b's live columns, in
// order, in place: sel ascends, so each gather reads a row before any
// write reaches it. Selecting every row leaves b as it is.
//
//dbvet:hotpath
func compactBatchSel(b *core.Batch, sel []uint32, live []bool) {
	if len(sel) == b.N {
		return
	}
	// A local, so the calls cannot change its length; a scan's batch has
	// no columns until it unpacks one.
	cols := b.Cols[:min(len(live), len(b.Cols))]
	live = live[:len(cols)]
	for ci := range cols {
		if live[ci] {
			core.Gather(&cols[ci].ColumnData, &cols[ci].ColumnData, sel)
		}
	}
	if len(b.Pos) > 0 {
		b.Pos = core.GatherVec(b.Pos, b.Pos, sel)
	}
	b.N = len(sel)
}

// batchMap computes a new batch layout column-at-a-time. Output columns
// are always copied into map-owned buffers (a ColRef projection could
// otherwise alias one source column twice, which would break downstream
// in-place compaction).
type batchMap struct {
	setters []func(in *core.Batch, out *core.BatchCol)
	out     core.Batch
	down    batchConsumer
}

func (ex *executor) compileBatchMap(n *MapNode, down batchConsumer) *batchMap {
	vc := &vcompiler{}
	m := &batchMap{down: down}
	m.out.Cols = make([]core.BatchCol, len(n.Exprs))
	for _, e := range ex.plan.nodes[n].exprs {
		switch e.kind {
		case types.Int64:
			m.setters = append(m.setters, mapSetter(vc.int(e), e.kind, func(c *core.BatchCol) *[]int64 { return &c.Ints }))
		case types.Float64:
			m.setters = append(m.setters, mapSetter(vc.float(e), e.kind, func(c *core.BatchCol) *[]float64 { return &c.Floats }))
		default:
			m.setters = append(m.setters, mapSetter(vc.str(e), e.kind, func(c *core.BatchCol) *[]string { return &c.Strs }))
		}
	}
	return m
}

// mapSetter copies what f evaluates to into the output column's vector of
// f's kind, which vec picks.
func mapSetter[T any](f vecFn[T], kind types.Kind, vec func(*core.BatchCol) *[]T) func(in *core.Batch, out *core.BatchCol) {
	return func(in *core.Batch, out *core.BatchCol) {
		vals, nulls := f(in)
		out.Kind = kind
		dst := vec(out)
		*dst = resize(*dst, in.N)
		copy(*dst, vals)
		out.Nulls = copyNulls(out.Nulls, nulls, in.N)
	}
}

func copyNulls(dst, src []bool, n int) []bool {
	if src == nil {
		return nil
	}
	dst = resize(dst, n)
	copy(dst, src[:n])
	return dst
}

//dbvet:hotpath
func (m *batchMap) consume(b *core.Batch) {
	m.out.N = b.N
	m.out.Pos = append(m.out.Pos[:0], b.Pos...)
	cols := m.out.Cols[:len(m.setters)]
	for i, set := range m.setters {
		set(b, &cols[i])
	}
	m.down(&m.out)
}

// batchJoinProbe is one worker's probe state for one hash join, shared by
// both chains: the batch chain binds a whole batch of probe keys and
// probes them at once, the tuple chain binds one tuple and probes at n = 1
// through the same code. A probe finds each row's entry — in a keyed
// table at dir[key−lo], otherwise by hash vector (hashKeyCol) → tag test
// → one lookup of the row's key (keyTable.lookup, which verifies it) —
// and emits the entry's chain of build rows, unverified; the (probe row,
// build row) pairs come out in probe order, and per probe row in
// ascending build-row order. A semi or anti join's match is the entry
// itself.
type batchJoinProbe struct {
	ht   *hashTable
	node *JoinNode
	// kt is this worker's view of the table: slots and stored key side
	// shared and read-only, its own key columns' probe side bound per
	// batch or tuple.
	kt keyTable

	np   int    // probe column count
	live []bool // the join's output columns its consumer reads
	down batchConsumer

	out    core.Batch
	hashes []uint64
	ents   []int32
	pairsP []uint32
	pairsB []uint32
	all    []uint32
	sel    []uint32
}

// newJoinProbe allocates a worker's probe state for join n (the plan check
// matched the probe keys to the build keys in number and kind).
func (ex *executor) newJoinProbe(n *JoinNode) *batchJoinProbe {
	ht := ex.builds[n]
	j := &batchJoinProbe{ht: ht, node: n, np: len(ex.plan.nodes[n.Probe].kinds), live: ex.plan.nodes[n].live}
	j.kt = keyTable{groupTable: ht.groupTable, keys: slices.Clone(ht.keys)}
	return j
}

func (ex *executor) compileBatchJoin(n *JoinNode, down batchConsumer) *batchJoinProbe {
	j := ex.newJoinProbe(n)
	j.down = down
	if n.Kind == InnerJoin {
		j.out.Cols = make([]core.BatchCol, j.np+len(j.ht.rows))
	}
	return j
}

//dbvet:hotpath
func (j *batchJoinProbe) consume(b *core.Batch) {
	bindBatch(j.kt.keys, b, j.node.ProbeKeys)
	j.matchPairs(b.N)
	if j.node.Kind == InnerJoin {
		j.consumeInner(b)
		return
	}
	j.consumeSemiAnti(b)
}

// matchPairs probes the n rows bound to j.kt.keys and fills pairsP with
// the matching probe rows, and for an inner join pairsB with their build
// rows: first each row's entry, or -1, then one emission loop. A row with
// a NULL key cell finds none: NULL never joins.
//
//dbvet:hotpath
func (j *batchJoinProbe) matchPairs(n int) {
	j.pairsP = j.pairsP[:0]
	j.pairsB = j.pairsB[:0]
	j.ents = resize(j.ents, n)
	ents := j.ents[:n]
	keys := j.kt.keys
	ht, inner := j.ht, j.node.Kind == InnerJoin
	if ht.keyed {
		// A key outside the front misses on the one unsigned compare.
		ints, dir, lo := keys[0].ints[:n], ht.dir, ht.lo
		for r, k := range ints {
			ents[r] = -1
			if i := uint64(k) - uint64(lo); i < uint64(len(dir)) {
				ents[r] = int32(dir[i]) - 1
			}
		}
	} else {
		j.hashes = resize(j.hashes, n)
		hs := j.hashes[:n]
		for k := range keys {
			hashKeyCol(hs, k == 0, &keys[k])
		}
		for r, h := range hs {
			ents[r] = -1
			if ht.tags.test(h) {
				ents[r] = j.kt.lookup(h, r)
			}
		}
	}
	for k := range keys {
		if keys[k].nulls != nil {
			missNulls(ents, keys[k].nulls)
		}
	}
	first, next := ht.first, ht.next
	for r, e := range ents {
		if e < 0 {
			continue
		}
		if !inner {
			j.pairsP = append(j.pairsP, uint32(r))
			continue
		}
		for row := first[e]; row >= 0; row = next[row] {
			j.pairsP = append(j.pairsP, uint32(r))
			j.pairsB = append(j.pairsB, uint32(row))
		}
	}
}

// missNulls sets the entry of every row whose key cell is NULL to -1.
//
//dbvet:hotpath
func missNulls(ents []int32, nulls []bool) {
	nulls = nulls[:len(ents)]
	for r, null := range nulls {
		if null {
			ents[r] = -1
		}
	}
}

//dbvet:hotpath
func (j *batchJoinProbe) consumeInner(b *core.Batch) {
	if len(j.pairsP) == 0 {
		return
	}
	out := &j.out
	out.N = len(j.pairsP)
	out.Pos = out.Pos[:0]
	// Live probe columns: gather by probe row index.
	pcols := b.Cols[:j.np]
	pout := out.Cols[:len(pcols)]
	plive := j.live[:len(pcols)]
	for i := range pcols {
		if plive[i] {
			core.Gather(&pout[i].ColumnData, &pcols[i].ColumnData, j.pairsP)
		}
	}
	// Live build columns: gather by build row id from the kept segments.
	bcols := j.ht.rows
	bout := out.Cols[j.np:][:len(bcols)]
	blive := j.live[j.np:][:len(bcols)]
	for bi := range bcols {
		if blive[bi] {
			bcols[bi].gather(&bout[bi], j.pairsB)
		}
	}
	j.down(out)
}

//dbvet:hotpath
func (j *batchJoinProbe) consumeSemiAnti(b *core.Batch) {
	// A probe row passes a semi join iff it matched, an anti join iff it
	// did not (NULL keys never match: semi drops them, anti keeps them).
	// The matched rows are pairsP: ascending, each row once.
	sel := j.pairsP
	if j.node.Kind == AntiJoin {
		j.all = selAll(j.all, b.N)
		j.sel = selDiff(j.sel, j.all, sel)
		sel = j.sel
	}
	compactBatchSel(b, sel, j.live)
	if b.N > 0 {
		j.down(b)
	}
}

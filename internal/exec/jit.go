package exec

import (
	"time"

	"datablocks/internal/compress"
	"datablocks/internal/core"
	"datablocks/internal/simd"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// This file is ModeJIT, the compiled tuple-at-a-time engine of §4, kept as
// the comparator of Table 2 and Figure 5 and run by no other mode. Its
// scan compiles one code path per storage-layout combination
// (compileLayout) and one over hot chunks (compileHotPath); filters, maps
// and join probes are fused into one closure per pipeline (compileChain),
// which pushes one register file (Tuple) through them. The chain ends in a
// batcher, which hands the sink batches: the sinks — result, aggregation,
// join build — are the vectorized modes' own, so the two engines
// differ in how they scan, filter, map and probe, and nowhere else.

// jitScan is ModeJIT's part of one worker's scan driver.
type jitScan struct {
	// tuple is the scan's register file; cons the tuple chain the scan
	// paths feed, which ends in out.
	tuple *Tuple
	cons  func(*Tuple)
	out   *batcher
	// residual is the condition the scan paths evaluate in front of cons:
	// Preds ∧ Filter (nil = none), lowered once per path.
	residual *checked
	// layouts holds one specialized path per storage-layout combination
	// (Figure 5), hot the one over uncompressed chunks.
	layouts map[string]*layoutPath
	hot     *hotPath
}

// layoutPath is the compiled scan code for one storage-layout combination.
type layoutPath struct {
	accessors []blockAccessor
	filter    boolFn
}

// blockAccessor loads one attribute of one row into a tuple slot. It is
// specialized at compile time on (kind, scheme, width) — the "unrolled"
// decompression code of §4.
type blockAccessor func(a *core.Attr, row int, t *Tuple, slot int)

// hotPath is the compiled tuple-at-a-time scan over uncompressed chunks.
type hotPath struct {
	loaders []func(c *core.ColumnData, row int, t *Tuple, slot int)
	filter  boolFn
}

// compileJIT compiles driver d's ModeJIT scan: the tuple chain from chain
// down to a batcher feeding sink, the hot path, and a layout path for every
// block layout among chunks that is resident.
func (ex *executor) compileJIT(d *scanDriver, chain Node, sink batchConsumer, chunks []storage.ChunkView) {
	c := &compiler{wp: d.wp}
	p := ex.plan.nodes[chain]
	j := &jitScan{
		tuple:    NewTuple(len(d.kinds)),
		out:      newBatcher(&d.batch, p.kinds, p.live, d.vecSize, sink),
		residual: allOf(ex.plan.nodes[d.scan].exprs),
		layouts:  make(map[string]*layoutPath),
	}
	d.jit = j
	j.cons = ex.compileChain(chain, j.out.add, c)
	j.hot = d.compileHotPath(c)
	for i := range chunks {
		ch := &chunks[i]
		// Evicted chunks have no resident block to compile against (and
		// partly loaded ones may lack the scan's columns); their layout
		// path is compiled lazily when the scan acquires the block.
		if ch.IsFrozen() && ch.Block() != nil && ch.Block().Has(d.pinCols) {
			key := ch.Block().LayoutKey()
			if _, done := j.layouts[key]; !done {
				j.layouts[key] = d.compileLayout(ch.Block(), c)
			}
		}
	}
}

// compileChain lowers the operator chain above the scan into a single fused
// consumer closure — the query-pipeline compilation of §4.
func (ex *executor) compileChain(n Node, down func(*Tuple), c *compiler) func(*Tuple) {
	// down consumes n's output: wrapping it here counts n's emitted rows
	// and times everything downstream of n, attributed to n's slot.
	down = c.wp.wrapTuple(ex.profIdx(n), down)
	switch n := n.(type) {
	case *FilterNode:
		cond := c.bool(ex.plan.nodes[n].exprs[0])
		cons := func(t *Tuple) {
			if cond(t) {
				down(t)
			}
		}
		return ex.compileChain(n.Child, cons, c)
	case *MapNode:
		exprs := ex.plan.nodes[n].exprs
		out := NewTuple(len(exprs))
		setters := make([]func(in, out *Tuple), len(exprs))
		for i, e := range exprs {
			slot := i
			switch e.kind {
			case types.Int64:
				f := c.int(e)
				setters[i] = func(in, out *Tuple) { out.Ints[slot], out.Nulls[slot] = f(in) }
			case types.Float64:
				f := c.float(e)
				setters[i] = func(in, out *Tuple) { out.Floats[slot], out.Nulls[slot] = f(in) }
			default:
				f := c.str(e)
				setters[i] = func(in, out *Tuple) { out.Strs[slot], out.Nulls[slot] = f(in) }
			}
		}
		cons := func(t *Tuple) {
			for _, set := range setters {
				set(t, out)
			}
			down(out)
		}
		return ex.compileChain(n.Child, cons, c)
	case *JoinNode:
		return ex.compileJoinProbe(n, down, c)
	default: // the ScanNode: prepareBuilds admitted nothing else
		return down
	}
}

// compileJoinProbe lowers a join probe into the tuple chain: each tuple's
// key registers are probed as a one-row batch (see batchJoinProbe).
func (ex *executor) compileJoinProbe(n *JoinNode, down func(*Tuple), c *compiler) func(*Tuple) {
	j := ex.newJoinProbe(n)
	if n.Kind != InnerJoin {
		wantMatch := n.Kind == SemiJoin
		return ex.compileChain(n.Probe, func(t *Tuple) {
			bindTuple(j.kt.keys, t, n.ProbeKeys)
			j.matchPairs(1)
			if (len(j.pairsP) > 0) == wantMatch {
				down(t)
			}
		}, c)
	}
	np, live := j.np, j.live[j.np:]
	out := NewTuple(np + len(j.ht.rows))
	return ex.compileChain(n.Probe, func(t *Tuple) {
		bindTuple(j.kt.keys, t, n.ProbeKeys)
		j.matchPairs(1)
		if len(j.pairsB) == 0 {
			return
		}
		// Probe columns change only per probe tuple.
		copy(out.Ints[:np], t.Ints[:np])
		copy(out.Floats[:np], t.Floats[:np])
		copy(out.Strs[:np], t.Strs[:np])
		copy(out.Nulls[:np], t.Nulls[:np])
		for _, row := range j.pairsB {
			for bi := range j.ht.rows {
				if live[bi] { // a dead build column's segments are empty
					j.ht.rows[bi].load(row, out, np+bi)
				}
			}
			down(out)
		}
	}, c)
}

// bindTuple points the probe side of keys at the tuple's registers cols,
// each as a one-row vector: the tuple-at-a-time chain probes with the
// same code as the batch chain, at n = 1.
func bindTuple(keys []keyCol, t *Tuple, cols []int) {
	for i, c := range cols {
		k := &keys[i]
		k.nulls, k.ints, k.floats, k.strs = t.Nulls[c:c+1], t.Ints[c:c+1], t.Floats[c:c+1], t.Strs[c:c+1]
	}
}

// load copies row id's cell into register slot of t.
func (c *segCol) load(id uint32, t *Tuple, slot int) {
	g, at := id>>segBits, id&(segRows-1)
	t.Nulls[slot] = c.nulls[g][at]
	switch c.kind {
	case types.Int64:
		t.Ints[slot] = c.ints[g][at]
	case types.Float64:
		t.Floats[slot] = c.floats[g][at]
	default:
		t.Strs[slot] = c.strs[g][at]
	}
}

// wrapTuple instruments one operator's output edge on the tuple chain.
func (wp *workerProf) wrapTuple(i int, down func(*Tuple)) func(*Tuple) {
	if wp == nil || i < 0 {
		return down
	}
	cell := &wp.cells[i]
	return func(t *Tuple) {
		cell.rowsOut.Inc()
		t0 := time.Now()
		down(t)
		cell.downNs.Add(uint64(time.Since(t0)))
	}
}

// batcher ends the tuple chain. It appends the registers of each output
// tuple that the sink reads — the chain's live columns
// (checkedPlan.markLive) — as a row of the driver's batch, and hands the
// batch to the sink when it holds size rows and at the end of every
// morsel (flush); never an empty one. A column the sink does not read
// stays empty.
type batcher struct {
	b                  *core.Batch
	ints, floats, strs []int // the live columns of each kind
	size               int
	sink               batchConsumer
}

func newBatcher(b *core.Batch, kinds []types.Kind, live []bool, size int, sink batchConsumer) *batcher {
	bt := &batcher{b: b, size: size, sink: sink}
	b.N, b.Pos, b.Cols = 0, b.Pos[:0], resize(b.Cols, len(kinds))
	for c, k := range kinds {
		b.Cols[c] = core.BatchCol{ColumnData: core.ColumnData{Kind: k}}
		switch {
		case !live[c]: // the sink does not read it: it stays empty
		case k == types.Int64:
			bt.ints = append(bt.ints, c)
		case k == types.Float64:
			bt.floats = append(bt.floats, c)
		default:
			bt.strs = append(bt.strs, c)
		}
	}
	return bt
}

// add appends tuple t's live registers as the batch's next row.
func (bt *batcher) add(t *Tuple) {
	cols := bt.b.Cols
	for _, c := range bt.ints {
		cols[c].Ints, cols[c].Nulls = append(cols[c].Ints, t.Ints[c]), append(cols[c].Nulls, t.Nulls[c])
	}
	for _, c := range bt.floats {
		cols[c].Floats, cols[c].Nulls = append(cols[c].Floats, t.Floats[c]), append(cols[c].Nulls, t.Nulls[c])
	}
	for _, c := range bt.strs {
		cols[c].Strs, cols[c].Nulls = append(cols[c].Strs, t.Strs[c]), append(cols[c].Nulls, t.Nulls[c])
	}
	if bt.b.N++; bt.b.N == bt.size {
		bt.flush()
	}
}

// flush hands the rows the batch holds to the sink, if there are any, and
// empties it.
func (bt *batcher) flush() {
	if bt.b.N == 0 {
		return
	}
	bt.sink(bt.b)
	bt.b.N = 0
	for c := range bt.b.Cols {
		col := &bt.b.Cols[c]
		col.Ints, col.Floats, col.Strs, col.Nulls = col.Ints[:0], col.Floats[:0], col.Strs[:0], col.Nulls[:0]
	}
}

// compileHotPath compiles the tuple-at-a-time loaders over uncompressed
// chunk columns.
func (d *scanDriver) compileHotPath(c *compiler) *hotPath {
	hp := &hotPath{}
	for _, k := range d.kinds {
		switch k {
		case types.Int64:
			hp.loaders = append(hp.loaders, func(c *core.ColumnData, row int, t *Tuple, slot int) {
				t.Ints[slot] = c.Ints[row]
				t.Nulls[slot] = c.Nulls != nil && c.Nulls[row]
			})
		case types.Float64:
			hp.loaders = append(hp.loaders, func(c *core.ColumnData, row int, t *Tuple, slot int) {
				t.Floats[slot] = c.Floats[row]
				t.Nulls[slot] = c.Nulls != nil && c.Nulls[row]
			})
		default:
			hp.loaders = append(hp.loaders, func(c *core.ColumnData, row int, t *Tuple, slot int) {
				t.Strs[slot] = c.Strs[row]
				t.Nulls[slot] = c.Nulls != nil && c.Nulls[row]
			})
		}
	}
	if d.jit.residual != nil {
		hp.filter = c.bool(d.jit.residual)
	}
	return hp
}

// compileLayout generates the specialized ("unrolled", §4) scan code path
// for one storage-layout combination: one decompressing accessor per
// projected attribute plus a fresh clone of the residual filter. The work
// done here is what Figure 5 measures.
func (d *scanDriver) compileLayout(blk *core.Block, c *compiler) *layoutPath {
	lp := &layoutPath{}
	for i, relCol := range d.scan.Cols {
		lp.accessors = append(lp.accessors, compileAccessor(blk.Attr(relCol), d.kinds[i]))
	}
	// Clone the filter for this code path (the paper's unrolled variants
	// each carry their own copies of the predicate code): the checked tree
	// is lowered again, not checked again.
	if d.jit.residual != nil {
		lp.filter = c.bool(d.jit.residual)
	}
	return lp
}

// compileAccessor specializes decompression on (kind, scheme, width) — the
// block's LayoutKey. Everything else, such as whether a single-value
// attribute is all NULL, is read from the attribute each call is handed:
// the path serves every block of that layout.
func compileAccessor(a *core.Attr, kind types.Kind) blockAccessor {
	loadNull := func(a *core.Attr, row int) bool {
		return a.Validity != nil && !simd.BitmapGet(a.Validity, uint32(row))
	}
	switch kind {
	case types.Int64:
		switch a.Ints.Scheme {
		case compress.SingleValue:
			return func(a *core.Attr, row int, t *Tuple, slot int) {
				t.Ints[slot] = a.Ints.Single
				t.Nulls[slot] = a.Ints.AllNull || loadNull(a, row)
			}
		case compress.Truncation:
			switch a.Ints.Width {
			case 1:
				return func(a *core.Attr, row int, t *Tuple, slot int) {
					t.Ints[slot] = a.Ints.Min + int64(a.Ints.Data[row])
					t.Nulls[slot] = loadNull(a, row)
				}
			case 2:
				return func(a *core.Attr, row int, t *Tuple, slot int) {
					t.Ints[slot] = a.Ints.Min + int64(simd.ReadUint(a.Ints.Data, row, 2))
					t.Nulls[slot] = loadNull(a, row)
				}
			default:
				return func(a *core.Attr, row int, t *Tuple, slot int) {
					t.Ints[slot] = a.Ints.Min + int64(simd.ReadUint(a.Ints.Data, row, 4))
					t.Nulls[slot] = loadNull(a, row)
				}
			}
		case compress.Dictionary:
			width := a.Ints.Width
			return func(a *core.Attr, row int, t *Tuple, slot int) {
				t.Ints[slot] = a.Ints.Dict[simd.ReadUint(a.Ints.Data, row, width)]
				t.Nulls[slot] = loadNull(a, row)
			}
		default:
			return func(a *core.Attr, row int, t *Tuple, slot int) {
				t.Ints[slot] = compress.UnbiasInt(simd.ReadUint(a.Ints.Data, row, 8))
				t.Nulls[slot] = loadNull(a, row)
			}
		}
	case types.Float64:
		if a.Floats.Scheme == compress.SingleValue {
			return func(a *core.Attr, row int, t *Tuple, slot int) {
				t.Floats[slot] = a.Floats.Single
				t.Nulls[slot] = a.Floats.AllNull || loadNull(a, row)
			}
		}
		return func(a *core.Attr, row int, t *Tuple, slot int) {
			t.Floats[slot] = a.Floats.Values[row]
			t.Nulls[slot] = loadNull(a, row)
		}
	default:
		if a.Strs.Scheme == compress.SingleValue {
			return func(a *core.Attr, row int, t *Tuple, slot int) {
				t.Strs[slot] = a.Strs.Single
				t.Nulls[slot] = a.Strs.AllNull || loadNull(a, row)
			}
		}
		width := a.Strs.Width
		return func(a *core.Attr, row int, t *Tuple, slot int) {
			t.Strs[slot] = a.Strs.Entry(int(simd.ReadUint(a.Strs.Data, row, width)))
			t.Nulls[slot] = loadNull(a, row)
		}
	}
}

// jitBlock scans a frozen block tuple-at-a-time through the layout's
// specialized code path.
func (d *scanDriver) jitBlock(ch *storage.ChunkView) error {
	if err := d.pin(ch); err != nil {
		return err
	}
	defer ch.Release()
	// JIT never probes the SMA, so every frozen chunk is visited.
	if d.wp != nil {
		d.wp.scan.frozenChunks.Inc()
	}
	blk := ch.Block()
	key := blk.LayoutKey()
	lp := d.jit.layouts[key]
	if lp == nil {
		// A layout frozen after compilation: generate its path lazily
		// (and pay the compile cost now).
		lp = d.compileLayout(blk, &compiler{})
		d.jit.layouts[key] = lp
	}
	t, cons := d.jit.tuple, d.jit.cons
	n := ch.Rows()
	for row := 0; row < n; row++ {
		if ch.IsDeleted(row) {
			continue
		}
		for i, acc := range lp.accessors {
			acc(blk.Attr(d.scan.Cols[i]), row, t, i)
		}
		if lp.filter == nil || lp.filter(t) {
			cons(t)
		}
	}
	return nil
}

// jitHotChunk scans an uncompressed chunk tuple-at-a-time.
func (d *scanDriver) jitHotChunk(ch *storage.ChunkView) error {
	if d.wp != nil {
		d.wp.scan.hotChunks.Inc()
	}
	t, cons, hp := d.jit.tuple, d.jit.cons, d.jit.hot
	// Iterate to the view's watermark: rows appended after the snapshot
	// are not part of the view.
	n := ch.Rows()
	cols := ch.Hot().Columns(n)
	for row := 0; row < n; row++ {
		if ch.IsDeleted(row) {
			continue
		}
		for i, load := range hp.loaders {
			load(&cols[d.scan.Cols[i]], row, t, i)
		}
		if hp.filter == nil || hp.filter(t) {
			cons(t)
		}
	}
	return nil
}

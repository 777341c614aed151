package exec

import (
	"slices"
	"time"

	"datablocks/internal/compress"
	"datablocks/internal/core"
	"datablocks/internal/simd"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// scanDriver drives one worker's pipeline over chunks. It owns all
// per-worker buffers (tuple register file, batch, match vectors) and
// feeds exactly one consumer chain: bcons behind the vectorized scan of
// every mode but ModeJIT, cons behind ModeJIT's tuple scan.
type scanDriver struct {
	scan    *ScanNode
	vecSize int
	kinds   []types.Kind
	tuple   *Tuple
	batch   core.Batch

	// cons is ModeJIT's tuple-at-a-time consumer chain and residual the
	// condition its scan paths evaluate in front of it: Preds ∧ Filter
	// (nil = none), lowered once per path.
	cons     func(*Tuple)
	residual *checked

	// bcons is the batch-at-a-time consumer chain: gathered batches are
	// handed over whole. conjuncts are the residual condition's top-level
	// conjuncts compiled as selection functions (the batch twin of
	// residual). The batch path materializes lazily: each conjunct
	// unpacks only the columns it references, thins the match vector, and
	// later conjuncts (and the final projection) decompress survivors
	// only.
	bcons     batchConsumer
	conjuncts []vconjunct
	// unpacked tracks which scan-output columns the current batch has
	// materialized; all holds the rows 0..N-1 a conjunct narrows.
	unpacked []bool
	all      []uint32
	// live marks the columns the pipeline and the residual conjuncts read
	// (checkedPlan.markLive); no other column is unpacked. keys and vals
	// are set when an aggregation consumes the scan's batches directly
	// (pipeSink): its group-by columns, handed over as codes wherever the
	// chunk allows (ScanSpec.Codes) and then as values only where vals
	// marks them.
	live []bool
	keys []int
	vals []bool

	// JIT scan code paths: one specialized path per storage-layout
	// combination (Figure 5), plus one for hot chunks.
	jitLayouts map[string]*layoutPath
	jitHot     *hotPath

	// Early probing of an upstream join (Appendix E).
	ep       *tagSet
	epRelCol int
	epVals   []int64

	matches  []uint32
	pushSARG bool
	usePSMA  bool
	// pinCols is what a frozen chunk must have loaded for this scan:
	// scan.Cols (predicate and early-probe columns are among them), never
	// nil — to Acquire, nil means every column.
	pinCols []int

	// wp is this worker's profile shard (nil when the query is not being
	// profiled); its counters are plain, worker-owned cells.
	wp *workerProf
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
	loaders []func(h *storage.HotChunk, relCol, row int, t *Tuple, slot int)
	filter  boolFn
}

func (ex *executor) newScanDriver(scan *ScanNode, cons func(*Tuple), bcons batchConsumer, c *compiler, chunks []storage.ChunkView) *scanDriver {
	p := ex.plan.nodes[scan]
	d := &scanDriver{
		scan:    scan,
		vecSize: ex.opt.VectorSize,
		cons:    cons,
		bcons:   bcons,
		kinds:   p.kinds,
		usePSMA: ex.opt.Mode == ModeVectorizedSARGPSMA,
		wp:      c.wp,
		pinCols: append([]int{}, scan.Cols...),
		live:    p.live,
	}
	if n := len(ex.spare); n > 0 {
		d.batch, ex.spare = ex.spare[n-1], ex.spare[:n-1]
	}
	d.pushSARG = ex.plan.sargsPushed
	// p.exprs is the condition evaluated inside the pipeline: the
	// non-SARGable Filter, behind the SARGable predicates in modes that do
	// not push them into the scan.
	if d.bcons != nil {
		vc := &vcompiler{}
		for _, cj := range p.exprs {
			d.conjuncts = append(d.conjuncts, vconjunct{cols: cj.cols(nil), sel: vc.sel(cj)})
		}
	} else {
		d.tuple = NewTuple(len(p.kinds))
		d.residual = allOf(p.exprs)
		d.jitHot = d.compileHotPath(c)
		d.jitLayouts = make(map[string]*layoutPath)
		for i := range chunks {
			ch := &chunks[i]
			// Evicted chunks have no resident block to compile against
			// (and partly loaded ones may lack the scan's columns); their
			// layout path is compiled lazily when the scan acquires the
			// block.
			if ch.IsFrozen() && ch.Block() != nil && ch.Block().Has(d.pinCols) {
				key := ch.Block().LayoutKey()
				if _, done := d.jitLayouts[key]; !done {
					d.jitLayouts[key] = d.compileLayout(ch.Block(), c)
				}
			}
		}
	}
	return d
}

// compileHotPath compiles the tuple-at-a-time loaders over uncompressed
// chunk columns.
func (d *scanDriver) compileHotPath(c *compiler) *hotPath {
	hp := &hotPath{}
	for _, k := range d.kinds {
		switch k {
		case types.Int64:
			hp.loaders = append(hp.loaders, func(h *storage.HotChunk, relCol, row int, t *Tuple, slot int) {
				t.Ints[slot] = h.Ints(relCol)[row]
				t.Nulls[slot] = h.IsNull(relCol, row)
			})
		case types.Float64:
			hp.loaders = append(hp.loaders, func(h *storage.HotChunk, relCol, row int, t *Tuple, slot int) {
				t.Floats[slot] = h.Floats(relCol)[row]
				t.Nulls[slot] = h.IsNull(relCol, row)
			})
		default:
			hp.loaders = append(hp.loaders, func(h *storage.HotChunk, relCol, row int, t *Tuple, slot int) {
				t.Strs[slot] = h.Strs(relCol)[row]
				t.Nulls[slot] = h.IsNull(relCol, row)
			})
		}
	}
	if d.residual != nil {
		hp.filter = c.bool(d.residual)
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
	if d.residual != nil {
		lp.filter = c.bool(d.residual)
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
			t.Strs[slot] = a.Strs.Dict[simd.ReadUint(a.Strs.Data, row, width)]
			t.Nulls[slot] = loadNull(a, row)
		}
	}
}

// processChunk runs the pipeline over one morsel. The chunk view is an
// immutable snapshot: the driver never re-reads mutable relation state, so
// concurrent inserts, deletes and hot→cold freezes cannot tear a scan.
func (d *scanDriver) processChunk(ch *storage.ChunkView) error {
	switch {
	case d.bcons != nil:
		return d.vecChunk(ch)
	case ch.IsFrozen():
		return d.jitBlock(ch)
	default:
		return d.jitHotChunk(ch)
	}
}

// pin acquires a frozen view for the scan: the block is pinned in RAM —
// the budget evictor cannot pull it out from under the scan — with the
// scan's columns loaded, read from the block store by attribute when the
// chunk was evicted or earlier readers needed other columns. The caller
// releases the view.
func (d *scanDriver) pin(ch *storage.ChunkView) error {
	if d.wp == nil {
		return ch.Acquire(d.pinCols)
	}
	t0 := time.Now()
	reloaded, err := ch.AcquireReload(d.pinCols)
	d.wp.scan.pinWaitNs.Add(uint64(time.Since(t0)))
	if reloaded > 0 {
		d.wp.scan.reloads.Inc()
		d.wp.scan.reloadBytes.Add(uint64(reloaded))
	}
	return err
}

// processChunkTimed is processChunk under the profiler's per-worker
// morsel/busy accounting; identical when unprofiled.
func (d *scanDriver) processChunkTimed(ch *storage.ChunkView) error {
	if d.wp == nil {
		return d.processChunk(ch)
	}
	d.wp.morsel.Inc()
	t0 := time.Now()
	err := d.processChunk(ch)
	d.wp.busyNs.Add(uint64(time.Since(t0)))
	return err
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
	lp := d.jitLayouts[key]
	if lp == nil {
		// A layout frozen after compilation: generate its path lazily
		// (and pay the compile cost now).
		lp = d.compileLayout(blk, &compiler{})
		d.jitLayouts[key] = lp
	}
	t := d.tuple
	n := ch.Rows()
	for row := 0; row < n; row++ {
		if ch.IsDeleted(row) {
			continue
		}
		for i, acc := range lp.accessors {
			acc(blk.Attr(d.scan.Cols[i]), row, t, i)
		}
		if lp.filter == nil || lp.filter(t) {
			d.cons(t)
		}
	}
	return nil
}

// jitHotChunk scans an uncompressed chunk tuple-at-a-time.
func (d *scanDriver) jitHotChunk(ch *storage.ChunkView) error {
	if d.wp != nil {
		d.wp.scan.hotChunks.Inc()
	}
	h := ch.Hot()
	t := d.tuple
	// Iterate to the view's watermark: rows appended after the snapshot
	// are not part of the view.
	n := ch.Rows()
	for row := 0; row < n; row++ {
		if ch.IsDeleted(row) {
			continue
		}
		for i, load := range d.jitHot.loaders {
			load(h, d.scan.Cols[i], row, t, i)
		}
		if d.jitHot.filter == nil || d.jitHot.filter(t) {
			d.cons(t)
		}
	}
	return nil
}

// vecChunk runs the interpreted vectorized scan (Figure 6) over one chunk of
// either layout: core.Scanner finds and reduces on the block's codes or on
// the hot chunk's raw columns, and everything after the match vector —
// visibility, early probing, lazy unpacking, the profile counters — is the
// same code. Deleted tuples are filtered through the view's epoch cutoff
// rather than inside the scanner: the view shares the live stamp arrays
// zero-copy.
func (d *scanDriver) vecChunk(ch *storage.ChunkView) error {
	spec := core.ScanSpec{
		Project:    d.scan.Cols,
		VectorSize: d.vecSize,
		UsePSMA:    d.usePSMA,
		Matches:    d.matches,
		Codes:      d.keys,
	}
	if d.pushSARG {
		spec.Preds = d.scan.Preds
	}
	// The SMA test first, against what is resident anyway: a chunk it
	// rules out is neither pinned nor read. (Hot views have no directory
	// and nothing to pin: both calls are no-ops for them.)
	if !ch.MayMatch(spec.Preds) {
		if d.wp != nil {
			d.wp.scan.skippedChunks.Inc()
		}
		return nil
	}
	if err := d.pin(ch); err != nil {
		return err
	}
	defer ch.Release()
	var sc *core.Scanner
	var err error
	if ch.IsFrozen() {
		sc, err = core.NewScanner(ch.Block(), spec)
	} else {
		// To the view's watermark: rows appended after the snapshot are not
		// part of the view.
		sc, err = core.NewColumnScanner(ch.Hot().Columns(ch.Rows()), ch.Rows(), spec)
	}
	if err != nil {
		return err
	}
	var s *scanShard
	var totalVec, produced uint64
	if d.wp != nil {
		s = &d.wp.scan
		switch {
		case !ch.IsFrozen():
			s.hotChunks.Inc()
		case sc.SkippedBySMA():
			s.skippedChunks.Inc()
		default:
			s.frozenChunks.Inc()
		}
		// ScanRange must be read before iterating: the cursor advances.
		if begin, end := sc.ScanRange(); end > begin {
			totalVec = uint64((end - begin + d.vecSize - 1) / d.vecSize)
		}
	}
	for {
		m, ok := sc.NextMatches()
		if !ok {
			if s != nil {
				// NextMatches skips SARG-emptied vectors internally, so the
				// pruned count is the vectors the range held minus the
				// vectors that surfaced.
				s.vectors.Add(totalVec)
				s.prunedVectors.Add(totalVec - produced)
			}
			return nil
		}
		produced++
		d.matches = m // the next chunk's scanner reuses the buffer
		m = ch.FilterVisible(m)
		if len(m) == 0 {
			continue
		}
		if d.ep != nil {
			m = d.earlyProbe(sc, m)
			if len(m) == 0 {
				continue
			}
		}
		if s != nil {
			s.rowsMatched.Add(uint64(len(m)))
		}
		d.lazyPush(sc, m)
	}
}

// lazyPush drives the late-materializing batch flow over one match vector:
// residual conjuncts unpack only the columns they reference and thin the
// match vector in place; of the other columns, the live ones are unpacked
// for the surviving positions only — an aggregation's keys as codes when
// the chunk is coded, after every value column, since unpacking a
// column's values drops its codes — and the finished batch goes to the
// batch consumer whole.
func (d *scanDriver) lazyPush(sc *core.Scanner, m []uint32) {
	b := &d.batch
	b.N = len(m)
	b.Pos = append(b.Pos[:0], m...)
	if d.unpacked == nil {
		d.unpacked = make([]bool, len(d.kinds))
	}
	for i := range d.unpacked {
		d.unpacked[i] = false
	}
	for i := range d.conjuncts {
		cj := &d.conjuncts[i]
		for _, col := range cj.cols {
			d.unpack(sc, col)
		}
		d.all = selAll(d.all, b.N)
		if compactBatchSel(b, cj.sel(b, d.all), d.unpacked); b.N == 0 {
			return
		}
	}
	coded := sc.Coded()
	for col, live := range d.live {
		if live && (!coded || d.vals[col] || !slices.Contains(d.keys, col)) {
			d.unpack(sc, col)
		}
	}
	if coded {
		sc.UnpackCodes(b, b.Pos)
		if d.wp != nil {
			d.wp.scan.unpacks.Add(uint64(len(d.keys)))
		}
	}
	d.bcons(b)
}

// unpack materializes scan-output column col of the current batch unless
// it already is.
func (d *scanDriver) unpack(sc *core.Scanner, col int) {
	if d.unpacked[col] {
		return
	}
	sc.UnpackColumn(&d.batch, col, d.batch.Pos)
	if d.wp != nil {
		d.wp.scan.unpacks.Inc()
	}
	d.unpacked[col] = true
}

// earlyProbe thins a match vector against the scan's one tag set — its
// join's build tags or a key pass's probe-key tags (earlyProbeFor) —
// before unpacking (Appendix E, Figure 14): only the key column is
// gathered, and a key costs one hash and one bit test, no table access.
func (d *scanDriver) earlyProbe(sc *core.Scanner, m []uint32) []uint32 {
	d.epVals = resize(d.epVals, len(m))
	vals := d.epVals
	sc.GatherInts(d.epRelCol, m, vals)
	w := 0
	for i, p := range m {
		if d.ep.test(simd.Mix64(uint64(vals[i]))) {
			m[w] = p
			w++
		}
	}
	return m[:w]
}

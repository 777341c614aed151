package exec

import (
	"slices"
	"time"

	"datablocks/internal/core"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// scanDriver drives one worker's pipeline over chunks. It owns all
// per-worker buffers (batch, match vectors) and feeds exactly one consumer
// chain: bcons behind the vectorized scan of every mode but ModeJIT, and
// under ModeJIT the tuple scan and chain of jit, which end in a batcher
// handing the same batch sink batches.
type scanDriver struct {
	scan    *ScanNode
	vecSize int
	kinds   []types.Kind
	batch   core.Batch

	// jit is ModeJIT's compiled tuple scan and chain (jit.go); nil in
	// every other mode.
	jit *jitScan

	// bcons is the batch-at-a-time consumer chain: gathered batches are
	// handed over whole. conjuncts are the residual condition's top-level
	// conjuncts compiled as selection functions (the batch twin of
	// jitScan.residual). The batch path materializes lazily: each conjunct
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

	// Early probing of an upstream join (Appendix E).
	ep       *keyFilter
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

func (ex *executor) newScanDriver(scan *ScanNode, bcons batchConsumer, wp *workerProf) *scanDriver {
	p := ex.plan.nodes[scan]
	d := &scanDriver{
		scan:    scan,
		vecSize: ex.opt.VectorSize,
		bcons:   bcons,
		kinds:   p.kinds,
		usePSMA: ex.opt.Mode == ModeVectorizedSARGPSMA,
		wp:      wp,
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
	if bcons != nil {
		vc := &vcompiler{}
		for _, cj := range p.exprs {
			d.conjuncts = append(d.conjuncts, vconjunct{cols: cj.cols(nil), sel: vc.sel(cj)})
		}
	}
	return d
}

// processChunk runs the pipeline over one morsel. The chunk view is an
// immutable snapshot: the driver never re-reads mutable relation state, so
// concurrent inserts, deletes and hot→cold freezes cannot tear a scan.
func (d *scanDriver) processChunk(ch *storage.ChunkView) error {
	if d.jit == nil {
		return d.vecChunk(ch)
	}
	// The batcher hands on the morsel's last rows: no batch spans two.
	defer d.jit.out.flush()
	if ch.IsFrozen() {
		return d.jitBlock(ch)
	}
	return d.jitHotChunk(ch)
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

// earlyProbe thins a match vector against the scan's one key filter —
// its join's build keys or a key pass's probe keys (earlyProbeFor) —
// before unpacking (Appendix E, Figure 14): only the key column is
// gathered, and a key costs one bit test, or one hash and one bit test
// when the filter holds tags; no table is accessed.
func (d *scanDriver) earlyProbe(sc *core.Scanner, m []uint32) []uint32 {
	d.epVals = resize(d.epVals, len(m))
	sc.GatherInts(d.epRelCol, m, d.epVals)
	return d.ep.keep(m, d.epVals)
}

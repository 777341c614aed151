package exec

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"datablocks/internal/core"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// Options configures query execution.
type Options struct {
	// Mode selects the scan flavor (Table 2 configurations).
	Mode ScanMode
	// VectorSize is the number of records fetched per vectorized-scan
	// invocation (Appendix A); 0 selects the 8192 default.
	VectorSize int
	// Parallelism is the number of morsel workers; <=1 runs serially.
	// Each worker compiles its own consumer chain and drives whole chunks
	// (morsels); partial sink states are merged when all workers finish.
	Parallelism int
	// Profile collects an EXPLAIN-ANALYZE style QueryProfile on the
	// Result. Profiling counters live in per-worker shards merged after
	// the morsel workers join, so the scan kernels stay allocation- and
	// contention-free; still, the per-edge wrappers cost a little, so
	// profiling is opt-in per query.
	Profile bool
}

// Run executes the plan and materializes its result. A malformed plan or
// expression is an error before any data is read.
func Run(n Node, opt Options) (*Result, error) {
	ex, err := newExecutor(n, opt)
	if err != nil {
		return nil, err
	}
	if opt.Profile {
		// Plans whose shape the profiler cannot map run unprofiled rather
		// than failing.
		ex.prof, _ = newProfiler(n, ex.opt)
	}
	res, err := ex.run(n)
	if err != nil {
		return nil, err
	}
	if ex.prof != nil {
		res.Profile = ex.prof.finish(uint64(res.NumRows()))
	}
	return res, nil
}

// newExecutor fills in the option defaults and type-checks the plan: every
// node's output kinds and every expression, once per query.
func newExecutor(n Node, opt Options) (*executor, error) {
	if opt.VectorSize <= 0 {
		opt.VectorSize = core.DefaultVectorSize
	}
	if opt.Parallelism <= 0 {
		opt.Parallelism = 1
	}
	ex := &executor{opt: opt, builds: make(map[*JoinNode]*hashTable), snaps: make(map[*ScanNode][]storage.ChunkView), filters: make(map[*ScanNode]*keyFilter)}
	ex.plan = checkedPlan{nodes: make(map[Node]*planned), sargsPushed: opt.Mode == ModeVectorizedSARG || opt.Mode == ModeVectorizedSARGPSMA}
	if _, err := ex.plan.check(n); err != nil {
		return ex, err
	}
	ex.plan.markLive(n, nil)
	return ex, nil
}

type executor struct {
	opt    Options
	builds map[*JoinNode]*hashTable
	// snaps holds the snapshot a key pass read, for the probe pipeline to
	// read again; filters holds the key-filtered build scans a key pass
	// made and what they early-probe (see keyPass).
	snaps   map[*ScanNode][]storage.ChunkView
	filters map[*ScanNode]*keyFilter
	// spare holds the scan batches of the query's finished pipelines,
	// whose buffers its later pipelines' scans reuse.
	spare []core.Batch
	// plan is the checked form of the plan: what every compile step below
	// lowers, and where it reads a node's output kinds.
	plan checkedPlan
	// compileOnly stops each pipeline once its workers are compiled;
	// scanPaths is then what CompileOnly returns.
	compileOnly bool
	scanPaths   int
	// prof, when non-nil, collects the QueryProfile for the root pipeline.
	// Join build sides run with prof temporarily cleared: the profile
	// describes the probe spine, builds appear as BuildRows on their join.
	prof *profiler
	// stop is set by the first morsel that fails. Every other worker then
	// claims at most one more morsel, sees it and quits; the error fails
	// the whole query, so stop is never cleared.
	stop atomic.Bool
}

// profIdx maps a spine node to its operator slot, -1 when unprofiled.
func (ex *executor) profIdx(n Node) int {
	if ex.prof == nil {
		return -1
	}
	return ex.prof.opIndex(n)
}

// CompileOnly performs all code generation for the plan — pipeline
// closures and the per-storage-layout scan paths — without scanning any
// data. It isolates the compile-time cost that Figure 5 plots, and returns
// the scan code paths worker 0 compiled: one per storage-layout
// combination plus the hot path under ModeJIT, the one vectorized scan in
// every other mode. Join build sides, being pipeline breakers, would
// require execution and are not permitted here.
func CompileOnly(n Node, opt Options) (int, error) {
	ex, err := newExecutor(n, opt)
	if err != nil {
		return 0, err
	}
	ex.compileOnly = true
	if _, err := ex.run(n); err != nil {
		return 0, err
	}
	return ex.scanPaths, nil
}

func (ex *executor) run(n Node) (*Result, error) {
	switch n := n.(type) {
	case *OrderByNode:
		res, err := ex.run(n.Child)
		if err != nil {
			return nil, err
		}
		rowsIn := res.NumRows()
		t0 := time.Now()
		res.SortBy(n.Keys, n.Limit)
		if p := ex.prof; p != nil {
			p.orderIn = uint64(rowsIn)
			p.orderOut = uint64(res.NumRows())
			p.orderTime = time.Since(t0)
		}
		return res, nil
	case *AggNode:
		aggs, err := ex.aggregate(n)
		if err != nil {
			return nil, err
		}
		if p := ex.prof; p != nil {
			// Probe displacement is per worker table; sum it before the
			// merge collapses the partials.
			for _, a := range aggs {
				p.spilled += uint64(a.displaced)
			}
		}
		root := aggs[0]
		for _, a := range aggs[1:] {
			root.merge(a)
		}
		if len(n.GroupBy) == 0 {
			// Without GROUP BY there is one row, also over no input rows:
			// COUNT 0, every other aggregate NULL.
			root.globalGroup()
		}
		if p := ex.prof; p != nil {
			p.groups = uint64(root.groups)
		}
		return root.finalize(ex.plan.nodes[n].kinds), nil
	default:
		var results []*Result
		err := ex.runPipeline(n, func() pipeSink {
			res := NewResult(ex.plan.nodes[n].kinds)
			results = append(results, res)
			return pipeSink{batch: res.appendBatch}
		})
		if err != nil {
			return nil, err
		}
		root := results[0]
		root.append(results[1:]...)
		return root, nil
	}
}

// aggregate runs n's input pipeline into one aggregator per worker, not
// yet merged.
func (ex *executor) aggregate(n *AggNode) ([]*aggregator, error) {
	var aggs []*aggregator
	kinds, args := ex.plan.nodes[n.Child].kinds, ex.plan.nodes[n].exprs
	vals := reads(make([]bool, len(kinds)), args)
	err := ex.runPipeline(n.Child, func() pipeSink {
		a := newAggregator(n, kinds, args)
		aggs = append(aggs, a)
		return pipeSink{batch: a.consumeBatch, keys: n.GroupBy, vals: vals}
	})
	return aggs, err
}

// streamableChain reports whether n is a pure pipeline (scan / filter /
// map / join-probe chain) that runPipeline can drive directly into a join
// build's sinks. A pipeline breaker (aggregation, ORDER BY) materializes
// first, and the build takes its result as one batch.
func streamableChain(n Node) bool {
	switch n := n.(type) {
	case *ScanNode:
		return true
	case *FilterNode:
		return streamableChain(n.Child)
	case *MapNode:
		return streamableChain(n.Child)
	case *JoinNode:
		// The build side is built by prepareBuilds regardless.
		return streamableChain(n.Probe)
	default:
		return false
	}
}

// pipeSink is one worker's terminal consumer, which takes batches in every
// mode: behind the vectorized scan's batch chain, or behind the batcher
// that ends ModeJIT's tuple chain (jit.go). Which columns a sink reads is
// the plan's live set of its input (checkedPlan.markLive).
type pipeSink struct {
	batch batchConsumer
	// keys are an aggregation's group-by columns, which it takes as codes
	// from a batch straight from a coded scan; of them it takes those its
	// arguments read (vals) as values too.
	keys []int
	vals []bool
}

// batchMode reports which scan and chain this execution compiles: the
// vectorized scan and batch-at-a-time chain in vectorized modes, the
// compiled tuple scan and tuple-at-a-time chain under ModeJIT. There is no
// third case and no switching between them once chosen; the sinks are the
// same in both.
func (ex *executor) batchMode() bool {
	return ex.opt.Mode != ModeJIT
}

// runPipeline executes the pipeline rooted at chain: it builds the hash
// tables of all joins along the probe spine, lowers exactly one
// consumer chain per worker (see batchMode) from the checked plan — which
// cannot fail — and drives the scan over the relation's chunks (morsels).
// sinkFactory runs once per worker, on the calling goroutine, before any
// worker starts.
func (ex *executor) runPipeline(chain Node, sinkFactory func() pipeSink) error {
	scan, err := ex.prepareBuilds(chain)
	if err != nil {
		return err
	}
	// One immutable snapshot drives the whole pipeline: compilation and
	// every worker see the same chunk states even while writers and the
	// background freezer keep mutating the relation. A key pass over the
	// same scan read it first.
	chunks, kept := ex.snaps[scan]
	if !kept {
		chunks = scan.Rel.Snapshot()
	}
	workers := ex.opt.Parallelism
	if workers > len(chunks) {
		workers = len(chunks)
	}
	if workers < 1 {
		workers = 1
	}
	if p := ex.prof; p != nil && !ex.compileOnly {
		p.totalChunks = uint64(len(chunks))
	}
	drivers := make([]*scanDriver, workers)
	defer func() {
		for _, d := range drivers {
			ex.spare = append(ex.spare, d.batch)
		}
	}()
	for w := 0; w < workers; w++ {
		var wp *workerProf
		if ex.prof != nil && !ex.compileOnly {
			wp = ex.prof.newWorker()
		}
		sink := sinkFactory()
		var d *scanDriver
		if ex.batchMode() {
			d = ex.newScanDriver(scan, ex.compileBatchChain(chain, sink.batch, wp), wp)
			if chain == Node(scan) {
				// Nothing between the scan and the sink: the scan hands an
				// aggregation's frozen keys over as codes. Any operator in
				// between reads values.
				d.keys, d.vals = sink.keys, sink.vals
			}
			// Early probing runs inside vectorized scans only (Appendix E).
			d.ep, d.epRelCol = ex.earlyProbeFor(chain)
		} else {
			d = ex.newScanDriver(scan, nil, wp)
			ex.compileJIT(d, chain, sink.batch, chunks)
		}
		drivers[w] = d
	}
	if ex.compileOnly {
		ex.scanPaths = 1
		if j := drivers[0].jit; j != nil {
			ex.scanPaths += len(j.layouts)
		}
		return nil
	}
	if workers == 1 {
		for i := range chunks {
			if err := drivers[0].processChunkTimed(&chunks[i]); err != nil {
				return err
			}
		}
		return nil
	}
	work := make(chan *storage.ChunkView, len(chunks))
	for i := range chunks {
		work <- &chunks[i]
	}
	close(work)
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(d *scanDriver) {
			defer wg.Done()
			for v := range work {
				if ex.stop.Load() {
					return
				}
				if err := d.processChunkTimed(v); err != nil {
					ex.stop.Store(true)
					errCh <- err
					return
				}
			}
		}(drivers[w])
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// prepareBuilds builds the hash table of every join on the probe spine,
// the joins below first, and returns the driving ScanNode.
func (ex *executor) prepareBuilds(n Node) (*ScanNode, error) {
	switch n := n.(type) {
	case *ScanNode:
		return n, nil
	case *FilterNode:
		return ex.prepareBuilds(n.Child)
	case *MapNode:
		return ex.prepareBuilds(n.Child)
	case *JoinNode:
		if ex.compileOnly {
			return nil, fmt.Errorf("exec: CompileOnly does not support joins (pipeline breakers execute)")
		}
		// A key pass (see build) runs the probe side, whose joins must be
		// built, and noted in the profile, first.
		scan, err := ex.prepareBuilds(n.Probe)
		if err != nil {
			return nil, err
		}
		if _, done := ex.builds[n]; !done {
			// The build side is its own pipeline; profile counters describe
			// the probe spine only, so suspend collection while it runs.
			saved := ex.prof
			ex.prof = nil
			t0 := time.Now()
			ht, rows, err := ex.build(n)
			ex.prof = saved
			if err != nil {
				return nil, err
			}
			ex.builds[n] = ht
			if ex.prof != nil {
				ex.prof.noteBuild(n, uint64(rows), time.Since(t0))
			}
		}
		return scan, nil
	default:
		return nil, fmt.Errorf("exec: %T cannot appear inside a pipeline", n)
	}
}

// build runs join n's build side into its hash table and returns the
// table and the number of rows the build sinks consumed. Every join kind
// streams its build pipeline into one buildSink per morsel worker, or, when
// the build side is a pipeline breaker, feeds its materialized result to
// one sink as a single batch. An inner join then chains the sinks' rows
// in one table (linkRows); a semi or anti join absorbs the smaller
// workers' distinct keys into the largest table, from a build scan its
// key pass may have restricted to the probe side's keys. The table is
// keyed when the key pass found the probe keys dense (keyFilter.span):
// the filtered scan keeps only build keys inside their range. The
// finished table's tags are set last.
func (ex *executor) build(n *JoinNode) (*hashTable, int, error) {
	p := ex.plan.nodes[n.Build]
	inner := n.Kind == InnerJoin
	build, f, err := ex.keyPass(n)
	if err != nil {
		return nil, 0, err
	}
	if build == nil { // no probe row has a key: nothing built can match
		return &hashTable{keyTable: newBuildSink(p.kinds, p.live, n.BuildKeys, false).kt}, 0, nil
	}
	var sinks []*buildSink
	newSink := func() pipeSink {
		s := newBuildSink(p.kinds, p.live, n.BuildKeys, inner)
		// A keyed table's front: a semi or anti sink enters its keys there
		// as they arrive; an inner join's one table is linked from the
		// first sink's.
		if f != nil && f.span() > 0 && (!inner || len(sinks) == 0) {
			s.kt.dir, s.kt.lo, s.kt.keyed = make([]uint32, f.span()), f.lo, true
		}
		sinks = append(sinks, s)
		return pipeSink{batch: s.consume}
	}
	if streamableChain(build) {
		if err := ex.runPipeline(build, newSink); err != nil {
			return nil, 0, err
		}
	} else {
		// A pipeline breaker (an aggregation, an ORDER BY) has
		// materialized its output anyway: it is the sink's one batch.
		res, err := ex.run(n.Build)
		if err != nil {
			return nil, 0, err
		}
		newSink().batch(res.batch())
	}
	rows := 0
	for _, s := range sinks {
		rows += s.rows
	}
	var ht *hashTable
	if inner {
		ht = linkRows(sinks, rows)
	} else {
		root := slices.MaxFunc(sinks, func(a, b *buildSink) int { return a.kt.entries - b.kt.entries })
		for _, s := range sinks {
			if s != root {
				root.kt.absorb(&s.kt)
			}
		}
		ht = &hashTable{keyTable: root.kt}
	}
	ht.setTags()
	return ht, rows, nil
}

// keySide decides, from the plan's shape alone, which scan join n's keys
// filter before the hash probe, if any. Only a single integer key outside
// ModeJIT filters. A scan build side is key-passed (build is true), for
// every join kind; otherwise a probe child that is the scan itself is
// early-probed against the build's tags (Appendix E), except by an anti
// join, which keeps the rows the tags rule out. A key-passed join does not
// also early-probe: its build holds only keys its probe side has.
func (ex *executor) keySide(n *JoinNode) (scan *ScanNode, build bool) {
	if ex.opt.Mode == ModeJIT || len(n.BuildKeys) != 1 || ex.plan.nodes[n.Build].kinds[n.BuildKeys[0]] != types.Int64 {
		return nil, false
	}
	if s, ok := n.Build.(*ScanNode); ok {
		return s, true
	}
	if s, ok := n.Probe.(*ScanNode); ok && n.Kind != AntiJoin {
		return s, false
	}
	return nil, false
}

// keyPass runs join n's probe side once, for its key, when keySide picks
// the build side. It returns the build scan restricted to what those keys
// can match: their range is added to its SARGs, so SMAs and PSMAs skip
// blocks, and their tag bits become its early probe, so rows that cannot
// match are dropped before any other column is unpacked. The filtered
// scan reads what the original's consumers read, and keeps the rows it
// keeps in their order, so an inner join emits what it would unfiltered.
// Beside it comes what the pass learnt of the keys (keyFilter). It
// returns nil when no probe row has a non-NULL key, and n.Build with no
// filter for every other join. The probe pipeline reads the snapshot this pass read:
// a row inserted in between would carry a key the filter never saw.
func (ex *executor) keyPass(n *JoinNode) (Node, *keyFilter, error) {
	scan, build := ex.keySide(n)
	if !build {
		return n.Build, nil, nil
	}
	probe, err := ex.prepareBuilds(n.Probe)
	if err != nil {
		return nil, nil, err
	}
	// A key pass of a join further down the spine may have read the probe
	// relation already: its filter, this one and the probe read its snapshot.
	if _, ok := ex.snaps[probe]; !ok {
		ex.snaps[probe] = probe.Rel.Snapshot()
	}
	chain := n.Probe
	if chain == Node(probe) {
		// Over a bare scan the pass unpacks the key alone, besides what the
		// residual conjuncts read: it scans a copy with that live set.
		cp, p := *probe, *ex.plan.nodes[probe]
		chain, p.live, ex.snaps[&cp] = &cp, nil, ex.snaps[probe]
		ex.plan.nodes[chain] = &p
		ex.plan.markLive(chain, withKeys(make([]bool, len(p.kinds)), n.ProbeKeys))
	}
	var fs []*keyFilter
	err = ex.runPipeline(chain, func() pipeSink {
		f := &keyFilter{lo: math.MaxInt64, hi: math.MinInt64}
		fs = append(fs, f)
		c := n.ProbeKeys[0]
		return pipeSink{batch: func(b *core.Batch) { f.add(b.Cols[c].Ints[:b.N], b.Cols[c].Nulls) }}
	})
	if err != nil {
		return nil, nil, err
	}
	f := fs[0]
	for _, o := range fs[1:] {
		f.merge(o)
	}
	if f.lo > f.hi {
		return nil, nil, nil
	}
	f.col = scan.Cols[n.BuildKeys[0]]
	in := core.Predicate{Col: f.col, Op: types.Between, Lo: types.IntValue(f.lo), Hi: types.IntValue(f.hi)}
	filtered := &ScanNode{Rel: scan.Rel, Cols: scan.Cols, Preds: append(slices.Clip(scan.Preds), in), Filter: scan.Filter}
	if _, err := ex.plan.check(filtered); err != nil {
		return nil, nil, err
	}
	ex.plan.nodes[filtered].live = ex.plan.nodes[scan].live
	ex.filters[filtered] = f
	return filtered, f, nil
}

// earlyProbeFor finds the scan's one early probe: the build's tags of the
// join directly above it whose keys filter its probe side (keySide), or a
// key pass's filter on the scan itself. It returns the tags and the
// relation column holding the key.
func (ex *executor) earlyProbeFor(n Node) (*tagSet, int) {
	switch n := n.(type) {
	case *ScanNode:
		if f := ex.filters[n]; f != nil {
			return &f.tags, f.col
		}
		return nil, -1
	case *FilterNode:
		return ex.earlyProbeFor(n.Child)
	case *MapNode:
		return ex.earlyProbeFor(n.Child)
	case *JoinNode:
		if scan, build := ex.keySide(n); scan != nil && !build {
			return &ex.builds[n].tags, scan.Cols[n.ProbeKeys[0]]
		}
		return ex.earlyProbeFor(n.Probe)
	default:
		return nil, -1
	}
}

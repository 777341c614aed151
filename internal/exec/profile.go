package exec

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"datablocks/internal/core"
	"datablocks/internal/obs"
)

// QueryProfile is the EXPLAIN-ANALYZE view of one executed query,
// returned on Result.Profile when Options.Profile is set. Counters are
// collected in per-worker obs shards (plain, uncontended cells owned by
// one morsel worker) and merged once, after the workers join — the same
// boundary at which per-worker aggregator and result states merge — so
// profiling never puts a contended atomic or an allocation inside the
// //dbvet:hotpath scan kernels.
type QueryProfile struct {
	// Mode/VectorSize/Parallelism echo the options the query ran with;
	// Workers has one entry per morsel worker actually started.
	Mode        ScanMode
	VectorSize  int
	Parallelism int
	// Fallback is always empty: the chain follows from Mode alone (the
	// tuple-at-a-time chain under ModeJIT, the batch chain otherwise), and
	// a vectorized execution never drops to the tuple chain — what it
	// cannot compile is the query's error. It stays only for readers that
	// still count non-empty values.
	Fallback string
	// Wall is the end-to-end execution time, including plan compilation
	// and join build sides.
	Wall time.Duration
	// Operators lists the pipeline bottom-up: scan first, then each
	// operator in dataflow order, the sink (aggregate or materialize)
	// and, when present, the final order-by.
	Operators []OperatorProfile
	// Scan details the storage side of the leaf scan.
	Scan ScanProfile
	// Workers reports per-worker morsel counts and busy time; skew here
	// means morsel-size imbalance.
	Workers []WorkerProfile
}

// OperatorProfile is one operator's row accounting. RowsIn of operator
// i+1 always equals RowsOut of operator i (they observe the same edge);
// the renderer and the profile invariants lean on that conservation.
type OperatorProfile struct {
	Name    string
	RowsIn  uint64
	RowsOut uint64
	// Batches counts vectors pushed across the operator's output edge on
	// the batch path (0 on the tuple path).
	Batches uint64
	// Time is inclusive: the wall time spent in this operator and
	// everything downstream of it, summed across workers. For the scan
	// it is the workers' total busy time.
	Time time.Duration
	// Join detail: the rows the build sinks consumed (duplicate and NULL
	// keys included), the wall time of the build pipeline
	// (build-side scan plus hash-table construction; it runs before the
	// probe pipeline and is not part of any operator's Time), and probe
	// hits (rows emitted for inner joins, probe rows surviving for
	// semi/anti).
	BuildRows uint64
	BuildTime time.Duration
	ProbeHits uint64
	// Aggregate detail: group count after the cross-worker merge, and the
	// group tables' probe displacement — insert steps past an occupied
	// slot, i.e. how far new groups landed from their home slot — summed
	// across workers pre-merge. (The field predates the open-addressing
	// table and keeps its name; nothing spills.)
	Groups         uint64
	SpilledGroups  uint64
	ProbeDetail    bool // ProbeHits/BuildRows/BuildTime are meaningful
	GroupingDetail bool // Groups/SpilledGroups are meaningful
}

// ScanProfile details the leaf scan's storage traffic. The chunk
// accounting is exact: HotChunks + FrozenChunks + SkippedChunks ==
// TotalChunks (every snapshotted chunk is visited or skipped whole).
type ScanProfile struct {
	// TotalChunks is the size of the snapshot the scan iterated.
	TotalChunks uint64
	// HotChunks/FrozenChunks count morsels actually scanned;
	// SkippedChunks counts frozen blocks ruled out whole by the SMA /
	// dictionary probe (and PSMA) before any vector was read.
	HotChunks, FrozenChunks, SkippedChunks uint64
	// Vectors counts find/reduce vector iterations; PrunedVectors the
	// subset whose match vector the SARG predicates emptied.
	Vectors, PrunedVectors uint64
	// RowsMatched counts rows surviving SARGs, visibility and early
	// probing — the rows the scan materialized or pushed.
	RowsMatched uint64
	// ColumnUnpacks counts per-column materializations on the
	// vectorized path (lazy per-conjunct unpacks and final projections).
	ColumnUnpacks uint64
	// Reloads counts the pins of this query that read from the block
	// store and ReloadBytes what they read (whole evicted blocks or single
	// attributes); PinWait is the total time spent acquiring frozen blocks
	// (pin + single-flight wait + disk read), summed across workers.
	Reloads     uint64
	ReloadBytes uint64
	PinWait     time.Duration
}

// WorkerProfile is one morsel worker's share of the scan.
type WorkerProfile struct {
	Morsels uint64
	Busy    time.Duration
}

// profiler collects a QueryProfile while the executor runs. Worker
// shards are appended at compile time (one per worker) and merged in
// finish after the workers join.
type profiler struct {
	mu      sync.Mutex
	start   time.Time
	opt     Options
	names   []string
	idx     map[Node]int
	sinkIdx int
	aggSink bool
	joins   map[Node]buildNote // spine join -> its build pipeline

	totalChunks uint64
	workers     []*workerProf

	groups, spilled   uint64
	orderIn, orderOut uint64
	orderTime         time.Duration
	hasOrder          bool
}

// buildNote is what a join's build pipeline reported.
type buildNote struct {
	rows uint64
	time time.Duration
}

// workerProf is one worker's profile shard: plain obs.ShardCounter
// cells owned by that worker alone, merged after wg.Wait().
type workerProf struct {
	cells  []opCell
	scan   scanShard
	morsel obs.ShardCounter
	busyNs obs.ShardCounter
}

// opCell is one operator's per-worker shard. rowsOut/batches/downNs are
// recorded by a wrapper on the operator's output edge; downNs is the
// time spent inside the downstream chain.
type opCell struct {
	rowsOut obs.ShardCounter
	batches obs.ShardCounter
	downNs  obs.ShardCounter
}

// scanShard is the scan driver's per-worker counters (see ScanProfile).
type scanShard struct {
	hotChunks, frozenChunks, skippedChunks obs.ShardCounter
	vectors, prunedVectors                 obs.ShardCounter
	rowsMatched, unpacks                   obs.ShardCounter
	reloads, reloadBytes, pinWaitNs        obs.ShardCounter
}

// newProfiler maps the plan to an operator list (scan-first dataflow
// order). Plans whose shape the profiler does not understand run
// unprofiled (ok=false) rather than failing the query.
func newProfiler(root Node, opt Options) (*profiler, bool) {
	p := &profiler{
		start: time.Now(),
		opt:   opt,
		idx:   make(map[Node]int),
		joins: make(map[Node]buildNote),
	}
	n := root
	if ob, ok := n.(*OrderByNode); ok {
		p.hasOrder = true
		n = ob.Child
	}
	var chain Node
	if agg, ok := n.(*AggNode); ok {
		p.aggSink = true
		chain = agg.Child
	} else {
		chain = n
	}
	// Walk the probe spine top-down, then reverse into dataflow order.
	var topDown []Node
	for cur := chain; ; {
		switch c := cur.(type) {
		case *ScanNode:
			topDown = append(topDown, c)
			goto done
		case *FilterNode:
			topDown = append(topDown, c)
			cur = c.Child
		case *MapNode:
			topDown = append(topDown, c)
			cur = c.Child
		case *JoinNode:
			topDown = append(topDown, c)
			cur = c.Probe
		default:
			return nil, false
		}
	}
done:
	for i := len(topDown) - 1; i >= 0; i-- {
		nd := topDown[i]
		p.idx[nd] = len(p.names)
		p.names = append(p.names, opName(nd))
	}
	p.sinkIdx = len(p.names)
	if p.aggSink {
		p.names = append(p.names, "aggregate")
	} else {
		p.names = append(p.names, "materialize")
	}
	if p.hasOrder {
		p.names = append(p.names, "order-by")
	}
	return p, true
}

func opName(n Node) string {
	switch n := n.(type) {
	case *ScanNode:
		return "scan"
	case *FilterNode:
		return "filter"
	case *MapNode:
		return "map"
	case *JoinNode:
		switch n.Kind {
		case SemiJoin:
			return "semi-join"
		case AntiJoin:
			return "anti-join"
		default:
			return "join"
		}
	default:
		return fmt.Sprintf("%T", n)
	}
}

// newWorker allocates one worker's shard. Called once per worker at
// compile time, before any morsel is processed.
func (p *profiler) newWorker() *workerProf {
	wp := &workerProf{cells: make([]opCell, len(p.names))}
	p.mu.Lock()
	p.workers = append(p.workers, wp)
	p.mu.Unlock()
	return wp
}

// opIndex returns the operator position of a spine node, or -1.
func (p *profiler) opIndex(n Node) int {
	if i, ok := p.idx[n]; ok {
		return i
	}
	return -1
}

// noteBuild records join n's build pipeline: the rows its build sinks
// consumed and the wall time from starting the build-side scan to the finished hash table.
func (p *profiler) noteBuild(n Node, rows uint64, d time.Duration) {
	p.mu.Lock()
	p.joins[n] = buildNote{rows, d}
	p.mu.Unlock()
}

// wrapBatch instruments one operator's output edge on the batch chain.
func (wp *workerProf) wrapBatch(i int, down batchConsumer) batchConsumer {
	if wp == nil || i < 0 {
		return down
	}
	cell := &wp.cells[i]
	return func(b *core.Batch) {
		cell.rowsOut.Add(uint64(b.N))
		cell.batches.Inc()
		t0 := time.Now()
		down(b)
		cell.downNs.Add(uint64(time.Since(t0)))
	}
}

// finish merges the worker shards into the final QueryProfile. Called
// once, after every worker has joined.
func (p *profiler) finish(resultRows uint64) *QueryProfile {
	q := &QueryProfile{
		Mode:        p.opt.Mode,
		VectorSize:  p.opt.VectorSize,
		Parallelism: p.opt.Parallelism,
		Wall:        time.Since(p.start),
		Operators:   make([]OperatorProfile, len(p.names)),
	}
	nOps := len(p.names)
	rowsOut := make([]uint64, nOps)
	batches := make([]uint64, nOps)
	downNs := make([]uint64, nOps)
	for _, wp := range p.workers {
		for i := range wp.cells {
			rowsOut[i] += wp.cells[i].rowsOut.Value()
			batches[i] += wp.cells[i].batches.Value()
			downNs[i] += wp.cells[i].downNs.Value()
		}
		s := &wp.scan
		q.Scan.HotChunks += s.hotChunks.Value()
		q.Scan.FrozenChunks += s.frozenChunks.Value()
		q.Scan.SkippedChunks += s.skippedChunks.Value()
		q.Scan.Vectors += s.vectors.Value()
		q.Scan.PrunedVectors += s.prunedVectors.Value()
		q.Scan.RowsMatched += s.rowsMatched.Value()
		q.Scan.ColumnUnpacks += s.unpacks.Value()
		q.Scan.Reloads += s.reloads.Value()
		q.Scan.ReloadBytes += s.reloadBytes.Value()
		q.Scan.PinWait += time.Duration(s.pinWaitNs.Value())
		q.Workers = append(q.Workers, WorkerProfile{
			Morsels: wp.morsel.Value(),
			Busy:    time.Duration(wp.busyNs.Value()),
		})
	}
	q.Scan.TotalChunks = p.totalChunks
	// The JIT/tuple scan paths do not count matches separately — the scan
	// edge wrapper already sees every produced row.
	if q.Scan.RowsMatched == 0 && rowsOut[0] > 0 {
		q.Scan.RowsMatched = rowsOut[0]
	}
	var totalBusy time.Duration
	for _, w := range q.Workers {
		totalBusy += w.Busy
	}
	for i := range q.Operators {
		op := &q.Operators[i]
		op.Name = p.names[i]
		op.RowsOut = rowsOut[i]
		op.Batches = batches[i]
		if i == 0 {
			op.RowsIn = rowsOut[0]
			op.Time = totalBusy
		} else {
			op.RowsIn = rowsOut[i-1]
			op.Time = time.Duration(downNs[i-1])
		}
	}
	// Sink and order-by edges are not wrapped; fill them from the merged
	// end states.
	sink := &q.Operators[p.sinkIdx]
	if p.aggSink {
		sink.GroupingDetail = true
		sink.Groups = p.groups
		sink.SpilledGroups = p.spilled
		sink.RowsOut = p.groups
	} else {
		sink.RowsOut = sink.RowsIn
	}
	if p.hasOrder {
		ob := &q.Operators[len(q.Operators)-1]
		ob.RowsIn = p.orderIn
		ob.RowsOut = p.orderOut
		ob.Time = p.orderTime
	} else if !p.aggSink && resultRows > 0 {
		// Without a sink wrapper the materialize row count comes from the
		// merged result itself.
		sink.RowsOut = resultRows
	}
	// Join detail from the recorded build sides.
	for n, build := range p.joins {
		if i := p.opIndex(n); i >= 0 {
			op := &q.Operators[i]
			op.ProbeDetail = true
			op.BuildRows = build.rows
			op.BuildTime = build.time
			if jn, ok := n.(*JoinNode); ok && jn.Kind == AntiJoin {
				op.ProbeHits = op.RowsIn - op.RowsOut
			} else {
				op.ProbeHits = op.RowsOut
			}
		}
	}
	return q
}

// String renders the profile EXPLAIN-ANALYZE style.
func (q *QueryProfile) String() string {
	var b strings.Builder
	path := "batch"
	if q.Mode == ModeJIT {
		path = "tuple"
	}
	fmt.Fprintf(&b, "mode=%s vector=%d workers=%d path=%s wall=%s\n",
		q.Mode, q.VectorSize, len(q.Workers), path, round(q.Wall))
	for i := len(q.Operators) - 1; i >= 0; i-- {
		op := &q.Operators[i]
		indent := strings.Repeat("  ", len(q.Operators)-1-i)
		fmt.Fprintf(&b, "%s%-12s rows=%-10d", indent, op.Name, op.RowsOut)
		if op.Batches > 0 {
			fmt.Fprintf(&b, " batches=%-7d", op.Batches)
		}
		fmt.Fprintf(&b, " time=%s", round(op.Time))
		if op.ProbeDetail {
			fmt.Fprintf(&b, " build=%d build-time=%s hits=%d", op.BuildRows, round(op.BuildTime), op.ProbeHits)
		}
		if op.GroupingDetail {
			fmt.Fprintf(&b, " groups=%d", op.Groups)
			if op.SpilledGroups > 0 {
				fmt.Fprintf(&b, " probe-displaced=%d", op.SpilledGroups)
			}
		}
		b.WriteByte('\n')
	}
	s := &q.Scan
	fmt.Fprintf(&b, "scan detail: chunks=%d (hot=%d frozen=%d sma-skipped=%d)",
		s.TotalChunks, s.HotChunks, s.FrozenChunks, s.SkippedChunks)
	if s.Vectors > 0 {
		fmt.Fprintf(&b, " vectors=%d (sarg-pruned=%d)", s.Vectors, s.PrunedVectors)
	}
	fmt.Fprintf(&b, " matched=%d unpacks=%d", s.RowsMatched, s.ColumnUnpacks)
	if s.Reloads > 0 || s.PinWait > 0 {
		fmt.Fprintf(&b, " reloads=%d reload-bytes=%d pin-wait=%s", s.Reloads, s.ReloadBytes, round(s.PinWait))
	}
	b.WriteByte('\n')
	if len(q.Workers) > 1 {
		fmt.Fprintf(&b, "workers:")
		for i, w := range q.Workers {
			fmt.Fprintf(&b, " w%d=%dm/%s", i, w.Morsels, round(w.Busy))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(time.Microsecond)
	default:
		return d
	}
}

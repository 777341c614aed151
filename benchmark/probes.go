package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datablocks"
	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/index"
	"datablocks/internal/simd"
	"datablocks/internal/storage"
	"datablocks/internal/types"
	"datablocks/internal/wal"
	"datablocks/internal/walfs"
	"datablocks/internal/xrand"
)

// The traced run's per-layer numbers come from three places: deltas of
// DB.Metrics() between phase boundaries, QueryProfile of profiled cycles,
// and micro-probes that time one layer's exported functions over the
// workload's own data. All of it happens in the run's child process, after
// the phases whose timings the trace must not disturb.

// probeInput is the slice of the preload the micro-probes work on: the
// first chunk's worth of the family's fact table, copied before the
// preload is released.
type probeInput struct {
	cols  []datablocks.ColumnData
	kinds []types.Kind
	n     int
}

func newProbeInput(f family, chunkRows int) *probeInput {
	var td *tableData
	for _, t := range f.tables() {
		if t.name == f.factTable() {
			td = t
		}
	}
	if chunkRows <= 0 || chunkRows > core.MaxRows {
		chunkRows = core.MaxRows
	}
	p := &probeInput{n: td.n}
	if p.n > chunkRows {
		p.n = chunkRows
	}
	for i, c := range td.data {
		cd := datablocks.ColumnData{Kind: c.Kind}
		switch c.Kind {
		case types.Int64:
			cd.Ints = append([]int64(nil), c.Ints[:p.n]...)
		case types.Float64:
			cd.Floats = append([]float64(nil), c.Floats[:p.n]...)
		default:
			cd.Strs = append([]string(nil), c.Strs[:p.n]...)
		}
		p.cols = append(p.cols, cd)
		p.kinds = append(p.kinds, td.cols[i].Kind)
	}
	return p
}

// layerProbe collects the phase-boundary snapshots of a traced run.
type layerProbe struct {
	start      datablocks.Metrics
	txBefore   datablocks.Metrics
	backlogMax atomic.Int64
	stop       chan struct{}
	sampler    sync.WaitGroup
}

// startLayerProbe snapshots the engine's counters and starts sampling the
// compactor's backlog every 100 ms.
func startLayerProbe(r *runner) *layerProbe {
	lp := &layerProbe{start: r.db.Metrics(), stop: make(chan struct{})}
	lp.sampler.Add(1)
	go func() {
		defer lp.sampler.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-lp.stop:
				return
			case <-tick.C:
				for _, name := range r.db.Tables() {
					if n := int64(r.db.Table(name).Relation().SealedHotChunks()); n > lp.backlogMax.Load() {
						lp.backlogMax.Store(n)
					}
				}
			}
		}
	}()
	return lp
}

// sumTables folds one counter over every table of a snapshot.
func sumTables(m datablocks.Metrics, f func(datablocks.TableMetrics) float64) float64 {
	s := 0.0
	for _, tm := range m.Tables {
		s += f(tm)
	}
	return s
}

func delta(after, before datablocks.Metrics, f func(datablocks.TableMetrics) float64) float64 {
	return sumTables(after, f) - sumTables(before, f)
}

func (lp *layerProbe) beforeTxs(r *runner) { lp.txBefore = r.db.Metrics() }

// afterTxs attributes the write-ahead log's traffic to the transactions
// that caused it.
func (lp *layerProbe) afterTxs(r *runner) {
	after := r.db.Metrics()
	l := r.res.Layer
	txs := float64(r.plan.txs)
	recs := delta(after, lp.txBefore, func(t datablocks.TableMetrics) float64 { return float64(t.Wal.Records) })
	batches := delta(after, lp.txBefore, func(t datablocks.TableMetrics) float64 { return float64(t.Wal.Batches) })
	bytes := delta(after, lp.txBefore, func(t datablocks.TableMetrics) float64 { return float64(t.Wal.Bytes) })
	l["wal.bytes_per_tx"] = bytes / txs
	l["wal.fsyncs_per_tx"] = batches / txs
	if batches > 0 {
		l["wal.group_size"] = recs / batches
	}
}

// profiled cycle categories of exec.<q>.<cat>_self_ms.
const (
	catScan = iota
	catJoin
	catAgg
	catSink
	numCats
)

var catNames = [numCats]string{"scan", "join", "agg", "sink"}

// selfByCategory splits a profile into per-category self times (ms). An
// operator's Time is inclusive of everything downstream of it, so its self
// time is its Time minus the next operator's; the order-by runs after the
// workers join and is all self. unattributed is the share of the wall
// time no operator accounts for: plan compilation, join build sides and
// the cross-worker merge.
func selfByCategory(p *exec.QueryProfile) (self [numCats]float64, unattributed float64) {
	ops := p.Operators
	n := len(ops)
	hasOrder := n > 0 && ops[n-1].Name == "order-by"
	chain := n
	if hasOrder {
		chain = n - 1
	}
	for i := 0; i < chain; i++ {
		t := ops[i].Time
		if i+1 < chain {
			t -= ops[i+1].Time
		}
		if t < 0 {
			t = 0
		}
		ms := float64(t) / 1e6
		switch ops[i].Name {
		case "scan":
			self[catScan] += ms
		case "aggregate":
			self[catAgg] += ms
		case "materialize":
			self[catSink] += ms
		default: // join, semi-join, anti-join, filter, map
			self[catJoin] += ms
		}
	}
	attributed := time.Duration(0)
	if hasOrder {
		self[catSink] += float64(ops[n-1].Time) / 1e6
		attributed += ops[n-1].Time
	}
	if w := len(p.Workers); w > 0 && n > 0 {
		attributed += ops[0].Time / time.Duration(w)
	}
	if p.Wall > 0 {
		unattributed = 1 - float64(attributed)/float64(p.Wall)
		if unattributed < 0 {
			unattributed = 0
		}
	}
	return self, unattributed
}

// afterCycles derives the exec-layer numbers. ct holds the phase's own
// untraced cycles; the overhead shares compare three more sets — plain,
// traced and profiled — run interleaved here, on a quiet database.
func (lp *layerProbe) afterCycles(r *runner, ct *cycleTimes) {
	l := r.res.Layer
	names := r.fam.queries()
	for qi, name := range names {
		l["exec."+name+"_ms_p50"] = ct.perQuery[qi].median()
	}

	plain, traced, profiled := newCycleTimes(len(names)), newCycleTimes(len(names)), newCycleTimes(len(names))
	type agg struct {
		self         [numCats]float64
		unattributed float64
		n            float64
	}
	per := make([]agg, len(names))
	var q6Skipped, q6Chunks, q6Pruned, q6Vectors, unpacks, pinWait, fallbacks float64
	onProfile := func(qi int, res *datablocks.Result) {
		p := res.Profile
		if p == nil {
			return
		}
		self, un := selfByCategory(p)
		for c := range self {
			per[qi].self[c] += self[c]
		}
		per[qi].unattributed += un
		per[qi].n++
		if names[qi] == "q6" {
			q6Skipped += float64(p.Scan.SkippedChunks)
			q6Chunks += float64(p.Scan.TotalChunks)
			q6Pruned += float64(p.Scan.PrunedVectors)
			q6Vectors += float64(p.Scan.Vectors)
		}
		unpacks += float64(p.Scan.ColumnUnpacks)
		pinWait += float64(p.Scan.PinWait) / 1e6
		if p.Fallback != "" {
			fallbacks++
		}
	}
	var ms0, ms1 runtime.MemStats
	var plainAlloc uint64
	all := func() int { return r.txDone }
	for i := 0; i < r.plan.cycles; i++ {
		runtime.ReadMemStats(&ms0)
		r.cycle(plain, "query", r.queryOptions(false), nil, 0, all, nil)
		runtime.ReadMemStats(&ms1)
		plainAlloc += ms1.TotalAlloc - ms0.TotalAlloc
		r.cycle(traced, "query", r.queryOptions(false), r.tracer(0), uint64(1_000_000+i), all, nil)
		r.cycle(profiled, "query", r.queryOptions(true), nil, 0, all, onProfile)
	}
	cycles := float64(r.plan.cycles)
	base := plain.cycle.median()
	l["trace.overhead_share"] = traced.cycle.median()/base - 1
	l["obs.profile_overhead_share"] = profiled.cycle.median()/base - 1
	l["proc.alloc_mb_per_cycle"] = float64(plainAlloc) / cycles / 1e6
	for qi, name := range names {
		if per[qi].n == 0 {
			continue
		}
		for c := range catNames {
			key := "exec." + name + "." + catNames[c] + "_self_ms"
			l[key] = per[qi].self[c] / per[qi].n
		}
		l["exec."+name+".unattributed_share"] = per[qi].unattributed / per[qi].n
	}
	if q6Chunks > 0 {
		l["core.sma_skipped_chunk_share"] = q6Skipped / q6Chunks
	}
	if q6Vectors > 0 {
		l["core.pruned_vector_share"] = q6Pruned / q6Vectors
	}
	l["core.column_unpacks_per_cycle"] = unpacks / cycles
	l["storage.pin_wait_ms_per_cycle"] = pinWait / cycles
	l["exec.fallback_queries"] = fallbacks

	// Serial cycles: with one worker the order in which blocks are pinned,
	// reloaded and evicted does not depend on scheduling.
	serial := r.queryOptions(false)
	serial.Parallelism = 1
	const serialCycles = 5
	before := r.db.Metrics()
	for i := 0; i < serialCycles; i++ {
		r.cycle(nil, "query", serial, nil, 0, all, nil)
	}
	after := r.db.Metrics()
	l["blockstore.reloads_per_cycle"] = delta(after, before, func(t datablocks.TableMetrics) float64 { return float64(t.Cold.Reloads) }) / serialCycles
	l["blockstore.bytes_read_per_cycle"] = delta(after, before, func(t datablocks.TableMetrics) float64 { return float64(t.Store.BytesRead) }) / serialCycles

	q1 := 0
	for qi, name := range names {
		if name == "q1" {
			q1 = qi
		}
	}
	timeQ1 := func(par int) float64 {
		opt := r.queryOptions(false)
		opt.Parallelism = par
		var s sample
		for i := 0; i < 15; i++ {
			t0 := time.Now()
			if _, err := r.fam.run(q1, opt); err != nil {
				r.fail("query", 1, "q1 probe: %v", err)
			}
			s = append(s, float64(time.Since(t0))/1e6)
		}
		return s.median()
	}
	if two := timeQ1(2); two > 0 {
		l["exec.q1_parallel_speedup"] = timeQ1(1) / two
	}
}

// finish stops the sampler, settles the whole-run deltas, runs the
// micro-probes and writes the spans.
func (lp *layerProbe) finish(r *runner, in *probeInput) {
	close(lp.stop)
	lp.sampler.Wait()
	l := r.res.Layer
	end := r.db.Metrics()
	l["storage.sealed_backlog_max"] = float64(lp.backlogMax.Load())
	l["storage.freezes"] = delta(end, lp.start, func(t datablocks.TableMetrics) float64 { return float64(t.Freeze.Freezes) })
	l["blockstore.evictions"] = delta(end, lp.start, func(t datablocks.TableMetrics) float64 { return float64(t.Cold.Evictions) })
	if tm, ok := end.Tables[r.fam.factTable()]; ok {
		l["storage.freeze_ms_p50"] = float64(tm.Freeze.Durations.Quantile(0.5)) / 1e6
	}
	for _, name := range []string{"lineitem", "orders", "order_line"} {
		if tm, ok := end.Tables[name]; ok {
			l["compress.ratio_"+name] = tm.Freeze.Ratio()
		}
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	l["proc.gc_cpu_share"] = ms.GCCPUFraction
	l["proc.rss_peak_mb"] = rssPeakMB()

	var s sample
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		metricsSink = r.db.Metrics()
		s = append(s, float64(time.Since(t0))/1e3)
	}
	l["obs.metrics_snapshot_us_p50"] = s.median()

	probeHost(l)
	probeSimd(l)
	if err := probeCore(l, r.fam, in); err != nil {
		r.fail("probe", 1, "core: %v", err)
	}
	if err := probeGroupAgg(l); err != nil {
		r.fail("probe", 1, "groupagg: %v", err)
	}
	if tf, ok := r.fam.(*tpchFamily); ok && tf.hot != nil {
		for _, q := range []int{1, 6} {
			var s sample
			for i := 0; i < 5; i++ {
				t0 := time.Now()
				if _, err := tf.hot.Query(q, r.queryOptions(false)); err != nil {
					r.fail("probe", 1, "hot Q%d: %v", q, err)
				}
				s = append(s, float64(time.Since(t0))/1e6)
			}
			l[fmt.Sprintf("exec.q%d_hot_ms_p50", q)] = s.median()
		}
	}
	scratch := filepath.Join(r.cfg.dir, "probe")
	if err := probeTable(l, scratch); err != nil {
		r.fail("probe", 1, "table: %v", err)
	}
	if err := probeStorageIndex(l, r); err != nil {
		r.fail("probe", 1, "index: %v", err)
	}
	if err := probeBlockstore(l, in, scratch); err != nil {
		r.fail("probe", 1, "blockstore: %v", err)
	}
	if err := probeWAL(l, scratch); err != nil {
		r.fail("probe", 1, "wal: %v", err)
	}
	r.res.Attempted["probe"]++

	var spans []span
	for _, t := range r.tracers {
		spans = append(spans, t.spans...)
	}
	path := filepath.Join(r.cfg.out, "trace-"+r.w.name+".json")
	tf := traceFile{Workload: r.w.name, Seed: r.cfg.seed, SelfNs: selfTimes(spans), Spans: spans}
	if err := writeTrace(path, tf); err != nil {
		r.fail("probe", 1, "write %s: %v", path, err)
	}
	r.res.Info["trace_file"] = path
	r.res.Info["spans"] = fmt.Sprint(len(spans))
}

// Sinks keep the compiler from removing probe loops.
var (
	metricsSink datablocks.Metrics
	sinkU64     uint64
	sinkF64     float64
	sinkI64     int64
)

func rssPeakMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// bestRate runs f reps times and returns units per second of the fastest
// run; a micro-probe's minimum is the reading least disturbed by the host.
func bestRate(reps int, units float64, f func()) float64 {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		f()
		if d := time.Since(t0); best == 0 || d < best {
			best = d
		}
	}
	if best <= 0 {
		return 0
	}
	return units / best.Seconds()
}

func probeHost(l map[string]float64) {
	const n = 8 << 20 // 64 MiB of int64
	data := make([]int64, n)
	for i := range data {
		data[i] = int64(i)
	}
	l["host.stream_sum_gbps"] = bestRate(3, 8*n, func() {
		var s int64
		for _, v := range data {
			s += v
		}
		sinkI64 = s
	}) / 1e9
}

func probeSimd(l map[string]float64) {
	const n = 1 << 16
	const reps = 200
	r := xrand.New(7)
	loop := func(f func()) func() {
		return func() {
			for i := 0; i < reps; i++ {
				f()
			}
		}
	}
	for _, width := range []int{1, 2, 4, 8} {
		data := make([]byte, n*width+8)
		for i := 0; i < n; i++ {
			simd.WriteUint(data, i, width, r.Uint64()%100)
		}
		var out []uint32
		l[fmt.Sprintf("simd.find_w%d_gbps", 8*width)] = bestRate(3, float64(reps*n*width), loop(func() {
			out = simd.Find(data, width, n, simd.OpBetween, 10, 34, 0, out[:0])
		})) / 1e9
		if width == 1 || width == 4 {
			matches := simd.Find(data, width, n, simd.OpLt, 50, 0, 0, nil)
			scratch := make([]uint32, len(matches))
			l[fmt.Sprintf("simd.reduce_w%d_gbps", 8*width)] = bestRate(3, float64(reps*len(matches)*width), loop(func() {
				copy(scratch, matches)
				simd.Reduce(data, width, simd.OpLt, 25, 0, scratch)
			})) / 1e9
		}
	}
	ints := make([]int64, n)
	floats := make([]float64, n)
	bm := make([]uint64, simd.BitmapWords(n))
	for i := 0; i < n; i++ {
		ints[i] = int64(r.Uint64()%2000) - 1000
		floats[i] = float64(ints[i]) / 3
		if r.Uint64()%2 == 0 {
			simd.BitmapSet(bm, uint32(i))
		}
	}
	var out []uint32
	l["simd.find_bitmap_gbps"] = bestRate(3, float64(reps*n/8), loop(func() {
		out = simd.FindBitmap(bm, n, true, 0, out[:0])
	})) / 1e9
	l["simd.sum_f64_gbps"] = bestRate(3, float64(reps*8*n), loop(func() {
		sinkF64, _ = simd.SumFloat64(0, floats, nil)
	})) / 1e9
	l["simd.minmax_i64_gbps"] = bestRate(3, float64(reps*8*n), loop(func() {
		mn, mx, _ := simd.MinMaxInt64(ints, nil)
		sinkI64 = mn ^ mx
	})) / 1e9
	hs := make([]uint64, n)
	l["simd.hash_mix64_gbps"] = bestRate(3, float64(reps*8*n), loop(func() {
		simd.HashInt64(ints, hs)
	})) / 1e9
	sinkU64 = hs[0]
}

// probeCore freezes the first chunk of the fact table and times the block
// layer on it: serialization both ways, the find phase with the family's
// Q6 predicates, unpacking one column at 10 % selectivity and positional
// point access.
func probeCore(l map[string]float64, f family, in *probeInput) error {
	var blk *core.Block
	var err error
	raw := float64(userBytes(in.cols, in.n))
	l["core.freeze_mb_per_s"] = bestRate(3, raw, func() {
		blk, err = core.Freeze(in.cols, in.n, core.FreezeOptions{SortBy: -1})
	}) / 1e6
	if err != nil {
		return err
	}
	var buf []byte
	l["core.marshal_mb_per_s"] = bestRate(5, float64(blk.CompressedSize()), func() {
		buf, err = blk.MarshalBinary()
	}) / 1e6
	if err != nil {
		return err
	}
	l["core.unmarshal_mb_per_s"] = bestRate(5, float64(len(buf)), func() {
		_, err = core.UnmarshalBlock(buf, in.kinds)
	}) / 1e6
	if err != nil {
		return err
	}
	preds, project := f.scanProbe()
	const scans = 50
	l["core.scan_find_mrows_per_s"] = bestRate(3, float64(scans*blk.Rows()), func() {
		for i := 0; i < scans; i++ {
			var sc *core.Scanner
			sc, err = core.NewScanner(blk, core.ScanSpec{Preds: preds, UsePSMA: true})
			if err != nil {
				return
			}
			for {
				m, ok := sc.NextMatches()
				if !ok {
					break
				}
				sinkU64 += uint64(len(m))
			}
		}
	}) / 1e6
	if err != nil {
		return err
	}
	sc, err := core.NewScanner(blk, core.ScanSpec{Project: []int{project}})
	if err != nil {
		return err
	}
	var every10th []uint32
	for i := 0; i < blk.Rows(); i += 10 {
		every10th = append(every10th, uint32(i))
	}
	var batch core.Batch
	const unpacks = 200
	l["core.unpack_mvals_per_s"] = bestRate(3, float64(unpacks*len(every10th)), func() {
		for i := 0; i < unpacks; i++ {
			sc.UnpackColumn(&batch, 0, every10th)
		}
	}) / 1e6
	rng := xrand.New(3)
	const gets = 200_000
	rate := bestRate(3, gets, func() {
		for i := 0; i < gets; i++ {
			sinkI64 += blk.Value(project, rng.Intn(blk.Rows())).Int()
		}
	})
	if rate > 0 {
		l["core.point_get_ns"] = 1e9 / rate
	}
	return nil
}

// probeGroupAgg drives the vectorized grouped aggregation (hash kernels
// plus the open-addressing group table) at three group cardinalities.
func probeGroupAgg(l map[string]float64) error {
	const n = 1 << 17
	for _, groups := range []int{16, 1024, 65536} {
		r := xrand.New(11)
		cols := []datablocks.ColumnData{
			{Kind: types.Int64, Ints: make([]int64, n)},
			{Kind: types.Float64, Floats: make([]float64, n)},
			{Kind: types.Int64, Ints: make([]int64, n)},
		}
		for i := 0; i < n; i++ {
			cols[0].Ints[i] = int64(r.Uint64() % uint64(groups))
			cols[1].Floats[i] = float64(r.Uint64()%10000) / 100
			cols[2].Ints[i] = int64(r.Uint64() % 1000)
		}
		rel := storage.NewRelation(types.NewSchema(
			types.Column{Name: "g", Kind: types.Int64},
			types.Column{Name: "v", Kind: types.Float64},
			types.Column{Name: "q", Kind: types.Int64},
		), 1<<14)
		if err := rel.BulkAppend(cols, n); err != nil {
			return err
		}
		plan := &exec.AggNode{
			Child:   &exec.ScanNode{Rel: rel, Cols: []int{0, 1, 2}},
			GroupBy: []int{0},
			Aggs: []exec.AggSpec{
				{Func: exec.AggSum, Arg: exec.Col(1)},
				{Func: exec.AggMin, Arg: exec.Col(2)},
				{Func: exec.AggCount},
			},
		}
		var err error
		l[fmt.Sprintf("exec.groupagg_g%d_mrows_per_s", groups)] = bestRate(5, n, func() {
			_, err = exec.Run(plan, exec.Options{Mode: exec.ModeVectorizedSARG})
		}) / 1e6
		if err != nil {
			return err
		}
	}
	return nil
}

var scratchCols = []datablocks.Column{
	{Name: "id", Kind: datablocks.Int64},
	{Name: "amount", Kind: datablocks.Float64},
	{Name: "status", Kind: datablocks.String},
}

func scratchRow(k int64) datablocks.Row {
	return datablocks.Row{datablocks.Int(k), datablocks.Float(float64(k) / 2), datablocks.Str("new")}
}

// timeEach times f(i) singly for i in [0, n) and returns the median in ns.
func timeEach(n int, f func(i int) error) (float64, error) {
	var s sample
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		s = append(s, float64(time.Since(t0)))
	}
	return s.median(), nil
}

// probeTable times the public write and read calls on a non-durable
// scratch table, then point lookups into evicted blocks of a second
// scratch table that has a block store.
func probeTable(l map[string]float64, dir string) error {
	const rows = 40_000
	db := datablocks.Open(datablocks.WithChunkRows(benchChunkRows))
	defer db.Close()
	tbl, err := db.CreateTable("scratch", scratchCols, datablocks.WithPrimaryKey("id"))
	if err != nil {
		return err
	}
	ns, err := timeEach(rows, func(i int) error {
		_, err := tbl.Insert(scratchRow(int64(i)))
		return err
	})
	if err != nil {
		return err
	}
	l["table.insert_us_p50"] = ns / 1e3
	rng := xrand.New(5)
	lookup := func(int) error {
		k := rng.Range(0, rows-1)
		if _, ok := tbl.Lookup(k); !ok {
			return fmt.Errorf("scratch key %d not found", k)
		}
		return nil
	}
	if l["table.lookup_hot_ns_p50"], err = timeEach(20_000, lookup); err != nil {
		return err
	}
	if err := tbl.FreezeAll(); err != nil {
		return err
	}
	if l["table.lookup_frozen_ns_p50"], err = timeEach(20_000, lookup); err != nil {
		return err
	}
	if ns, err = timeEach(5000, func(i int) error { return tbl.Update(int64(i), scratchRow(int64(i))) }); err != nil {
		return err
	}
	l["table.update_us_p50"] = ns / 1e3
	if ns, err = timeEach(5000, func(i int) error {
		_, err := tbl.Delete(int64(rows - 1 - i))
		return err
	}); err != nil {
		return err
	}
	l["table.delete_us_p50"] = ns / 1e3

	cold := datablocks.Open(datablocks.WithChunkRows(benchChunkRows), datablocks.WithBlockStore(filepath.Join(dir, "cold")))
	defer cold.Close()
	ct, err := cold.CreateTable("scratch", scratchCols, datablocks.WithPrimaryKey("id"))
	if err != nil {
		return err
	}
	for i := 0; i < rows; i++ {
		if _, err := ct.Insert(scratchRow(int64(i))); err != nil {
			return err
		}
	}
	if err := ct.FreezeAll(); err != nil {
		return err
	}
	rel := ct.Relation()
	chunks := rel.NumChunks()
	var s sample
	for i := 0; i < 200; i++ {
		c := i % chunks
		if _, err := rel.EvictChunk(c); err != nil {
			return err
		}
		k := int64(c*benchChunkRows + i%1000)
		t0 := time.Now()
		if _, ok := ct.Lookup(k); !ok {
			return fmt.Errorf("evicted scratch key %d not found", k)
		}
		s = append(s, float64(time.Since(t0))/1e3)
	}
	l["table.lookup_evicted_us_p50"] = s.median()
	return nil
}

// probeStorageIndex times the snapshot every scan starts with, the hash
// index's calls in batches (one call is too short to time singly), and a
// rebuild of the index from the workload's own lookup table.
func probeStorageIndex(l map[string]float64, r *runner) error {
	rel := r.db.Table(r.fam.factTable()).Relation()
	var s sample
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		views := rel.Snapshot()
		s = append(s, float64(time.Since(t0))/1e3)
		sinkU64 += uint64(len(views))
	}
	l["storage.snapshot_us_p50"] = s.median()

	const keys, batch = 100_000, 100
	idx := index.NewHash(0)
	for k := int64(0); k < keys; k++ {
		if err := idx.Insert(k, storage.TupleID{Chunk: uint32(k >> 14), Row: uint32(k & 0x3fff)}); err != nil {
			return err
		}
	}
	rng := xrand.New(9)
	ns, _ := timeEach(2000, func(int) error {
		for j := 0; j < batch; j++ {
			tid, _ := idx.Lookup(rng.Range(0, keys-1))
			sinkU64 += uint64(tid.Row)
		}
		return nil
	})
	l["index.lookup_ns_p50"] = ns / batch
	ns, _ = timeEach(2000, func(int) error {
		for j := 0; j < batch; j++ {
			k := rng.Range(0, keys-1)
			idx.Publish(k, storage.TupleID{Chunk: 1, Row: uint32(j)})
			idx.Seal(k, 1)
		}
		return nil
	})
	l["index.publish_ns_p50"] = ns / batch

	tbl, n := r.fam.lookupTable()
	var err error
	l["index.rebuild_mkeys_per_s"] = bestRate(3, float64(n), func() {
		err = index.NewHash(0).Rebuild(tbl.Relation(), 0) // both lookup tables lead with their key
	}) / 1e6
	return err
}

func probeBlockstore(l map[string]float64, in *probeInput, dir string) error {
	blk, err := core.Freeze(in.cols, in.n, core.FreezeOptions{SortBy: -1})
	if err != nil {
		return err
	}
	bs, err := blockstore.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	defer bs.Close()
	var h blockstore.Handle
	size := float64(blk.CompressedSize())
	l["blockstore.put_mb_per_s"] = bestRate(5, size, func() { h, err = bs.Put(blk) }) / 1e6
	if err != nil {
		return err
	}
	l["blockstore.load_mb_per_s"] = bestRate(5, size, func() { _, err = bs.Load(h, in.kinds) }) / 1e6
	return err
}

// probeWAL times one writer's Append+Wait (one record, one group commit,
// one fsync) on a log of its own, then the recovery scan of that file.
func probeWAL(l map[string]float64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "probe-wal.log")
	schema := types.NewSchema(scratchCols...)
	var seq atomic.Uint64
	var st wal.Stats
	log, _, err := wal.Open(walfs.OS, path, schema, &seq, &st)
	if err != nil {
		return err
	}
	ns, err := timeEach(5000, func(i int) error {
		_, b, err := log.Append(wal.OpInsert, int64(i), scratchRow(int64(i)))
		if err != nil {
			return err
		}
		return log.Wait(b)
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l["wal.append_wait_us_p50"] = ns / 1e3
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	l["wal.scan_records_mb_per_s"] = bestRate(5, float64(len(buf)), func() {
		_, _, err = wal.ScanRecords(buf, schema)
	}) / 1e6
	return err
}

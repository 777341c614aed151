package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"datablocks"
	"datablocks/internal/xrand"
)

// config is what the parent hands each child process.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	scale    string
	dir      string // work directory: dir/db is the database, dir/expect.json the restart contract
	out      string // where a traced run writes its span file
	t0       int64  // restart child: UnixNano at which the parent spawned it
	verify   bool   // restart child: re-answer every query, count every table and, after a kill, look every acknowledged row up
}

// childResult is the one line a child prints for its parent.
type childResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Layer     map[string]float64 `json:"layer,omitempty"`
	Attempted map[string]int     `json:"attempted"`
	Failed    map[string]int     `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	UserBytes int64              `json:"user_bytes"`
	Ref       []float64          `json:"ref,omitempty"` // restart child: reference-kernel readings taken after its first answer
	Info      map[string]string  `json:"info,omitempty"`
}

// add folds another result's operation counts and errors into r.
func (r *childResult) add(o *childResult) {
	for k, v := range o.Attempted {
		r.Attempted[k] += v
	}
	for k, v := range o.Failed {
		r.Failed[k] += v
	}
	r.Errors = append(r.Errors, o.Errors...)
}

// expectation is the contract between a run and its restarts, written by
// the run next to the database directory.
type expectation struct {
	TxDone int              `json:"tx_done"`
	Rows   map[string]int   `json:"rows"`
	Final  map[int][]refRow `json:"final"` // canonical result of each query of the cycle, just before close or kill
}

const clients = 2

// inFlight is the txDone a family's check receives for a result computed
// while transactions were completing.
const inFlight = -1

type runner struct {
	cfg  config
	w    *workload
	plan workPlan
	fam  family
	db   *datablocks.DB
	res  childResult

	epoch   time.Time
	tracers []*tracer // one per client goroutine when traced, else nil entries
	ref     *refKernel
	refAll  sample // every reference-kernel timing of the run

	txDone    int
	lines     int
	userBytes int64 // preload plus inserted rows
	strict    bool  // full scale: a tail percentile without its sample reserve is an error
}

func (r *runner) fail(class string, n int, format string, args ...any) {
	r.res.Failed[class] += n
	r.res.Errors = append(r.res.Errors, fmt.Sprintf(class+": "+format, args...))
}

// tail reports a tail percentile, failing the phase when the sample does
// not hold ten values beyond it.
func (r *runner) tail(class string, sorted []float64, p float64) float64 {
	v, ok := percentile(sorted, p)
	if !ok && r.strict {
		r.fail(class, r.res.Attempted[class], "p%v of %d samples has fewer than %d beyond it", p, len(sorted), tailReserve)
	}
	return v
}

// hostSpeed starts the reference-kernel readings of one phase.
func (r *runner) hostSpeed() *hostSpeed { return &hostSpeed{k: r.ref} }

// noteSpeed records a phase's readings for the report.
func (r *runner) noteSpeed(phase string, hs *hostSpeed) {
	r.res.Info["ref_ms."+phase] = fmt.Sprintf("%.3f", hs.ms.median())
	r.refAll = append(r.refAll, hs.ms...)
}

func (r *runner) tracer(client int) *tracer {
	if r.tracers == nil {
		return nil
	}
	return r.tracers[client]
}

func dbDir(dir string) string { return filepath.Join(dir, "db") }

// runChild executes a workload's phases in a fresh process and prints the
// result line. For a workload that is killed it then blocks until the
// parent's SIGKILL arrives.
func runChild(cfg config) error {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return err
	}
	plan, err := w.plan(cfg.scale, cfg.seconds, cfg.traced)
	if err != nil {
		return err
	}
	r := &runner{cfg: cfg, w: w, plan: plan, epoch: time.Now(), strict: cfg.scale == "full" && !cfg.traced, ref: newRefKernel()}
	r.res = childResult{
		Metrics: map[string]float64{}, Attempted: map[string]int{}, Failed: map[string]int{},
		Info: map[string]string{"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)), "clients": fmt.Sprint(clients)},
	}
	if cfg.traced {
		r.res.Layer = map[string]float64{}
		for c := 0; c < clients; c++ {
			r.tracers = append(r.tracers, newTracer(r.epoch, c+1))
		}
	}
	if err := r.phases(); err != nil {
		return err
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	if !w.kill {
		if err := r.db.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
	}
	fmt.Printf("RESULT %s\n", line)
	if w.kill {
		// The parent kills this process: no Close, no checkpoint, the whole
		// log stays. Waiting on the parent's end of stdin rather than forever
		// means an orphan ends too.
		_, _ = io.Copy(io.Discard, os.Stdin)
	}
	return nil
}

// mark logs how long the run has taken so far, for sizing the workloads.
func (r *runner) mark(what string) {
	fmt.Fprintf(os.Stderr, "  [%s %6.2fs] %s\n", r.w.name, time.Since(r.epoch).Seconds(), what)
}

func (r *runner) phases() error {
	r.fam = r.w.newFamily(r.plan, r.cfg.seed)
	if err := r.fam.generate(r.cfg.traced); err != nil {
		return fmt.Errorf("generate: %w", err)
	}
	for _, t := range r.fam.tables() {
		r.userBytes += t.bytes
	}
	r.mark("generated")
	if err := r.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	r.mark("set up")
	var probes *probeInput
	if r.cfg.traced {
		probes = newProbeInput(r.fam, r.plan.chunkRows)
	}
	r.fam.release()

	var lp *layerProbe
	if r.cfg.traced {
		lp = startLayerProbe(r)
	}
	switch {
	case r.w.hybrid:
		r.lookupPhase()
		r.mark("lookups")
		r.hybridPhase(lp)
		r.mark("transactions beside queries")
		r.sizes()
	case r.w.ch:
		r.queryPhase(lp)
		r.mark("queries")
		r.lookupPhase()
		r.mark("lookups")
		r.txPhase(clients, lp)
		r.mark("transactions")
		r.sizes()
	default:
		r.sizes()
		r.queryPhase(lp)
		r.mark("queries")
		r.lookupPhase()
		r.mark("lookups")
		r.txPhase(clients, lp)
		r.mark("transactions")
	}
	if err := r.finalCycle(); err != nil {
		return err
	}
	r.mark("final check")
	if lp != nil {
		lp.finish(r, probes)
		r.res.Layer["host.ref_ms"] = r.refAll.median()
	}
	r.res.UserBytes = r.userBytes
	return nil
}

// setup creates the database plan.setups times — each time from an empty
// directory: create tables, bulk load, freeze, persist — and keeps the
// last one. setup_s is the median.
func (r *runner) setup() error {
	var times sample
	for i := 0; i < r.plan.setups; i++ {
		if r.db != nil {
			if err := r.db.Close(); err != nil {
				return err
			}
			r.db = nil
		}
		if err := os.RemoveAll(dbDir(r.cfg.dir)); err != nil {
			return err
		}
		runtime.GC()
		hs := r.hostSpeed()
		hs.sample(3)
		t0 := time.Now()
		db, err := datablocks.OpenPath(dbDir(r.cfg.dir), r.w.openOptions(r.plan)...)
		if err != nil {
			return err
		}
		r.db = db
		for _, td := range r.fam.tables() {
			var opts []datablocks.TableOption
			if td.pk != "" {
				opts = append(opts, datablocks.WithPrimaryKey(td.pk))
			}
			tbl, err := db.CreateTable(td.name, td.cols, opts...)
			if err != nil {
				return err
			}
			if err := tbl.BulkLoad(td.data, td.n); err != nil {
				return fmt.Errorf("load %s: %w", td.name, err)
			}
			if err := tbl.FreezeAll(); err != nil {
				return fmt.Errorf("freeze %s: %w", td.name, err)
			}
		}
		if err := r.drain(); err != nil {
			return err
		}
		d := time.Since(t0).Seconds()
		hs.sample(3)
		times = append(times, d*hs.scale())
		r.noteSpeed("setup", hs)
	}
	r.res.Metrics["setup_s"] = times.median()
	r.res.Attempted["setup"] = len(times)
	return r.fam.bind(r.db)
}

// drain waits until the background compactor has nothing left to do: no
// sealed hot chunk awaits freezing and every table's resident frozen set
// is within its budget.
func (r *runner) drain() error {
	deadline := time.Now().Add(30 * time.Second)
	for _, name := range r.db.Tables() {
		tbl := r.db.Table(name)
		for {
			cold := tbl.ColdStats()
			backlog := r.w.autoFreeze > 0 && tbl.Relation().SealedHotChunks() >= r.w.autoFreeze
			over := cold.BudgetBytes > 0 && cold.ResidentBytes > cold.BudgetBytes
			if !backlog && !over {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("table %s did not drain: sealed=%d resident=%d budget=%d",
					name, tbl.Relation().SealedHotChunks(), cold.ResidentBytes, cold.BudgetBytes)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// sizes reads the two in-memory size metrics once the dataset the workload
// is about is complete and the compactor idle.
func (r *runner) sizes() {
	if err := r.drain(); err != nil {
		r.fail("sizes", 1, "%v", err)
	}
	r.res.Attempted["sizes"]++
	mem := 0
	for _, tm := range r.db.Metrics().Tables {
		mem += tm.Mem.TotalBytes()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.res.Metrics["mem_bytes_per_user_byte"] = float64(mem) / float64(r.userBytes)
	r.res.Metrics["heap_bytes_per_user_byte"] = float64(ms.HeapAlloc) / float64(r.userBytes)
}

func (r *runner) queryOptions(profile bool) datablocks.QueryOptions {
	return datablocks.QueryOptions{Mode: datablocks.ModeVectorizedSARGPSMA, Parallelism: r.w.queryPar, Profile: profile}
}

// cycleTimes is what a run of query cycles measured, in milliseconds.
type cycleTimes struct {
	cycle    sample
	perQuery []sample
}

// cycle runs the family's queries once, timing each call singly and
// checking each answer outside the timed section. The cycle time is the
// sum of its query times. Failures are charged to class.
func (r *runner) cycle(ct *cycleTimes, class string, opt datablocks.QueryOptions, tr *tracer, req uint64, txDone func() int, onResult func(qi int, res *datablocks.Result)) {
	names := r.fam.queries()
	total := 0.0
	cs := tr.begin("cycle", 0, req)
	for qi := range names {
		before := 0
		if txDone != nil {
			before = txDone()
		}
		qs := tr.begin("exec.run "+names[qi], tr.id(cs), req)
		t0 := time.Now()
		res, err := r.fam.run(qi, opt)
		d := time.Since(t0)
		tr.end(qs)
		r.res.Attempted[class]++
		if err != nil {
			r.fail(class, 1, "%s: %v", names[qi], err)
			continue
		}
		// A result is checked against an exact state only when no
		// transaction completed while it ran; otherwise it is held to the
		// family's in-flight rule.
		state := before
		if txDone != nil && txDone() != before {
			state = inFlight
		}
		if err := r.fam.check(qi, res, state); err != nil {
			r.fail(class, 1, "%s: %v", names[qi], err)
		}
		if onResult != nil {
			onResult(qi, res)
		}
		ms := float64(d) / 1e6
		if ct != nil {
			ct.perQuery[qi] = append(ct.perQuery[qi], ms)
		}
		total += ms
	}
	tr.end(cs)
	if ct != nil {
		ct.cycle = append(ct.cycle, total)
	}
}

func newCycleTimes(queries int) *cycleTimes { return &cycleTimes{perQuery: make([]sample, queries)} }

// reportCycles turns cycle timings into the five query metrics, at
// reference speed.
func (r *runner) reportCycles(ct *cycleTimes, scale float64) {
	cycles := ct.cycle.sorted()
	r.res.Metrics["query_cycle_ms_p50"] = median(cycles) * scale
	r.res.Metrics["query_cycle_ms_p90"] = r.tail("query", cycles, 90) * scale
	for qi, name := range r.fam.queries() {
		switch name {
		case "q1", "q4", "q6":
			r.res.Metrics[name+"_ms_p50"] = ct.perQuery[qi].median() * scale
		}
	}
	r.res.Info["cycles"] = fmt.Sprint(len(ct.cycle))
}

// queryPhase runs the untimed warm-up cycles and then plan.cycles timed
// ones, one after the other.
func (r *runner) queryPhase(lp *layerProbe) {
	opt := r.queryOptions(false)
	for i := 0; i < 2; i++ {
		r.cycle(nil, "query", opt, nil, 0, nil, nil)
	}
	runtime.GC()
	ct := newCycleTimes(len(r.fam.queries()))
	hs := r.hostSpeed()
	for i := 0; i < r.plan.cycles; i++ {
		hs.sample(1)
		r.cycle(ct, "query", opt, nil, uint64(i+1), nil, nil)
	}
	r.noteSpeed("query", hs)
	if lp != nil {
		lp.afterCycles(r, ct)
	}
	r.reportCycles(ct, hs.scale())
}

// lookupPhase issues plan.lookups uniform primary-key lookups from two
// clients, each timed singly.
func (r *runner) lookupPhase() {
	tbl, keys := r.fam.lookupTable()
	warm := xrand.New(mix(r.cfg.seed, 0x100C))
	for i := 0; i < 1000; i++ {
		tbl.Lookup(warm.Range(1, keys))
	}
	runtime.GC()
	per := r.plan.lookups / clients
	every := per/refReadings + 1
	ns := make([][]int32, clients)
	errs := make([]error, clients)
	speeds := make([]*hostSpeed, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := xrand.New(mix(r.cfg.seed, 0x100D+uint64(c)))
			out := make([]int32, 0, per)
			speeds[c] = r.hostSpeed()
			for i := 0; i < per; i++ {
				if i%every == 0 {
					speeds[c].sample(1)
				}
				key := rng.Range(1, keys)
				t0 := time.Now()
				row, ok := tbl.Lookup(key)
				d := time.Since(t0)
				out = append(out, int32(d))
				if !ok {
					errs[c] = fmt.Errorf("key %d not found", key)
					break
				}
				if err := r.fam.checkLookup(key, row); err != nil {
					errs[c] = err
					break
				}
			}
			ns[c] = out
		}(c)
	}
	wg.Wait()
	hs := r.hostSpeed()
	for _, s := range speeds {
		hs.ms = append(hs.ms, s.ms...)
	}
	r.noteSpeed("lookup", hs)
	var us sample
	for c := range ns {
		for _, v := range ns[c] {
			us = append(us, float64(v)/1e3)
		}
		r.res.Attempted["lookup"] += per
		if errs[c] != nil {
			r.fail("lookup", per, "%v", errs[c])
		}
	}
	sort.Float64s(us)
	r.res.Metrics["lookup_us_p50"] = median(us) * hs.scale()
	r.res.Metrics["lookup_us_p95"] = r.tail("lookup", us, 95) * hs.scale()
}

// txStats is what a transaction phase measured.
type txStats struct {
	latUs  sample
	doneNs []int64 // completion times on each client's clock, which stops while the client reads the host's speed
	start  int64
	speed  *hostSpeed // the clients' readings; empty unless asked for
}

// refReadings is how many times each client reads the host's speed during
// a phase it samples itself.
const refReadings = 40

// runTxs executes transactions [from, to) from n client goroutines that
// race for ids on a shared counter. done, when non-nil, is advanced after
// each completed transaction. With readSpeed every client runs the
// reference kernel refReadings times along the way.
func (r *runner) runTxs(from, to, n int, done *atomic.Int64, timed, readSpeed bool) *txStats {
	st := &txStats{start: time.Now().UnixNano(), speed: r.hostSpeed()}
	every := (to-from)/(n*refReadings) + 1
	var next atomic.Int64
	next.Store(int64(from))
	type out struct {
		lat   []int32
		done  []int64
		lines int
		bytes int64
		txs   int
		err   error
		speed *hostSpeed
	}
	outs := make([]out, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			o.speed = r.hostSpeed()
			var tr *tracer
			if timed {
				tr = r.tracer(c)
			}
			var paused time.Duration
			for {
				id := int(next.Add(1)) - 1
				if id >= to {
					return
				}
				if readSpeed && o.txs%every == 0 {
					p0 := time.Now()
					o.speed.sample(1)
					paused += time.Since(p0)
				}
				// Spans for one transaction in eight keep the traced run's
				// memory and the trace file small.
				ttr := tr
				if id%8 != 0 {
					ttr = nil
				}
				ts := ttr.begin("tx", 0, uint64(id)+1)
				t0 := time.Now()
				info, err := r.fam.tx(id, ttr, ttr.id(ts), uint64(id)+1)
				end := time.Now()
				ttr.end(ts)
				if err != nil {
					o.err = err
					return
				}
				o.txs++
				o.lines += info.lines
				o.bytes += info.bytes
				if timed {
					o.lat = append(o.lat, int32(end.Sub(t0)))
					o.done = append(o.done, end.UnixNano()-int64(paused))
				}
				if done != nil {
					done.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range outs {
		o := &outs[c]
		r.txDone += o.txs
		r.lines += o.lines
		r.userBytes += o.bytes
		for _, v := range o.lat {
			st.latUs = append(st.latUs, float64(v)/1e3)
		}
		st.doneNs = append(st.doneNs, o.done...)
		st.speed.ms = append(st.speed.ms, o.speed.ms...)
		if o.err != nil {
			r.fail("tx", to-from, "%v", o.err)
		}
	}
	return st
}

// reportTxs turns a transaction phase's timings into the three
// transaction metrics, at reference speed.
func (r *runner) reportTxs(st *txStats, scale float64) {
	r.res.Attempted["tx"] += len(st.latUs)
	lat := st.latUs.sorted()
	r.res.Metrics["tx_us_p50"] = median(lat) * scale
	r.res.Metrics["tx_us_p90"] = r.tail("tx", lat, 90) * scale
	r.res.Metrics["tx_per_s"] = sliceRates(st.doneNs, st.start, r.plan.sliceTx).median() / scale
	if r.res.Layer != nil && len(lat) > 0 {
		r.res.Layer["table.tx_us_p99"], _ = percentile(lat, 99)
		r.res.Layer["table.tx_us_max"] = lat[len(lat)-1]
	}
}

// txPhase runs the untimed warm-up transactions and then plan.txs timed
// ones from n clients.
func (r *runner) txPhase(n int, lp *layerProbe) {
	r.runTxs(0, r.plan.warmTx, n, nil, false, false)
	runtime.GC()
	if lp != nil {
		lp.beforeTxs(r)
	}
	st := r.runTxs(r.plan.warmTx, r.plan.warmTx+r.plan.txs, n, nil, true, true)
	r.noteSpeed("tx", st.speed)
	if lp != nil {
		lp.afterTxs(r)
	}
	r.reportTxs(st, st.speed.scale())
}

// hybridPhase runs one writer through plan.txs transactions while one
// analyst cycles the queries until the writer is done (and at least
// plan.cycles times, so the tail percentile keeps its reserve).
func (r *runner) hybridPhase(lp *layerProbe) {
	opt := r.queryOptions(false)
	for i := 0; i < 2; i++ {
		r.cycle(nil, "query", opt, nil, 0, nil, nil)
	}
	r.runTxs(0, r.plan.warmTx, 1, nil, false, false)
	runtime.GC()
	if lp != nil {
		lp.beforeTxs(r)
	}
	var done atomic.Int64
	done.Store(int64(r.plan.warmTx))
	total := r.plan.warmTx + r.plan.txs
	txDone := func() int { return int(done.Load()) }
	ct := newCycleTimes(len(r.fam.queries()))
	// The analyst is client 1, the writer client 0. Both count attempts and
	// failures, so the analyst collects into a runner of its own that is
	// merged after the join.
	a := &runner{cfg: r.cfg, w: r.w, plan: r.plan, fam: r.fam, db: r.db, tracers: r.tracers, strict: r.strict}
	a.res = childResult{Attempted: map[string]int{}, Failed: map[string]int{}}
	// The analyst reads the host's speed before each of its cycles; the
	// readings serve both clients, which share the two cores.
	hs := r.hostSpeed()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; txDone() < total || i < r.plan.cycles; i++ {
			hs.sample(1)
			a.cycle(ct, "query", opt, a.tracer(1), uint64(i+1), txDone, nil)
		}
	}()
	st := r.runTxs(r.plan.warmTx, total, 1, &done, true, false)
	wg.Wait()
	r.res.add(&a.res)
	r.noteSpeed("hybrid", hs)
	if lp != nil {
		lp.afterTxs(r)
		lp.afterCycles(r, ct)
	}
	r.reportTxs(st, hs.scale())
	r.reportCycles(ct, hs.scale())
}

// finalCycle answers every query once more on the quiesced database,
// checks the answers against the reference for the final state and the
// row counts against the work done, and leaves both for the restarts.
func (r *runner) finalCycle() error {
	if err := r.drain(); err != nil {
		r.fail("final", 1, "%v", err)
	}
	exp := expectation{TxDone: r.txDone, Rows: r.fam.expectRows(r.txDone, r.lines), Final: map[int][]refRow{}}
	all := func() int { return r.txDone }
	r.cycle(nil, "final", r.queryOptions(false), nil, 0, all, func(qi int, res *datablocks.Result) {
		exp.Final[qi] = canon(res)
	})
	for name, want := range exp.Rows {
		r.res.Attempted["final"]++
		if got := r.db.Table(name).NumRows(); got != want {
			r.fail("final", 1, "table %s holds %d rows, the work done adds up to %d", name, got, want)
		}
	}
	buf, err := json.Marshal(exp)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.cfg.dir, "expect.json"), buf, 0o644)
}

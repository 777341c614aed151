package main

import (
	"fmt"
	"math"

	"datablocks"
	"datablocks/internal/core"
	"datablocks/internal/simd"
)

// family is one schema with its preload, query cycle, transaction, point
// lookup and restart check. The two implementations are tpchFamily and
// chFamily; the runner drives either through this interface.
type family interface {
	// generate builds the preload columns and the reference answers;
	// keepHot retains unfrozen relations for the traced run's contrast.
	generate(keepHot bool) error
	tables() []*tableData
	// release drops the preload columns before the heap is measured.
	release()
	// bind points plans and table handles at an open database.
	bind(db *datablocks.DB) error
	queries() []string
	run(qi int, opt datablocks.QueryOptions) (*datablocks.Result, error)
	// check compares a result with the reference valid after txDone
	// transactions.
	check(qi int, res *datablocks.Result, txDone int) error
	// firstQuery is the query a restarted process answers first.
	firstQuery() int
	lookupTable() (tbl *datablocks.Table, keys int64)
	checkLookup(key int64, row datablocks.Row) error
	tx(id int, tr *tracer, parent, req uint64) (txInfo, error)
	expectRows(txDone, lines int) map[string]int
	verifyRecovered(db *datablocks.DB, txDone int) error
	factTable() string
	// scanProbe gives the block-layer micro-probes the family's Q6
	// predicates (fact-table ordinals) and an integer column to unpack.
	scanProbe() (preds []core.Predicate, project int)
}

// txInfo is what one transaction did: engine calls made, order lines
// written and user bytes inserted.
type txInfo struct {
	ops, lines int
	bytes      int64
}

// mix derives an independent stream seed from (seed, x).
func mix(seed, x uint64) uint64 { return simd.Mix64(seed ^ simd.Mix64(x+0x9e3779b97f4a7c15)) }

// workload is one of the four benchmark workloads: which family, how the
// database is opened, and which phases run in which order.
type workload struct {
	name string
	why  string
	ch   bool // CH-benCHmark family; otherwise TPC-H
	// durable tuning, applied as OpenPath defaults by the run and by every
	// restart.
	wal        bool
	stripes    int
	autoFreeze int
	budgeted   bool
	// kill: the run's process is SIGKILLed after it reports, so the
	// restart replays the whole write-ahead log.
	kill bool
	// hybrid: transactions and query cycles run concurrently, one client
	// each, instead of one phase after the other with two clients.
	hybrid bool
	// queryPar is the morsel parallelism of the query cycle.
	queryPar int
}

var workloads = []workload{
	{
		name:     "olap_frozen",
		why:      "TPC-H frozen and fully resident: exec, simd, core and compress do the work, wal and blockstore none (paper Tables 2/3)",
		queryPar: 2,
	},
	{
		name:     "olap_evicted",
		why:      "same data under a 2.5 MiB budget, a third of frozen lineitem: blockstore, UnmarshalBlock and pin/reload dominate the same queries",
		budgeted: true, queryPar: 2,
	},
	{
		name: "oltp_durable",
		why:  "TPC-C new-order on WAL + 2 stripes, killed and replayed: index, hot append, update-of-frozen and wal do the work; bypasses scan optimisations (paper 5.3)",
		ch:   true, wal: true, stripes: 2, kill: true, queryPar: 2,
	},
	{
		name: "hybrid_ch",
		why:  "CH-benCHmark: one writer and one analyst share two cores with the compactor and evictor; scan-vs-write trade-offs show only here",
		ch:   true, wal: true, stripes: 2, autoFreeze: 1, budgeted: true, hybrid: true, queryPar: 1,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// workPlan is the fixed work of one run. Every count is decided before the
// run starts, from the scale and -seconds alone, so data sizes, WAL length
// and byte ratios repeat exactly; only the elapsed time varies.
type workPlan struct {
	sf                        float64 // TPC-H scale factor
	customers, items, preload int     // CH sizes
	chunkRows                 int     // WithChunkRows; 0 keeps the 2^16 default
	budget                    int64   // WithMemoryBudget, bytes per table
	cycles                    int     // query cycles (hybrid: lower limit, the analyst runs until the writer is done)
	lookups                   int
	txs                       int
	warmTx                    int // untimed transactions before the timed ones
	sliceTx                   int // transactions per throughput slice
	setups                    int // timed set-ups (median reported)
	restarts                  int // timed restarts (median reported)
}

// refSeconds is the -seconds value the full-scale counts below are sized
// for (BENCHMARK.json's run_seconds): at the seed commit on two cores the
// measured phases of each workload then take about that long. Other values
// scale the counts in proportion, never below what the tail percentiles
// need.
const refSeconds = 12.0

// benchChunkRows is the chunk capacity of every table, the value
// internal/tpcc defaults to. At the sizes the time cap admits, the 2^16
// default would cut lineitem into two blocks: nothing for two morsel
// workers to balance, nothing for the evictor to choose between (two
// pinned blocks are simply never evicted), and only a handful of
// background freezes in a whole hybrid run.
const benchChunkRows = 1 << 14

// The traced run does less of everything: it pays for spans, profiles and
// the micro-probes instead.
func (w *workload) plan(scale string, seconds float64, traced bool) (workPlan, error) {
	var p workPlan
	switch scale {
	case "full":
		p = workPlan{setups: 3, restarts: 9, warmTx: 1000, chunkRows: benchChunkRows}
		switch w.name {
		case "olap_frozen":
			p.sf, p.cycles, p.lookups, p.txs, p.sliceTx = 0.02, 200, 1_500_000, 80_000, 4000
		case "olap_evicted":
			p.sf, p.cycles, p.lookups, p.txs, p.sliceTx = 0.02, 120, 1_500_000, 40_000, 2000
			p.budget = 2560 << 10
		case "oltp_durable":
			p.customers, p.items, p.preload = 30_000, 100_000, 20_000
			p.cycles, p.lookups, p.txs, p.sliceTx = 150, 1_500_000, 30_000, 1500
			p.restarts = 5 // each replays the whole log
		case "hybrid_ch":
			p.customers, p.items, p.preload = 30_000, 100_000, 10_000
			p.cycles, p.lookups, p.txs, p.sliceTx = 100, 1_500_000, 30_000, 1500
			p.budget = 8 << 20
		}
		f := seconds / refSeconds
		scaleCount := func(n, min int) int {
			v := int(math.Round(float64(n) * f))
			if v < min {
				v = min
			}
			return v
		}
		p.cycles = scaleCount(p.cycles, 100)      // p90 needs ten cycles beyond it
		p.lookups = scaleCount(p.lookups, 10_000) // p95
		p.txs = scaleCount(p.txs, 10*p.sliceTx)   // ten throughput slices
		if traced {
			p.cycles, p.lookups, p.txs, p.setups, p.restarts = 20, 50_000, 20_000, 1, 1
		}
	case "smoke":
		// For tests only: never a reported workload.
		p = workPlan{
			sf: 0.005, customers: 500, items: 1000, preload: 600,
			cycles: 3, lookups: 2000, txs: 500, warmTx: 20, sliceTx: 100,
			setups: 1, restarts: 1,
		}
		if w.budgeted {
			p.budget = 256 << 10
		}
	default:
		return p, fmt.Errorf("unknown scale %q", scale)
	}
	return p, nil
}

func (w *workload) newFamily(p workPlan, seed uint64) family {
	if w.ch {
		return newCH(p.customers, p.items, p.preload, p.txs+p.warmTx, seed)
	}
	return newTPCH(p.sf, seed)
}

// openOptions are the OpenPath defaults of the workload, identical for the
// run and for every restart.
func (w *workload) openOptions(p workPlan) []datablocks.TableOption {
	var opts []datablocks.TableOption
	if w.wal {
		opts = append(opts, datablocks.WithWAL())
	}
	if w.stripes > 1 {
		opts = append(opts, datablocks.WithWriteStripes(w.stripes))
	}
	if w.autoFreeze > 0 {
		opts = append(opts, datablocks.WithAutoFreeze(w.autoFreeze))
	}
	if w.budgeted && p.budget > 0 {
		opts = append(opts, datablocks.WithMemoryBudget(p.budget))
	}
	if p.chunkRows > 0 {
		opts = append(opts, datablocks.WithChunkRows(p.chunkRows))
	}
	return opts
}

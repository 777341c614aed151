package datablocks

import (
	"fmt"
	"runtime"

	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/storage"
)

// Lookup resolves a primary key through the hash index: the OLTP point
// access path. Works identically on hot and frozen tuples (§3.4).
//
// Lookups are anomaly-free under concurrent updates: the reader captures
// the relation's write epoch *before* resolving the index record, then
// reads the version visible at that epoch — the current tuple, or, while
// an update is mid-flight (new version published but not yet committed,
// or committed after the reader's epoch), the previous version. A key
// that exists at all times therefore always resolves; a miss means the
// key was absent or deleted at the reader's epoch.
//
// A sorted freeze reassigns tuple identifiers and rebuilds the index, a
// bulk load rebuilds it; a Lookup waits while either runs and retries
// when one ran between its index probe and its read, so it neither
// returns another key's row nor misses a key that was there throughout.
func (t *Table) Lookup(key int64) (Row, bool) {
	if t.pk == nil {
		return nil, false
	}
	for {
		g := t.reorg.Load()
		if g&1 != 0 {
			runtime.Gosched()
			continue
		}
		row, ok := t.lookupVersioned(key)
		if t.reorg.Load() != g {
			continue
		}
		if ok {
			t.ops.hits.Inc(uint64(key))
		} else {
			t.ops.misses.Inc(uint64(key))
		}
		return row, ok
	}
}

// lookupVersioned is Lookup's epoch-retry loop.
func (t *Table) lookupVersioned(key int64) (Row, bool) {
	for {
		// Epoch first, record second: the writer publishes the index
		// record before it commits (mints the epoch) and drops the
		// previous version only after, so a current version newer than
		// our epoch comes either with a previous version or with a commit
		// that a fresh epoch will see.
		e := t.rel.ReadEpoch()
		rec, ok := t.pk.LookupRecord(key)
		if !ok {
			return nil, false
		}
		row, vis := t.rel.GetAt(rec.Cur, e)
		if vis == storage.Visible {
			return row, true
		}
		if vis != storage.NotYetBorn {
			// Cur retired at or before our epoch (and any previous version
			// even earlier): the key was genuinely deleted.
			return nil, false
		}
		if rec.HasPrev {
			prow, pvis := t.rel.GetAt(rec.Prev, e)
			if pvis == storage.Visible {
				return prow, true
			}
			if pvis != storage.NotYetBorn {
				return nil, false
			}
		}
		// Nothing at or before our epoch is on record: the update sealed
		// between our two loads (with a previous version: two commits
		// landed in that window), or Cur is the pending row of a
		// key-changing update in flight, whose writer commits it or takes
		// the record out again (an aborted row stays not-yet-born). A
		// fresh epoch resolves each: a committed version is visible at
		// any later one.
		runtime.Gosched()
	}
}

// LookupScan finds a row by scanning with a SARGable equality predicate —
// Table 3's "no index" configuration, accelerated by SMAs/PSMAs when the
// data is clustered. A scan failure is reported as an error, distinct
// from a clean miss.
func (t *Table) LookupScan(col string, key int64, mode ScanMode) (Row, bool, error) {
	res, err := t.Scan(t.schema.Names(), []Pred{{Col: col, Op: Eq, Lo: Int(key)}}, QueryOptions{Mode: mode})
	if err != nil {
		return nil, false, err
	}
	if res.NumRows() == 0 {
		return nil, false, nil
	}
	return res.Row(0), true, nil
}

// Pred is a SARGable predicate referencing columns by name.
type Pred struct {
	Col    string
	Op     CompareOp
	Lo, Hi Value
}

// ScanPlan builds a scan over named columns with named predicates, for
// composition into larger plans. Predicate columns missing from the
// projection are scanned internally and trimmed away again, so the output
// schema is exactly cols.
func (t *Table) ScanPlan(cols []string, preds []Pred, filter Expr) (Node, error) {
	ords := make([]int, len(cols))
	for i, c := range cols {
		ords[i] = t.schema.ColumnIndex(c)
		if ords[i] < 0 {
			return nil, fmt.Errorf("datablocks: unknown column %q", c)
		}
	}
	cpreds := make([]core.Predicate, len(preds))
	extended := false
	for i, p := range preds {
		ord := t.schema.ColumnIndex(p.Col)
		if ord < 0 {
			return nil, fmt.Errorf("datablocks: unknown predicate column %q", p.Col)
		}
		cpreds[i] = core.Predicate{Col: ord, Op: p.Op, Lo: p.Lo, Hi: p.Hi}
		present := false
		for _, o := range ords {
			if o == ord {
				present = true
				break
			}
		}
		if !present {
			ords = append(ords, ord)
			extended = true
		}
	}
	scan := &exec.ScanNode{Rel: t.rel, Cols: ords, Preds: cpreds, Filter: filter}
	if !extended {
		return scan, nil
	}
	trim := make([]Expr, len(cols))
	for i := range cols {
		trim[i] = exec.Col(i)
	}
	return &exec.MapNode{Child: scan, Exprs: trim}, nil
}

// Scan runs a predicate scan and materializes the projected columns.
func (t *Table) Scan(cols []string, preds []Pred, opt QueryOptions) (*Result, error) {
	plan, err := t.ScanPlan(cols, preds, nil)
	if err != nil {
		return nil, err
	}
	res, err := exec.Run(plan, t.applyDefaults(opt))
	if err != nil {
		return nil, err
	}
	t.ops.scans.Inc()
	t.ops.rowsRead.Add(uint64(res.NumRows()))
	return res, nil
}

// Query executes an arbitrary physical plan with the table's default
// options (morsel parallelism) applied where the caller left them unset.
// Use this instead of the package-level Query when the plan's driving scan
// belongs to this table and its WithParallelism default should take effect.
func (t *Table) Query(plan Node, opt QueryOptions) (*Result, error) {
	res, err := exec.Run(plan, t.applyDefaults(opt))
	if err != nil {
		return nil, err
	}
	t.ops.queries.Inc()
	t.ops.rowsRead.Add(uint64(res.NumRows()))
	return res, nil
}

// applyDefaults resolves the table-level query defaults: a zero
// Parallelism picks up WithParallelism (n <= 0 meaning all of GOMAXPROCS).
func (t *Table) applyDefaults(opt QueryOptions) QueryOptions {
	if opt.Parallelism == 0 && t.hasDefaultPar {
		if t.defaultPar > 0 {
			opt.Parallelism = t.defaultPar
		} else {
			opt.Parallelism = runtime.GOMAXPROCS(0)
		}
	}
	return opt
}

// Query executes an arbitrary physical plan.
func Query(plan Node, opt QueryOptions) (*Result, error) { return exec.Run(plan, opt) }

package datablocks

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datablocks/internal/exec"
)

// TestWithParallelismDefault: a table-level WithParallelism default kicks
// in when QueryOptions leave Parallelism unset, and parallel scans return
// the same rows as serial ones.
func TestWithParallelismDefault(t *testing.T) {
	db := Open(WithParallelism(0)) // DB-wide default: all cores
	defer db.Close()
	tbl, err := db.CreateTable("orders",
		[]Column{
			{Name: "id", Kind: Int64},
			{Name: "amount", Kind: Float64},
		},
		WithPrimaryKey("id"), WithChunkRows(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if _, err = tbl.Insert(Row{Int(int64(i)), Float(float64(i % 997))}); err != nil {
			t.Fatal(err)
		}
	}
	if err = tbl.Freeze(); err != nil {
		t.Fatal(err)
	}
	preds := []Pred{{Col: "amount", Op: Lt, Lo: Float(500)}}
	par, err := tbl.Scan([]string{"id", "amount"}, preds, QueryOptions{Mode: ModeVectorizedSARG})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := tbl.Scan([]string{"id", "amount"}, preds, QueryOptions{Mode: ModeVectorizedSARG, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if par.NumRows() == 0 || par.NumRows() != serial.NumRows() {
		t.Fatalf("parallel rows = %d, serial = %d", par.NumRows(), serial.NumRows())
	}
	// Table.Query applies the same default to arbitrary plans.
	plan, err := tbl.ScanPlan([]string{"id"}, preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Query(plan, QueryOptions{Mode: ModeVectorizedSARG})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != serial.NumRows() {
		t.Fatalf("Table.Query rows = %d, want %d", res.NumRows(), serial.NumRows())
	}
}

// TestParallelBatchQueryUnderWrites is the batch-pipeline stress: parallel
// batch-mode aggregation queries run concurrently with OLTP writers
// (inserts, updates, deletes) and the background freezer. Run under -race
// via `make stress`. Every query must see a consistent snapshot: the id sum
// it returns has to equal the sum implied by its own row count, because
// writers only ever hold the invariant id == amount. A semi join builds
// its per-worker key tables from the live table, and merges them, under
// the same writers: every seed id no writer deletes must find its key.
func TestParallelBatchQueryUnderWrites(t *testing.T) {
	db := Open()
	defer db.Close()
	tbl, err := db.CreateTable("events",
		[]Column{
			{Name: "id", Kind: Int64},
			{Name: "amount", Kind: Int64},
			{Name: "tag", Kind: String},
		},
		WithPrimaryKey("id"), WithChunkRows(1<<10), WithAutoFreeze(1), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 8192
	tags := []string{"a", "b", "c"}
	for i := 0; i < seed; i++ {
		if _, err = tbl.Insert(Row{Int(int64(i)), Int(int64(i)), Str(tags[i%3])}); err != nil {
			t.Fatal(err)
		}
	}
	var (
		stop    atomic.Bool
		nextID  atomic.Int64
		wg      sync.WaitGroup
		queryOK atomic.Int64
		semiOK  atomic.Int64
	)
	nextID.Store(seed)
	writer := func(worker int) {
		defer wg.Done()
		for !stop.Load() {
			id := nextID.Add(1)
			if _, err := tbl.Insert(Row{Int(id), Int(id), Str(tags[id%3])}); err != nil {
				t.Error(err)
				return
			}
			// Rewrite and delete older rows to exercise versioned reads
			// under the scan snapshots.
			victim := id - seed/2
			if victim > 0 && victim%7 == int64(worker) {
				_ = tbl.Update(victim, Row{Int(victim), Int(victim), Str("upd")})
			}
			if victim > 0 && victim%13 == int64(worker) {
				tbl.Delete(victim)
			}
		}
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go writer(w)
	}
	reader := func() {
		defer wg.Done()
		plan, err := tbl.ScanPlan([]string{"id", "amount", "tag"}, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		for !stop.Load() {
			agg := &exec.AggNode{
				Child: plan,
				Aggs: []exec.AggSpec{
					{Func: exec.AggCount},
					{Func: exec.AggSum, Arg: Col(0)},
					{Func: exec.AggSum, Arg: Col(1)},
				},
			}
			res, err := tbl.Query(agg, QueryOptions{Mode: ModeVectorizedSARG})
			if err != nil {
				t.Error(err)
				return
			}
			if res.NumRows() != 1 {
				t.Errorf("agg rows = %d", res.NumRows())
				return
			}
			// id == amount on every live row, so the two sums must match
			// within one snapshot — a torn scan would break this.
			if res.Cols[1].Floats[0] != res.Cols[2].Floats[0] {
				t.Errorf("torn snapshot: sum(id)=%v sum(amount)=%v",
					res.Cols[1].Floats[0], res.Cols[2].Floats[0])
				return
			}
			queryOK.Add(1)
		}
	}
	// Writers delete only ids > 0 with id%13 < 3; the probe side is a
	// static table of the seed ids and as many negative ones, which never
	// match.
	probeTbl, err := db.CreateTable("probe", []Column{{Name: "id", Kind: Int64}}, WithChunkRows(1<<10))
	if err != nil {
		t.Fatal(err)
	}
	for i := -seed / 8; i < seed; i++ {
		if _, err := probeTbl.Insert(Row{Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	semiReader := func() {
		defer wg.Done()
		build, err := tbl.ScanPlan([]string{"amount"}, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		probe, err := probeTbl.ScanPlan([]string{"id"}, nil, nil)
		if err != nil {
			t.Error(err)
			return
		}
		semi := &exec.JoinNode{Build: build, Probe: probe, BuildKeys: []int{0}, ProbeKeys: []int{0}, Kind: exec.SemiJoin}
		for !stop.Load() {
			res, err := tbl.Query(semi, QueryOptions{Mode: ModeVectorizedSARG})
			if err != nil {
				t.Error(err)
				return
			}
			found := make(map[int64]bool, res.NumRows())
			for _, id := range res.Cols[0].Ints {
				if id < 0 || found[id] {
					t.Errorf("semi join emitted id %d wrongly or twice", id)
					return
				}
				found[id] = true
			}
			for id := int64(0); id < seed; id++ {
				if id%13 >= 3 && !found[id] {
					t.Errorf("semi join lost live key %d", id)
					return
				}
			}
			semiOK.Add(1)
		}
	}
	wg.Add(3)
	go reader()
	go reader()
	go semiReader()
	// Run until each reader kind has checked a few queries; the deadline
	// only catches a reader that stopped making progress.
	const enough = 3
	deadline := time.Now().Add(60 * time.Second)
	for (queryOK.Load() < enough || semiOK.Load() < enough) && !t.Failed() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	if queryOK.Load() < enough || semiOK.Load() < enough {
		t.Fatalf("%d aggregations and %d semi joins completed, want %d of each", queryOK.Load(), semiOK.Load(), enough)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

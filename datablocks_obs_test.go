package datablocks

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"datablocks/internal/exec"
)

// allModes are the Table 2 scan configurations every profile invariant
// must hold under.
var allModes = []ScanMode{ModeJIT, ModeVectorized, ModeVectorizedSARG, ModeVectorizedSARGPSMA}

// profiledOrders builds a table with frozen blocks, a hot tail and a few
// deleted rows — every chunk flavor a profiled scan can meet.
func profiledOrders(t *testing.T, opts ...TableOption) (*DB, *Table) {
	t.Helper()
	db, tbl := ordersTable(t, append([]TableOption{WithChunkRows(256)}, opts...)...)
	for i := 0; i < 1000; i++ {
		if _, err := tbl.Insert(Row{Int(int64(i)), Float(float64(i % 100)), Str("s")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		tbl.Delete(int64(i * 7))
	}
	if err := tbl.Freeze(); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// checkProfile asserts the structural invariants every QueryProfile must
// satisfy: chunk accounting is exact, row counts conserve along the
// operator chain, and the final operator's output is the result.
func checkProfile(t *testing.T, p *QueryProfile, resultRows int) {
	t.Helper()
	if p == nil {
		t.Fatal("Profile requested but Result.Profile is nil")
	}
	s := &p.Scan
	if s.HotChunks+s.FrozenChunks+s.SkippedChunks != s.TotalChunks {
		t.Fatalf("chunk accounting: hot %d + frozen %d + skipped %d != total %d",
			s.HotChunks, s.FrozenChunks, s.SkippedChunks, s.TotalChunks)
	}
	if len(p.Operators) == 0 {
		t.Fatal("no operators in profile")
	}
	for i := 1; i < len(p.Operators); i++ {
		if p.Operators[i].RowsIn != p.Operators[i-1].RowsOut {
			t.Fatalf("operator %d (%s): rowsIn %d != upstream rowsOut %d",
				i, p.Operators[i].Name, p.Operators[i].RowsIn, p.Operators[i-1].RowsOut)
		}
	}
	last := p.Operators[len(p.Operators)-1]
	if last.RowsOut != uint64(resultRows) {
		t.Fatalf("final operator %s rowsOut %d != result rows %d", last.Name, last.RowsOut, resultRows)
	}
	if p.Operators[0].RowsOut > s.RowsMatched {
		t.Fatalf("scan rowsOut %d exceeds rows matched %d", p.Operators[0].RowsOut, s.RowsMatched)
	}
	var morsels uint64
	for _, w := range p.Workers {
		morsels += w.Morsels
	}
	if morsels != s.HotChunks+s.FrozenChunks+s.SkippedChunks {
		t.Fatalf("worker morsels %d != chunks visited %d", morsels, s.TotalChunks)
	}
	if p.String() == "" {
		t.Fatal("empty profile rendering")
	}
}

func TestQueryProfileInvariants(t *testing.T) {
	_, tbl := profiledOrders(t)
	for _, mode := range allModes {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("%v/par%d", mode, par), func(t *testing.T) {
				res, err := tbl.Scan([]string{"id", "amount"},
					[]Pred{{Col: "id", Op: Ge, Lo: Int(600)}},
					QueryOptions{Mode: mode, Parallelism: par, Profile: true})
				if err != nil {
					t.Fatal(err)
				}
				p := res.Profile
				checkProfile(t, p, res.NumRows())
				if len(p.Workers) < 1 || (par == 1 && len(p.Workers) != 1) {
					t.Fatalf("worker count %d for parallelism %d", len(p.Workers), par)
				}
				// ids are chunk-clustered, so the SARG-pushdown modes must
				// rule whole frozen blocks out through the SMA.
				if mode == ModeVectorizedSARG || mode == ModeVectorizedSARGPSMA {
					if p.Scan.SkippedChunks == 0 {
						t.Fatal("SARG mode skipped no chunks on clustered ids")
					}
					// No residual filter: everything the scan matched flowed out.
					if p.Operators[0].RowsOut != p.Scan.RowsMatched {
						t.Fatalf("scan rowsOut %d != matched %d without residual",
							p.Operators[0].RowsOut, p.Scan.RowsMatched)
					}
				}
				if mode != ModeJIT && p.Scan.Vectors == 0 {
					t.Fatal("vectorized mode recorded no vectors")
				}
			})
		}
	}
}

func TestQueryProfileAggregate(t *testing.T) {
	_, tbl := profiledOrders(t)
	scan, err := tbl.ScanPlan([]string{"amount", "id"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := &exec.AggNode{
		Child:   scan,
		GroupBy: []int{0},
		Aggs:    []exec.AggSpec{{Func: exec.AggCount}, {Func: exec.AggSum, Arg: Col(1)}},
	}
	for _, par := range []int{1, 4} {
		res, err := tbl.Query(plan, QueryOptions{Mode: ModeVectorizedSARGPSMA, Parallelism: par, Profile: true})
		if err != nil {
			t.Fatal(err)
		}
		p := res.Profile
		if p == nil {
			t.Fatal("no profile")
		}
		sink := p.Operators[len(p.Operators)-1]
		if sink.Name != "aggregate" || !sink.GroupingDetail {
			t.Fatalf("sink = %+v, want aggregate with grouping detail", sink)
		}
		if sink.Groups != uint64(res.NumRows()) {
			t.Fatalf("groups %d != result rows %d", sink.Groups, res.NumRows())
		}
		checkProfile(t, p, res.NumRows())
	}
}

func TestQueryProfileFallbackAndOrderBy(t *testing.T) {
	_, tbl := profiledOrders(t)
	scan, err := tbl.ScanPlan([]string{"id"}, []Pred{{Col: "id", Op: Lt, Lo: Int(50)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ob := &exec.OrderByNode{Child: scan, Keys: []exec.OrderKey{{Col: 0, Desc: true}}, Limit: 10}
	res, err := tbl.Query(ob, QueryOptions{Mode: ModeVectorizedSARG, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	if p.Fallback != "" {
		t.Fatalf("a vectorized query reports a fallback: %q", p.Fallback)
	}
	last := p.Operators[len(p.Operators)-1]
	if last.Name != "order-by" {
		t.Fatalf("last operator %q, want order-by", last.Name)
	}
	if last.RowsOut != uint64(res.NumRows()) || res.NumRows() != 10 {
		t.Fatalf("order-by rowsOut %d, result %d, want 10", last.RowsOut, res.NumRows())
	}
	if last.RowsIn <= last.RowsOut {
		t.Fatalf("limit did not truncate: in %d out %d", last.RowsIn, last.RowsOut)
	}
}

func TestQueryProfileReloads(t *testing.T) {
	_, tbl := profiledOrders(t, WithBlockStore(t.TempDir()), WithMemoryBudget(1))
	if _, err := tbl.Relation().EvictUnderBudget(); err != nil {
		t.Fatal(err)
	}
	res, err := tbl.Scan([]string{"id", "amount"}, nil,
		QueryOptions{Mode: ModeVectorizedSARGPSMA, Parallelism: 4, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Profile
	checkProfile(t, p, res.NumRows())
	if p.Scan.Reloads == 0 {
		t.Fatal("scan over evicted blocks recorded no reloads")
	}
	if p.Scan.PinWait == 0 {
		t.Fatal("reloading scan recorded no pin wait")
	}
	if m := tbl.Metrics(); m.Cold.Reloads < int64(p.Scan.Reloads) {
		t.Fatalf("table reloads %d < profile reloads %d", m.Cold.Reloads, p.Scan.Reloads)
	}
}

func TestObsHandlerEndpoints(t *testing.T) {
	db, tbl := profiledOrders(t)
	if _, err := tbl.Scan([]string{"id"}, nil, QueryOptions{Mode: ModeVectorizedSARG}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(db.ObsHandler())
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	metrics := get("/metrics")
	for _, want := range []string{
		`datablocks_rows{table="orders"}`,
		`datablocks_freezes_total{table="orders"}`,
		`datablocks_ops_total{op="insert",table="orders"} 1000`,
		`datablocks_index_keys{table="orders"} 980`,
		`datablocks_index_bytes{table="orders"}`,
		"# TYPE datablocks_freeze_duration_ns histogram",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, metrics)
		}
	}

	var vars map[string]Metrics
	if err := json.Unmarshal([]byte(get("/vars")), &vars); err != nil {
		t.Fatalf("/vars is not JSON: %v", err)
	}
	if vars["datablocks"].Tables["orders"].Ops.Inserts != 1000 {
		t.Fatalf("/vars inserts = %d, want 1000", vars["datablocks"].Tables["orders"].Ops.Inserts)
	}
	// 16-byte slots at no more than 7/8 load, at least a quarter full.
	if tm := vars["datablocks"].Tables["orders"]; tm.IndexBytes < 16*tm.IndexKeys || tm.IndexBytes > 64*tm.IndexKeys {
		t.Fatalf("/vars IndexBytes = %d for %d keys", tm.IndexBytes, tm.IndexKeys)
	}
}

// TestMetricsRace hammers Metrics()/promSamples from multiple goroutines
// while writers, readers and the freezer mutate the table — the snapshot
// must be race-clean (run under -race in CI).
func TestMetricsRace(t *testing.T) {
	db, tbl := ordersTable(t, WithChunkRows(128))
	if _, err := tbl.Insert(Row{Int(1), Float(1), Str("seed")}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := int64(1_000_000 + i)
			if _, err := tbl.Insert(Row{Int(id), Float(1), Str("w")}); err != nil {
				t.Error(err)
				return
			}
			if i%3 == 0 {
				_ = tbl.Update(id, Row{Int(id), Float(2), Str("u")})
			}
			if i%5 == 0 {
				tbl.Delete(id)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := tbl.Freeze(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			tbl.Lookup(int64(1_000_000 + i))
			if _, err := tbl.Scan([]string{"id"}, nil, QueryOptions{Mode: ModeVectorizedSARG, Profile: true}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		m := db.Metrics()
		if m.Tables["orders"].Ops.Inserts == 0 {
			t.Error("metrics snapshot missed the seeded insert")
			break
		}
		_ = db.promSamples()
	}
	close(stop)
	wg.Wait()
}

// TestLookupOpCountsExact: four goroutines look up keys concurrently, a
// known share of them absent; Metrics must then report the exact lookup,
// miss and rows-read counts — no counter sampled, no stripe left out of
// the sum.
func TestLookupOpCountsExact(t *testing.T) {
	const keys, workers, per = 1000, 4, 5000
	db, tbl := accountsTable(t, keys)
	defer db.Close()
	res, err := tbl.Scan([]string{"id"}, []Pred{{Col: "id", Op: Lt, Lo: Int(100)}}, QueryOptions{})
	if err != nil || res.NumRows() != 100 {
		t.Fatalf("scan: %v rows, %v", res.NumRows(), err)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				key := int64((i*workers + g) % (2 * keys)) // keys >= 1000 are absent
				if _, ok := tbl.Lookup(key); ok != (key < keys) {
					t.Errorf("Lookup(%d) = %v", key, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ops := db.Metrics().Tables["accounts"].Ops
	const lookups, misses = workers * per, workers * per / 2
	if ops.Lookups != lookups || ops.LookupMisses != misses || ops.RowsRead != 100+lookups-misses {
		t.Fatalf("ops %+v, want %d lookups, %d misses, %d rows read", ops, lookups, misses, 100+lookups-misses)
	}
}

package datablocks

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datablocks/internal/walfs"
)

func ordersTable(t *testing.T, opts ...TableOption) (*DB, *Table) {
	t.Helper()
	db := Open()
	tbl, err := db.CreateTable("orders",
		[]Column{
			{Name: "id", Kind: Int64},
			{Name: "amount", Kind: Float64},
			{Name: "status", Kind: String},
		},
		append([]TableOption{WithPrimaryKey("id")}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// TestUpdatePKCollisionRejected is the regression test for the PK-clobber
// bug: changing a row's primary key to one that already exists must fail
// and leave both rows and the index untouched.
func TestUpdatePKCollisionRejected(t *testing.T) {
	_, tbl := ordersTable(t)
	mustInsert := func(id int64, amount float64) {
		if _, err := tbl.Insert(Row{Int(id), Float(amount), Str("s")}); err != nil {
			t.Fatal(err)
		}
	}
	mustInsert(1, 10)
	mustInsert(2, 20)

	if err := tbl.Update(1, Row{Int(2), Float(99), Str("clobber")}); err == nil {
		t.Fatal("PK-colliding update succeeded")
	}
	// Both tuples and index entries intact.
	for _, want := range []struct {
		id     int64
		amount float64
	}{{1, 10}, {2, 20}} {
		row, ok := tbl.Lookup(want.id)
		if !ok {
			t.Fatalf("key %d lost after rejected update", want.id)
		}
		if row[1].Float() != want.amount {
			t.Fatalf("key %d amount = %v, want %v", want.id, row[1], want.amount)
		}
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}

	// A key change to a *free* key still works and retires the old key.
	if err := tbl.Update(1, Row{Int(3), Float(30), Str("moved")}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tbl.Lookup(1); ok {
		t.Fatal("old key still resolves")
	}
	if row, ok := tbl.Lookup(3); !ok || row[1].Float() != 30 {
		t.Fatal("new key wrong")
	}
	// Updating in place (same key) is unaffected.
	if err := tbl.Update(2, Row{Int(2), Float(21), Str("bump")}); err != nil {
		t.Fatal(err)
	}
	if row, _ := tbl.Lookup(2); row[1].Float() != 21 {
		t.Fatal("in-place update lost")
	}
}

// TestUpdateInvalidRowLeavesTableIntact: a row failing storage validation
// must not delete the tuple or disturb the index (regression for the
// delete-before-validate bug observed through the public API).
func TestUpdateInvalidRowLeavesTableIntact(t *testing.T) {
	_, tbl := ordersTable(t)
	if _, err := tbl.Insert(Row{Int(7), Float(1.5), Str("keep")}); err != nil {
		t.Fatal(err)
	}
	bad := []Row{
		{Int(7), Str("not a float"), Str("x")}, // kind mismatch
		{Int(7), Float(0)},                     // wrong arity
		{Null(Int64), Float(0), Str("x")},      // NULL primary key
	}
	for i, row := range bad {
		if err := tbl.Update(7, row); err == nil {
			t.Fatalf("bad row %d accepted", i)
		}
		got, ok := tbl.Lookup(7)
		if !ok {
			t.Fatalf("bad row %d: key 7 lost", i)
		}
		if got[1].Float() != 1.5 || got[2].Str() != "keep" {
			t.Fatalf("bad row %d: tuple mutated: %v", i, got)
		}
	}
	if tbl.NumRows() != 1 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
}

// TestAutoFreezeBackground: with WithAutoFreeze, sealed chunks become Data
// Blocks behind the insert tail without any explicit Freeze call, and
// every key stays readable throughout.
func TestAutoFreezeBackground(t *testing.T) {
	db, tbl := ordersTable(t, WithChunkRows(256), WithAutoFreeze(1))
	const n = 4096
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(Row{Int(int64(i)), Float(float64(i)), Str("s")}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if tbl.Stats().FrozenChunks >= n/256-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compactor froze only %d chunks", tbl.Stats().FrozenChunks)
		}
		time.Sleep(time.Millisecond)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		row, ok := tbl.Lookup(int64(i))
		if !ok || row[0].Int() != int64(i) {
			t.Fatalf("key %d unreadable after auto-freeze", i)
		}
	}
	res, err := tbl.Scan([]string{"id"}, nil, QueryOptions{Mode: ModeVectorizedSARG})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != n {
		t.Fatalf("scan rows = %d, want %d", res.NumRows(), n)
	}
	// Close is idempotent and the table stays writable.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(Row{Int(int64(n)), Float(0), Str("post-close")}); err != nil {
		t.Fatal(err)
	}
}

// TestAutoFreezeWakesOnUpdateRollover: an update-only workload appends new
// row versions and seals chunks just like inserts; those rollovers must
// wake the background worker too, or sealed hot chunks pile up unfrozen.
// The worker is stopped and its step driven by hand, so the test
// observes the wake itself rather than polling for its effect.
func TestAutoFreezeWakesOnUpdateRollover(t *testing.T) {
	db, tbl := ordersTable(t, WithChunkRows(128), WithAutoFreeze(1))
	db.stopBackground()
	select {
	case <-db.wake: // the table's creation wake
	default:
	}
	const keys = 100 // less than one chunk: only updates can seal chunks
	for i := 0; i < keys; i++ {
		if _, err := tbl.Insert(Row{Int(int64(i)), Float(0), Str("v0")}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i++ {
		key := int64(i % keys)
		if err := tbl.Update(key, Row{Int(key), Float(float64(i)), Str("vn")}); err != nil {
			t.Fatal(err)
		}
	}
	if len(db.wake) == 0 {
		t.Fatal("update-only workload never woke the background worker")
	}
	if !db.step() || tbl.Stats().FrozenChunks == 0 {
		t.Fatalf("step after the updates froze %d chunks", tbl.Stats().FrozenChunks)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if _, ok := tbl.Lookup(int64(i)); !ok {
			t.Fatalf("key %d lost", i)
		}
	}
}

// engineGoroutines counts the live goroutines the engine's own code in
// this package started; goroutines the tests start, and the runtime's
// and the testing package's, are not counted.
func engineGoroutines() int {
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if _, creator, ok := strings.Cut(g, "\ncreated by datablocks."); ok && !strings.HasPrefix(creator, "Test") {
			count++
		}
	}
	return count
}

// TestOneBackgroundWorker: a database runs one background goroutine
// however many of its tables freeze and evict in the background, and
// Close stops it.
func TestOneBackgroundWorker(t *testing.T) {
	before := engineGoroutines()
	db := Open(WithBlockStore(t.TempDir()), WithAutoFreeze(1), WithMemoryBudget(64<<10))
	for i := 0; i < 8; i++ {
		if _, err := db.CreateTable(fmt.Sprintf("t%d", i), []Column{{Name: "id", Kind: Int64}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := engineGoroutines() - before; n != 1 {
		t.Fatalf("Open plus 8 background tables added %d goroutines, want 1", n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The worker exits just after Close has seen it stop.
	deadline := time.Now().Add(5 * time.Second)
	for engineGoroutines() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after Close", engineGoroutines()-before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStepServesEveryTable drives the background worker by hand. One
// step freezes table a's sealed backlog and brings table b, reloaded past
// its budget, back under it; the next step finds nothing to do. On a
// durable database whose file layer fails the step's first call, the
// step reports no progress, a later step does not refreeze what the
// failed one froze, and Close returns the noted error.
func TestStepServesEveryTable(t *testing.T) {
	const budget = 16 << 10
	cols := []Column{{Name: "id", Kind: Int64}, {Name: "v", Kind: Float64}}
	fill := func(tbl *Table, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := tbl.Insert(Row{Int(int64(i)), Float(float64(i) / 3)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	db := Open()
	db.stopBackground()
	a, err := db.CreateTable("a", cols, WithPrimaryKey("id"), WithChunkRows(256), WithAutoFreeze(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.CreateTable("b", cols, WithPrimaryKey("id"), WithChunkRows(256),
		WithBlockStore(t.TempDir()), WithMemoryBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	fill(a, 2000)
	fill(b, 4000)
	if err = b.FreezeAll(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < b.rel.NumChunks(); c++ {
		if _, err = b.rel.EvictChunk(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err = b.Scan([]string{"id", "v"}, nil, QueryOptions{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if s := b.ColdStats(); s.ResidentBytes <= budget {
		t.Fatalf("reload left %d resident bytes, want more than the %d budget", s.ResidentBytes, budget)
	}
	if !db.step() {
		t.Fatal("first step reported no progress")
	}
	if n := a.rel.SealedHotChunks(); n != 0 || a.Stats().FrozenChunks == 0 {
		t.Fatalf("table a after one step: %d sealed, %d frozen", n, a.Stats().FrozenChunks)
	}
	if s := b.ColdStats(); s.ResidentBytes > budget {
		t.Fatalf("table b after one step: %d resident bytes, budget %d", s.ResidentBytes, budget)
	}
	if db.step() {
		t.Fatal("second step reported progress with nothing left to do")
	}
	if err = db.Close(); err != nil {
		t.Fatal(err)
	}

	ffs := walfs.NewFaultFS()
	ddb, err := openPath(ffs, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ddb.stopBackground()
	d, err := ddb.CreateTable("d", cols, WithPrimaryKey("id"), WithChunkRows(256), WithAutoFreeze(1))
	if err != nil {
		t.Fatal(err)
	}
	fill(d, 2000)
	ffs.FailOp(len(ffs.Log()) + 1)
	if ddb.step() {
		t.Fatal("step whose checkpoint failed reported progress")
	}
	frozen, ops := d.Stats().FrozenChunks, len(ffs.Log())
	if frozen == 0 || d.rel.SealedHotChunks() != 0 {
		t.Fatalf("failed step left %d frozen, %d sealed", frozen, d.rel.SealedHotChunks())
	}
	if ddb.step() || d.Stats().FrozenChunks != frozen || len(ffs.Log()) != ops {
		t.Fatalf("a later step retried: %d frozen (was %d), %d file calls (was %d)",
			d.Stats().FrozenChunks, frozen, len(ffs.Log()), ops)
	}
	if err := ddb.Close(); !errors.Is(err, walfs.ErrInjected) {
		t.Fatalf("Close returned %v, want the step's injected fault", err)
	}
}

// TestHybridStress is the acceptance stress test: OLTP writers, OLAP
// scanners and the background freezer all run concurrently on one table.
// Run it under `go test -race` to prove the lifecycle is race-free.
func TestHybridStress(t *testing.T) {
	db, tbl := ordersTable(t, WithChunkRows(512), WithAutoFreeze(1))
	const (
		writers   = 4
		scanners  = 2
		perWriter = 4000
		stripe    = int64(1) << 32
	)
	var (
		wg, scanWg sync.WaitGroup
		stop       = make(chan struct{})
		live       atomic.Int64
	)
	errCh := make(chan error, writers+scanners)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}

	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := int64(g) * stripe
			for i := 0; i < perWriter; i++ {
				key := base + int64(i)
				if _, err := tbl.Insert(Row{Int(key), Float(float64(i)), Str("new")}); err != nil {
					report(fmt.Errorf("insert %d: %w", key, err))
					return
				}
				live.Add(1)
				// Writers partition their stripe by residue so operations
				// never conflict with themselves: keys ≡ 0 (mod 10) are
				// update targets, keys ≡ 9 (mod 10) are delete victims.
				switch i % 5 {
				case 1: // in-place update of an older own key (≡ 0 mod 10)
					old := base + int64(i/2/10*10)
					if err := tbl.Update(old, Row{Int(old), Float(-1), Str("upd")}); err != nil {
						report(fmt.Errorf("update %d: %w", old, err))
						return
					}
				case 2: // PK-colliding update must keep failing cleanly
					if i > 0 {
						if err := tbl.Update(base+int64(i-1), Row{Int(key), Float(0), Str("x")}); err == nil {
							report(fmt.Errorf("collision update %d->%d succeeded", i-1, i))
							return
						}
					}
				case 3: // delete an old own key (≡ 9 mod 10, at most once)
					victim := base + int64(i/3/10*10+9)
					if ok, _ := tbl.Delete(victim); ok {
						live.Add(-1)
					}
				default: // point lookup of own fresh key
					if row, ok := tbl.Lookup(key); !ok || row[0].Int() != key {
						report(fmt.Errorf("lookup %d failed", key))
						return
					}
				}
			}
		}(g)
	}

	modes := []ScanMode{ModeVectorizedSARG, ModeVectorizedSARGPSMA, ModeJIT, ModeVectorized}
	for s := 0; s < scanners; s++ {
		scanWg.Add(1)
		go func(s int) {
			defer scanWg.Done()
			for i := s; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := tbl.Scan([]string{"id", "amount"},
					[]Pred{{Col: "id", Op: Ge, Lo: Int(0)}},
					QueryOptions{Mode: modes[i%len(modes)], Parallelism: 2})
				if err != nil {
					report(fmt.Errorf("scan: %w", err))
					return
				}
				// A snapshot scan can trail the live count but never sees
				// half-written rows: every id it returns is non-null.
				for r := 0; r < res.NumRows() && r < 5; r++ {
					if res.Row(r)[0].IsNull() {
						report(fmt.Errorf("scan saw NULL id"))
						return
					}
				}
			}
		}(s)
	}

	wg.Wait()
	close(stop)
	scanWg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	if got := int64(tbl.NumRows()); got != live.Load() {
		t.Fatalf("NumRows = %d, writers left %d", got, live.Load())
	}
	res, err := tbl.Scan([]string{"id"}, nil, QueryOptions{Mode: ModeVectorizedSARG})
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.NumRows()) != live.Load() {
		t.Fatalf("final scan rows = %d, want %d", res.NumRows(), live.Load())
	}
	stats := tbl.Stats()
	if stats.FrozenChunks == 0 {
		t.Fatal("background compactor froze nothing during the stress run")
	}
}

// TestScansSeeOneVersionPerKeyUnderUpdates is snapshot isolation through
// the public API on stock-shaped traffic: a fixed key set is rewritten by
// Table.Update the way CH new-order rewrites stock (qty −= d, ytd += d, so
// qty + ytd is conserved per key) while the compactor freezes and the
// evictor spills behind the writers, and every scan — each mode, serial
// and parallel — must return each key exactly once with the conserved sum.
func TestScansSeeOneVersionPerKeyUnderUpdates(t *testing.T) {
	const (
		keys      = 200
		total     = 1000 // qty + ytd of every key, always
		writers   = 2
		perWriter = 6000
	)
	db := Open(WithBlockStore(t.TempDir()), WithMemoryBudget(8<<10), WithAutoFreeze(1), WithChunkRows(256))
	tbl, err := db.CreateTable("stock",
		[]Column{{Name: "k", Kind: Int64}, {Name: "qty", Kind: Int64}, {Name: "ytd", Kind: Int64}},
		WithPrimaryKey("k"))
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < keys; k++ {
		if _, err := tbl.Insert(Row{Int(k), Int(total), Int(0)}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(mode ScanMode, par int) error {
		res, err := tbl.Scan([]string{"k", "qty", "ytd"}, nil, QueryOptions{Mode: mode, Parallelism: par})
		if err != nil {
			return err
		}
		var seen [keys]bool
		for r := 0; r < res.NumRows(); r++ {
			row := res.Row(r)
			k := row[0].Int()
			if seen[k] {
				return fmt.Errorf("mode %v par %d: key %d returned twice", mode, par, k)
			}
			seen[k] = true
			if sum := row[1].Int() + row[2].Int(); sum != total {
				return fmt.Errorf("mode %v par %d: key %d has qty+ytd = %d", mode, par, k, sum)
			}
		}
		if res.NumRows() != keys {
			return fmt.Errorf("mode %v par %d: %d rows, want %d", mode, par, res.NumRows(), keys)
		}
		return nil
	}
	modes := []ScanMode{ModeJIT, ModeVectorized, ModeVectorizedSARG, ModeVectorizedSARGPSMA}
	pars := []int{1, 4}

	var writerWg, scanWg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func(w int) { // owns the keys ≡ w (mod writers)
			defer writerWg.Done()
			var qty [keys]int64
			for i := 0; i < perWriter; i++ {
				k := int64(w + writers*(i%(keys/writers)))
				d := int64(i%7 + 1)
				qty[k] -= d
				if err := tbl.Update(k, Row{Int(k), Int(total + qty[k]), Int(-qty[k])}); err != nil {
					t.Errorf("update %d: %v", k, err)
					return
				}
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		scanWg.Add(1)
		go func(s int) {
			defer scanWg.Done()
			for i := s; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := check(modes[i%len(modes)], pars[i/len(modes)%len(pars)]); err != nil {
					t.Error(err)
					return
				}
			}
		}(s)
	}
	writerWg.Wait()
	close(stop)
	scanWg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if t.Failed() {
		return
	}
	for _, mode := range modes {
		for _, par := range pars {
			if err := check(mode, par); err != nil {
				t.Fatal(err)
			}
		}
	}
	if s := tbl.Stats(); s.FrozenChunks+s.EvictedChunks == 0 {
		t.Fatal("nothing was frozen behind the updates")
	}
	if tbl.ColdStats().Evictions == 0 {
		t.Fatal("nothing was evicted under the budget")
	}
}

// TestBudgetedTableMatchesUnbounded checks the larger-than-RAM path
// against ground truth. Writers churn disjoint key stripes of tables
// whose frozen sets far exceed a 32 KiB budget each, while the database's
// one background worker freezes sealed chunks, spills the coldest blocks
// and reloads them on demand, and a scanner sweeps alongside. Each writer
// draws a fixed number of operations from a seeded sequence over its own
// stripe, so the same rounds replayed serially into unbudgeted tables
// must leave the same rows. With one table both writers share it; with
// two, writer g plays on table g, so the one worker serves both tables'
// freezes, spills and reloads.
func TestBudgetedTableMatchesUnbounded(t *testing.T) {
	for _, tables := range []int{1, 2} {
		t.Run(fmt.Sprintf("tables=%d", tables), func(t *testing.T) { testBudgetedMatchesUnbounded(t, tables) })
	}
}

func testBudgetedMatchesUnbounded(t *testing.T, tables int) {
	const (
		writers = 2
		preload = 4000 // rows per stripe
		rounds  = 1500 // operations per writer
		stripe  = int64(1) << 32
	)
	cols := []Column{
		{Name: "id", Kind: Int64},
		{Name: "amount", Kind: Float64},
		{Name: "status", Kind: String},
	}
	statuses := []string{"new", "paid", "shipped"}
	mkRow := func(key int64, amount float64) Row {
		return Row{Int(key), Float(amount), Str(statuses[key%3])}
	}
	// newEvents creates the tables and preloads writer g's stripe into
	// table g % tables, the table writer g plays on.
	newEvents := func(db *DB) []*Table {
		tbls := make([]*Table, tables)
		for i := range tbls {
			tbl, err := db.CreateTable(fmt.Sprintf("events%d", i), cols, WithPrimaryKey("id"), WithChunkRows(2048))
			if err != nil {
				t.Fatal(err)
			}
			tbls[i] = tbl
		}
		for g := 0; g < writers; g++ {
			for i := 0; i < preload; i++ {
				if _, err := tbls[g%tables].Insert(mkRow(int64(g)*stripe+int64(i), float64(i)/2)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return tbls
	}
	// play runs writer g's rounds against tbl, checking each answer
	// against the writer's own record of its live keys, and returns the
	// stripe's first unused key.
	play := func(tbl *Table, g int) (int64, error) {
		r := rand.New(rand.NewSource(int64(0xC01D + g)))
		base := int64(g) * stripe
		next := base + preload
		live := make(map[int64]bool, preload+rounds)
		for key := base; key < next; key++ {
			live[key] = true
		}
		for round := 0; round < rounds; round++ {
			key := base + r.Int63n(next-base)
			switch r.Intn(10) {
			case 0, 1, 2, 3, 4, 5:
				if _, err := tbl.Insert(mkRow(next, float64(next-base)/2)); err != nil {
					return 0, fmt.Errorf("insert %d: %w", next, err)
				}
				live[next] = true
				next++
			case 6, 7:
				if live[key] {
					if err := tbl.Update(key, mkRow(key, -0.5)); err != nil {
						return 0, fmt.Errorf("update %d: %w", key, err)
					}
				}
			case 8:
				if ok, err := tbl.Delete(key); err != nil || ok != live[key] {
					return 0, fmt.Errorf("delete %d = %v, %v; live %v", key, ok, err, live[key])
				}
				delete(live, key)
			default:
				if row, ok := tbl.Lookup(key); ok != live[key] || ok && row[0].Int() != key {
					return 0, fmt.Errorf("lookup %d = %v, %v; live %v", key, row, ok, live[key])
				}
			}
		}
		return next, nil
	}

	db := Open(WithBlockStore(t.TempDir()), WithMemoryBudget(32<<10), WithAutoFreeze(1))
	defer db.Close()
	tbls := newEvents(db)
	var wg sync.WaitGroup
	next := make([]int64, writers)
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var err error
			if next[g], err = play(tbls[g%tables], g); err != nil {
				t.Errorf("writer %d: %v", g, err)
			}
		}(g)
	}
	done, scanned := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scanned)
		modes := []ScanMode{ModeVectorizedSARG, ModeVectorizedSARGPSMA, ModeJIT}
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := tbls[i%tables].Scan([]string{"id", "amount"}, []Pred{{Col: "amount", Op: Ge, Lo: Float(0)}},
				QueryOptions{Mode: modes[i%len(modes)]}); err != nil {
				t.Errorf("scan: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	<-scanned
	if t.Failed() {
		return
	}
	// The worker evicts asynchronously, and a freeze skips a chunk the
	// worker is still freezing. With the worker stopped, one more freeze
	// and eviction pass per table puts the frozen set over the budget on
	// disk however the goroutines were scheduled.
	db.stopBackground()
	for _, tbl := range tbls {
		if err := tbl.Freeze(); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Relation().EvictUnderBudget(); err != nil {
			t.Fatal(err)
		}
	}

	truth := newEvents(Open())
	for g := 0; g < writers; g++ {
		if _, err := play(truth[g%tables], g); err != nil {
			t.Fatalf("replay of writer %d: %v", g, err)
		}
	}
	type answers struct {
		rows, count int
		sumID       int64
		sumAmount   float64 // halves of small integers: exact in any order
	}
	aggregate := func(tbl *Table) answers {
		res, err := tbl.Scan([]string{"id", "amount"}, nil, QueryOptions{Mode: ModeVectorizedSARG})
		if err != nil {
			t.Fatal(err)
		}
		a := answers{rows: tbl.NumRows(), count: res.NumRows()}
		for i := 0; i < res.NumRows(); i++ {
			a.sumID += res.Value(0, i).Int()
			a.sumAmount += res.Value(1, i).Float()
		}
		return a
	}
	for i, tbl := range tbls {
		if got, want := aggregate(tbl), aggregate(truth[i]); got != want {
			t.Fatalf("budgeted table %d %+v, unbudgeted replay %+v", i, got, want)
		}
		if m := tbl.Metrics().Cold; m.Evictions == 0 || m.Reloads == 0 {
			t.Fatalf("no churn under the budget on table %d: %d evictions, %d reloads", i, m.Evictions, m.Reloads)
		}
	}
	for g := 0; g < writers; g++ {
		for key := int64(g) * stripe; key < next[g]; key += 97 {
			a, okA := tbls[g%tables].Lookup(key)
			b, okB := truth[g%tables].Lookup(key)
			if okA != okB || okA && (a[1].Float() != b[1].Float() || a[2].Str() != b[2].Str()) {
				t.Fatalf("lookup %d: budgeted %v, %v; unbudgeted %v, %v", key, a, okA, b, okB)
			}
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

package tpch

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"datablocks/internal/blockstore"
	"datablocks/internal/exec"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

// genTest builds a small database (SF 0.002 ≈ 3000 orders / ~12000
// lineitems) and freezes everything except the hot tails.
func genTest(t *testing.T, freeze bool) *DB {
	t.Helper()
	db, err := Generate(0.002, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if freeze {
		if err := db.FreezeAll(false); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestGenerateShapes(t *testing.T) {
	db := genTest(t, false)
	if db.Orders.NumRows() != 3000 {
		t.Fatalf("orders = %d", db.Orders.NumRows())
	}
	n := db.Lineitem.NumRows()
	if n < 3000 || n > 21000 {
		t.Fatalf("lineitem = %d", n)
	}
	if db.Nation.NumRows() != 25 || db.Region.NumRows() != 5 {
		t.Fatalf("nation/region = %d/%d", db.Nation.NumRows(), db.Region.NumRows())
	}
	// Determinism: regeneration produces identical data.
	db2, err := Generate(0.002, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Lineitem.NumRows() != n {
		t.Fatalf("regeneration differs: %d vs %d", db2.Lineitem.NumRows(), n)
	}
	for _, i := range []int{0, 100, n - 1} {
		tid := tidFor(i, 1<<12)
		a, _ := db.Lineitem.Get(tid)
		b, _ := db2.Lineitem.Get(tid)
		for c := range a {
			if !a[c].Equal(b[c]) {
				t.Fatalf("row %d col %d differs: %v vs %v", i, c, a[c], b[c])
			}
		}
	}
	// Foreign keys stay in range.
	custRows := int64(db.Customer.NumRows())
	for i := 0; i < 100; i++ {
		row, ok := db.Orders.Get(tidFor(i, 1<<12))
		if !ok {
			t.Fatal("missing order")
		}
		ck := row[1].Int()
		if ck < 1 || ck > custRows {
			t.Fatalf("o_custkey %d out of range", ck)
		}
	}
}

func tidFor(i, chunk int) (tid struct {
	Chunk uint32
	Row   uint32
}) {
	tid.Chunk = uint32(i / chunk)
	tid.Row = uint32(i % chunk)
	return
}

func TestDatesAndDomains(t *testing.T) {
	db := genTest(t, false)
	lo, hi := types.DateToDays(1992, time.January, 1), types.DateToDays(1998, time.December, 31)
	for _, ch := range db.Lineitem.Chunks() {
		h := ch.Hot().Columns(ch.Rows())
		ship := h[db.li("l_shipdate")].Ints
		commit := h[db.li("l_commitdate")].Ints
		receipt := h[db.li("l_receiptdate")].Ints
		disc := h[db.li("l_discount")].Ints
		qty := h[db.li("l_quantity")].Ints
		for i := range ship {
			if ship[i] < lo || ship[i] > hi || commit[i] < lo || receipt[i] < ship[i] {
				t.Fatalf("date invariants violated at %d", i)
			}
			if disc[i] < 0 || disc[i] > 10 || qty[i] < 1 || qty[i] > 50 {
				t.Fatalf("domain invariants violated at %d", i)
			}
		}
	}
}

// TestQueriesAgreeAcrossModesAndStorage: every supported query returns the
// same result in all four scan modes, on hot data and on frozen Data
// Blocks, serial and parallel.
func TestQueriesAgreeAcrossModesAndStorage(t *testing.T) {
	hot := genTest(t, false)
	cold := genTest(t, true)
	modes := []exec.ScanMode{exec.ModeJIT, exec.ModeVectorized, exec.ModeVectorizedSARG, exec.ModeVectorizedSARGPSMA}
	for _, q := range SupportedQueries {
		var ref string
		var refRows int
		for _, db := range []*DB{hot, cold} {
			for _, mode := range modes {
				res, err := db.Query(q, exec.Options{Mode: mode})
				if err != nil {
					t.Fatalf("Q%d mode %v: %v", q, mode, err)
				}
				got := canonical(res)
				if ref == "" {
					ref = got
					refRows = res.NumRows()
					if refRows == 0 {
						t.Fatalf("Q%d: empty result", q)
					}
					continue
				}
				if got != ref {
					t.Fatalf("Q%d mode %v (frozen=%v) differs:\n%s\nvs\n%s", q, mode, db == cold, got, ref)
				}
			}
		}
		// Parallel run agrees too (floats rounded by canonical()).
		res, err := cold.Query(q, exec.Options{Mode: exec.ModeVectorizedSARGPSMA, Parallelism: 2})
		if err != nil {
			t.Fatalf("Q%d parallel: %v", q, err)
		}
		if got := canonical(res); got != ref {
			t.Fatalf("Q%d parallel differs", q)
		}
	}
}

// canonical renders a result with rounded floats, sorted rows.
func canonical(r *exec.Result) string {
	var rows []string
	for i := 0; i < r.NumRows(); i++ {
		var sb strings.Builder
		for c := 0; c < r.NumCols(); c++ {
			v := r.Value(c, i)
			if c > 0 {
				sb.WriteString("|")
			}
			if !v.IsNull() && v.Kind() == types.Float64 {
				// round to 2 decimals to absorb summation-order noise
				f := v.Float()
				sb.WriteString(strings.TrimRight(strings.TrimRight(
					formatF(f), "0"), "."))
				continue
			}
			sb.WriteString(v.String())
		}
		rows = append(rows, sb.String())
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

func formatF(f float64) string {
	// fixed 2-decimal formatting without fmt to keep rounding stable
	neg := f < 0
	if neg {
		f = -f
	}
	scaled := int64(f*100 + 0.5)
	s := ""
	if neg {
		s = "-"
	}
	return s + itoa(scaled/100) + "." + pad2(scaled%100)
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var b [24]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func pad2(v int64) string {
	if v < 10 {
		return "0" + itoa(v)
	}
	return itoa(v)
}

func TestQ1Semantics(t *testing.T) {
	db := genTest(t, true)
	res, err := db.Query(1, exec.Options{Mode: exec.ModeVectorizedSARGPSMA})
	if err != nil {
		t.Fatal(err)
	}
	// Q1 groups by (returnflag, linestatus): A/F, N/F, N/O, R/F.
	if res.NumRows() != 4 {
		t.Fatalf("groups = %d, want 4", res.NumRows())
	}
	// count_order sums to the number of lineitems passing the date filter.
	var total int64
	for i := 0; i < res.NumRows(); i++ {
		total += res.Cols[9].Ints[i]
	}
	if total == 0 || total > int64(db.Lineitem.NumRows()) {
		t.Fatalf("count sum = %d", total)
	}
	// avg_disc must lie in [0, 0.10].
	for i := 0; i < res.NumRows(); i++ {
		if d := res.Cols[8].Floats[i]; d < 0 || d > 0.10 {
			t.Fatalf("avg_disc = %g", d)
		}
	}
}

func TestQ6AgainstNaive(t *testing.T) {
	db := genTest(t, true)
	res, err := db.Query(6, exec.Options{Mode: exec.ModeVectorizedSARGPSMA})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	lo, hi := types.DateToDays(1994, time.January, 1), types.DateToDays(1994, time.December, 31)
	for _, ch := range db.Lineitem.Chunks() {
		blk := ch.Block()
		for row := 0; row < blk.Rows(); row++ {
			ship := blk.Int(db.li("l_shipdate"), row)
			disc := blk.Int(db.li("l_discount"), row)
			qty := blk.Int(db.li("l_quantity"), row)
			if ship >= lo && ship <= hi && disc >= 5 && disc <= 7 && qty < 24 {
				want += float64(blk.Int(db.li("l_extendedprice"), row)) / 100 * float64(disc) / 100
			}
		}
	}
	got := res.Cols[0].Floats[0]
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("Q6 revenue = %g, want %g", got, want)
	}
}

func TestUnsupportedQuery(t *testing.T) {
	db := genTest(t, false)
	if _, err := db.Query(2, exec.Options{}); err == nil {
		t.Fatal("expected error for unsupported query")
	}
}

func TestFreezeAllSorted(t *testing.T) {
	db := genTest(t, false)
	if err := db.FreezeAll(true); err != nil {
		t.Fatal(err)
	}
	shipCol := db.li("l_shipdate")
	for _, ch := range db.Lineitem.Chunks() {
		blk := ch.Block()
		prev := int64(-1 << 62)
		for row := 0; row < blk.Rows(); row++ {
			d := blk.Int(shipCol, row)
			if d < prev {
				t.Fatal("lineitem block not sorted by l_shipdate")
			}
			prev = d
		}
	}
	// Queries still correct on sorted blocks.
	res, err := db.Query(6, exec.Options{Mode: exec.ModeVectorizedSARGPSMA})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 {
		t.Fatal("Q6 failed on sorted blocks")
	}
}

// requireBitIdentical compares two results cell for cell, including row
// order and float bit patterns. Serial executions are deterministic, so the
// batch-at-a-time consume path must reproduce the tuple-at-a-time result
// exactly — same groups, same order, same summation order, same bits.
func requireBitIdentical(t *testing.T, name string, a, b *exec.Result) {
	t.Helper()
	if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
	}
	for c := 0; c < a.NumCols(); c++ {
		ca, cb := &a.Cols[c], &b.Cols[c]
		if ca.Kind != cb.Kind {
			t.Fatalf("%s: col %d kind %v vs %v", name, c, ca.Kind, cb.Kind)
		}
		for i := 0; i < a.NumRows(); i++ {
			if ca.Nulls[i] != cb.Nulls[i] {
				t.Fatalf("%s: cell (%d,%d) null %v vs %v", name, i, c, ca.Nulls[i], cb.Nulls[i])
			}
			if ca.Nulls[i] {
				continue
			}
			switch ca.Kind {
			case types.Int64:
				if ca.Ints[i] != cb.Ints[i] {
					t.Fatalf("%s: cell (%d,%d) %d vs %d", name, i, c, ca.Ints[i], cb.Ints[i])
				}
			case types.Float64:
				if math.Float64bits(ca.Floats[i]) != math.Float64bits(cb.Floats[i]) {
					t.Fatalf("%s: cell (%d,%d) %v vs %v (bits differ)", name, i, c, ca.Floats[i], cb.Floats[i])
				}
			default:
				if ca.Strs[i] != cb.Strs[i] {
					t.Fatalf("%s: cell (%d,%d) %q vs %q", name, i, c, ca.Strs[i], cb.Strs[i])
				}
			}
		}
	}
}

// TestBatchConsumeMatchesTupleExactly: on every supported query, every
// vectorized scan mode and both storage temperatures, the batch-at-a-time
// chain (scan, filter, map, join probe) produces a bit-identical result to
// ModeJIT's tuple scan and tuple chain, and the parallel batch execution
// agrees up to float summation order. The scan, filter, map and join probe
// are what stays independent of the batch chain; the sinks (aggregation,
// join build, materialization) are shared, fed under ModeJIT by the
// batcher that ends its tuple chain.
func TestBatchConsumeMatchesTupleExactly(t *testing.T) {
	hot := genTest(t, false)
	cold := genTest(t, true)
	modes := []exec.ScanMode{exec.ModeVectorized, exec.ModeVectorizedSARG, exec.ModeVectorizedSARGPSMA}
	for _, q := range SupportedQueries {
		for di, db := range []*DB{hot, cold} {
			tuple, err := db.Query(q, exec.Options{Mode: exec.ModeJIT})
			if err != nil {
				t.Fatalf("Q%d frozen=%v (jit): %v", q, di == 1, err)
			}
			for _, mode := range modes {
				name := fmt.Sprintf("Q%d frozen=%v %v", q, di == 1, mode)
				batch, err := db.Query(q, exec.Options{Mode: mode})
				if err != nil {
					t.Fatalf("%s (batch): %v", name, err)
				}
				if batch.NumRows() == 0 {
					t.Fatalf("%s: empty result", name)
				}
				requireBitIdentical(t, name, tuple, batch)
				// Small vectors exercise multi-batch group/probe reuse.
				small, err := db.Query(q, exec.Options{Mode: mode, VectorSize: 512})
				if err != nil {
					t.Fatalf("%s (vec512): %v", name, err)
				}
				requireBitIdentical(t, name+" vec512", tuple, small)
			}
		}
		// Parallel batch execution returns the same result up to float
		// summation order (canonical rounds floats).
		ref, err := cold.Query(q, exec.Options{Mode: exec.ModeVectorizedSARG})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 4} {
			res, err := cold.Query(q, exec.Options{Mode: exec.ModeVectorizedSARG, Parallelism: par})
			if err != nil {
				t.Fatalf("Q%d parallel=%d: %v", q, par, err)
			}
			if canonical(res) != canonical(ref) {
				t.Fatalf("Q%d parallel=%d differs from serial", q, par)
			}
		}
	}
}

// TestVectorizedModesRunTheBatchChain: every supported plan, in every
// vectorized mode and at both storage temperatures, runs on the batch
// chain — its scan pushes batches — with nothing to report as a fallback,
// and every join on its probe spine accounts for its build pipeline.
func TestVectorizedModesRunTheBatchChain(t *testing.T) {
	hot := genTest(t, false)
	cold := genTest(t, true)
	for _, q := range SupportedQueries {
		for di, db := range []*DB{hot, cold} {
			for _, mode := range []exec.ScanMode{exec.ModeVectorized, exec.ModeVectorizedSARG, exec.ModeVectorizedSARGPSMA} {
				name := fmt.Sprintf("Q%d frozen=%v %v", q, di == 1, mode)
				res, err := db.Query(q, exec.Options{Mode: mode, Profile: true, Parallelism: 2})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				p := res.Profile
				if p == nil || p.Fallback != "" || p.Operators[0].RowsOut > 0 && p.Operators[0].Batches == 0 {
					t.Fatalf("%s: profile %+v", name, p)
				}
				for _, op := range p.Operators {
					if op.ProbeDetail && op.BuildTime <= 0 {
						t.Fatalf("%s: %s reports no build time", name, op.Name)
					}
				}
			}
		}
	}
}

// TestJoinBuildRows pins what every join on a query's probe spine builds,
// on frozen data at parallelism 1. A join over a scan build side on one
// integer key — inner, semi or anti — builds only the rows whose key its
// probe side's key range and tag bits admit: Q12 keeps 53 of 3 000 orders,
// Q14 122 and Q19 340 of 400 parts. A join whose build side is itself a
// join (Q3, Q5) builds what that join emits; Q4's semi join was
// key-filtered already.
func TestJoinBuildRows(t *testing.T) {
	db := genTest(t, true)
	want := map[int][]uint64{3: {295}, 4: {375}, 5: {496, 4}, 12: {53}, 14: {122}, 19: {340}}
	for q, rows := range want {
		res, err := db.Query(q, exec.Options{Mode: exec.ModeVectorizedSARGPSMA, Profile: true, Parallelism: 1})
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		var got []uint64
		for _, op := range res.Profile.Operators {
			if op.ProbeDetail {
				got = append(got, op.BuildRows)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(rows) {
			t.Errorf("Q%d: the joins built %v rows, want %v", q, got, rows)
		}
	}
}

// TestProbeScanRows pins the work of every query's probe side, on frozen
// data at parallelism 1: the rows the root scan keeps after SARGs,
// visibility and early probing. A join whose probe child is the scan
// tests its build's tags there, unless its key pass ran the other way
// (Q4, Q12, Q14, Q19). Q3's and Q5's lineitem scans drop the rows whose
// order cannot match before unpacking them: 78 of the 5 964 rows Q3's
// SARG passes stay, and 1 991 of Q5's 11 925.
func TestProbeScanRows(t *testing.T) {
	db := genTest(t, true)
	want := map[int]uint64{1: 11925, 3: 78, 4: 140, 5: 1991, 6: 228, 12: 978, 14: 137, 19: 760}
	for q, rows := range want {
		res, err := db.Query(q, exec.Options{Mode: exec.ModeVectorizedSARGPSMA, Profile: true, Parallelism: 1})
		if err != nil {
			t.Fatalf("Q%d: %v", q, err)
		}
		if got := res.Profile.Scan.RowsMatched; got != rows {
			t.Errorf("Q%d: the root scan kept %d rows, want %d", q, got, rows)
		}
	}
}

// coldState is one residency state of a frozen database whose relations
// all have block stores; reset puts every relation into that state and
// returns the database to query (a freshly restored one for "reopened").
type coldState struct {
	name  string
	reset func() *DB
}

// coldStates attaches a block store to every relation of the completely
// frozen db and returns the states their payloads can be in when a query
// starts: resident, evicted, partially loaded (first and last column of
// every chunk) and reopened from the manifest.
func coldStates(t *testing.T, db *DB) []coldState {
	t.Helper()
	stores := make(map[string]*blockstore.Store)
	for name, rel := range db.Relations() {
		store, err := blockstore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		stores[name] = store
		rel.SetBlockStore(store, 0, nil)
		if err := rel.FlushFrozen(); err != nil {
			t.Fatal(err)
		}
	}
	evict := func() {
		for name, rel := range db.Relations() {
			for i := 0; i < rel.NumChunks(); i++ {
				if rel.Chunk(i).State() != storage.ChunkFrozen {
					continue
				}
				if ok, err := rel.EvictChunk(i); err != nil || !ok {
					t.Fatalf("evict %s chunk %d: ok=%v err=%v", name, i, ok, err)
				}
			}
		}
	}
	restore := func(name string) *storage.Relation {
		old := db.Relations()[name]
		re := storage.NewRelation(old.Schema(), old.ChunkCapacity())
		re.SetBlockStore(stores[name], 0, nil)
		for _, mc := range old.ManifestChunks() {
			if err := re.RestoreEvicted(mc.Handle, mc.Rows, mc.Bytes, mc.Deleted, mc.NumDeleted); err != nil {
				t.Fatal(err)
			}
		}
		return re
	}
	return []coldState{
		{"resident", func() *DB { return db }},
		{"evicted", func() *DB { evict(); return db }},
		{"partial", func() *DB {
			evict()
			for _, rel := range db.Relations() {
				views := rel.Snapshot()
				for i := range views {
					if err := views[i].Acquire([]int{0, rel.Schema().NumColumns() - 1}); err != nil {
						t.Fatal(err)
					}
					views[i].Release()
				}
			}
			return db
		}},
		{"reopened", func() *DB {
			return &DB{
				SF: db.SF, Lineitem: restore("lineitem"), Orders: restore("orders"),
				Customer: restore("customer"), Part: restore("part"), Supplier: restore("supplier"),
				Nation: restore("nation"), Region: restore("region"),
			}
		}},
	}
}

// TestQueriesAgreeAcrossResidency: every supported query returns the same
// result whether the blocks it reads are resident, evicted, partly loaded
// or freshly reopened from a manifest — in all four scan modes, serial and
// with four workers — as on the same data without a block store.
func TestQueriesAgreeAcrossResidency(t *testing.T) {
	ref := genTest(t, true)
	states := coldStates(t, genTest(t, true))
	modes := []exec.ScanMode{exec.ModeJIT, exec.ModeVectorized, exec.ModeVectorizedSARG, exec.ModeVectorizedSARGPSMA}
	for _, q := range SupportedQueries {
		res, err := ref.Query(q, exec.Options{Mode: exec.ModeVectorizedSARGPSMA})
		if err != nil {
			t.Fatal(err)
		}
		want := canonical(res)
		for _, st := range states {
			for _, mode := range modes {
				for _, par := range []int{1, 4} {
					db := st.reset()
					res, err := db.Query(q, exec.Options{Mode: mode, Parallelism: par})
					if err != nil {
						t.Fatalf("Q%d %s mode %v par %d: %v", q, st.name, mode, par, err)
					}
					if st.name != "resident" && db.Lineitem.ColdStatsSnapshot().Reloads == 0 {
						t.Fatalf("Q%d %s: the query read nothing from the block store (bad test setup)", q, st.name)
					}
					if got := canonical(res); got != want {
						t.Fatalf("Q%d %s mode %v par %d differs:\n%s\nvs\n%s", q, st.name, mode, par, got, want)
					}
				}
			}
		}
	}
}

// TestQ6ReloadsOnlyItsColumns: over an evicted lineitem, Q6 reads from the
// block store no more than the sections of the four columns it scans, in
// the blocks its SMA test could not rule out.
func TestQ6ReloadsOnlyItsColumns(t *testing.T) {
	db := genTest(t, true)
	li := db.Lineitem
	store, err := blockstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	li.SetBlockStore(store, 0, nil)
	for i := 0; i < li.NumChunks(); i++ {
		if ok, eerr := li.EvictChunk(i); eerr != nil || !ok {
			t.Fatalf("evict chunk %d: ok=%v err=%v", i, ok, eerr)
		}
	}
	kinds := make([]types.Kind, li.Schema().NumColumns())
	for i, c := range li.Schema().Columns {
		kinds[i] = c.Kind
	}
	var q6Cols, allCols uint64
	for _, mc := range li.ManifestChunks() {
		d, derr := store.ReadDirectory(mc.Handle, kinds)
		if derr != nil {
			t.Fatal(derr)
		}
		for _, name := range []string{"l_shipdate", "l_discount", "l_quantity", "l_extendedprice"} {
			q6Cols += uint64(d.AttrBytes(db.li(name)))
		}
		allCols += uint64(d.BlockSize())
	}
	before := store.Stats().BytesRead
	res, err := db.Query(6, exec.Options{Mode: exec.ModeVectorizedSARGPSMA, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	sp := res.Profile.Scan
	if read := uint64(store.Stats().BytesRead - before); read != sp.ReloadBytes {
		t.Fatalf("profile reports %d reload bytes, the store read %d", sp.ReloadBytes, read)
	}
	if sp.Reloads == 0 || sp.ReloadBytes == 0 || sp.ReloadBytes > q6Cols {
		t.Fatalf("Q6 reloaded %d bytes in %d reloads; its four columns are %d bytes of the %d-byte blocks",
			sp.ReloadBytes, sp.Reloads, q6Cols, allCols)
	}
}

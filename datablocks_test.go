package datablocks

import (
	"fmt"
	"log"
	"os"
	"testing"

	"datablocks/internal/exec"
)

// ExampleOpenPath shows the durable lifecycle: create a database in a
// directory, load and freeze data, close — then reopen the same directory
// in a "new process" and query the recovered table.
func ExampleOpenPath() {
	dir, err := os.MkdirTemp("", "datablocks-example-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// First lifetime: create, load, close. Close freezes the hot tail and
	// writes the catalog and manifest, making dir a complete image.
	db, err := OpenPath(dir)
	if err != nil {
		log.Fatal(err)
	}
	orders, err := db.CreateTable("orders", []Column{
		{Name: "id", Kind: Int64},
		{Name: "total", Kind: Float64},
	}, WithPrimaryKey("id"))
	if err != nil {
		log.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err = orders.Insert(Row{Int(int64(i)), Float(float64(i) * 10)}); err != nil {
			log.Fatal(err)
		}
	}
	if err = db.Close(); err != nil {
		log.Fatal(err)
	}

	// Second lifetime: reopen recovers the table set from the catalog,
	// restores frozen chunks lazily and rebuilds the primary-key index.
	db2, err := OpenPath(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer db2.Close()
	recovered := db2.Table("orders")
	fmt.Println("tables:", db2.Tables())
	fmt.Println("rows:", recovered.NumRows())
	row, ok := recovered.Lookup(2)
	fmt.Println("lookup 2:", ok, row[1].Float())
	// Output:
	// tables: [orders]
	// rows: 3
	// lookup 2: true 20
}

func accountsTable(t *testing.T, n int) (*DB, *Table) {
	t.Helper()
	db := Open()
	tbl, err := db.CreateTable("accounts", []Column{
		{Name: "id", Kind: Int64},
		{Name: "balance", Kind: Int64},
		{Name: "owner", Kind: String},
		{Name: "rate", Kind: Float64},
	}, WithPrimaryKey("id"), WithChunkRows(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, err := tbl.Insert(Row{
			Int(int64(i)), Int(int64(i % 1000)),
			Str(fmt.Sprintf("owner-%03d", i%200)), Float(float64(i%7) / 100),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db, tbl
}

func TestCreateTableValidation(t *testing.T) {
	db := Open()
	if _, err := db.CreateTable("t", []Column{{Name: "a", Kind: Int64}}, WithPrimaryKey("missing")); err == nil {
		t.Fatal("missing PK column accepted")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "a", Kind: String}}, WithPrimaryKey("a")); err == nil {
		t.Fatal("string PK accepted")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "a", Kind: Int64}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", []Column{{Name: "a", Kind: Int64}}); err == nil {
		t.Fatal("duplicate table accepted")
	}
	if got := db.Tables(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("Tables() = %v", got)
	}
}

func TestCRUDAcrossFreeze(t *testing.T) {
	_, tbl := accountsTable(t, 10000)
	row, ok := tbl.Lookup(1234)
	if !ok || row[1].Int() != 234 {
		t.Fatalf("lookup before freeze: %v %v", row, ok)
	}
	if err := tbl.Freeze(); err != nil {
		t.Fatal(err)
	}
	st := tbl.Stats()
	if st.FrozenChunks == 0 {
		t.Fatal("nothing frozen")
	}
	// Point lookups hit frozen Data Blocks transparently.
	row, ok = tbl.Lookup(1234)
	if !ok || row[1].Int() != 234 || row[2].Str() != "owner-034" {
		t.Fatalf("lookup after freeze: %v %v", row, ok)
	}
	// Update a frozen tuple: moves to hot region.
	if err := tbl.Update(1234, Row{Int(1234), Int(999999), Str("updated"), Float(0.5)}); err != nil {
		t.Fatal(err)
	}
	row, ok = tbl.Lookup(1234)
	if !ok || row[1].Int() != 999999 {
		t.Fatalf("lookup after update: %v", row)
	}
	// Delete.
	if ok, derr := tbl.Delete(777); derr != nil || !ok {
		t.Fatalf("delete failed: %v %v", ok, derr)
	}
	if _, ok := tbl.Lookup(777); ok {
		t.Fatal("deleted key visible")
	}
	if ok, _ := tbl.Delete(777); ok {
		t.Fatal("double delete")
	}
	if tbl.NumRows() != 9999 {
		t.Fatalf("NumRows = %d", tbl.NumRows())
	}
}

func TestScanAndModes(t *testing.T) {
	_, tbl := accountsTable(t, 20000)
	if err := tbl.Freeze(); err != nil {
		t.Fatal(err)
	}
	preds := []Pred{
		{Col: "balance", Op: Between, Lo: Int(100), Hi: Int(199)},
		{Col: "owner", Op: Prefix, Lo: Str("owner-1")},
	}
	var refRows int
	for _, mode := range []ScanMode{ModeJIT, ModeVectorized, ModeVectorizedSARG, ModeVectorizedSARGPSMA} {
		res, err := tbl.Scan([]string{"id", "balance", "owner"}, preds, QueryOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if refRows == 0 {
			refRows = res.NumRows()
			if refRows == 0 {
				t.Fatal("empty scan result")
			}
			continue
		}
		if res.NumRows() != refRows {
			t.Fatalf("mode %v: %d rows, want %d", mode, res.NumRows(), refRows)
		}
	}
	if _, err := tbl.Scan([]string{"nope"}, nil, QueryOptions{}); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := tbl.Scan([]string{"id"}, []Pred{{Col: "nope", Op: Eq, Lo: Int(1)}}, QueryOptions{}); err == nil {
		t.Fatal("unknown predicate column accepted")
	}
}

func TestLookupScanEqualsIndexedLookup(t *testing.T) {
	_, tbl := accountsTable(t, 5000)
	if err := tbl.FreezeAll(); err != nil {
		t.Fatal(err)
	}
	for _, key := range []int64{0, 42, 4999} {
		want, ok := tbl.Lookup(key)
		if !ok {
			t.Fatalf("indexed lookup %d failed", key)
		}
		got, ok, err := tbl.LookupScan("id", key, ModeVectorizedSARGPSMA)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("scan lookup %d failed", key)
		}
		for c := range want {
			if !want[c].Equal(got[c]) {
				t.Fatalf("key %d col %d: %v vs %v", key, c, want[c], got[c])
			}
		}
	}
	if _, ok, err := tbl.LookupScan("id", 99999, ModeVectorizedSARG); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("found missing key")
	}
	// A broken scan is an error, not a silent miss.
	if _, _, err := tbl.LookupScan("no_such_col", 1, ModeVectorizedSARG); err == nil {
		t.Fatal("scan error swallowed as a miss")
	}
}

func TestFreezeSortedRebuildIndex(t *testing.T) {
	_, tbl := accountsTable(t, 8000)
	if err := tbl.FreezeSorted("balance"); err != nil {
		t.Fatal(err)
	}
	// Index still resolves every key after the sort-induced TID reshuffle.
	for _, key := range []int64{0, 1, 500, 7999} {
		row, ok := tbl.Lookup(key)
		if !ok || row[0].Int() != key {
			t.Fatalf("lookup %d after sorted freeze: %v %v", key, row, ok)
		}
	}
}

// TestFreezeSortedAllDeletedChunk: a chunk whose every row is deleted
// has nothing to sort; it freezes as an unsorted freeze would, and the
// chunks around it sort as usual. Each live key still looks up its own
// row, the deleted keys miss, and no chunk is left hot — with the dead
// chunk first and in the middle.
func TestFreezeSortedAllDeletedChunk(t *testing.T) {
	for _, dead := range []int{0, 1} {
		t.Run(fmt.Sprintf("chunk%d", dead), func(t *testing.T) {
			db := Open()
			defer db.Close()
			tbl, err := db.CreateTable("t", []Column{{Name: "id", Kind: Int64}, {Name: "v", Kind: Int64}},
				WithPrimaryKey("id"), WithChunkRows(4))
			if err != nil {
				t.Fatal(err)
			}
			for id := int64(0); id < 10; id++ {
				if _, err := tbl.Insert(Row{Int(id), Int(-id)}); err != nil { // sorting by v reverses each chunk
					t.Fatal(err)
				}
			}
			deleted := func(id int64) bool { return int(id)/4 == dead }
			for id := int64(0); id < 10; id++ {
				if deleted(id) {
					if ok, err := tbl.Delete(id); !ok || err != nil {
						t.Fatalf("delete %d: %v %v", id, ok, err)
					}
				}
			}
			if err := tbl.FreezeSorted("v"); err != nil {
				t.Fatal(err)
			}
			for id := int64(0); id < 10; id++ {
				row, ok := tbl.Lookup(id)
				if deleted(id) {
					if ok {
						t.Errorf("deleted key %d found: %v", id, row)
					}
				} else if !ok || row[0].Int() != id || row[1].Int() != -id {
					t.Errorf("Lookup(%d) = %v %v", id, row, ok)
				}
			}
			if st := tbl.Stats(); st.HotChunks != 0 {
				t.Errorf("%d chunks left hot", st.HotChunks)
			}
		})
	}
}

func TestPlanComposition(t *testing.T) {
	_, tbl := accountsTable(t, 6000)
	if err := tbl.Freeze(); err != nil {
		t.Fatal(err)
	}
	scan, err := tbl.ScanPlan([]string{"balance", "rate"}, []Pred{
		{Col: "balance", Op: Lt, Lo: Int(500)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan := &exec.AggNode{
		Child: scan,
		Aggs: []exec.AggSpec{
			{Func: exec.AggCount},
			{Func: exec.AggSum, Arg: MulE(Col(0), Col(1))},
		},
	}
	res, err := Query(plan, QueryOptions{Mode: ModeVectorizedSARGPSMA})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 1 || res.Cols[0].Ints[0] == 0 {
		t.Fatalf("unexpected result: %s", res)
	}
	// Compare with naive count: balances are i % 1000 < 500 → half.
	if got := res.Cols[0].Ints[0]; got != 3000 {
		t.Fatalf("count = %d, want 3000", got)
	}
}

func TestStatsCompression(t *testing.T) {
	_, tbl := accountsTable(t, 1<<14)
	before := tbl.Stats()
	if err := tbl.FreezeAll(); err != nil {
		t.Fatal(err)
	}
	after := tbl.Stats()
	if after.FrozenBytes >= before.HotBytes {
		t.Fatalf("compression failed: %d -> %d", before.HotBytes, after.FrozenBytes)
	}
}

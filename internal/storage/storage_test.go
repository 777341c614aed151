package storage

import (
	"fmt"
	"testing"
	"time"

	"datablocks/internal/core"
	"datablocks/internal/types"
)

func testSchema() *types.Schema {
	return types.NewSchema(
		types.Column{Name: "id", Kind: types.Int64},
		types.Column{Name: "amount", Kind: types.Float64},
		types.Column{Name: "note", Kind: types.String, Nullable: true},
	)
}

func mkRow(id int64, amount float64, note string) types.Row {
	var n types.Value
	if note == "" {
		n = types.NullValue(types.String)
	} else {
		n = types.StringValue(note)
	}
	return types.Row{types.IntValue(id), types.FloatValue(amount), n}
}

// update rewrites tid as row through the one update path, on stripe 0:
// append the new version pending, then commit it against tid, aborting
// it when tid is no longer live.
func update(r *Relation, tid TupleID, row types.Row) (TupleID, error) {
	nt, err := r.InsertPendingStripe(0, row)
	if err != nil {
		return TupleID{}, err
	}
	if _, ok := r.CommitUpdate(tid, nt); !ok {
		r.AbortPending(nt)
		return TupleID{}, fmt.Errorf("update of missing or deleted tuple %v", tid)
	}
	return nt, nil
}

func TestInsertGet(t *testing.T) {
	r := NewRelation(testSchema(), 0)
	tid, err := r.Insert(mkRow(1, 2.5, "hello"))
	if err != nil {
		t.Fatal(err)
	}
	row, ok := r.Get(tid)
	if !ok {
		t.Fatal("tuple missing")
	}
	if row[0].Int() != 1 || row[1].Float() != 2.5 || row[2].Str() != "hello" {
		t.Fatalf("row = %v", row)
	}
	tid2, err := r.Insert(mkRow(2, 0, ""))
	if err != nil {
		t.Fatal(err)
	}
	row, _ = r.Get(tid2)
	if !row[2].IsNull() {
		t.Fatal("null not preserved")
	}
	if r.NumRows() != 2 {
		t.Fatalf("NumRows = %d", r.NumRows())
	}
}

func TestInsertRejectsBadRows(t *testing.T) {
	r := NewRelation(testSchema(), 0)
	if _, err := r.Insert(types.Row{types.NullValue(types.Int64), types.FloatValue(1), types.StringValue("x")}); err == nil {
		t.Fatal("NULL in non-nullable column accepted")
	}
	if _, err := r.Insert(types.Row{types.StringValue("no"), types.FloatValue(1), types.StringValue("x")}); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if _, err := r.Insert(mkRow(1, 1, "a")[:2]); err == nil {
		t.Fatal("short row accepted")
	}
	// A bulk load is held to the same rule: a hot chunk's columns never
	// gain null flags after it is allocated.
	bulk := []core.ColumnData{
		{Kind: types.Int64, Ints: []int64{1, 2}, Nulls: []bool{false, true}},
		{Kind: types.Float64, Floats: []float64{1, 2}},
		{Kind: types.String, Strs: []string{"a", "b"}},
	}
	if err := r.BulkAppend(bulk, 2); err == nil {
		t.Fatal("bulk NULL in non-nullable column accepted")
	}
	if r.NumRows() != 0 {
		t.Fatal("failed inserts left rows behind")
	}
}

func TestChunkRollover(t *testing.T) {
	r := NewRelation(testSchema(), 100)
	for i := 0; i < 250; i++ {
		if _, err := r.Insert(mkRow(int64(i), float64(i), "n")); err != nil {
			t.Fatal(err)
		}
	}
	if r.NumChunks() != 3 {
		t.Fatalf("chunks = %d, want 3", r.NumChunks())
	}
	if got := r.Chunk(0).Rows(); got != 100 {
		t.Fatalf("chunk 0 rows = %d", got)
	}
	if got := r.Chunk(2).Rows(); got != 50 {
		t.Fatalf("chunk 2 rows = %d", got)
	}
}

func TestDeleteUpdate(t *testing.T) {
	r := NewRelation(testSchema(), 0)
	tid, _ := r.Insert(mkRow(1, 1.0, "a"))
	if !r.Delete(tid) {
		t.Fatal("delete failed")
	}
	if r.Delete(tid) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := r.Get(tid); ok {
		t.Fatal("deleted tuple visible")
	}
	tid2, _ := r.Insert(mkRow(2, 2.0, "b"))
	newTid, err := update(r, tid2, mkRow(2, 9.0, "b2"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(tid2); ok {
		t.Fatal("old version visible after update")
	}
	row, ok := r.Get(newTid)
	if !ok || row[1].Float() != 9.0 {
		t.Fatal("new version wrong")
	}
	if r.NumRows() != 1 {
		t.Fatalf("NumRows = %d", r.NumRows())
	}
}

func TestBulkAppend(t *testing.T) {
	r := NewRelation(testSchema(), 128)
	n := 1000
	cols := []core.ColumnData{
		{Kind: types.Int64, Ints: make([]int64, n)},
		{Kind: types.Float64, Floats: make([]float64, n)},
		{Kind: types.String, Strs: make([]string, n), Nulls: make([]bool, n)},
	}
	for i := 0; i < n; i++ {
		cols[0].Ints[i] = int64(i)
		cols[1].Floats[i] = float64(i) / 2
		cols[2].Strs[i] = fmt.Sprintf("s%d", i%7)
		cols[2].Nulls[i] = i%13 == 0
	}
	if err := r.BulkAppend(cols, n); err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != n {
		t.Fatalf("NumRows = %d", r.NumRows())
	}
	// Spot-check across chunk boundaries.
	for _, i := range []int{0, 127, 128, 500, 999} {
		tid := TupleID{Chunk: uint32(i / 128), Row: uint32(i % 128)}
		row, ok := r.Get(tid)
		if !ok {
			t.Fatalf("row %d missing", i)
		}
		if row[0].Int() != int64(i) {
			t.Fatalf("row %d: id = %v", i, row[0])
		}
		if (i%13 == 0) != row[2].IsNull() {
			t.Fatalf("row %d: null flag wrong", i)
		}
	}
}

func TestFreezePreservesTuplesAndTIDs(t *testing.T) {
	r := NewRelation(testSchema(), 100)
	var tids []TupleID
	for i := 0; i < 150; i++ {
		tid, _ := r.Insert(mkRow(int64(i), float64(i), fmt.Sprintf("n%d", i%5)))
		tids = append(tids, tid)
	}
	// Delete some rows in the chunk to be frozen.
	r.Delete(tids[10])
	r.Delete(tids[20])
	if err := r.FreezeChunk(0, core.FreezeOptions{SortBy: -1}); err != nil {
		t.Fatal(err)
	}
	if !r.Chunk(0).IsFrozen() {
		t.Fatal("chunk not frozen")
	}
	if r.Chunk(0).LiveRows() != 98 {
		t.Fatalf("live rows = %d", r.Chunk(0).LiveRows())
	}
	// TIDs still resolve to the same tuples; deleted stay deleted.
	for i, tid := range tids {
		row, ok := r.Get(tid)
		if i == 10 || i == 20 {
			if ok {
				t.Fatalf("deleted row %d visible after freeze", i)
			}
			continue
		}
		if !ok || row[0].Int() != int64(i) {
			t.Fatalf("row %d wrong after freeze", i)
		}
	}
	// Deleting from a frozen chunk sets the flag.
	if !r.Delete(tids[30]) {
		t.Fatal("delete in frozen chunk failed")
	}
	if _, ok := r.Get(tids[30]); ok {
		t.Fatal("frozen-deleted tuple visible")
	}
	// Updating a frozen tuple moves it to the hot region.
	newTid, err := update(r, tids[40], mkRow(40, 99.0, "moved"))
	if err != nil {
		t.Fatal(err)
	}
	if int(newTid.Chunk) == 0 {
		t.Fatal("update landed in frozen chunk")
	}
	row, _ := r.Get(newTid)
	if row[1].Float() != 99.0 {
		t.Fatal("updated values wrong")
	}
}

func TestFreezeSortedCompactsDeletes(t *testing.T) {
	// Every column is a function of the id, and every third note is NULL,
	// so each surviving row can be checked cell by cell after the sort.
	amount := func(id int64) float64 { return float64(id)*1.5 + 0.25 }
	note := func(id int64) string {
		if id%3 == 0 {
			return "" // NULL
		}
		return fmt.Sprintf("n%d", id)
	}
	r := NewRelation(testSchema(), 100)
	var tids []TupleID
	for i := 0; i < 100; i++ {
		id := int64(99 - i) // descending ids
		tid, _ := r.Insert(mkRow(id, amount(id), note(id)))
		tids = append(tids, tid)
	}
	r.Delete(tids[0])  // id 99
	r.Delete(tids[50]) // id 49
	if err := r.FreezeChunk(0, core.FreezeOptions{SortBy: 0}); err != nil {
		t.Fatal(err)
	}
	c := r.Chunk(0)
	if c.Rows() != 98 || c.LiveRows() != 98 {
		t.Fatalf("rows = %d live = %d", c.Rows(), c.LiveRows())
	}
	// Sorted ascending by id; the deleted ids are gone.
	want := int64(0)
	for row := 0; row < c.Rows(); row++ {
		if want == 49 {
			want++
		}
		if got := c.Block().Int(0, row); got != want {
			t.Fatalf("row %d: id = %d, want %d", row, got, want)
		}
		wantRow := mkRow(want, amount(want), note(want))
		for col := 1; col < len(wantRow); col++ {
			if got := c.Block().Value(col, row); !got.Equal(wantRow[col]) {
				t.Errorf("id %d, column %d: %v, want %v", want, col, got, wantRow[col])
			}
		}
		want++
	}
}

func TestFreezeAllKeepsHotTail(t *testing.T) {
	r := NewRelation(testSchema(), 50)
	for i := 0; i < 125; i++ {
		r.Insert(mkRow(int64(i), 0, "x"))
	}
	if err := r.FreezeAll(core.FreezeOptions{SortBy: -1}, true); err != nil {
		t.Fatal(err)
	}
	if !r.Chunk(0).IsFrozen() || !r.Chunk(1).IsFrozen() {
		t.Fatal("full chunks not frozen")
	}
	if r.Chunk(2).IsFrozen() {
		t.Fatal("hot tail frozen despite keepHotTail")
	}
	// Inserts continue into the hot tail.
	if _, err := r.Insert(mkRow(999, 0, "y")); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryStatsShrinkAfterFreeze(t *testing.T) {
	r := NewRelation(testSchema(), 1<<12)
	n := 1 << 12
	cols := []core.ColumnData{
		{Kind: types.Int64, Ints: make([]int64, n)},
		{Kind: types.Float64, Floats: make([]float64, n)},
		{Kind: types.String, Strs: make([]string, n)},
	}
	for i := 0; i < n; i++ {
		cols[0].Ints[i] = int64(i % 50)
		cols[1].Floats[i] = 1.5 // constant: single-value
		cols[2].Strs[i] = []string{"aa", "bb", "cc"}[i%3]
	}
	r.BulkAppend(cols, n)
	before := r.MemoryStats()
	if before.FrozenChunks != 0 || before.HotBytes == 0 {
		t.Fatalf("unexpected before stats: %+v", before)
	}
	if err := r.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		t.Fatal(err)
	}
	after := r.MemoryStats()
	if after.HotChunks != 0 || after.FrozenChunks != 1 {
		t.Fatalf("unexpected after stats: %+v", after)
	}
	if after.FrozenBytes >= before.HotBytes {
		t.Fatalf("freezing did not shrink: %d -> %d", before.HotBytes, after.FrozenBytes)
	}
}

func TestGetPointAccess(t *testing.T) {
	r := NewRelation(testSchema(), 10)
	tid, _ := r.Insert(mkRow(7, 1.25, "zz"))
	row, ok := r.Get(tid)
	if !ok || row[0].Int() != 7 {
		t.Fatalf("Get = %v %v", row, ok)
	}
	r.FreezeChunk(0, core.FreezeOptions{SortBy: -1})
	row, ok = r.Get(tid)
	if !ok || row[2].Str() != "zz" {
		t.Fatalf("frozen Get = %v %v", row, ok)
	}
}

// TestPointReadsTakeNoRelationLock: GetAt of a resident frozen row (in a
// relation with a block store) and of a hot row returns while another
// goroutine holds the relation write lock.
func TestPointReadsTakeNoRelationLock(t *testing.T) {
	r, tids := newColdRelation(t, 64, 2, 0)
	hot, err := r.Insert(mkRow(1000, 1, "hot"))
	if err != nil {
		t.Fatal(err)
	}
	locked, release := make(chan struct{}), make(chan struct{})
	go func() {
		r.mu.Lock()
		close(locked)
		<-release
		r.mu.Unlock()
	}()
	<-locked
	defer close(release)
	for _, tid := range []TupleID{tids[70], hot} {
		done := make(chan types.Row, 1)
		go func() {
			row, _ := r.GetAt(tid, r.ReadEpoch())
			done <- row
		}()
		select {
		case row := <-done:
			if row == nil {
				t.Fatalf("GetAt(%v) found no row", tid)
			}
		case <-time.After(time.Second):
			t.Fatalf("GetAt(%v) waited for the relation lock", tid)
		}
	}
}

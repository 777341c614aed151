package storage

import (
	"reflect"
	"testing"

	"datablocks/internal/core"
	"datablocks/internal/simd"
)

// TestManifestRestoreRoundTrip drives the relation-level half of durable
// reopen: a frozen relation's ManifestChunks snapshot, restored with
// RestoreEvicted into a fresh relation over the same store, must answer
// point reads and scans identically — rows retired by a delete, by either
// kind of update or by an aborted update stay dead (retired before every
// epoch), live rows materialize after a lazy reload. The manifest itself
// is pinned too: one bit per retired row in a bitmap trimmed to the row
// count, none for a chunk without retired rows — what every database
// directory written so far holds — and a restored relation writes the
// manifest it was restored from.
func TestManifestRestoreRoundTrip(t *testing.T) {
	const chunkRows, nChunks = 128, 4
	store := openTestStore(t)
	r := NewRelation(testSchema(), chunkRows)
	r.SetBlockStore(store, 0, nil)
	for i := 0; i < chunkRows*nChunks; i++ {
		if _, err := r.Insert(mkRow(int64(i), float64(i)/2, "x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		t.Fatal(err)
	}
	// Retire rows of frozen chunks 0-2 every way there is; the new versions
	// land in a fifth chunk, which is frozen in turn. Chunk 3 stays clean.
	for _, tid := range []TupleID{{Chunk: 0, Row: 3}, {Chunk: 1, Row: 0}, {Chunk: 2, Row: 127}} {
		if !r.Delete(tid) {
			t.Fatalf("delete %v failed", tid)
		}
	}
	if _, err := update(r, TupleID{Chunk: 1, Row: 5}, mkRow(1000, 1, "updated")); err != nil {
		t.Fatal(err)
	}
	pend, err := r.InsertPendingStripe(0, mkRow(1001, 2, "committed"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.CommitUpdate(TupleID{Chunk: 2, Row: 7}, pend); !ok {
		t.Fatal("commit refused")
	}
	aborted, err := r.InsertPendingStripe(0, mkRow(1002, 3, "aborted"))
	if err != nil {
		t.Fatal(err)
	}
	r.AbortPending(aborted)
	if err := r.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		t.Fatal(err)
	}
	if err := r.FlushFrozen(); err != nil {
		t.Fatal(err)
	}
	chunks := r.ManifestChunks()
	wantBits := [][]uint32{{3}, {0, 5}, {7, 127}, nil, {aborted.Row}}
	if len(chunks) != len(wantBits) {
		t.Fatalf("manifest has %d chunks, want %d", len(chunks), len(wantBits))
	}
	for i, mc := range chunks {
		var want []uint64
		for _, row := range wantBits[i] {
			if want == nil {
				want = make([]uint64, simd.BitmapWords(mc.Rows))
			}
			simd.BitmapSet(want, row)
		}
		if mc.NumDeleted != len(wantBits[i]) || !reflect.DeepEqual(mc.Deleted, want) {
			t.Fatalf("manifest chunk %d: %d deleted, bitmap %x; want rows %v", i, mc.NumDeleted, mc.Deleted, wantBits[i])
		}
	}

	r2 := NewRelation(testSchema(), chunkRows)
	r2.SetBlockStore(store, 0, nil)
	for _, mc := range chunks {
		if err := r2.RestoreEvicted(mc.Handle, mc.Rows, mc.Bytes, mc.Deleted, mc.NumDeleted); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := r2.NumRows(), r.NumRows(); got != want {
		t.Fatalf("restored live rows %d, want %d", got, want)
	}
	if got := r2.ManifestChunks(); !reflect.DeepEqual(got, chunks) {
		t.Fatalf("restored relation writes manifest %+v, was restored from %+v", got, chunks)
	}
	views := r2.Snapshot()
	for ci, mc := range chunks {
		if s := r2.Chunk(ci).State(); s != ChunkEvicted {
			t.Fatalf("restored chunk %d state %v, want evicted", ci, s)
		}
		if got, want := views[ci].LiveRows(), mc.Rows-mc.NumDeleted; got != want {
			t.Fatalf("restored chunk %d: a scan sees %d rows, want %d", ci, got, want)
		}
		for row := 0; row < mc.Rows; row++ {
			tid := TupleID{Chunk: uint32(ci), Row: uint32(row)}
			want, wantOK := r.Get(tid)
			got, ok := r2.Get(tid)
			if ok != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("tuple %v restored as %v, %v; was %v, %v", tid, got, ok, want, wantOK)
			}
			if views[ci].IsDeleted(row) == ok {
				t.Fatalf("tuple %v: scan and point read disagree", tid)
			}
		}
	}
}

// TestManifestChunksMarksPendingDeleted: a row pending an uncommitted
// update at manifest time must be recorded as deleted — its commit epoch
// would not survive a restart, so recovery must never resurrect it.
func TestManifestChunksMarksPendingDeleted(t *testing.T) {
	const chunkRows = 64
	store := openTestStore(t)
	r := NewRelation(testSchema(), chunkRows)
	r.SetBlockStore(store, 0, nil)
	for i := 0; i < chunkRows-1; i++ {
		if _, err := r.Insert(mkRow(int64(i), 0, "x")); err != nil {
			t.Fatal(err)
		}
	}
	pendTid, err := r.InsertPendingStripe(0, mkRow(999, 0, "pending"))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		t.Fatal(err)
	}
	if err := r.FlushFrozen(); err != nil {
		t.Fatal(err)
	}
	chunks := r.ManifestChunks()
	if len(chunks) != 1 {
		t.Fatalf("manifest has %d chunks, want 1", len(chunks))
	}
	mc := chunks[0]
	if mc.NumDeleted != 1 {
		t.Fatalf("manifest records %d deleted rows, want the pending row", mc.NumDeleted)
	}
	if !simd.BitmapGet(mc.Deleted, pendTid.Row) {
		t.Fatalf("pending row %d not marked deleted in the manifest bitmap", pendTid.Row)
	}

	r2 := NewRelation(testSchema(), chunkRows)
	r2.SetBlockStore(store, 0, nil)
	if err := r2.RestoreEvicted(mc.Handle, mc.Rows, mc.Bytes, mc.Deleted, mc.NumDeleted); err != nil {
		t.Fatal(err)
	}
	if _, ok := r2.Get(pendTid); ok {
		t.Fatal("pending row resurrected after restore")
	}
	if got := r2.NumRows(); got != chunkRows-1 {
		t.Fatalf("restored live rows %d, want %d", got, chunkRows-1)
	}
}

// TestRestoreEvictedValidation: structurally impossible restores are
// rejected before they can corrupt the relation.
func TestRestoreEvictedValidation(t *testing.T) {
	r := NewRelation(testSchema(), 64)
	if err := r.RestoreEvicted(1, 10, 0, nil, 0); err == nil {
		t.Fatal("restore without a block store accepted")
	}
	r.SetBlockStore(openTestStore(t), 0, nil)
	if err := r.RestoreEvicted(0, 10, 0, nil, 0); err == nil {
		t.Fatal("zero handle accepted")
	}
	if err := r.RestoreEvicted(1, 65, 0, nil, 0); err == nil {
		t.Fatal("rows beyond chunk capacity accepted")
	}
	if err := r.RestoreEvicted(1, 10, 0, nil, 11); err == nil {
		t.Fatal("numDeleted > rows accepted")
	}
}

// TestUnevictAllReloadsEverything: after UnevictAll no chunk is evicted
// and reads work without the store (the spill-cache GC path at DB.Close).
func TestUnevictAllReloadsEverything(t *testing.T) {
	r, tids := newColdRelation(t, 64, 3, 0)
	if err := r.FlushFrozen(); err != nil {
		t.Fatal(err)
	}
	evictAll(t, r)
	if err := r.UnevictAll(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.NumChunks(); i++ {
		if s := r.Chunk(i).State(); s != ChunkFrozen {
			t.Fatalf("chunk %d state %v after UnevictAll", i, s)
		}
	}
	for i, tid := range tids {
		if i%17 != 0 {
			continue
		}
		row, ok := r.Get(tid)
		if !ok || row[0].Int() != int64(i) {
			t.Fatalf("tuple %v = %v, %v", tid, row, ok)
		}
	}
}

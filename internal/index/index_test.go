package index

import (
	"testing"

	"datablocks/internal/core"
	"datablocks/internal/storage"
	"datablocks/internal/types"
)

func keyedRelation(t *testing.T, n, chunkCap int) (*storage.Relation, *Hash) {
	t.Helper()
	schema := types.NewSchema(
		types.Column{Name: "k", Kind: types.Int64},
		types.Column{Name: "v", Kind: types.Int64},
	)
	r := storage.NewRelation(schema, chunkCap)
	h := NewHash(n)
	for i := 0; i < n; i++ {
		tid, err := r.Insert(types.Row{types.IntValue(int64(i)), types.IntValue(int64(i * 10))})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Insert(int64(i), tid); err != nil {
			t.Fatal(err)
		}
	}
	return r, h
}

func TestLookupAcrossFreeze(t *testing.T) {
	r, h := keyedRelation(t, 300, 100)
	if err := r.FreezeAll(core.FreezeOptions{SortBy: -1}, true); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 300; k++ {
		tid, ok := h.Lookup(k)
		if !ok {
			t.Fatalf("key %d missing", k)
		}
		row, ok := r.Get(tid)
		if !ok || row[1].Int() != k*10 {
			t.Fatalf("key %d resolves to wrong tuple", k)
		}
	}
}

func TestDuplicateRejected(t *testing.T) {
	_, h := keyedRelation(t, 5, 0)
	if err := h.Insert(3, storage.TupleID{}); err == nil {
		t.Fatal("duplicate key accepted")
	}
	if h.Len() != 5 {
		t.Fatalf("Len = %d", h.Len())
	}
}

func TestDeleteAndUpdate(t *testing.T) {
	r, h := keyedRelation(t, 10, 0)
	if !h.Delete(4) {
		t.Fatal("delete failed")
	}
	if h.Delete(4) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := h.Lookup(4); ok {
		t.Fatal("deleted key found")
	}
	// Simulate replay's update = pending insert + commit + index repoint.
	tid, _ := h.Lookup(7)
	newTid, err := r.InsertPendingStripe(0, types.Row{types.IntValue(7), types.IntValue(777)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.CommitUpdate(tid, newTid); !ok {
		t.Fatal("commit refused")
	}
	h.Repoint(7, newTid)
	got, _ := h.Lookup(7)
	row, ok := r.Get(got)
	if !ok || row[1].Int() != 777 {
		t.Fatal("index points at stale version")
	}
}

// TestVersionRecordProtocol walks the update protocol at the
// index+storage level: every intermediate state resolves a visible
// version of the key through the record's Cur or Prev, the previous
// version is on record from Publish until Seal, and after Seal a reader
// whose epoch predates the commit is told to retry rather than to miss.
func TestVersionRecordProtocol(t *testing.T) {
	r, h := keyedRelation(t, 3, 0)

	// resolve is Table.lookupVersioned's rule without the loop: retry
	// reports that a fresh epoch is needed.
	resolve := func(epoch uint64) (row types.Row, ok, retry bool) {
		rec, found := h.LookupRecord(1)
		if !found {
			return nil, false, false
		}
		row, vis := r.GetAt(rec.Cur, epoch)
		if vis == storage.Visible {
			return row, true, false
		}
		if vis != storage.NotYetBorn {
			return nil, false, false
		}
		if rec.HasPrev {
			if row, vis := r.GetAt(rec.Prev, epoch); vis != storage.NotYetBorn {
				return row, vis == storage.Visible, false
			}
		}
		return nil, false, true
	}
	wantValue := func(when string, epoch uint64, want int64) {
		t.Helper()
		if row, ok, retry := resolve(epoch); !ok || retry || row[1].Int() != want {
			t.Fatalf("%s: resolve = %v ok=%v retry=%v, want value %d", when, row, ok, retry, want)
		}
	}

	e0 := r.ReadEpoch()
	oldTid, _ := h.Lookup(1)
	// Step 1: pending insert — invisible, old version still resolves.
	newTid, err := r.InsertPendingStripe(0, types.Row{types.IntValue(1), types.IntValue(11)})
	if err != nil {
		t.Fatal(err)
	}
	wantValue("pre-publish", r.ReadEpoch(), 10)
	// Step 2: publish — Cur is pending, readers fall back to Prev.
	h.Publish(1, newTid)
	if rec, _ := h.LookupRecord(1); rec != (Record{Cur: newTid, Prev: oldTid, HasPrev: true}) {
		t.Fatalf("published record = %+v", rec)
	}
	wantValue("post-publish", r.ReadEpoch(), 10)
	// Step 3: commit — the epoch decides which version a reader sees.
	if _, ok := r.CommitUpdate(oldTid, newTid); !ok {
		t.Fatal("commit failed")
	}
	wantValue("old epoch, committed", e0, 10)
	wantValue("new epoch, committed", r.ReadEpoch(), 11)
	// Step 4: seal — the previous version leaves the index. A reader still
	// holding the old epoch must retry, not miss; any fresh epoch sees the
	// committed version.
	h.Seal(1, r.ReadEpoch())
	if rec, _ := h.LookupRecord(1); rec != (Record{Cur: newTid}) {
		t.Fatalf("sealed record = %+v, want current version only", rec)
	}
	if row, ok, retry := resolve(e0); ok || !retry {
		t.Fatalf("old epoch after seal: resolve = %v ok=%v retry=%v, want retry", row, ok, retry)
	}
	wantValue("new epoch, sealed", r.ReadEpoch(), 11)
}

// TestPublishAbsentKeyNoFabricatedPrev: publishing a key that is not in
// the index must not invent a previous version out of the zero Record —
// a reader falling back to Prev would materialize the unrelated live row
// at TupleID{0,0}.
func TestPublishAbsentKeyNoFabricatedPrev(t *testing.T) {
	r, h := keyedRelation(t, 3, 0)
	tid, err := r.InsertPendingStripe(0, types.Row{types.IntValue(99), types.IntValue(990)})
	if err != nil {
		t.Fatal(err)
	}
	h.Publish(99, tid)
	rec, ok := h.LookupRecord(99)
	if !ok {
		t.Fatal("published key missing")
	}
	if rec.HasPrev {
		t.Fatalf("publish of absent key fabricated previous version %v", rec.Prev)
	}
	if rec.Cur != tid {
		t.Fatalf("Cur = %v, want %v", rec.Cur, tid)
	}
	// Aborting the publish must remove the record it created — otherwise
	// the aborted pending tid lingers as a permanently invisible current
	// version and blocks the key forever.
	r.AbortPending(tid)
	h.Unpublish(99)
	if _, ok := h.LookupRecord(99); ok {
		t.Fatal("unpublish left a dangling record for the created key")
	}
	liveTid, err := r.Insert(types.Row{types.IntValue(99), types.IntValue(991)})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Insert(99, liveTid); err != nil {
		t.Fatalf("key blocked after aborted publish: %v", err)
	}
}

func TestRebuildAfterSortedFreeze(t *testing.T) {
	r, h := keyedRelation(t, 200, 100)
	// Sorted freeze reorders tuples; index must be rebuilt.
	if err := r.FreezeChunk(0, core.FreezeOptions{SortBy: 1}); err != nil {
		t.Fatal(err)
	}
	if err := h.Rebuild(r, 0); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 200 {
		t.Fatalf("Len = %d", h.Len())
	}
	for k := int64(0); k < 200; k++ {
		tid, ok := h.Lookup(k)
		if !ok {
			t.Fatalf("key %d missing after rebuild", k)
		}
		row, ok := r.Get(tid)
		if !ok || row[1].Int() != k*10 {
			t.Fatalf("key %d wrong after rebuild", k)
		}
	}
}

// TestRebuildReserveNeverGrows: after RebuildReserve(r, keyCol, extra),
// inserting extra fresh keys — sequential or strided like composite
// TPC-C keys — leaves every shard at the size the rebuild gave it, which
// is what lets recovery's replay skip every doubling.
func TestRebuildReserveNeverGrows(t *testing.T) {
	const restored, extra = 20_000, 300_000
	r, _ := keyedRelation(t, restored, 0)
	for _, stride := range []int64{1, 1000} {
		h := NewHash(0)
		if err := h.RebuildReserve(r, 0, extra); err != nil {
			t.Fatal(err)
		}
		var sizes [numShards]int
		for i := range h.shards {
			sizes[i] = len(h.shards[i].slots)
		}
		for i := int64(0); i < extra; i++ {
			if err := h.Insert(restored+i*stride, storage.TupleID{Row: uint32(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if h.Len() != restored+extra {
			t.Fatalf("stride %d: Len = %d, want %d", stride, h.Len(), restored+extra)
		}
		for i := range h.shards {
			if got := len(h.shards[i].slots); got != sizes[i] {
				t.Fatalf("stride %d: shard %d grew %d → %d slots inside its reservation", stride, i, sizes[i], got)
			}
		}
	}
}

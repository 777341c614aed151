package storage

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"datablocks/internal/core"
	"datablocks/internal/types"
)

// TestPartialLoadAccounting walks one evicted chunk through loading
// attribute by attribute and checks every figure the outside sees stays
// honest: the store counts the bytes actually read, Reloads the pins that
// read, resident bytes are what is loaded plus the directories, and the
// full compressed size stays what the manifest and EvictedBytes report.
func TestPartialLoadAccounting(t *testing.T) {
	r, tids := newColdRelation(t, 256, 3, 0)
	full := make([]int64, 3)
	for i := range full {
		full[i] = r.Chunk(i).frozenBytes.Load()
	}
	evictAll(t, r)
	c := r.Chunk(1)
	d := c.dir.Load()
	if d == nil {
		t.Fatal("eviction left no directory")
	}
	dirs := 3 * d.Size()
	if got := r.ColdStatsSnapshot().ResidentBytes; got != int64(dirs) {
		t.Fatalf("everything evicted: resident %d bytes, the directories are %d", got, dirs)
	}

	// pin acquires chunk 1 with cols and reports what that read.
	pin := func(cols []int) (read, loads, reloads int64) {
		t.Helper()
		s0, c0 := r.store.Stats(), r.ColdStatsSnapshot()
		views := r.Snapshot()
		reloaded, err := views[1].AcquireReload(cols)
		if err != nil {
			t.Fatal(err)
		}
		if !views[1].Block().Has(cols) {
			t.Fatalf("pinned block lacks %v", cols)
		}
		views[1].Release()
		s1, c1 := r.store.Stats(), r.ColdStatsSnapshot()
		if reloaded != s1.BytesRead-s0.BytesRead {
			t.Fatalf("AcquireReload(%v) reports %d bytes, the store read %d", cols, reloaded, s1.BytesRead-s0.BytesRead)
		}
		return reloaded, s1.Loads - s0.Loads, c1.Reloads - c0.Reloads
	}
	check := func(what string, read, loads, reloads int64, wantRead int) {
		t.Helper()
		wantLoads := int64(0)
		if wantRead > 0 {
			wantLoads = 1
		}
		if read != int64(wantRead) || loads != wantLoads || reloads != wantLoads {
			t.Fatalf("%s: read %d bytes in %d loads (%d reloads), want %d bytes in %d", what, read, loads, reloads, wantRead, wantLoads)
		}
	}

	read, loads, reloads := pin([]int{0})
	check("first pin of id", read, loads, reloads, d.AttrBytes(0))
	blk := c.Block()
	if blk == nil || !blk.Has([]int{0}) || blk.Has([]int{1}) || blk.Has([]int{2}) || blk.Has(nil) {
		t.Fatal("resident block should hold exactly attribute 0")
	}
	if c.State() != ChunkFrozen {
		t.Fatalf("partly loaded chunk is %v", c.State())
	}
	loaded := blk.CompressedSize()
	if int64(loaded) >= full[1] {
		t.Fatalf("one attribute (%d bytes) is not smaller than the block (%d)", loaded, full[1])
	}
	m := r.MemoryStats()
	if m.FrozenChunks != 1 || m.EvictedChunks != 2 {
		t.Fatalf("chunks frozen/evicted = %d/%d, want 1/2", m.FrozenChunks, m.EvictedChunks)
	}
	if m.FrozenBytes != loaded+dirs {
		t.Fatalf("FrozenBytes %d, want %d loaded + %d of directories", m.FrozenBytes, loaded, dirs)
	}
	if want := int(full[0] + full[1] + full[2] - int64(loaded)); m.EvictedBytes != want {
		t.Fatalf("EvictedBytes %d, want %d", m.EvictedBytes, want)
	}
	if got := r.ColdStatsSnapshot().ResidentBytes; got != int64(m.FrozenBytes) {
		t.Fatalf("ColdStats.ResidentBytes %d, MemStats.FrozenBytes %d", got, m.FrozenBytes)
	}
	if got := c.frozenBytes.Load(); got != full[1] {
		t.Fatalf("frozenBytes became %d under partial residency, the block is %d", got, full[1])
	}
	if got := r.ManifestChunks()[1].Bytes; got != full[1] {
		t.Fatalf("manifest records %d bytes, the block is %d", got, full[1])
	}

	read, loads, reloads = pin([]int{0})
	check("second pin of id", read, loads, reloads, 0)
	read, loads, reloads = pin([]int{2, 0})
	check("pin of id+note", read, loads, reloads, d.AttrBytes(2))

	// A point read wants the whole row: only amount is still missing.
	s0 := r.store.Stats()
	if row, ok := r.Get(tids[256+9]); !ok || row[0].Int() != 256+9 || row[1].Float() != float64(256+9)/2 {
		t.Fatalf("row = %v, %v", row, ok)
	}
	if got := r.store.Stats().BytesRead - s0.BytesRead; got != int64(d.AttrBytes(1)) {
		t.Fatalf("point read of a block lacking one attribute read %d bytes, want %d", got, d.AttrBytes(1))
	}
	if !c.Block().Has(nil) || int64(c.Block().CompressedSize()) != full[1] {
		t.Fatal("block should be complete again")
	}
	read, loads, reloads = pin(nil)
	check("pin of everything, complete block", read, loads, reloads, 0)

	// Eviction is chunk-granular: everything loaded goes at once, the
	// directory stays.
	if ok, err := r.EvictChunk(1); err != nil || !ok {
		t.Fatalf("evict: %v %v", ok, err)
	}
	if c.Block() != nil || c.dir.Load() != d {
		t.Fatal("eviction should drop the payload and keep the directory")
	}
	if got := r.ColdStatsSnapshot().ResidentBytes; got != int64(dirs) {
		t.Fatalf("after eviction resident %d bytes, the directories are %d", got, dirs)
	}
	read, loads, reloads = pin(nil)
	check("pin of everything, evicted block", read, loads, reloads, d.AttrBytes(0)+d.AttrBytes(1)+d.AttrBytes(2))
}

// TestBudgetDrainsUnderPartialResidency: with a budget, partly loaded
// chunks are evictable like whole ones and ResidentBytes falls back under
// the budget — what a drain loop waits for.
func TestBudgetDrainsUnderPartialResidency(t *testing.T) {
	const nChunks = 6
	probe, _ := newColdRelation(t, 256, 1, 0)
	evictAll(t, probe)
	dirSize := int64(probe.Chunk(0).dir.Load().Size())
	attr0 := int64(probe.Chunk(0).dir.Load().AttrBytes(0))
	budget := nChunks*dirSize + 2*attr0 // room for the key column of two chunks

	r, _ := newColdRelation(t, 256, nChunks, budget)
	if _, err := r.EvictUnderBudget(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		views := r.Snapshot()
		for i := range views {
			if err := views[i].Acquire([]int{0}); err != nil {
				t.Fatal(err)
			}
			views[i].Release()
		}
		for i := 0; i < 4 && r.cache.OverBudget(); i++ {
			if _, err := r.EvictUnderBudget(); err != nil {
				t.Fatal(err)
			}
		}
		cs := r.ColdStatsSnapshot()
		if cs.ResidentBytes > cs.BudgetBytes {
			t.Fatalf("round %d: resident %d bytes over the budget of %d", round, cs.ResidentBytes, cs.BudgetBytes)
		}
		if cs.ResidentBytes < nChunks*dirSize {
			t.Fatalf("round %d: resident %d bytes, below the %d directories", round, cs.ResidentBytes, nChunks)
		}
	}
}

// TestConcurrentPartialLoadsReadEachAttributeOnce releases many pinners of
// one evicted chunk at once, each asking for a different column set.
// Single-flight must hold per attribute: whatever the interleaving, the
// store is asked for each attribute's sections exactly once, and every
// pinner reads right values out of a block that has what it asked for.
func TestConcurrentPartialLoadsReadEachAttributeOnce(t *testing.T) {
	sets := [][]int{{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}, nil, {}}
	for round := 0; round < 20; round++ {
		r, _ := newColdRelation(t, 128, 1, 0)
		evictAll(t, r)
		d := r.Chunk(0).dir.Load()
		s0, c0 := r.store.Stats(), r.ColdStatsSnapshot()
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, len(sets))
		var readTotal int64
		var mu sync.Mutex
		for _, cols := range sets {
			wg.Add(1)
			go func(cols []int) {
				defer wg.Done()
				<-start
				views := r.Snapshot()
				v := &views[0]
				n, err := v.AcquireReload(cols)
				if err != nil {
					errs <- err
					return
				}
				defer v.Release()
				mu.Lock()
				readTotal += n
				mu.Unlock()
				want := cols
				if want == nil {
					want = []int{0, 1, 2}
				}
				for _, c := range want {
					if got := v.Value(c, 77); c == 0 && got.Int() != 77 || c == 1 && got.Float() != 38.5 || c == 2 && got.Str() != "note-0" {
						t.Errorf("cols %v: cell (%d,77) = %v", cols, c, got)
					}
				}
			}(cols)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		s1, c1 := r.store.Stats(), r.ColdStatsSnapshot()
		want := int64(d.AttrBytes(0) + d.AttrBytes(1) + d.AttrBytes(2))
		if got := s1.BytesRead - s0.BytesRead; got != want || readTotal != want {
			t.Fatalf("round %d: store read %d bytes, pinners report %d, the three attributes are %d", round, got, readTotal, want)
		}
		if loads, reloads := s1.Loads-s0.Loads, c1.Reloads-c0.Reloads; loads != reloads || loads < 1 || loads > 3 {
			t.Fatalf("round %d: %d loads, %d reloads for three attributes", round, loads, reloads)
		}
		if !r.Chunk(0).Block().Has(nil) {
			t.Fatalf("round %d: block incomplete after a pinner asked for everything", round)
		}
	}
}

// TestRestoredChunkReadsItsDirectoryOnce: a chunk restored from a manifest
// has nothing in RAM; its first pin reads the directory and the attribute
// asked for, later pins and evictions never read the directory again.
func TestRestoredChunkReadsItsDirectoryOnce(t *testing.T) {
	r, _ := newColdRelation(t, 128, 2, 0)
	if err := r.FlushFrozen(); err != nil {
		t.Fatal(err)
	}
	r2 := NewRelation(testSchema(), 128)
	r2.SetBlockStore(r.store, 0, nil)
	for _, mc := range r.ManifestChunks() {
		if err := r2.RestoreEvicted(mc.Handle, mc.Rows, mc.Bytes, mc.Deleted, mc.NumDeleted); err != nil {
			t.Fatal(err)
		}
	}
	if m := r2.MemoryStats(); m.FrozenBytes != 0 || r2.Chunk(0).dir.Load() != nil {
		t.Fatalf("restored relation holds %d bytes before its first read", m.FrozenBytes)
	}
	never := []core.Predicate{{Col: 0, Op: types.Lt, Lo: types.IntValue(0)}} // ids start at 0
	views := r2.Snapshot()
	if !views[0].MayMatch(never) {
		t.Fatal("MayMatch without a directory must not rule anything out")
	}
	n, err := views[0].AcquireReload([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	views[0].Release()
	d := r2.Chunk(0).dir.Load()
	if d == nil || n != int64(d.Size()+d.AttrBytes(0)) {
		t.Fatalf("first pin read %d bytes, want directory + attribute 0", n)
	}
	if ok, eerr := r2.EvictChunk(0); eerr != nil || !ok {
		t.Fatalf("evict: %v %v", ok, eerr)
	}
	views = r2.Snapshot()
	if views[0].MayMatch(never) {
		t.Fatal("the resident directory's SMA should rule id < 0 out")
	}
	if n, err = views[0].AcquireReload([]int{0}); err != nil || n != int64(d.AttrBytes(0)) {
		t.Fatalf("second pin read %d bytes (err %v), want attribute 0 alone", n, err)
	}
	views[0].Release()
	if m := r2.MemoryStats(); m.FrozenBytes != d.Size()+r2.Chunk(0).Block().CompressedSize() {
		t.Fatalf("FrozenBytes %d with one directory and one attribute resident", m.FrozenBytes)
	}
}

// TestPointReadsOwnTheirStrings: a row read out of a block that was decoded
// from the store must not alias the block's dictionary section. Such a row
// outlives its pin — an update writes it back into a hot chunk — and would
// otherwise keep the whole section of every string attribute alive after
// the block itself was evicted.
func TestPointReadsOwnTheirStrings(t *testing.T) {
	r, tids := newColdRelation(t, 64, 1, 0)
	evictAll(t, r)
	row, ok := r.Get(tids[3])
	if !ok || row[2].Str() != "note-3" {
		t.Fatalf("row = %v, %v", row, ok)
	}
	inBlock := r.Chunk(0).Block().Str(2, 3)
	if inBlock != "note-3" {
		t.Fatalf("block holds %q", inBlock)
	}
	if unsafe.StringData(row[2].Str()) == unsafe.StringData(inBlock) {
		t.Fatal("a point read aliases the reloaded block's dictionary section")
	}

	// A block frozen in process and never evicted holds its strings in a
	// section of its own: a point read returns none of the strings the
	// rows were inserted with, which the block would otherwise keep alive.
	var err error
	r = NewRelation(testSchema(), 64)
	notes := make([]string, 64)
	for i := range notes {
		notes[i] = fmt.Sprintf("note-%d", i)
		if tids[i], err = r.Insert(mkRow(int64(i), 0, notes[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err = r.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		t.Fatal(err)
	}
	row, ok = r.Get(tids[3])
	if !ok || row[2].Str() != "note-3" || r.Chunk(0).State() != ChunkFrozen {
		t.Fatalf("row = %v, %v; chunk %v", row, ok, r.Chunk(0).State())
	}
	if unsafe.StringData(row[2].Str()) == unsafe.StringData(notes[3]) {
		t.Fatal("a point read of a block frozen in process returns the string the row was inserted with")
	}
}

package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/types"
)

// newColdRelation builds a relation with a block store, nChunks full
// chunks of chunkRows rows each (plus an empty insert tail is avoided by
// exact fill) and freezes everything. Row i carries id=i, amount=i/2 and
// a note that is NULL every 5th row.
func newColdRelation(t testing.TB, chunkRows, nChunks int, budget int64) (*Relation, []TupleID) {
	t.Helper()
	r := NewRelation(testSchema(), chunkRows)
	r.SetBlockStore(openTestStore(t), budget, nil)
	var tids []TupleID
	for i := 0; i < chunkRows*nChunks; i++ {
		note := fmt.Sprintf("note-%d", i%7)
		if i%5 == 0 {
			note = ""
		}
		tid, err := r.Insert(mkRow(int64(i), float64(i)/2, note))
		if err != nil {
			t.Fatal(err)
		}
		tids = append(tids, tid)
	}
	if err := r.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		t.Fatal(err)
	}
	return r, tids
}

func openTestStore(t testing.TB) *blockstore.Store {
	t.Helper()
	s, err := blockstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func evictAll(t testing.TB, r *Relation) {
	t.Helper()
	for i := 0; i < r.NumChunks(); i++ {
		if r.Chunk(i).State() != ChunkFrozen {
			continue
		}
		ok, err := r.EvictChunk(i)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("chunk %d not evicted", i)
		}
	}
}

func TestEvictReloadPointReads(t *testing.T) {
	r, tids := newColdRelation(t, 64, 3, 0)
	evictAll(t, r)
	for i := 0; i < r.NumChunks(); i++ {
		c := r.Chunk(i)
		if c.State() != ChunkEvicted || !c.IsFrozen() {
			t.Fatalf("chunk %d: state %v, IsFrozen %v", i, c.State(), c.IsFrozen())
		}
		if c.Block() != nil {
			t.Fatalf("chunk %d still holds its payload", i)
		}
		if c.Rows() != 64 {
			t.Fatalf("chunk %d rows = %d while evicted", i, c.Rows())
		}
	}
	if st := r.MemoryStats(); st.EvictedChunks != 3 || st.FrozenChunks != 0 || st.EvictedBytes == 0 {
		t.Fatalf("stats %+v", st)
	}
	// Point reads reload transparently.
	for _, i := range []int{0, 5, 63, 64, 150} {
		row, ok := r.Get(tids[i])
		if !ok {
			t.Fatalf("row %d missing after eviction", i)
		}
		if row[0].Int() != int64(i) || row[1].Float() != float64(i)/2 {
			t.Fatalf("row %d = %v", i, row)
		}
		if i%5 == 0 && !row[2].IsNull() {
			t.Fatalf("row %d: note should be NULL", i)
		}
	}
	// The touched chunks are frozen (resident) again; reloads counted.
	if r.Chunk(0).State() != ChunkFrozen {
		t.Fatalf("chunk 0 state %v after reload", r.Chunk(0).State())
	}
	cs := r.ColdStatsSnapshot()
	if cs.Evictions != 3 || cs.Reloads == 0 {
		t.Fatalf("cold stats %+v", cs)
	}
	if r.LoadError() != nil {
		t.Fatalf("unexpected load error: %v", r.LoadError())
	}
}

// TestEvictReloadScanEquivalence compares a full snapshot sweep before
// and after eviction — including deletes stamped while the payload was on
// disk — cell by cell.
func TestEvictReloadScanEquivalence(t *testing.T) {
	r, tids := newColdRelation(t, 128, 4, 0)
	// Delete a few rows before eviction…
	for _, i := range []int{3, 130, 400} {
		if !r.Delete(tids[i]) {
			t.Fatalf("delete %d failed", i)
		}
	}
	sweep := func() map[int64]string {
		out := make(map[int64]string)
		views := r.Snapshot()
		for ci := range views {
			v := &views[ci]
			if err := v.Acquire(nil); err != nil {
				t.Fatal(err)
			}
			for row := 0; row < v.Rows(); row++ {
				if v.IsDeleted(row) {
					continue
				}
				id := v.Value(0, row).Int()
				out[id] = fmt.Sprintf("%v|%v", v.Value(1, row), v.Value(2, row))
			}
			v.Release()
		}
		return out
	}
	before := sweep()
	evictAll(t, r)
	// …and a few more while the payload lives in the store (the delete
	// bitmap stays in RAM).
	for _, i := range []int{7, 200} {
		if !r.Delete(tids[i]) {
			t.Fatalf("delete %d failed", i)
		}
		delete(before, int64(i))
	}
	after := sweep()
	if len(after) != len(before) {
		t.Fatalf("sweep sizes differ: %d vs %d", len(after), len(before))
	}
	for id, want := range before {
		if got, ok := after[id]; !ok || got != want {
			t.Fatalf("id %d: %q vs %q", id, got, want)
		}
	}
}

func TestEvictSkipsPinnedChunk(t *testing.T) {
	r, _ := newColdRelation(t, 32, 1, 0)
	views := r.Snapshot()
	if err := views[0].Acquire(nil); err != nil {
		t.Fatal(err)
	}
	ok, err := r.EvictChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("evicted a pinned chunk")
	}
	views[0].Release()
	ok, err = r.EvictChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("unpinned chunk not evicted")
	}
	// Double-eviction is a benign no-op.
	if ok, err := r.EvictChunk(0); err != nil || ok {
		t.Fatalf("second eviction: ok=%v err=%v", ok, err)
	}
}

// TestEvictUnderBudgetColdestFirst heats one chunk with lookups and
// checks the budget evictor sheds the cold ones first.
func TestEvictUnderBudgetColdestFirst(t *testing.T) {
	const chunkRows = 256
	r, tids := newColdRelation(t, chunkRows, 4, 1) // 1-byte budget: everything must go
	// Heat chunk 2 well past the snapshot touches of newColdRelation.
	for i := 0; i < 64; i++ {
		if _, ok := r.Get(tids[2*chunkRows+5]); !ok {
			t.Fatal("hot row missing")
		}
	}
	n, err := r.EvictUnderBudget()
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("evicted %d chunks, want 4", n)
	}
	// With an impossible budget everything is evicted eventually, but the
	// victim order is coldest-first: re-check via a fresh pass with a
	// budget that fits exactly one chunk.
	// …one chunk's block plus the directories the evicted chunks keep.
	oneBlock := r.Chunk(2).frozenBytes.Load() + 4*int64(r.Chunk(2).dir.Load().Size())
	r2, tids2 := newColdRelation(t, chunkRows, 4, oneBlock+16)
	for i := 0; i < 64; i++ {
		if _, ok := r2.Get(tids2[2*chunkRows+5]); !ok {
			t.Fatal("hot row missing")
		}
	}
	if _, err := r2.EvictUnderBudget(); err != nil {
		t.Fatal(err)
	}
	if st := r2.Chunk(2).State(); st != ChunkFrozen {
		t.Fatalf("hottest chunk was evicted (state %v)", st)
	}
	resident := 0
	for i := 0; i < r2.NumChunks(); i++ {
		if r2.Chunk(i).State() == ChunkFrozen {
			resident++
		}
	}
	if resident != 1 {
		t.Fatalf("%d chunks resident, want 1", resident)
	}
}

// TestReloadFailureSurfaces damages the stored block and checks the reload
// reports Unavailable + LoadError instead of silent data: a flipped byte in
// one attribute fails exactly the pins that ask for that attribute, a
// truncated file fails them all.
func TestReloadFailureSurfaces(t *testing.T) {
	dir := t.TempDir()
	s, err := blockstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRelation(testSchema(), 32)
	r.SetBlockStore(s, 0, nil)
	var tid TupleID
	for i := 0; i < 32; i++ {
		tid, err = r.Insert(mkRow(int64(i), float64(i), "x"))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err = r.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		t.Fatal(err)
	}
	evictAll(t, r)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var path string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".dblk" {
			path = filepath.Join(dir, e.Name())
		}
	}
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Flip the last byte of the last attribute (note): pins of id and
	// amount still work, and read right values; a pin that includes note,
	// or a whole-row read, fails.
	bad := append([]byte(nil), pristine...)
	bad[len(bad)-9] ^= 0x01
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	views := r.Snapshot()
	if err := views[0].Acquire([]int{0, 1}); err != nil {
		t.Fatalf("pin of the intact attributes failed: %v", err)
	}
	if got := views[0].Value(1, 5).Float(); got != 5 {
		t.Fatalf("amount of row 5 = %v", got)
	}
	views[0].Release()
	if r.LoadError() != nil {
		t.Fatalf("intact attributes left a LoadError: %v", r.LoadError())
	}
	views = r.Snapshot()
	if err := views[0].Acquire([]int{2}); err == nil {
		views[0].Release()
		t.Fatal("pin of the corrupt attribute succeeded")
	}
	if _, vis := r.GetAt(tid, r.ReadEpoch()); vis != Unavailable {
		t.Fatalf("visibility %v, want Unavailable", vis)
	}
	if r.LoadError() == nil {
		t.Fatal("corrupt reload left no LoadError")
	}
	// The failed loads must not have disturbed what was resident.
	views = r.Snapshot()
	if err := views[0].Acquire([]int{0}); err != nil {
		t.Fatalf("pin of a resident attribute after a failed load: %v", err)
	}
	views[0].Release()

	// A truncated file: nothing that has to read loads.
	evictAll(t, r)
	if err := os.Truncate(path, 10); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(tid); ok {
		t.Fatal("read of a truncated evicted block succeeded")
	}
	views = r.Snapshot()
	if err := views[0].Acquire([]int{0}); err == nil {
		t.Fatal("Acquire of a truncated evicted block succeeded")
	}
}

// TestConcurrentEvictReloadStress races writers, point readers, scanning
// snapshots — whole-block ones and ones that ask for different column sets
// of the same chunks — and a budget evictor over one relation (run under
// -race). Besides right values it asserts that the block a reader pinned
// never changes underneath it: other readers loading further attributes of
// the chunk, and the evictor dropping it, install new payloads instead.
func TestConcurrentEvictReloadStress(t *testing.T) {
	const chunkRows = 128
	r, tids := newColdRelation(t, chunkRows, 6, 1) // evict everything, always
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var evictions, reloads atomic.Int64
	fail := make(chan error, 32)

	// Evictor: hammer the budget loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, err := r.EvictUnderBudget()
			if err != nil {
				fail <- err
				return
			}
			evictions.Add(int64(n))
			runtime.Gosched()
		}
	}()
	// Point readers.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				idx := (i*37 + g*13) % len(tids)
				row, ok := r.Get(tids[idx])
				if !ok {
					fail <- fmt.Errorf("row %d vanished", idx)
					return
				}
				if row[0].Int() != int64(idx) {
					fail <- fmt.Errorf("row %d read id %d", idx, row[0].Int())
					return
				}
			}
		}(g)
	}
	// Scanner: full sweeps with pinned views.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			views := r.Snapshot()
			total := 0
			// Only the six pre-built chunks have a fixed row count; the
			// writer keeps growing the tail behind them.
			for ci := 0; ci < 6; ci++ {
				v := &views[ci]
				if err := v.Acquire(nil); err != nil {
					fail <- err
					return
				}
				for row := 0; row < v.Rows(); row++ {
					if !v.IsDeleted(row) {
						total++
					}
				}
				v.Release()
			}
			if total != len(tids) {
				fail <- fmt.Errorf("sweep saw %d rows, want %d", total, len(tids))
				return
			}
		}
	}()
	// Column-subset scanners: same chunks, different attributes each.
	for _, cols := range [][]int{{0}, {2}, {1, 2}, {}} {
		wg.Add(1)
		go func(cols []int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				views := r.Snapshot()
				for ci := 0; ci < 6; ci++ {
					v := &views[ci]
					if err := v.Acquire(cols); err != nil {
						fail <- err
						return
					}
					blk := v.Block()
					var has [3]bool
					for c := range has {
						has[c] = blk.Has([]int{c})
					}
					for _, c := range cols {
						if !has[c] {
							fail <- fmt.Errorf("chunk %d pinned with %v lacks attribute %d", ci, cols, c)
							v.Release()
							return
						}
					}
					for pass := 0; pass < 2; pass++ {
						for _, row := range []int{0, 5, chunkRows - 1} {
							i := ci*chunkRows + row
							for _, c := range cols {
								got := v.Value(c, row)
								ok := c == 0 && got.Int() == int64(i) ||
									c == 1 && got.Float() == float64(i)/2 ||
									c == 2 && (i%5 == 0 && got.IsNull() || i%5 != 0 && got.Str() == fmt.Sprintf("note-%d", i%7))
								if !ok {
									fail <- fmt.Errorf("cols %v: cell (%d, chunk %d row %d) = %v", cols, c, ci, row, got)
									v.Release()
									return
								}
							}
						}
						// Let the other pinners and the evictor at the chunk,
						// then look again.
						runtime.Gosched()
						for c := range has {
							if v.Block() != blk || blk.Has([]int{c}) != has[c] {
								fail <- fmt.Errorf("chunk %d: pinned block changed underneath its reader", ci)
								v.Release()
								return
							}
						}
					}
					v.Release()
				}
			}
		}(cols)
	}
	// Writer: keep the hot tail moving (appends land in fresh chunks).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.Insert(mkRow(int64(1_000_000+i), 0, "tail")); err != nil {
				fail <- err
				return
			}
			runtime.Gosched()
		}
	}()

	// Drive churn from the main goroutine too — on a single-CPU box the
	// background goroutines may barely run otherwise — and keep going
	// until both an eviction and a reload have been observed.
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; i < 100 || (time.Now().Before(deadline) &&
		(evictions.Load() == 0 || r.ColdStatsSnapshot().Reloads == 0)); i++ {
		if len(fail) > 0 {
			break
		}
		if _, ok := r.Get(tids[(i*101)%len(tids)]); ok {
			reloads.Add(1)
		}
		if i%3 == 0 {
			n, err := r.EvictUnderBudget()
			if err != nil {
				fail <- err
				break
			}
			evictions.Add(int64(n))
		}
		runtime.Gosched()
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if r.LoadError() != nil {
		t.Fatal(r.LoadError())
	}
	if evictions.Load() == 0 || r.ColdStatsSnapshot().Reloads == 0 {
		t.Fatalf("stress produced no churn: %d evictions, %d reloads",
			evictions.Load(), r.ColdStatsSnapshot().Reloads)
	}
}

// BenchmarkEvictReload measures one evict→reload→read cycle of a 16-column
// block — the cold path a larger-than-RAM table pays per miss — at both
// ends of what a reader can ask for: a scan's four columns, and the whole
// row a point read wants. Run in CI with -benchtime=1x to keep the reload
// path exercised.
func BenchmarkEvictReload(b *testing.B) {
	const rows, ncols = 4096, 16
	cols := make([]types.Column, ncols)
	data := make([]core.ColumnData, ncols)
	for c := range cols {
		if c%4 == 3 {
			cols[c] = types.Column{Name: fmt.Sprintf("s%d", c), Kind: types.String}
			data[c] = core.ColumnData{Kind: types.String, Strs: make([]string, rows)}
			for i := range data[c].Strs {
				data[c].Strs[i] = fmt.Sprintf("value-%d-%d", c, i%(50*c))
			}
			continue
		}
		cols[c] = types.Column{Name: fmt.Sprintf("i%d", c), Kind: types.Int64}
		data[c] = core.ColumnData{Kind: types.Int64, Ints: make([]int64, rows)}
		for i := range data[c].Ints {
			data[c].Ints[i] = int64(i * (c + 1) % (100 << c))
		}
	}
	r := NewRelation(types.NewSchema(cols...), rows)
	r.SetBlockStore(openTestStore(b), 0, nil)
	if err := r.BulkAppend(data, rows); err != nil {
		b.Fatal(err)
	}
	if err := r.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		cols []int
	}{{"cols=4", []int{4, 5, 6, 10}}, {"cols=all", nil}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var read int64
			for i := 0; i < b.N; i++ {
				if ok, err := r.EvictChunk(0); err != nil || !ok {
					b.Fatalf("chunk not evicted: %v", err)
				}
				views := r.Snapshot()
				n, err := views[0].AcquireReload(bc.cols)
				if err != nil {
					b.Fatal(err)
				}
				if views[0].Value(4, i%rows).IsNull() {
					b.Fatal("NULL in a column without NULLs")
				}
				views[0].Release()
				read += n
			}
			b.ReportMetric(float64(read)/float64(b.N), "read-B/op")
		})
	}
}

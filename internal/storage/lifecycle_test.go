package storage

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"datablocks/internal/core"
	"datablocks/internal/types"
)

// TestUpdateValidatesBeforeDelete: an update whose row fails validation
// must leave the old tuple untouched instead of deleting it.
func TestUpdateValidatesBeforeDelete(t *testing.T) {
	r := NewRelation(testSchema(), 0)
	tid, err := r.Insert(mkRow(1, 1.5, "keep"))
	if err != nil {
		t.Fatal(err)
	}
	bad := []types.Row{
		{types.StringValue("wrong kind"), types.FloatValue(0), types.StringValue("x")}, // kind mismatch
		{types.NullValue(types.Int64), types.FloatValue(0), types.StringValue("x")},    // NULL in non-nullable
		mkRow(2, 2.0, "short")[:2], // wrong arity
	}
	for i, row := range bad {
		if _, uerr := update(r, tid, row); uerr == nil {
			t.Fatalf("bad row %d: update succeeded", i)
		}
		got, ok := r.Get(tid)
		if !ok {
			t.Fatalf("bad row %d: tuple deleted by failed update", i)
		}
		if got[0].Int() != 1 || got[1].Float() != 1.5 || got[2].Str() != "keep" {
			t.Fatalf("bad row %d: tuple mutated: %v", i, got)
		}
		if r.NumRows() != 1 {
			t.Fatalf("bad row %d: NumRows = %d", i, r.NumRows())
		}
	}
	// A valid update still works and is atomic: the old tid dies, the new
	// one lives.
	newTid, err := update(r, tid, mkRow(1, 9.0, "moved"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get(tid); ok {
		t.Fatal("old tuple visible after update")
	}
	if got, ok := r.Get(newTid); !ok || got[1].Float() != 9.0 {
		t.Fatalf("new tuple wrong: %v", got)
	}
	// Updating a dead tid fails and leaves no new live row.
	if _, err := update(r, tid, mkRow(1, 0, "x")); err == nil {
		t.Fatal("update of deleted tuple succeeded")
	}
	if r.NumRows() != 1 {
		t.Fatalf("NumRows = %d after failed update", r.NumRows())
	}
}

// TestEpochVisibility pins the GetAt contract: a reader at epoch E sees
// exactly the rows born at or before E and not retired at or before E,
// through inserts, deletes and the pending-update protocol.
func TestEpochVisibility(t *testing.T) {
	r := NewRelation(testSchema(), 0)
	tid, err := r.Insert(mkRow(1, 1.0, "v0"))
	if err != nil {
		t.Fatal(err)
	}
	e0 := r.ReadEpoch()

	// A pending version is invisible at every epoch; the old row stays.
	pend, err := r.InsertPendingStripe(0, mkRow(1, 2.0, "v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, vis := r.GetAt(pend, r.ReadEpoch()); vis != NotYetBorn {
		t.Fatalf("pending visibility = %v", vis)
	}
	if r.NumRows() != 1 {
		t.Fatalf("NumRows with pending = %d", r.NumRows())
	}
	if got := r.Chunk(0).LiveRows(); got != 1 {
		t.Fatalf("LiveRows with pending = %d", got)
	}

	// Commit: one epoch flips both versions.
	e, ok := r.CommitUpdate(tid, pend)
	if !ok {
		t.Fatal("commit failed")
	}
	if row, vis := r.GetAt(tid, e0); vis != Visible || row[1].Float() != 1.0 {
		t.Fatalf("old version at old epoch: %v %v", row, vis)
	}
	if _, vis := r.GetAt(pend, e0); vis != NotYetBorn {
		t.Fatalf("new version at old epoch = %v, want not-yet-born", vis)
	}
	if _, vis := r.GetAt(tid, e); vis != Retired {
		t.Fatalf("old version at commit epoch = %v, want retired", vis)
	}
	if row, vis := r.GetAt(pend, e); vis != Visible || row[1].Float() != 2.0 {
		t.Fatalf("new version at commit epoch: %v %v", row, vis)
	}
	if r.NumRows() != 1 {
		t.Fatalf("NumRows after commit = %d", r.NumRows())
	}

	// Deletes stamp their epoch: earlier readers keep the row.
	eBefore := r.ReadEpoch()
	if !r.Delete(pend) {
		t.Fatal("delete failed")
	}
	if _, vis := r.GetAt(pend, eBefore); vis != Visible {
		t.Fatalf("deleted row at pre-delete epoch = %v", vis)
	}
	if _, vis := r.GetAt(pend, r.ReadEpoch()); vis != Retired {
		t.Fatalf("deleted row at current epoch = %v", vis)
	}
	if _, vis := r.GetAt(TupleID{Chunk: 99, Row: 0}, 0); vis != Absent {
		t.Fatalf("bogus tid = %v", vis)
	}

	// update (the same protocol in one call) stamps retire and birth with
	// one epoch: a reader at any epoch sees exactly one of the two versions.
	base, _ := r.Insert(mkRow(2, 5.0, "a"))
	ePre := r.ReadEpoch()
	moved, err := update(r, base, mkRow(2, 6.0, "b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, vis := r.GetAt(base, ePre); vis != Visible {
		t.Fatalf("old version at pre-update epoch = %v", vis)
	}
	if _, vis := r.GetAt(moved, ePre); vis != NotYetBorn {
		t.Fatalf("new version at pre-update epoch = %v, want not-yet-born", vis)
	}
	eNow := r.ReadEpoch()
	if _, vis := r.GetAt(base, eNow); vis != Retired {
		t.Fatalf("old version at post-update epoch = %v", vis)
	}
	if _, vis := r.GetAt(moved, eNow); vis != Visible {
		t.Fatalf("new version at post-update epoch = %v", vis)
	}
}

// TestAbortPendingInvisible: an aborted pending version never becomes
// visible and the old version survives, with counts intact.
func TestAbortPendingInvisible(t *testing.T) {
	r := NewRelation(testSchema(), 0)
	tid, _ := r.Insert(mkRow(1, 1.0, "keep"))
	pend, err := r.InsertPendingStripe(0, mkRow(1, 9.0, "dead"))
	if err != nil {
		t.Fatal(err)
	}
	r.AbortPending(pend)
	if _, vis := r.GetAt(pend, r.ReadEpoch()); vis == Visible {
		t.Fatal("aborted pending row visible")
	}
	if row, ok := r.Get(tid); !ok || row[1].Float() != 1.0 {
		t.Fatalf("old version after abort: %v %v", row, ok)
	}
	if r.NumRows() != 1 {
		t.Fatalf("NumRows after abort = %d", r.NumRows())
	}
	if got := r.Chunk(0).LiveRows(); got != 1 {
		t.Fatalf("LiveRows after abort = %d", got)
	}
	total := 0
	for _, v := range r.Snapshot() {
		for row := 0; row < v.Rows(); row++ {
			if !v.IsDeleted(row) {
				total++
			}
		}
	}
	if total != 1 {
		t.Fatalf("snapshot sees %d rows after abort", total)
	}
}

// TestSnapshotCutoffExcludesLaterCommit: a snapshot taken mid-update (new
// version pending) resolves the old version even when iterated after the
// commit — the zero-copy view filters the shared stamps by its epoch
// cutoff.
func TestSnapshotCutoffExcludesLaterCommit(t *testing.T) {
	r := NewRelation(testSchema(), 0)
	tid, _ := r.Insert(mkRow(1, 1.0, "old"))
	pend, err := r.InsertPendingStripe(0, mkRow(1, 2.0, "new"))
	if err != nil {
		t.Fatal(err)
	}
	views := r.Snapshot() // old visible, new pending
	if _, ok := r.CommitUpdate(tid, pend); !ok {
		t.Fatal("commit failed")
	}
	v := &views[0]
	if v.Rows() != 2 {
		t.Fatalf("snapshot rows = %d", v.Rows())
	}
	if v.IsDeleted(int(tid.Row)) {
		t.Fatal("snapshot lost the pre-commit version")
	}
	if !v.IsDeleted(int(pend.Row)) {
		t.Fatal("snapshot sees the post-commit version")
	}
	if v.LiveRows() != 1 {
		t.Fatalf("snapshot LiveRows = %d", v.LiveRows())
	}
	// A fresh snapshot sees exactly the flipped state.
	fresh := r.Snapshot()
	if !fresh[0].IsDeleted(int(tid.Row)) || fresh[0].IsDeleted(int(pend.Row)) {
		t.Fatal("fresh snapshot did not flip to the new version")
	}
	if fresh[0].LiveRows() != 1 {
		t.Fatalf("fresh LiveRows = %d", fresh[0].LiveRows())
	}
}

// TestSnapshotWatermarkExcludesLaterUpdate: a snapshot taken before an
// update protocol run starts must stay consistent through it. The pending
// insert lands above the captured row-count watermark, so the view never
// looks at it, and the commit retires the old version at an epoch above
// the cutoff, so the view keeps the pre-update version — never zero and
// never two versions of the key. Plain inserts after the snapshot are
// likewise above the watermark.
func TestSnapshotWatermarkExcludesLaterUpdate(t *testing.T) {
	r := NewRelation(testSchema(), 0)
	tid, _ := r.Insert(mkRow(1, 1.0, "old"))
	views := r.Snapshot() // before the chunk has any stamp

	pend, err := r.InsertPendingStripe(0, mkRow(1, 2.0, "new"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.CommitUpdate(tid, pend); !ok {
		t.Fatal("commit failed")
	}
	r.Insert(mkRow(2, 3.0, "later"))

	v := &views[0]
	if v.Rows() != 1 {
		t.Fatalf("snapshot rows = %d, want the watermark 1", v.Rows())
	}
	if v.IsDeleted(int(tid.Row)) {
		t.Fatal("snapshot lost the pre-update version (retired above the cutoff)")
	}
	if v.LiveRows() != 1 {
		t.Fatalf("snapshot LiveRows = %d", v.LiveRows())
	}
	// A fresh snapshot sees the post-update state: new version plus the
	// later insert, old version dead.
	fresh := r.Snapshot()
	if fresh[0].Rows() != 3 {
		t.Fatalf("fresh snapshot rows = %d", fresh[0].Rows())
	}
	if !fresh[0].IsDeleted(int(tid.Row)) || fresh[0].IsDeleted(int(pend.Row)) {
		t.Fatal("fresh snapshot did not flip to the new version")
	}
	if fresh[0].LiveRows() != 2 {
		t.Fatalf("fresh snapshot LiveRows = %d", fresh[0].LiveRows())
	}
}

// TestFreezeRunsOutsideRelationLock proves the freeze claim: while
// core.Freeze is stalled mid-compression, inserts, point reads and
// snapshots on the same relation must complete, and the chunk must report
// the freezing state.
func TestFreezeRunsOutsideRelationLock(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	orig := freezeBlock
	freezeBlock = func(cols []core.ColumnData, n int, opts core.FreezeOptions) (*core.Block, error) {
		close(started)
		<-release
		return orig(cols, n, opts)
	}
	defer func() { freezeBlock = orig }()

	r := NewRelation(testSchema(), 100)
	var tids []TupleID
	for i := 0; i < 100; i++ {
		tid, _ := r.Insert(mkRow(int64(i), float64(i), "x"))
		tids = append(tids, tid)
	}
	done := make(chan error, 1)
	go func() { done <- r.FreezeChunk(0, core.FreezeOptions{SortBy: -1}) }()
	<-started

	// Compression is in flight and the relation lock is free: every OLTP
	// and snapshot operation below would deadlock (and time the test out)
	// if FreezeChunk still held the write lock across core.Freeze.
	if got := r.Chunk(0).State(); got != ChunkFreezing {
		t.Fatalf("state during freeze = %v", got)
	}
	tid, err := r.Insert(mkRow(1000, 0, "during-freeze"))
	if err != nil {
		t.Fatal(err)
	}
	if tid.Chunk != 1 {
		t.Fatalf("insert during freeze landed in chunk %d, want a fresh tail", tid.Chunk)
	}
	if row, ok := r.Get(tids[5]); !ok || row[0].Int() != 5 {
		t.Fatal("hot payload unreadable during freeze")
	}
	if !r.Delete(tids[7]) {
		t.Fatal("delete during freeze failed")
	}
	views := r.Snapshot()
	if views[0].IsFrozen() {
		t.Fatal("snapshot sees a block before install")
	}
	if views[0].Rows() != 100 {
		t.Fatalf("snapshot rows = %d", views[0].Rows())
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := r.Chunk(0).State(); got != ChunkFrozen {
		t.Fatalf("state after freeze = %v", got)
	}
	// The delete that raced the freeze carried over into the frozen chunk.
	if _, ok := r.Get(tids[7]); ok {
		t.Fatal("tuple deleted during freeze visible after install")
	}
	for i, tid := range tids {
		if i == 7 {
			continue
		}
		row, ok := r.Get(tid)
		if !ok || row[0].Int() != int64(i) {
			t.Fatalf("tuple %d wrong after freeze", i)
		}
	}
}

// TestFreezeErrorRevertsClaim: a failing compression returns the chunk to
// the hot state with its data intact.
func TestFreezeErrorRevertsClaim(t *testing.T) {
	orig := freezeBlock
	freezeBlock = func(cols []core.ColumnData, n int, opts core.FreezeOptions) (*core.Block, error) {
		return nil, fmt.Errorf("synthetic freeze failure")
	}
	r := NewRelation(testSchema(), 10)
	tid, _ := r.Insert(mkRow(1, 1, "x"))
	if err := r.FreezeChunk(0, core.FreezeOptions{SortBy: -1}); err == nil {
		t.Fatal("freeze error swallowed")
	}
	freezeBlock = orig
	if got := r.Chunk(0).State(); got != ChunkHot {
		t.Fatalf("state after failed freeze = %v", got)
	}
	if row, ok := r.Get(tid); !ok || row[0].Int() != 1 {
		t.Fatal("tuple lost by failed freeze")
	}
	// The chunk can be frozen for real afterwards.
	if err := r.FreezeChunk(0, core.FreezeOptions{SortBy: -1}); err != nil {
		t.Fatal(err)
	}
	if !r.Chunk(0).IsFrozen() {
		t.Fatal("chunk not frozen on retry")
	}
}

// TestSnapshotStableDuringWrites: a ChunkView must not observe rows
// appended or tuples deleted after the snapshot was taken.
func TestSnapshotStableDuringWrites(t *testing.T) {
	r := NewRelation(testSchema(), 1000)
	var tids []TupleID
	for i := 0; i < 10; i++ {
		tid, _ := r.Insert(mkRow(int64(i), float64(i), "x"))
		tids = append(tids, tid)
	}
	views := r.Snapshot()
	for i := 10; i < 20; i++ {
		r.Insert(mkRow(int64(i), float64(i), "x"))
	}
	r.Delete(tids[3])
	if got := views[0].Rows(); got != 10 {
		t.Fatalf("snapshot rows = %d after appends, want 10", got)
	}
	if views[0].IsDeleted(3) {
		t.Fatal("snapshot observed a later delete")
	}
	h := views[0].Hot()
	if got := h.Columns(h.Rows())[0].Ints; len(got) != 10 {
		t.Fatalf("snapshot column length = %d", len(got))
	}
	fresh := r.Snapshot()
	if fresh[0].Rows() != 20 || !fresh[0].IsDeleted(3) {
		t.Fatal("fresh snapshot missed the writes")
	}
}

// TestFreezeAllSnapshotsTail: FreezeAll decides the tail once; concurrent
// appends cannot make it freeze the chunk receiving inserts.
func TestFreezeAllConcurrentInserts(t *testing.T) {
	r := NewRelation(testSchema(), 64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var inserted atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := r.Insert(mkRow(int64(i), float64(i), "x")); err != nil {
				t.Error(err)
				return
			}
			inserted.Add(1)
		}
	}()
	// Interleave freeze passes with the insert stream until the writer has
	// rolled over several chunks.
	for i := 0; i < 50 || inserted.Load() < 1000; i++ {
		if err := r.FreezeAll(core.FreezeOptions{SortBy: -1}, true); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	// The tail that received the final insert must still be hot, every
	// frozen chunk complete, and all tuples accounted for.
	n := r.NumChunks()
	if r.Chunk(n - 1).IsFrozen() {
		t.Fatal("live tail was frozen")
	}
	if r.NumRows() != int(inserted.Load()) {
		t.Fatalf("rows = %d, inserted %d", r.NumRows(), inserted.Load())
	}
	total := 0
	for _, v := range r.Snapshot() {
		total += v.LiveRows()
	}
	if total != int(inserted.Load()) {
		t.Fatalf("snapshot rows = %d, inserted %d", total, inserted.Load())
	}
}

// TestStorageStress races writers, readers, snapshots and background
// freezes on one relation; run with -race it is the storage-layer
// concurrency proof.
func TestStorageStress(t *testing.T) {
	r := NewRelation(testSchema(), 128)
	const (
		writers    = 4
		perWriter  = 3000
		keySpacing = 1 << 20
	)
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Background freezer: continuously freeze everything behind the tail.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := r.FreezeAll(core.FreezeOptions{SortBy: -1}, true); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	// Lock-free chunk accessors: the package doc promises Rows/LiveRows
	// and the deleted count are safe without the relation lock (the
	// counters are atomic). Run with -race this is the proof.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i := 0; i < r.NumChunks(); i++ {
				c := r.Chunk(i)
				if live, rows := c.LiveRows(), c.Rows(); live > rows {
					t.Errorf("chunk %d: LiveRows %d > Rows %d", i, live, rows)
					return
				}
				if c.NumDeleted() < 0 {
					t.Errorf("chunk %d: negative delete count", i)
					return
				}
			}
		}
	}()

	// Scanners: sweep snapshots and read every visible value.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, v := range r.Snapshot() {
					n := v.Rows()
					live := 0
					for row := 0; row < n; row++ {
						if v.IsDeleted(row) {
							continue
						}
						live++
						if v.Value(0, row).IsNull() {
							t.Error("NULL id in scan")
							return
						}
					}
					if live != v.LiveRows() {
						t.Errorf("view LiveRows=%d, scan saw %d", v.LiveRows(), live)
						return
					}
				}
			}
		}()
	}

	// Writers: insert / update / delete / read disjoint key stripes.
	var deleted atomic.Int64
	var writersWg sync.WaitGroup
	for g := 0; g < writers; g++ {
		writersWg.Add(1)
		go func(g int) {
			defer writersWg.Done()
			base := int64(g * keySpacing)
			tids := make([]TupleID, 0, perWriter)
			for i := 0; i < perWriter; i++ {
				tid, err := r.Insert(mkRow(base+int64(i), float64(i), "s"))
				if err != nil {
					t.Error(err)
					return
				}
				tids = append(tids, tid)
				switch i % 7 {
				case 3:
					nt, err := update(r, tids[i/2], mkRow(base+int64(perWriter+i), 1, "u"))
					if err == nil {
						tids[i/2] = nt
					}
				case 4:
					// Three-step epoch-versioned update of an own key.
					victim := tids[i/4]
					pend, err := r.InsertPendingStripe(0, mkRow(base+int64(2*perWriter+i), 2, "p"))
					if err != nil {
						t.Error(err)
						return
					}
					if _, ok := r.CommitUpdate(victim, pend); ok {
						tids[i/4] = pend
					} else {
						r.AbortPending(pend)
					}
				case 5:
					if r.Delete(tids[i/3]) {
						deleted.Add(1)
					}
				case 6:
					if _, ok := r.Get(tids[i]); !ok {
						t.Errorf("fresh tuple %v unreadable", tids[i])
						return
					}
				}
			}
		}(g)
	}

	// Writers finish on their own; then stop the freezer and scanners.
	writersWg.Wait()
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := r.NumRows(); got != writers*perWriter-int(deleted.Load()) {
		t.Fatalf("NumRows = %d, want %d", got, writers*perWriter-int(deleted.Load()))
	}
	// Final integrity: freeze everything and re-verify counts.
	if err := r.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range r.Snapshot() {
		if !v.IsFrozen() {
			t.Fatal("unfrozen chunk after final FreezeAll")
		}
		total += v.LiveRows()
	}
	if total != r.NumRows() {
		t.Fatalf("frozen live rows %d != NumRows %d", total, r.NumRows())
	}
}

// TestSnapshotOneVersionPerKey is the snapshot-isolation property the
// chunk's visibility stamps exist for. 64 logical rows (column 0 is the
// logical id and never changes) are rewritten continuously through the
// pending/commit protocol, half on write stripe 1 and half on stripe 0 —
// while chunks behind the tails are frozen and evicted
// under a budget that holds about one block, and every Snapshot must hold
// each id exactly once. The point-read half of the contract rides along:
// the latest committed identifier of an id resolves at a freshly captured
// epoch, or has been retired by a newer version about to be published.
//
// A snapshot is likeliest to catch an append mid-flight while the relation
// is small and snapshots are cheap, so the work is cut into many short
// rounds on fresh relations rather than one long one.
func TestSnapshotOneVersionPerKey(t *testing.T) {
	for round := 0; round < 250 && !t.Failed(); round++ {
		oneVersionPerKeyRound(t, 120)
	}
}

func oneVersionPerKeyRound(t *testing.T, updates int) {
	const keys = 64
	r := NewRelation(testSchema(), 64)
	r.SetWriteStripes(2)
	r.SetBlockStore(openTestStore(t), 1<<10, nil)
	// latest[id] is the identifier of id's newest committed version,
	// published by its updater after the commit.
	var latest [keys]atomic.Uint64
	publish := func(id int, tid TupleID) { latest[id].Store(uint64(tid.Chunk)<<32 | uint64(tid.Row)) }
	resolve := func(id int) TupleID {
		p := latest[id].Load()
		return TupleID{Chunk: uint32(p >> 32), Row: uint32(p)}
	}
	for id := 0; id < keys; id++ {
		tid, err := r.Insert(mkRow(int64(id), 0, "v"))
		if err != nil {
			t.Fatal(err)
		}
		publish(id, tid)
	}

	// The protocol updater paces everyone else, so the background work
	// scales with the writes instead of starving them of the two cores:
	// one stripe-0 update per token, one freeze + evict pass per tick.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	token := make(chan struct{}, 1)
	tick := make(chan struct{}, 1)
	offer := func(ch chan struct{}) {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	wg.Add(1)
	go func() { // ids [0, keys/2): InsertPending → CommitUpdate on stripe 1
		defer wg.Done()
		defer close(stop)
		defer close(token)
		defer close(tick)
		for i := 0; i < updates; i++ {
			id := i % (keys / 2)
			pend, err := r.InsertPendingStripe(1, mkRow(int64(id), float64(i), "p"))
			if err != nil {
				t.Error(err)
				return
			}
			if _, ok := r.CommitUpdate(resolve(id), pend); !ok {
				t.Errorf("commit of id %d refused", id)
				return
			}
			publish(id, pend)
			offer(token)
			if i%16 == 0 {
				offer(tick)
			}
		}
	}()
	wg.Add(1)
	go func() { // ids [keys/2, keys): update on stripe 0
		defer wg.Done()
		i := 0
		for range token {
			id := keys/2 + i%(keys/2)
			i++
			tid, err := update(r, resolve(id), mkRow(int64(id), float64(i), "u"))
			if err != nil {
				t.Error(err)
				return
			}
			publish(id, tid)
		}
	}()
	wg.Add(1)
	go func() { // compactor and evictor
		defer wg.Done()
		for range tick {
			if err := r.FreezeAll(core.FreezeOptions{SortBy: -1}, true); err != nil {
				t.Error(err)
				return
			}
			if _, err := r.EvictUnderBudget(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() { // scanner
			defer wg.Done()
			idCol := []int{0}
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				var seen [keys]int
				views := r.Snapshot()
				for ci := range views {
					v := &views[ci]
					if err := v.Acquire(idCol); err != nil {
						t.Error(err)
						return
					}
					for row := 0; row < v.Rows(); row++ {
						if !v.IsDeleted(row) {
							seen[v.Value(0, row).Int()]++
						}
					}
					v.Release()
				}
				for id, versions := range seen {
					if versions != 1 {
						t.Errorf("snapshot holds %d versions of id %d", versions, id)
						return
					}
				}
				id := n % keys
				for attempt := 0; ; attempt++ {
					tid := resolve(id)
					row, vis := r.GetAt(tid, r.ReadEpoch())
					if vis == Visible {
						if got := row[0].Int(); got != int64(id) {
							t.Errorf("id %d resolved to a row of id %d", id, got)
							return
						}
						break
					}
					// The identifier was committed before it was published,
					// so a fresh epoch can only find it superseded.
					if vis != Retired || attempt == 1<<20 {
						t.Errorf("id %d: latest %v is %v", id, tid, vis)
						return
					}
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	if err := r.LoadError(); err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != keys {
		t.Fatalf("NumRows = %d, want %d", r.NumRows(), keys)
	}
}

// TestSortedFreezeRejectsConcurrentClaim: a sorted freeze must not tear a
// chunk already claimed by the background path.
func TestSortedFreezeRejectsConcurrentClaim(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	orig := freezeBlock
	freezeBlock = func(cols []core.ColumnData, n int, opts core.FreezeOptions) (*core.Block, error) {
		select {
		case <-started:
		default:
			close(started)
		}
		<-release
		return orig(cols, n, opts)
	}
	defer func() { freezeBlock = orig }()
	r := NewRelation(testSchema(), 10)
	for i := 0; i < 10; i++ {
		r.Insert(mkRow(int64(i), 0, "x"))
	}
	done := make(chan error, 1)
	go func() { done <- r.FreezeChunk(0, core.FreezeOptions{SortBy: -1}) }()
	<-started
	if err := r.FreezeChunk(0, core.FreezeOptions{SortBy: 0}); err == nil {
		t.Fatal("sorted freeze of a freezing chunk succeeded")
	}
	// The unsorted path treats a busy chunk as someone else's work: nil.
	if err := r.FreezeChunk(0, core.FreezeOptions{SortBy: -1}); err != nil {
		t.Fatalf("second unsorted freeze: %v", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

package datablocks

import (
	"fmt"
	"sync"
	"sync/atomic"

	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/index"
	"datablocks/internal/obs"
	"datablocks/internal/simd"
	"datablocks/internal/storage"
	"datablocks/internal/types"
	"datablocks/internal/wal"
)

// Table is a chunked hybrid relation: hot uncompressed chunks plus frozen
// Data Blocks. All methods are safe for concurrent use; write operations
// (Insert, Delete, Update) serialize per write stripe — rows hash to
// stripes by primary key (WithWriteStripes; one stripe by default), each
// with its own write lock, hot-chunk appender and optional write-ahead
// log, so writers on different stripes commit in parallel while the
// primary-key index and the relation stay consistent. Whole-table
// operations (BulkLoad, sorted freezes) take every stripe lock. Reads and
// scans run against epoch-pinned chunk snapshots: point lookups are
// anomaly-free under concurrent updates (they resolve the pre- or
// post-update version, never neither), and scans never observe row
// versions committed after their snapshot epoch.
type Table struct {
	name      string
	schema    *types.Schema
	rel       *storage.Relation
	pkName    string
	pkCol     int
	pk        *index.Hash
	chunkRows int

	// Default morsel parallelism for queries that leave
	// QueryOptions.Parallelism at zero (WithParallelism).
	defaultPar    int
	hasDefaultPar bool

	// Cold block store state (WithBlockStore / WithMemoryBudget).
	storeDir  string
	memBudget int64
	bs        *blockstore.Store

	// Durability state. persist marks a table of a durable database
	// (OpenPath): CreateTable rebuilds it from the newest valid manifest,
	// and freezes, flushes and Close write a manifest generation. sortBy
	// records the column of the last sorted freeze (-1 unsorted) for the
	// manifest.
	persist bool
	manMu   sync.Mutex
	manGen  uint64
	sortBy  int

	// reorg is the reorganization generation: odd while reorganize moves
	// tuple identifiers or rebuilds the index (see Lookup).
	reorg atomic.Uint64

	// Striped write path (WithWriteStripes) and write-ahead logging
	// (WithWAL). writeStripes is the normalized stripe count (power of
	// two, >= 1); stripes[i] carries stripe i's write lock, WAL and
	// LSN bookkeeping. walSeq is the table-global LSN counter shared by
	// every stripe's log (the v1 format's one sequence; replay needs only
	// each file's own order). rr distributes inserts of primary-key-less
	// tables.
	writeStripes int
	walEnabled   bool
	stripes      []tableStripe
	walSeq       atomic.Uint64
	walStats     wal.Stats
	rr           atomic.Uint64
	// walApplied stashes the recovered manifest's per-stripe truncation
	// points between recoverFromManifest and replayWAL.
	walApplied []uint64

	// Background work (WithAutoFreeze, WithMemoryBudget). wake is the
	// database worker's wake channel, nil for a table without background
	// work. bgErr is the first error the worker hit on the table: only
	// the worker writes it, and close reads it after the worker stopped.
	autoFreeze int
	wake       chan struct{}
	bgErr      error

	// ops counts the table's API traffic (see TableOps). These sit on
	// the per-call paths, not inside scan kernels, so the shared atomic
	// instruments are appropriate.
	ops tableOps
}

// tableStripe is one lane of the sharded write path: rows whose primary
// key hashes to this stripe serialize on its write lock, append to its
// relation stripe and log to its write-ahead log, independently of every
// other stripe.
type tableStripe struct {
	// wmu serializes the stripe's two-step write operations (relation +
	// primary-key index) and guards lastLSN/chunkLSN. Lock order: wmu
	// before the relation locks; two stripes (key-changing updates,
	// whole-table operations) are locked in ascending index order.
	wmu sync.Mutex
	// w is the stripe's write-ahead log; nil without WithWAL.
	w *wal.Log
	// lastLSN is the highest LSN this stripe has assigned (drawn from the
	// table-global sequence under wmu, after the effect is applied — so a
	// checkpoint that reads lastLSN under wmu knows every effect at or
	// below it is visible in the relation).
	lastLSN uint64
	// chunkLSN maps a chunk ordinal to the first (lowest) LSN of a record
	// whose effect lives in that chunk, for chunks not yet durably frozen.
	// The stripe's WAL truncation point is min(chunkLSN)-1 capped at
	// lastLSN: everything below it is fully covered by flushed chunks.
	// Entries are dropped once their chunk is durable.
	chunkLSN map[uint32]uint64
}

// noteChunk records that a WAL record at lsn touched chunk ord. The first
// LSN wins: replay must start at or before the oldest record whose effect
// the chunk holds. Caller holds wmu (or is single-threaded recovery).
func (st *tableStripe) noteChunk(ord uint32, lsn uint64) {
	if st.chunkLSN == nil {
		st.chunkLSN = make(map[uint32]uint64)
	}
	if _, ok := st.chunkLSN[ord]; !ok {
		st.chunkLSN[ord] = lsn
	}
}

// tableOps is the obs-instrument backing of TableOps. Lookup hits and
// misses are striped by key, so concurrent lookups write different lines;
// rowsRead counts scan and query rows, and Metrics adds the hits.
type tableOps struct {
	inserts, updates, deletes obs.Counter
	hits, misses              obs.StripedCounter
	scans, queries            obs.Counter
	rowsWritten, rowsRead     obs.Counter
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *types.Schema { return t.schema }

// Relation exposes the underlying storage for plan construction.
func (t *Table) Relation() *storage.Relation { return t.rel }

// NumRows returns the live row count.
func (t *Table) NumRows() int { return t.rel.NumRows() }

// normalizeStripes clamps a WithWriteStripes argument to [1, 256] and
// rounds it up to a power of two, so stripe routing is a mask.
func normalizeStripes(n int) int {
	if n < 1 {
		return 1
	}
	if n > 256 {
		n = 256
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// stripeOf routes a primary key to its write stripe. The splitmix
// finalizer decorrelates sequential keys from stripe assignment.
func (t *Table) stripeOf(key int64) int {
	return int(simd.Mix64(uint64(key)) & uint64(t.writeStripes-1))
}

// insertStripe picks the write stripe for a fresh row: by primary key
// when the table has one, round-robin otherwise.
func (t *Table) insertStripe(key int64) int {
	if t.writeStripes == 1 {
		return 0
	}
	if t.pk != nil {
		return t.stripeOf(key)
	}
	return int(t.rr.Add(1) & uint64(t.writeStripes-1))
}

// lockAllStripes takes every stripe's write lock in ascending index order
// (the only order any path uses, so whole-table operations and
// cross-stripe updates cannot deadlock). Release with unlockAllStripes.
func (t *Table) lockAllStripes() {
	for i := range t.stripes {
		t.stripes[i].wmu.Lock()
	}
}

func (t *Table) unlockAllStripes() {
	for i := len(t.stripes) - 1; i >= 0; i-- {
		t.stripes[i].wmu.Unlock()
	}
}

// reorganize runs f, which may move tuple identifiers or rebuild the
// primary-key index, with the reorganization generation odd. Caller holds
// every stripe write lock.
func (t *Table) reorganize(f func() error) error {
	t.reorg.Add(1)
	defer t.reorg.Add(1)
	return f()
}

// Insert appends a row, maintaining the primary-key index if present.
// With WithWAL, a nil return means the row has been fsynced and survives
// any later crash; a non-nil return means it must be treated as failed.
func (t *Table) Insert(row Row) (TupleID, error) {
	var key int64
	if t.pk != nil {
		if len(row) != t.schema.NumColumns() {
			return TupleID{}, fmt.Errorf("datablocks: row has %d values, schema has %d", len(row), t.schema.NumColumns())
		}
		if row[t.pkCol].IsNull() {
			return TupleID{}, fmt.Errorf("datablocks: primary key %q cannot be NULL", t.pkName)
		}
		key = row[t.pkCol].Int()
	}
	si := t.insertStripe(key)
	st := &t.stripes[si]
	st.wmu.Lock()
	tid, err := t.rel.InsertStripe(si, row)
	if err != nil {
		st.wmu.Unlock()
		return tid, err
	}
	if t.pk != nil {
		if err := t.pk.Insert(key, tid); err != nil {
			t.rel.Delete(tid)
			st.wmu.Unlock()
			return TupleID{}, err
		}
	}
	var b *wal.Batch
	if st.w != nil {
		// Apply-then-log, both under wmu: a checkpoint reading lastLSN
		// knows every effect at or below it is visible in the relation.
		lsn, batch, err := st.w.Append(wal.OpInsert, key, row)
		if err != nil {
			// Poisoned log: undo the in-memory effect so memory and disk
			// do not diverge on a write we are about to fail.
			t.rel.Delete(tid)
			t.pk.Delete(key)
			st.wmu.Unlock()
			return TupleID{}, err
		}
		st.noteChunk(tid.Chunk, lsn)
		st.lastLSN = lsn
		b = batch
	}
	st.wmu.Unlock()
	if st.w != nil {
		if err := st.w.Wait(b); err != nil {
			// The row is applied in memory but its durability failed; the
			// log is poisoned and in-memory state now runs ahead of disk.
			return TupleID{}, err
		}
	}
	t.ops.inserts.Inc()
	t.ops.rowsWritten.Inc()
	if tid.Chunk > 0 && tid.Row == 0 {
		// First row of a fresh chunk: the previous tail just sealed.
		t.wakeWorker()
	}
	return tid, nil
}

// BulkLoad appends pre-columnarized data (fast path for loaders) and
// rebuilds the primary-key index if present. With WithWAL each row is
// logged to its own key's stripe log — the same file every later update
// or delete of that key logs to, so per-stripe replay thresholds can
// never cover a key's delete while missing its insert — batched as one
// group commit (one append, one fsync) per participating stripe.
func (t *Table) BulkLoad(cols []core.ColumnData, n int) error {
	t.lockAllStripes()
	ords, err := t.rel.BulkAppendTracked(cols, n)
	if err != nil {
		t.unlockAllStripes()
		return err
	}
	t.ops.rowsWritten.Add(uint64(n))
	if t.pk != nil {
		if err := t.reorganize(func() error { return t.pk.Rebuild(t.rel, t.pkCol) }); err != nil {
			t.unlockAllStripes()
			return err
		}
	}
	var batches []*wal.Batch
	if t.walEnabled && n > 0 {
		// Group rows by the stripe their primary key hashes to (WithWAL
		// implies a primary key). Bulk-loaded chunks interleave keys from
		// every stripe, so each participating stripe pins all of them: its
		// log cannot truncate before the chunks its records landed in are
		// durably frozen.
		perStripe := make([][]types.Row, len(t.stripes))
		for i := 0; i < n; i++ {
			row := rowAt(cols, i)
			si := 0
			if t.writeStripes > 1 && !row[t.pkCol].IsNull() {
				si = t.stripeOf(row[t.pkCol].Int())
			}
			perStripe[si] = append(perStripe[si], row)
		}
		batches = make([]*wal.Batch, len(t.stripes))
		for si, rows := range perStripe {
			if len(rows) == 0 {
				continue
			}
			st := &t.stripes[si]
			first, last, batch, err := st.w.AppendRows(rows, t.pkCol)
			if err != nil {
				t.unlockAllStripes()
				return err
			}
			for _, ord := range ords {
				st.noteChunk(ord, first)
			}
			st.lastLSN = last
			batches[si] = batch
		}
	}
	t.unlockAllStripes()
	t.wakeWorker()
	var first error
	for si, b := range batches {
		if b == nil {
			continue
		}
		if err := t.stripes[si].w.Wait(b); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// rowAt materializes row i of a columnar batch as a tuple (the WAL's
// record unit).
func rowAt(cols []core.ColumnData, i int) types.Row {
	row := make(types.Row, len(cols))
	for c := range cols {
		row[c] = core.Cell(&cols[c], i)
	}
	return row
}

// Delete removes a row by primary key (delete flag; frozen tuples keep
// their slot). The tuple is retired with a fresh write epoch before the
// index entry goes away, so a concurrent reader either still sees the row
// (its epoch predates the delete) or takes a legitimate miss.
//
// The boolean reports whether the key existed (and the delete was applied
// in memory); the error reports durability. On a WAL table a non-nil
// error with existed=true means the row is gone from the table but the
// delete's group commit failed: the log is poisoned, the record may or
// may not have reached disk, and the caller must treat the delete as not
// durable.
func (t *Table) Delete(key int64) (bool, error) {
	if t.pk == nil {
		return false, nil
	}
	st := &t.stripes[t.stripeOf(key)]
	st.wmu.Lock()
	if st.w != nil {
		if err := st.w.Err(); err != nil {
			// Poisoned log: refuse before applying, so memory does not
			// drift further ahead of disk. (A concurrent poisoning between
			// this check and the append below is caught by Wait.)
			st.wmu.Unlock()
			return false, err
		}
	}
	tid, ok := t.pk.Lookup(key)
	if !ok {
		st.wmu.Unlock()
		return false, nil
	}
	if !t.rel.Delete(tid) {
		st.wmu.Unlock()
		return false, nil
	}
	t.pk.Delete(key)
	var b *wal.Batch
	if st.w != nil {
		lsn, batch, err := st.w.Append(wal.OpDelete, key, nil)
		if err != nil {
			st.wmu.Unlock()
			return true, err
		}
		st.noteChunk(tid.Chunk, lsn)
		st.lastLSN = lsn
		b = batch
	}
	st.wmu.Unlock()
	if st.w != nil {
		if err := st.w.Wait(b); err != nil {
			return true, err
		}
	}
	t.ops.deletes.Inc()
	return true, nil
}

// Update rewrites a row by primary key with the anomaly-free three-step
// protocol: the new version is appended as a pending (invisible) row, the
// index record is repointed at it while retaining the previous version,
// and the commit atomically — under one write epoch — makes the new
// version visible and retires the old one. A concurrent Lookup resolves
// the pre-update version up to the commit epoch and the post-update
// version from it, never neither. A failed update — unknown key, an
// invalid row, or a new primary key that would collide with an existing
// row — leaves both the tuple and the index unchanged.
func (t *Table) Update(key int64, row Row) error {
	if t.pk == nil {
		return fmt.Errorf("datablocks: table %q has no primary key", t.name)
	}
	if len(row) != t.schema.NumColumns() {
		return fmt.Errorf("datablocks: row has %d values, schema has %d", len(row), t.schema.NumColumns())
	}
	if row[t.pkCol].IsNull() {
		return fmt.Errorf("datablocks: primary key %q cannot be NULL", t.pkName)
	}
	newKey := row[t.pkCol].Int()
	// Lock the old and new key's stripes in ascending index order (one
	// lock when they coincide): the new version appends to the new key's
	// stripe, the retirement touches the old key's row.
	si, sj := t.stripeOf(key), t.stripeOf(newKey)
	lo, hi := si, sj
	if lo > hi {
		lo, hi = hi, lo
	}
	t.stripes[lo].wmu.Lock()
	if hi != lo {
		t.stripes[hi].wmu.Lock()
	}
	unlock := func() {
		if hi != lo {
			t.stripes[hi].wmu.Unlock()
		}
		t.stripes[lo].wmu.Unlock()
	}
	oldTid, ok := t.pk.Lookup(key)
	if !ok {
		unlock()
		return fmt.Errorf("datablocks: key %d not found", key)
	}
	if newKey != key {
		if _, taken := t.pk.Lookup(newKey); taken {
			unlock()
			return fmt.Errorf("datablocks: update of key %d to %d collides with an existing row", key, newKey)
		}
	}
	// Step 1: insert the new version, invisible to every reader.
	newTid, err := t.rel.InsertPendingStripe(sj, row)
	if err != nil {
		unlock()
		return err
	}
	// Step 2: publish the new tuple identifier in the index. For an
	// in-place update the record keeps the old version for readers whose
	// epoch will predate the commit; for a key change the new key gets a
	// fresh record (the old row never answered to it) and the old key
	// keeps resolving the old version until the commit retires it.
	if newKey == key {
		t.pk.Publish(key, newTid)
	} else if err := t.pk.Insert(newKey, newTid); err != nil {
		t.rel.AbortPending(newTid)
		unlock()
		return err
	}
	// Step 3: commit — one epoch births the new version and retires the
	// old one.
	epoch, ok := t.rel.CommitUpdate(oldTid, newTid)
	if !ok {
		// The old version vanished between lookup and commit; impossible
		// while writes serialize on wmu, but keep the index consistent.
		t.rel.AbortPending(newTid)
		if newKey == key {
			t.pk.Unpublish(key)
		} else {
			t.pk.Delete(newKey)
		}
		unlock()
		return fmt.Errorf("datablocks: key %d vanished during update", key)
	}
	t.pk.Seal(newKey, epoch)
	if newKey != key {
		t.pk.Delete(key)
	}
	// Log the committed update. An in-place update is one record in its
	// key's stripe log. A key-changing update decomposes into an insert
	// record in the new key's stripe log and a delete record in the old
	// key's — each key's full history then lives in one log file, so
	// replay's per-file skip threshold can never reorder one key's
	// effects. Insert strictly before delete: within one log the insert
	// record precedes the delete (a torn tail cuts the delete first), and
	// across stripes the insert's fsync is awaited — under both stripe
	// locks, so no conflicting write can slip an LSN between the applied
	// effects and the delete record — before the delete is even staged.
	// Either way, no crash point can make the delete durable without the
	// insert: a half-applied (always unacknowledged) update leaves both
	// versions alive, never neither, so the pre-update row's acknowledged
	// insert is never destroyed.
	var bi, bj *wal.Batch
	sti, stj := &t.stripes[si], &t.stripes[sj]
	if sti.w != nil {
		var err error
		if newKey == key {
			var lsn uint64
			lsn, bi, err = sti.w.Append(wal.OpUpdate, key, row)
			if err == nil {
				sti.noteChunk(oldTid.Chunk, lsn)
				sti.noteChunk(newTid.Chunk, lsn)
				sti.lastLSN = lsn
			}
		} else {
			var dlsn, ilsn uint64
			ilsn, bj, err = stj.w.Append(wal.OpInsert, newKey, row)
			if err == nil {
				stj.noteChunk(newTid.Chunk, ilsn)
				stj.lastLSN = ilsn
				if sj != si {
					// Separate logs flush independently; only a durable
					// insert half may unblock logging the delete half.
					err = stj.w.Wait(bj)
					bj = nil
				}
			}
			if err == nil {
				dlsn, bi, err = sti.w.Append(wal.OpDelete, key, nil)
				if err == nil {
					sti.noteChunk(oldTid.Chunk, dlsn)
					sti.lastLSN = dlsn
				}
			}
		}
		if err != nil {
			// Poisoned log (or a failed insert-half fsync): the update is
			// applied in memory but will not fully reach disk; report it so
			// the caller treats the write as failed.
			unlock()
			return err
		}
	}
	unlock()
	if sti.w != nil {
		if bj != nil {
			// Same-stripe key change: one log, insert staged before delete,
			// batches flush in order — waiting both here cannot reorder the
			// records' durability.
			if err := stj.w.Wait(bj); err != nil {
				return err
			}
		}
		if err := sti.w.Wait(bi); err != nil {
			return err
		}
	}
	t.ops.updates.Inc()
	t.ops.rowsWritten.Inc()
	if newTid.Chunk > 0 && newTid.Row == 0 {
		// The rewritten version opened a fresh chunk: the previous tail
		// just sealed (updates append row versions like inserts do).
		t.wakeWorker()
	}
	return nil
}

// Stats reports the table's memory footprint, split hot vs frozen vs
// evicted.
func (t *Table) Stats() MemStats { return t.rel.MemoryStats() }

// ColdStats reports the table's cold-store traffic: eviction and reload
// counts, RAM residency against the budget, and the on-disk footprint.
// All zero when the table has no block store.
func (t *Table) ColdStats() ColdStats { return t.rel.ColdStatsSnapshot() }

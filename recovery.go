package datablocks

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"

	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/wal"
	"datablocks/internal/walfs"
)

// openStore attaches the table's block store on fs and recovers a durable
// table: the stripe logs' framing pass first (it counts the inserts the
// index must make room for), then the manifest, then the WAL replay past
// the manifest's truncation points — run on the first open ever too (a
// crash can predate the first manifest generation). On error the caller
// releases whatever it opened.
func (t *Table) openStore(fs walfs.FS) error {
	bs, err := blockstore.OpenFS(fs, filepath.Join(t.storeDir, t.name))
	if err != nil {
		return err
	}
	t.bs = bs
	t.rel.SetBlockStore(bs, t.memBudget, t.wakeWorker)
	if !t.persist {
		return nil
	}
	var logs []*wal.Records
	reserve := 0
	if t.walEnabled {
		if logs, err = t.openWAL(); err != nil {
			return err
		}
		for _, l := range logs {
			reserve += l.Inserts()
		}
	}
	if err = t.recoverFromManifest(reserve); err != nil || !t.walEnabled {
		return err
	}
	return t.replayWAL(logs)
}

// recoverFromManifest rebuilds the table from its block directory's newest
// valid manifest generation: every frozen chunk is restored evicted
// (directory and attributes read lazily, by what touches them), the
// primary-key index is rebuilt by streaming the key attribute — and only
// it — out of the stored blocks one at a time, sized once for the
// restored rows plus reserve keys still to come (the WAL's inserts), and
// block files left unreferenced — superseded generations, writes a crash
// orphaned — are garbage-collected along with stale manifest records.
// When no manifest exists the table starts empty and any stray block
// files are cleared: nothing referenced them.
func (t *Table) recoverFromManifest(reserve int) error {
	fs, dir := t.bs.FS(), t.bs.Dir()
	man, err := blockstore.LoadManifest(fs, dir)
	if err != nil {
		return err
	}
	keep := make(map[blockstore.Handle]bool)
	if man != nil {
		t.manGen = man.Generation
		t.sortBy = man.SortBy
		// Cross-restart epoch continuity: restore the write-epoch
		// high-water mark before WAL replay mints fresh epochs, and stash
		// the per-stripe truncation points for replayWAL.
		t.rel.AdvanceEpoch(man.Epoch)
		t.walApplied = man.WalApplied
		for _, mc := range man.Chunks {
			keep[mc.Handle] = true
		}
		blockstore.PruneManifests(fs, dir, man.Generation)
	} else {
		blockstore.PruneManifests(fs, dir, 0)
	}
	if _, err := t.bs.Retain(keep); err != nil {
		return err
	}
	if man != nil {
		for i, mc := range man.Chunks {
			if err := t.rel.RestoreEvicted(mc.Handle, mc.Rows, mc.Bytes, mc.Deleted, mc.NumDeleted); err != nil {
				return fmt.Errorf("manifest chunk %d: %w", i, err)
			}
		}
	}
	if t.pk != nil {
		if err := t.pk.RebuildReserve(t.rel, t.pkCol, reserve); err != nil {
			return err
		}
	}
	if t.memBudget > 0 {
		// The index rebuild left every block's key attribute resident; on
		// a table whose keys alone outweigh the budget, trim back under it
		// before the table goes live, so reopening never starts over
		// budget.
		if _, err := t.rel.EvictUnderBudget(); err != nil {
			return err
		}
	}
	return nil
}

// dropStoreFiles clears a spill-cache block store at DB.Close: evicted
// blocks are reloaded into RAM first (the table stays fully readable),
// then every block file is removed and the directory is deleted if
// nothing else lives in it. Never called for durable tables.
func (t *Table) dropStoreFiles() error {
	if err := t.rel.UnevictAll(); err != nil {
		return err
	}
	if _, err := t.bs.Retain(nil); err != nil {
		return err
	}
	t.bs.FS().Remove(t.bs.Dir()) // best effort: fails when non-store files remain
	return nil
}

// Freeze compresses all full chunks into Data Blocks, keeping the hot tail
// writable. Tuple identifiers (and the PK index) remain valid. On a
// durable table the newly frozen blocks are flushed to the store and a
// fresh manifest generation is written before Freeze returns.
func (t *Table) Freeze() error { return t.freeze(true) }

// FreezeAll compresses every chunk, including the tail, and persists the
// manifest on durable tables like Freeze.
func (t *Table) FreezeAll() error { return t.freeze(false) }

// freeze is the body of Freeze (keepTail), FreezeAll and the database
// worker's freeze of a sealed backlog: an unsorted freeze, then a
// checkpoint.
func (t *Table) freeze(keepTail bool) error {
	if err := t.rel.FreezeAll(core.FreezeOptions{SortBy: -1}, keepTail); err != nil {
		return err
	}
	return t.checkpoint(false)
}

// FreezeSorted compresses every chunk, sorting each block by the named
// column to sharpen PSMA pruning for clustered queries (§3.2, Figure 11).
// The primary-key index is rebuilt because sorted freezing reassigns tuple
// identifiers. Sorted freezing is stop-the-world: it must not overlap
// writers or the background worker (do not combine with WithAutoFreeze).
func (t *Table) FreezeSorted(col string) error {
	i := t.schema.ColumnIndex(col)
	if i < 0 {
		return fmt.Errorf("datablocks: unknown column %q", col)
	}
	t.lockAllStripes()
	defer t.unlockAllStripes()
	err := t.reorganize(func() error {
		err := t.rel.FreezeAll(core.FreezeOptions{SortBy: i}, false)
		if t.pk != nil {
			// Rebuild after a failed pass too: the chunks frozen before the
			// failure were already reordered.
			if rerr := t.pk.Rebuild(t.rel, t.pkCol); err == nil {
				err = rerr
			}
		}
		return err
	})
	if err != nil {
		return err
	}
	// sortBy is read by manifest writes (background checkpoints included):
	// update it under the same lock.
	t.manMu.Lock()
	t.sortBy = i
	t.manMu.Unlock()
	return t.checkpoint(true)
}

// checkpoint makes the current frozen set durable on a persistent table:
// every frozen block that has never been spilled is flushed to the store,
// then a fresh manifest generation is written atomically. A no-op for
// non-durable tables. On a WAL table it additionally records each
// stripe's applied LSN in the manifest and truncates stripe logs the
// manifest has fully caught up with. stripesHeld is true when the caller
// already holds every stripe write lock (FreezeSorted).
//
// Ordering is load-bearing: the applied LSNs are computed (pruning
// chunkLSN entries whose chunk is durable) BEFORE the manifest chunk
// list is snapshotted. The frozen set only grows, so every chunk the
// pruning treated as durable is referenced by this manifest; the reverse
// order could declare records durable in chunks the manifest misses —
// records the truncation below would then drop while recovery garbage-
// collects their chunk.
func (t *Table) checkpoint(stripesHeld bool) error {
	if !t.persist || t.bs == nil {
		return nil
	}
	if err := t.rel.FlushFrozen(); err != nil {
		return err
	}
	var applied []uint64
	if t.walEnabled {
		applied = make([]uint64, len(t.stripes))
		for i := range t.stripes {
			st := &t.stripes[i]
			if !stripesHeld {
				st.wmu.Lock()
			}
			// The stripe's truncation point: everything at or below it is
			// fully covered by durably flushed chunks. Reading lastLSN
			// under wmu guarantees every effect at or below it is already
			// visible in the relation (apply-then-log), hence captured by
			// the manifest snapshot taken after this loop.
			l := st.lastLSN
			for ord, first := range st.chunkLSN {
				if t.rel.ChunkDurable(int(ord)) {
					delete(st.chunkLSN, ord)
					continue
				}
				if first-1 < l {
					l = first - 1
				}
			}
			applied[i] = l
			if !stripesHeld {
				st.wmu.Unlock()
			}
		}
	}
	chunks := t.rel.ManifestChunks()
	t.manMu.Lock()
	t.manGen++
	err := blockstore.WriteManifest(t.bs.FS(), t.bs.Dir(), &blockstore.Manifest{
		Generation: t.manGen,
		SortBy:     t.sortBy,
		Chunks:     chunks,
		Epoch:      t.rel.ReadEpoch(),
		WalApplied: applied,
	})
	t.manMu.Unlock()
	if err != nil || !t.walEnabled {
		return err
	}
	// The manifest is durable: stripe logs it fully covers can restart
	// empty. Failure to truncate is harmless — recovery skips records at
	// or below the manifest's applied LSN — so it is deliberately not an
	// error (TruncateAll also refuses by design while a batch is staged
	// unflushed or the log is poisoned).
	for i := range t.stripes {
		st := &t.stripes[i]
		if !stripesHeld {
			st.wmu.Lock()
		}
		if st.w != nil && len(st.chunkLSN) == 0 && st.lastLSN == applied[i] {
			_ = st.w.TruncateAll()
		}
		if !stripesHeld {
			st.wmu.Unlock()
		}
	}
	return nil
}

// openWAL opens every stripe's log under the table's block directory —
// each wal.Open is the framing pass that reads and verifies the file,
// cuts a torn tail and advances the LSN sequence — and returns the
// per-stripe iterators over the verified records.
func (t *Table) openWAL() ([]*wal.Records, error) {
	logs := make([]*wal.Records, len(t.stripes))
	return logs, t.perStripe(func(si int) error {
		path := filepath.Join(t.bs.Dir(), fmt.Sprintf("wal-%d.log", si))
		w, recs, err := wal.Open(t.bs.FS(), path, t.schema, &t.walSeq, &t.walStats)
		t.stripes[si].w, logs[si] = w, recs
		return err
	})
}

// replayWAL replays every stripe's records past the recovered manifest's
// applied LSNs, stripes concurrently. That is correct because every
// effect on a key is logged to that key's stripe (one key, one file):
// records of different stripes never address the same key, so each
// file's own order is all the ordering replay needs, and a stripe's
// replay touches only its own tableStripe plus the relation and index,
// which live writers of different stripes already share.
func (t *Table) replayWAL(logs []*wal.Records) error {
	applied := make([]uint64, len(logs))
	copy(applied, t.walApplied)
	t.walApplied = nil
	return t.perStripe(func(si int) error { return t.replayStripe(si, logs[si], applied[si]) })
}

// perStripe runs fn for every stripe, one goroutine each, and returns
// once all have finished, with their errors joined.
func (t *Table) perStripe(fn func(si int) error) error {
	errs := make([]error, len(t.stripes))
	var wg sync.WaitGroup
	for si := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := fn(si); err != nil {
				errs[si] = fmt.Errorf("wal stripe %d: %w", si, err)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// replayStripe replays stripe si's records above its applied LSN, in
// file order, until the log ends or a record fails.
func (t *Table) replayStripe(si int, recs *wal.Records, applied uint64) error {
	// A truncated log holds no records, but the manifest proves LSNs up
	// to applied were consumed: advance the sequence past them too, so
	// fresh records sort after everything recovery ever saw.
	wal.Advance(&t.walSeq, applied)
	t.stripes[si].lastLSN = max(applied, recs.LastLSN())
	// Records at or below the applied LSN are already durable through the
	// manifest's chunks; left in the file by a failed or refused
	// truncation.
	t.walStats.ReplaySkipped.Add(uint64(recs.SkipThrough(applied)))
	var rec wal.Record // one row buffer for the whole stripe
	n := uint64(0)
	defer func() { t.walStats.Replayed.Add(n) }()
	for {
		ok, err := recs.Next(&rec)
		if err == nil && ok {
			err = t.replayRecord(si, &rec)
		}
		if err != nil || !ok {
			return err
		}
		n++
	}
}

// replayRecord re-applies one record of stripe si's log. Replay is
// idempotent and convergent against partially durable state: a record
// whose effect already survived in restored chunks no-ops (or is
// harmlessly re-asserted and then overwritten by later records — every
// key's full history lives in one log file, so its records replay in
// order and the last one wins). Each touched chunk is re-registered in
// the stripe's chunkLSN with the record's original LSN, so the next
// checkpoint cannot truncate the log before the replayed effects are
// durably frozen. rec.Row is the iterator's reused buffer: the relation
// copies the values it keeps.
func (t *Table) replayRecord(si int, rec *wal.Record) error {
	// The one-key-one-file invariant per-stripe replay rests on, checked:
	// the record's key routes to this stripe, and an insert or update
	// carries that key in its row.
	if s := t.stripeOf(rec.Key); s != si || rec.Op != wal.OpDelete && (rec.Row[t.pkCol].IsNull() || rec.Row[t.pkCol].Int() != rec.Key) {
		return fmt.Errorf("wal: record for key %d (of stripe %d) does not belong in this log", rec.Key, s)
	}
	st := &t.stripes[si]
	tid, found := t.pk.Lookup(rec.Key)
	switch {
	case !found && rec.Op != wal.OpDelete:
		// A found key of an insert holds this record's effect or a later
		// one. An update of an absent key is applied as the insert of its
		// new version: a checkpoint concurrent with the update can persist
		// the retired old version without the new one, still hot; if a
		// later record removed the key instead, it replays after this one.
		newTid, err := t.rel.InsertStripe(si, rec.Row)
		if err != nil {
			return err
		}
		if err := t.pk.Insert(rec.Key, newTid); err != nil {
			return err
		}
		st.noteChunk(newTid.Chunk, rec.LSN)
	case rec.Op == wal.OpUpdate && found:
		// In-place only (a key change is logged as delete + insert), through
		// the live path's two steps so the relation lock covers only the
		// stamps.
		newTid, err := t.rel.InsertPendingStripe(si, rec.Row)
		if err != nil {
			return err
		}
		if _, ok := t.rel.CommitUpdate(tid, newTid); !ok {
			t.rel.AbortPending(newTid)
			return fmt.Errorf("wal: update of key %d: its row is retired", rec.Key)
		}
		t.pk.Repoint(rec.Key, newTid)
		st.noteChunk(tid.Chunk, rec.LSN)
		st.noteChunk(newTid.Chunk, rec.LSN)
	case rec.Op == wal.OpDelete && found:
		if t.rel.Delete(tid) {
			t.pk.Delete(rec.Key)
			st.noteChunk(tid.Chunk, rec.LSN)
		}
	}
	return nil
}

// close is the table's part of DB.Close, run after the worker stopped: it
// flushes every frozen block that was never spilled to the block store
// (so the store holds a complete cold copy of the frozen set) and
// releases the store and the stripe logs. On a table of a durable
// database (OpenPath) it first freezes the hot tail and then writes a
// fresh manifest generation, so a clean close leaves the directory a
// complete image: reopening recovers exactly the closed contents. It
// returns the worker's first error on the table, else the first error of
// the flush, the manifest write, the release or a block reload. The table
// remains readable afterwards — evicted chunks keep reloading through the
// store.
func (t *Table) close() error {
	errs := []error{t.bgErr}
	if t.bs != nil {
		if t.persist {
			// Freeze the tail so the manifest covers every row. If the
			// freeze or the checkpoint fails, the error is reported — and
			// on a WAL table the stripe logs still hold every acknowledged
			// hot row (checkpoint truncates them only after a successful
			// manifest write), so a failed close loses nothing: reopening
			// replays the logs. Without a WAL a failed close genuinely
			// strands hot rows, which is why the error must not be
			// swallowed.
			errs = append(errs, t.rel.FreezeAll(core.FreezeOptions{SortBy: -1}, false), t.checkpoint(false))
		} else {
			errs = append(errs, t.rel.FlushFrozen())
		}
	}
	errs = append(errs, t.release(), t.rel.LoadError())
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// release is the cleanup of a table whose open failed — its own or, in
// OpenPath, a later table's: it closes the stripe logs and the block
// store without freezing or checkpointing anything. Safe on a partly
// constructed table.
func (t *Table) release() error {
	var errs []error
	for i := range t.stripes {
		if w := t.stripes[i].w; w != nil {
			errs = append(errs, w.Close())
		}
	}
	if t.bs != nil {
		errs = append(errs, t.bs.Close())
	}
	return errors.Join(errs...)
}

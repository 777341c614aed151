package storage

import (
	"errors"
	"fmt"
	"time"

	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/simd"
	"datablocks/internal/types"
)

// freezeBlock indirects core.Freeze so tests can stall compression and
// prove it runs outside the relation lock.
var freezeBlock = core.Freeze

// FreezeChunk compresses chunk i into a Data Block. With a non-negative
// SortBy, deleted tuples are compacted away and rows are reordered, which
// invalidates tuple identifiers — callers must rebuild indexes (the paper's
// freeze-with-sort likewise re-orders tuples, §3.2), and the whole pass
// runs under the relation write lock (stop-the-world). A chunk with no
// live row has nothing to sort: it freezes as without sorting, every row
// and its stamps kept.
//
// Without sorting — the OLTP hot→cold path — identifiers remain stable,
// the epoch stamps carry over, and compression runs outside the
// relation lock: the chunk is claimed (hot→freezing) and its column data
// snapshotted under a brief write lock, core.Freeze runs unlocked, and the
// block is installed with an atomic payload swap. Concurrent inserts roll
// over to a fresh tail chunk; reads and scans keep using the hot payload
// until the swap. FreezeChunk returns nil when the chunk is already frozen
// or claimed by a concurrent freeze.
func (r *Relation) FreezeChunk(i int, opts core.FreezeOptions) error {
	c, err := r.chunkAt(i)
	if err != nil {
		return err
	}
	if opts.SortBy >= 0 {
		return r.freezeChunkSorted(c, i, opts)
	}
	cols, n, err := r.beginFreeze(c)
	if err != nil || n == 0 {
		return err
	}
	start := time.Now()
	blk, err := freezeBlock(cols, n, opts)
	if err == nil {
		r.noteFreeze(blk, cols, n, time.Since(start), false)
	}
	r.mu.Lock()
	if err != nil {
		// Revert the claim: the chunk stays hot (and, no longer being the
		// tail, simply remains an unfrozen non-tail chunk).
		c.state.Store(uint32(ChunkHot))
		r.mu.Unlock()
		return err
	}
	r.installBlockLocked(c, blk)
	r.mu.Unlock()
	r.maybeWakeEvictor()
	return nil
}

// beginFreeze claims chunk c for an unsorted freeze: under the owner
// stripe's appender lock and a brief relation write lock it transitions
// hot→freezing and snapshots the hot column data. Claiming under the
// stripe lock is what makes the snapshot complete — a stripe append in
// flight would otherwise publish a row after the freeze captured the row
// count, and the row would vanish with the hot payload. The returned row
// count is zero when the chunk is already frozen or freezing.
func (r *Relation) beginFreeze(c *Chunk) ([]core.ColumnData, int, error) {
	// c.stripe is immutable; restored chunks (-1) are never hot, so the
	// state re-check below rejects them without a stripe lock.
	if s := c.stripe; s >= 0 && int(s) < len(r.stripes) {
		st := &r.stripes[s]
		st.mu.Lock()
		defer st.mu.Unlock()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.State() != ChunkHot {
		return nil, 0, nil
	}
	h := c.pay.Load().hot
	n := h.Rows()
	if n == 0 {
		return nil, 0, errors.New("storage: cannot freeze empty chunk")
	}
	c.state.Store(uint32(ChunkFreezing))
	// Rows below n are immutable and the freezing state bars further
	// appends, so the snapshotted slice headers may be read without the
	// lock while core.Freeze compresses them.
	return h.Columns(n), n, nil
}

// freezeChunkSorted is the stop-the-world sorted freeze of chunk c
// (ordinal i): deleted tuples are compacted away and rows reordered under
// the relation write lock.
func (r *Relation) freezeChunkSorted(c *Chunk, i int, opts core.FreezeOptions) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch c.State() {
	case ChunkFrozen, ChunkEvicted:
		return nil
	case ChunkFreezing:
		return fmt.Errorf("storage: chunk %d is being frozen concurrently", i)
	}
	h := c.pay.Load().hot
	n := h.Rows()
	if n == 0 {
		return errors.New("storage: cannot freeze empty chunk")
	}
	if c.pending.Load() != 0 {
		return fmt.Errorf("storage: chunk %d has pending update versions; sorted freeze must not overlap writers", i)
	}
	total := n
	var keep []uint32
	if ret := c.retired.load(); ret != nil {
		for row := 0; row < total; row++ {
			if ret[row].Load() == 0 {
				keep = append(keep, uint32(row))
			}
		}
		n = len(keep)
	}
	if n == 0 {
		// Every row is retired, so there is nothing to sort: freeze the
		// chunk as the unsorted path does, every row and its stamps kept.
		n, opts.SortBy = total, -1
	}
	cols := h.Columns(total)
	if keep != nil {
		// Into fresh columns: the chunk's own arrays stay as they are for
		// the views that still read them.
		for ci := range cols {
			var kept core.ColumnData
			core.Gather(&kept, &cols[ci], keep)
			cols[ci] = kept
		}
	}
	start := time.Now()
	blk, err := freezeBlock(cols, n, opts)
	if err != nil {
		return err
	}
	r.noteFreeze(blk, cols, n, time.Since(start), opts.SortBy >= 0)
	r.installBlockLocked(c, blk)
	if opts.SortBy < 0 {
		return nil
	}
	// Row indexes were reassigned and the retired rows compacted away: the
	// old stamps are meaningless. In-flight views keep the arrays they
	// loaded, and with them the pre-freeze state.
	c.retired.p.Store(nil)
	c.born.p.Store(nil)
	c.numDeleted.Store(0)
	c.bornCount.Store(0)
	c.retiredCount.Store(0)
	return nil
}

// FreezeAll freezes every chunk except, optionally, each stripe's hot
// tail. The chunk count and tail positions are decided once, in a single
// lock acquisition, so a concurrent insert that appends a chunk cannot
// cause a tail to be frozen or skipped inconsistently: chunks appended
// after the snapshot are simply left for the next pass. Chunks already
// frozen — or claimed by a concurrent unsorted freeze — are skipped.
func (r *Relation) FreezeAll(opts core.FreezeOptions, keepHotTail bool) error {
	r.mu.RLock()
	chunks := r.dir.list()
	last := len(chunks)
	var skip map[int]bool
	if keepHotTail {
		skip = make(map[int]bool, len(r.stripes))
		for si := range r.stripes {
			st := &r.stripes[si]
			if st.tail != nil && st.tail.State() == ChunkHot {
				skip[st.tailOrd] = true
			}
		}
		if len(skip) == 0 && last > 0 {
			// No stripe has appended yet this lifetime (e.g. everything was
			// restored from a manifest): keep the positional tail, matching
			// the single-writer behavior.
			skip[last-1] = true
		}
	}
	// Sorted freezing reorders tuple identifiers chunk by chunk; validate
	// every target chunk up front so a doomed pass fails before anything
	// is reordered. The check is authoritative only under the caller's
	// write exclusion (Table.FreezeSorted holds its write mutex; sorted
	// freezing is documented stop-the-world) — a writer racing a direct
	// Relation caller could still slip a pending row in after the check,
	// which the per-chunk re-check in freezeChunkSorted then catches.
	if opts.SortBy >= 0 {
		for i := 0; i < last; i++ {
			if !skip[i] && chunks[i].pending.Load() != 0 {
				r.mu.RUnlock()
				return fmt.Errorf("storage: chunk %d has pending update versions; sorted freeze must not overlap writers", i)
			}
		}
	}
	r.mu.RUnlock()
	for i := 0; i < last; i++ {
		if skip[i] {
			continue
		}
		if err := r.FreezeChunk(i, opts); err != nil {
			return err
		}
	}
	return nil
}

// SealedHotChunks counts chunks that are closed to inserts (everything
// but the stripe tails) yet still uncompressed and unclaimed — the
// backlog a background worker should freeze.
func (r *Relation) SealedHotChunks() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	tails := make(map[*Chunk]bool, len(r.stripes))
	for si := range r.stripes {
		if t := r.stripes[si].tail; t != nil {
			tails[t] = true
		}
	}
	chunks, n := r.dir.list(), 0
	for i, c := range chunks {
		if c.State() != ChunkHot || tails[c] {
			continue
		}
		if len(tails) == 0 && i+1 == len(chunks) {
			// No stripe tails this lifetime: the positional last chunk is
			// the would-be tail.
			continue
		}
		n++
	}
	return n
}

// SetBlockStore attaches a disk-backed block store: frozen blocks become
// evictable to it, tracked against budget bytes of RAM residency (<= 0:
// unbounded — manual EvictChunk only). wake, if non-nil, is invoked
// (without locks held) whenever installing a block pushes the resident
// set over budget, so a background worker can run EvictUnderBudget.
// SetBlockStore must be called before the relation sees concurrent use;
// blocks frozen before the call are accounted as resident.
func (r *Relation) SetBlockStore(store *blockstore.Store, budget int64, wake func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.store = store
	r.cache = blockstore.NewCache(budget)
	r.overBudget = wake
	r.kinds = make([]types.Kind, r.schema.NumColumns())
	for i, col := range r.schema.Columns {
		r.kinds[i] = col.Kind
	}
	for _, c := range r.dir.list() {
		if blk := c.pay.Load().blk; blk != nil {
			size := int64(blk.CompressedSize())
			c.frozenRows.Store(int32(blk.Rows()))
			c.frozenBytes.Store(size)
			r.cache.Insert(c, size)
		}
	}
}

// installBlockLocked installs a compressed block as chunk c's payload —
// the single place a chunk becomes (or returns to) ChunkFrozen — and
// charges the residency cache the bytes it holds. Caller holds the write
// lock.
func (r *Relation) installBlockLocked(c *Chunk, blk *core.Block) {
	size := int64(blk.CompressedSize())
	if blk.Has(nil) {
		c.frozenRows.Store(int32(blk.Rows()))
		c.frozenBytes.Store(size)
	}
	c.pay.Store(&chunkPayload{blk: blk})
	c.state.Store(uint32(ChunkFrozen))
	if r.cache != nil {
		r.cache.Insert(c, size)
	}
}

// maybeWakeEvictor nudges the owner's background worker (the database
// worker, which runs EvictUnderBudget) when the resident frozen set
// exceeds the budget. Called without locks held.
func (r *Relation) maybeWakeEvictor() {
	if r.overBudget != nil && r.cache != nil && r.cache.OverBudget() {
		r.overBudget()
	}
}

// chunkDirectory returns chunk c's block directory, reading it from the
// store the first time (read is then the bytes that took). Caller holds
// c.loadMu and has checked that the chunk has a store handle.
func (r *Relation) chunkDirectory(c *Chunk) (d *core.Directory, read int, err error) {
	if d = c.dir.Load(); d != nil {
		return d, 0, nil
	}
	d, err = r.store.ReadDirectory(blockstore.Handle(c.handle.Load()), r.kinds)
	if err != nil {
		return nil, 0, err
	}
	c.dir.Store(d)
	r.cache.Reserve(int64(d.Size()))
	return d, d.Size(), nil
}

// pinBlock pins chunk c's compressed payload in RAM, with at least the
// attributes in cols loaded (nil: all), and returns it with the matching
// unpin. Attributes the resident block lacks — all of them when the chunk
// is evicted — are read from the store first, outside the relation lock
// and single-flighted per chunk so concurrent readers share one disk read;
// the result is a new block that shares the vectors already loaded and
// replaces the payload in one atomic swap (Evicted → Frozen), so blocks
// other readers hold never change. The caller must not hold the relation
// lock. loaded is the number of bytes this call read from the store
// (telemetry: per-query reload attribution).
func (r *Relation) pinBlock(c *Chunk, cols []int) (blk *core.Block, unpin func(), loaded int64, err error) {
	unpin = func() { c.pins.Add(-1) }
	c.pins.Add(1)
	if p := c.pay.Load(); p.blk != nil && p.blk.Has(cols) {
		return p.blk, unpin, 0, nil
	}
	c.loadMu.Lock()
	defer c.loadMu.Unlock()
	have := c.pay.Load().blk
	if have != nil && have.Has(cols) {
		// Another reader loaded the attributes while we waited: a
		// single-flight collapse — this pinner shares that disk read.
		r.collapses.Add(1)
		return have, unpin, 0, nil
	}
	h := blockstore.Handle(c.handle.Load())
	if r.store == nil || h == 0 {
		c.pins.Add(-1)
		return nil, nil, 0, errors.New("storage: evicted chunk has no block store handle")
	}
	d, dirRead, err := r.chunkDirectory(c)
	var n int
	if err == nil {
		blk, n, err = r.store.LoadAttrs(h, d, have, cols)
	}
	if err != nil {
		c.pins.Add(-1)
		return nil, nil, 0, err
	}
	r.mu.Lock()
	r.installBlockLocked(c, blk)
	r.mu.Unlock()
	if loaded = int64(dirRead + n); loaded > 0 {
		r.reloads.Add(1)
	}
	r.maybeWakeEvictor()
	return blk, unpin, loaded, nil
}

// EvictChunk spills chunk i's frozen block to the store (the first
// eviction serializes it; later ones reuse the stored file) and drops the
// in-RAM payload — every attribute that is loaded — keeping the block's
// directory (Frozen → Evicted). It reports false without error when
// the chunk is not evictable right now: not frozen, already evicted, or
// pinned by an in-flight reader.
func (r *Relation) EvictChunk(i int) (bool, error) {
	c, err := r.chunkAt(i)
	if err != nil {
		return false, err
	}
	return r.evictChunk(c)
}

func (r *Relation) evictChunk(c *Chunk) (bool, error) {
	if r.store == nil {
		return false, errors.New("storage: no block store configured")
	}
	c.loadMu.Lock()
	defer c.loadMu.Unlock()
	if c.State() != ChunkFrozen || c.pins.Load() != 0 {
		return false, nil
	}
	blk := c.pay.Load().blk
	if blk == nil {
		return false, nil
	}
	if c.handle.Load() == 0 {
		// Spill outside the relation lock: the block is immutable.
		h, err := r.store.Put(blk)
		if err != nil {
			return false, err
		}
		c.handle.Store(uint64(h))
	}
	// The directory outlives the payload. Reading it back here, before
	// anything is dropped, also proves the stored copy is readable.
	if _, _, err := r.chunkDirectory(c); err != nil {
		return false, err
	}
	r.mu.Lock()
	if c.pins.Load() != 0 {
		// A reader pinned the block between the check and the lock; leave
		// it resident and let the next eviction pass retry.
		r.mu.Unlock()
		return false, nil
	}
	c.pay.Store(&chunkPayload{})
	c.state.Store(uint32(ChunkEvicted))
	r.mu.Unlock()
	if r.cache != nil {
		r.cache.Drop(c)
	}
	r.evictions.Add(1)
	return true, nil
}

// EvictUnderBudget evicts unpinned frozen chunks, coldest first by access
// temperature, until the resident frozen set fits the budget (or nothing
// evictable remains). It returns the number of chunks evicted. Safe to
// call concurrently with readers and writers; typically driven by the
// database worker on the over-budget wake.
//
// The work per call is bounded: with readers concurrently reloading the
// blocks being shed, an unbounded drain-to-budget loop would spin as long
// as the reload churn lasts, so after a few rounds the call returns and
// relies on the next over-budget wake to continue.
func (r *Relation) EvictUnderBudget() (int, error) {
	if r.cache == nil {
		return 0, nil
	}
	n := 0
	for round := 0; round < 4; round++ {
		victims := r.cache.Victims()
		if len(victims) == 0 {
			return n, nil
		}
		progress := false
		for _, o := range victims {
			ok, err := r.evictChunk(o.(*Chunk))
			if err != nil {
				return n, err
			}
			if ok {
				n++
				progress = true
			}
		}
		if !progress || !r.cache.OverBudget() {
			// Everything nominated is pinned (retry on a later wake), or
			// the budget is met.
			return n, nil
		}
	}
	return n, nil
}

// FlushFrozen writes every frozen block that has never been spilled to
// the block store, without evicting anything — the Close-time flush that
// makes the store a complete cold copy of the relation's frozen set.
func (r *Relation) FlushFrozen() error {
	if r.store == nil {
		return nil
	}
	for _, c := range r.Chunks() {
		c.loadMu.Lock()
		if c.handle.Load() == 0 && c.State() == ChunkFrozen {
			if blk := c.pay.Load().blk; blk != nil {
				h, err := r.store.Put(blk)
				if err != nil {
					c.loadMu.Unlock()
					return err
				}
				c.handle.Store(uint64(h))
			}
		}
		c.loadMu.Unlock()
	}
	return nil
}

// RestoreEvicted appends a chunk recovered from a durable manifest, in the
// evicted state: no payload and no directory in RAM, only the store
// handle, the row count, the compressed size and the retired rows. The
// first read that touches the chunk reads its directory and the attributes
// that read needs. Preconditions (see the package doc's
// recovery section): a block store is attached, the relation sees no
// concurrent use yet, and chunks are restored in manifest order before any
// insert. Deleted rows are restored without their epochs, i.e. retired
// before every epoch — invisible to every reader of the new process
// lifetime.
func (r *Relation) RestoreEvicted(h blockstore.Handle, rows int, bytes int64, deleted []uint64, numDeleted int) error {
	if r.store == nil {
		return errors.New("storage: RestoreEvicted without a block store")
	}
	if h == 0 {
		return errors.New("storage: RestoreEvicted with zero handle")
	}
	if rows < 1 || rows > r.chunkCap {
		return fmt.Errorf("storage: restored chunk has %d rows, chunk capacity is %d (was the table reopened with a different chunk size?)", rows, r.chunkCap)
	}
	if numDeleted < 0 || numDeleted > rows {
		return fmt.Errorf("storage: restored chunk has %d deleted of %d rows", numDeleted, rows)
	}
	c := &Chunk{stripe: -1}
	c.pay.Store(&chunkPayload{})
	c.state.Store(uint32(ChunkEvicted))
	c.handle.Store(uint64(h))
	c.frozenRows.Store(int32(rows))
	c.frozenBytes.Store(bytes)
	c.numDeleted.Store(int32(numDeleted))
	for _, row := range simd.PositionsFromBitmap(deleted, min(rows, 64*len(deleted)), 0, nil) {
		c.retired.ensure(r.chunkCap)[row].Store(1)
	}
	r.mu.Lock()
	r.dir.publish(c)
	r.mu.Unlock()
	r.live.Add(int64(rows - numDeleted))
	return nil
}

// ChunkDurable reports whether chunk i has been frozen AND flushed to the
// block store — the point past which a write-ahead log no longer needs to
// cover its rows. Out-of-range ordinals report false.
func (r *Relation) ChunkDurable(i int) bool {
	c, err := r.chunkAt(i)
	return err == nil && c.IsFrozen() && c.handle.Load() != 0
}

// AdvanceEpoch raises the write epoch to at least e. Recovery uses it to
// restore cross-restart epoch continuity: replayed mutations must mint
// epochs above everything the previous lifetime acknowledged.
func (r *Relation) AdvanceEpoch(e uint64) {
	for {
		cur := r.epoch.Load()
		if e <= cur || r.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// ManifestChunks snapshots the relation's frozen set for a manifest write:
// every frozen (or evicted) chunk that has a store handle, in relation
// order, with its delete bitmap (a bit per retired row, derived from the
// stamps, nil when there is none). Rows pending an uncommitted update are
// recorded as deleted — their commit epoch would not survive the restart,
// so recovery must treat them as never visible.
// Chunks still hot or freezing, and frozen chunks not yet flushed to the
// store, are skipped: run FlushFrozen first so the manifest covers the
// whole frozen set.
func (r *Relation) ManifestChunks() []blockstore.ManifestChunk {
	r.mu.RLock()
	defer r.mu.RUnlock()
	chunks := r.dir.list()
	out := make([]blockstore.ManifestChunk, 0, len(chunks))
	for _, c := range chunks {
		if !c.IsFrozen() {
			continue
		}
		h := blockstore.Handle(c.handle.Load())
		if h == 0 {
			continue
		}
		rows := c.Rows()
		mc := blockstore.ManifestChunk{
			Handle: h,
			Rows:   rows,
			Bytes:  c.frozenBytes.Load(),
		}
		if retired, born := c.retired.load(), c.born.load(); retired != nil || born != nil {
			for row := 0; row < rows; row++ {
				// Deleted for the manifest: invisible at the end of time.
				if visibleAt(retired, born, uint32(row), pendingEpoch-1) == Visible {
					continue
				}
				if mc.Deleted == nil {
					mc.Deleted = make([]uint64, simd.BitmapWords(rows))
				}
				simd.BitmapSet(mc.Deleted, uint32(row))
				mc.NumDeleted++
			}
		}
		out = append(out, mc)
	}
	return out
}

// UnevictAll loads every evicted or partly loaded chunk's block back into
// RAM, all attributes. It is the inverse of draining to the store: used
// when the store is about to go away (a spill cache being garbage-collected
// at close) and the relation must keep serving reads from memory alone.
func (r *Relation) UnevictAll() error {
	for _, c := range r.Chunks() {
		if !c.IsFrozen() {
			continue
		}
		_, unpin, _, err := r.pinBlock(c, nil)
		if err != nil {
			return err
		}
		unpin()
	}
	return nil
}

// noteLoadError records the first block-store reload failure, so a point
// read that had to report a miss is distinguishable from data loss.
func (r *Relation) noteLoadError(err error) {
	r.loadErrMu.Lock()
	if r.loadErr == nil {
		r.loadErr = err
	}
	r.loadErrMu.Unlock()
}

// LoadError returns the first block-store reload failure, or nil.
func (r *Relation) LoadError() error {
	r.loadErrMu.Lock()
	defer r.loadErrMu.Unlock()
	return r.loadErr
}

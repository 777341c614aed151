package storage

import (
	"sync"
	"sync/atomic"

	"datablocks/internal/core"
	"datablocks/internal/obs"
	"datablocks/internal/types"
)

// HotChunk is an uncompressed, append-only columnar chunk. Rows below the
// published row count are immutable; the columns are allocated at full
// chunk capacity up front, so growing the chunk never reallocates them.
type HotChunk struct {
	n    atomic.Int32
	cols []core.ColumnData
}

// Rows returns the number of tuples in the chunk (including deleted ones).
func (h *HotChunk) Rows() int { return int(h.n.Load()) }

// Columns returns the first n rows of every column, sharing the chunk's
// arrays: what a freeze compresses, what a vectorized scan of the hot chunk
// reads and what every other reader indexes. n must not exceed a row count
// the caller has observed (a view's watermark, or Rows under the lock that
// bars appends); rows below it are immutable.
func (h *HotChunk) Columns(n int) []core.ColumnData {
	cols := make([]core.ColumnData, len(h.cols))
	for ci := range h.cols {
		cols[ci] = core.Head(h.cols[ci], n)
	}
	return cols
}

// ChunkState is one station of the hot→cold lifecycle.
type ChunkState uint32

const (
	// ChunkHot is uncompressed and, if it is the relation tail, writable.
	ChunkHot ChunkState = iota
	// ChunkFreezing is claimed by a freeze: still read from the hot
	// payload, closed to appends, compression in flight.
	ChunkFreezing
	// ChunkFrozen is an immutable compressed Data Block resident in RAM.
	ChunkFrozen
	// ChunkEvicted is a frozen chunk whose compressed payload has been
	// spilled to the block store and dropped from RAM; a handle, the
	// block's directory and the mutable delete/epoch state remain. Reads
	// transparently pin the block through the store, loading the
	// attributes they need and moving the chunk back to ChunkFrozen.
	ChunkEvicted
)

// String names the state for diagnostics.
func (s ChunkState) String() string {
	switch s {
	case ChunkHot:
		return "hot"
	case ChunkFreezing:
		return "freezing"
	case ChunkEvicted:
		return "evicted"
	default:
		return "frozen"
	}
}

// chunkPayload is the storage behind a chunk: at most one of hot, blk is
// non-nil; both are nil while the chunk is evicted (its block lives in
// the block store). It is swapped atomically when a freeze installs its
// block, an eviction drops it, or a reload installs a block with the
// attributes a reader needed, so a reader that loads the payload once
// observes a coherent chunk.
type chunkPayload struct {
	hot *HotChunk
	blk *core.Block
}

// pendingEpoch is the birth stamp of a row inserted by
// InsertPendingStripe: it sorts after every real epoch, so the row is
// invisible to all readers until CommitUpdate overwrites the stamp with
// the commit epoch.
const pendingEpoch = ^uint64(0)

// stamps is one of a chunk's two per-row epoch arrays: chunk capacity
// long, allocated the first time a row of the chunk needs a stamp (a chunk
// nobody updates or deletes from carries none), shared by the hot and
// frozen payloads (tuple identifiers survive unsorted freezing) and read
// lock-free — the element type leaves no other way to read it.
type stamps struct {
	p atomic.Pointer[[]atomic.Uint64]
}

// load returns the array, or nil while no row has been stamped.
func (s *stamps) load() []atomic.Uint64 {
	if p := s.p.Load(); p != nil {
		return *p
	}
	return nil
}

// ensure returns the array, allocating it for n rows on first use.
func (s *stamps) ensure(n int) []atomic.Uint64 {
	if a := s.load(); a != nil {
		return a
	}
	a := make([]atomic.Uint64, n)
	if s.p.CompareAndSwap(nil, &a) {
		return a
	}
	return s.load()
}

// visibleAt is the whole visibility rule: a row is visible at epoch e iff
// it was born at or before e and not retired at or before e. Either array
// may be nil (no row of the chunk carries such a stamp).
func visibleAt(retired, born []atomic.Uint64, row uint32, e uint64) Visibility {
	if born != nil && born[row].Load() > e {
		return NotYetBorn
	}
	if retired != nil {
		if s := retired[row].Load(); s != 0 && s-1 <= e {
			return Retired
		}
	}
	return Visible
}

// Chunk is one fixed-size slice of a relation: hot, freezing or frozen.
type Chunk struct {
	state atomic.Uint32
	pay   atomic.Pointer[chunkPayload]

	// retired[row] is 0 while the row is live, else the write epoch that
	// delete-flagged it plus one — so 1 reads "retired before every reader"
	// (aborted pending rows, deletes restored from a manifest). Stamped
	// under the relation write lock, once per row.
	// born[row] is 0 for a row visible since its insert, pendingEpoch for
	// an update version awaiting CommitUpdate, else the epoch that
	// committed it. Stamped before the row count publishes the row
	// (appendRow), re-stamped once by CommitUpdate under the write lock.
	// A sorted freeze drops both arrays (row indexes are reassigned);
	// in-flight views keep the slices they loaded.
	retired, born stamps

	// Telemetry (EpochStats, MemStats) and the sorted-freeze precondition;
	// no visibility decision reads these. numDeleted counts retired rows,
	// retiredCount those retired in this process lifetime (the backlog a
	// sorted freeze collects), pending the InsertPendingStripe rows neither
	// committed nor aborted, bornCount the rows ever given a birth stamp.
	numDeleted   atomic.Int32
	retiredCount atomic.Int32
	pending      atomic.Int32
	bornCount    atomic.Int32

	// loadMu serializes the chunk's traffic with the block store: the
	// spill of an eviction and the single-flight reload of a read both
	// hold it, so concurrent readers of an evicted chunk do one disk read,
	// not one each. Lock order: loadMu before the relation lock, never the
	// other way around.
	loadMu sync.Mutex
	// handle addresses the serialized block in the relation's store once
	// the chunk has been spilled at least once (zero = never spilled).
	// Writers hold loadMu; it is atomic so manifest snapshots can read it
	// under the relation lock alone.
	handle atomic.Uint64
	// dir is the stored block's directory — SMAs and section locations —
	// set under loadMu by the first eviction or reload and never dropped:
	// it is what lets a scan rule an evicted chunk out without I/O and a
	// reload fetch single attributes.
	dir atomic.Pointer[core.Directory]
	// pins counts in-flight readers of the frozen payload; eviction skips
	// pinned chunks (see the package doc's pin rules).
	pins atomic.Int32
	// access is the chunk's temperature: bumped on every scan snapshot and
	// point-lookup touch (striped by row, so two readers of one chunk do
	// not write one line), consumed by the cache's coldest-first policy.
	access obs.StripedCounter
	// frozenRows/frozenBytes mirror the complete block's row count and
	// compressed size so they stay answerable while the payload is
	// evicted or only partly loaded.
	frozenRows  atomic.Int32
	frozenBytes atomic.Int64

	// stripe is the write stripe that owns this chunk's append path, set at
	// construction and immutable. -1 for chunks restored from a manifest
	// (frozen on arrival, never appended to again). A freeze claims a hot
	// chunk under its owner stripe's appender lock, so claim and append
	// cannot interleave.
	stripe int32
}

// Temperature returns the chunk's access count (blockstore.Owner).
func (c *Chunk) Temperature() uint64 { return c.access.Load() }

// Pinned reports whether a reader currently pins the chunk's payload
// (blockstore.Owner).
func (c *Chunk) Pinned() bool { return c.pins.Load() != 0 }

func newChunk(h *HotChunk, stripe int32) *Chunk {
	c := &Chunk{stripe: stripe}
	c.pay.Store(&chunkPayload{hot: h})
	return c
}

// State returns the chunk's lifecycle state.
func (c *Chunk) State() ChunkState { return ChunkState(c.state.Load()) }

// IsFrozen reports whether the chunk has been compressed into a Data
// Block. It is derived from the state machine, not from payload presence:
// an evicted chunk is frozen even though its in-RAM block pointer is nil.
func (c *Chunk) IsFrozen() bool {
	s := c.State()
	return s == ChunkFrozen || s == ChunkEvicted
}

// Block returns the frozen Data Block while it is resident in RAM, or nil
// for hot and evicted chunks. In a relation with a block store the
// resident block may hold only the attributes earlier readers asked for
// (core.Block.Has), so callers there go through a pinned path instead
// (GetAt, or a ChunkView with Acquire), which loads what is missing
// from the store.
func (c *Chunk) Block() *core.Block { return c.pay.Load().blk }

// Hot returns the uncompressed chunk, or nil for frozen chunks.
func (c *Chunk) Hot() *HotChunk { return c.pay.Load().hot }

// Rows returns the tuple count including deleted tuples. For evicted
// chunks the count survives in frozenRows, so identifier resolution and
// statistics never need the payload.
func (c *Chunk) Rows() int {
	p := c.pay.Load()
	if p.blk != nil {
		return p.blk.Rows()
	}
	if p.hot != nil {
		return p.hot.Rows()
	}
	return int(c.frozenRows.Load())
}

// LiveRows returns the tuple count excluding deleted and pending tuples.
// Like Rows it is safe to call lock-free: both counters are atomic. Three
// separate loads make it a statistic, not a snapshot; a scan counts from a
// ChunkView.
func (c *Chunk) LiveRows() int {
	return c.Rows() - int(c.numDeleted.Load()) - int(c.pending.Load())
}

// NumDeleted returns the number of delete-flagged tuples (atomic, safe
// lock-free). Per-row delete state is only exposed through ChunkView,
// whose epoch cutoff makes it meaningful without the relation lock.
func (c *Chunk) NumDeleted() int { return int(c.numDeleted.Load()) }

// ChunkView is a consistent snapshot of one chunk, taken under the
// relation lock by Relation.Snapshot. Scans capture a view once per chunk
// and never observe concurrent appends, hot→frozen payload swaps, or row
// versions committed after the snapshot.
//
// Views are zero-copy: the epoch stamps are shared with the live chunk and
// filtered through the cutoff epoch captured at snapshot time. Deletes and
// update commits that land after the snapshot carry epochs above the
// cutoff, so the view keeps resolving the pre-mutation state without
// having copied anything.
type ChunkView struct {
	hot *HotChunk
	blk *core.Block
	// frozen records the chunk's compression status at snapshot time; with
	// a block store attached blk is whatever was resident then — nil for an
	// evicted chunk, possibly a column subset — until Acquire replaces it
	// with a pinned block that has the columns the scan asked for.
	frozen bool
	// chunk and rel are set when the view may need the pin/reload path: a
	// block store is attached (a resident block can be evicted mid-scan)
	// or the chunk was already evicted at snapshot time.
	chunk   *Chunk
	rel     *Relation
	release func()
	// rows is the row-count watermark captured under the relation lock:
	// rows appended after the snapshot sit above it and are never
	// consulted. retired and born are the chunk's stamp arrays, loaded
	// after the watermark — a row's birth stamp is stored before the row
	// is published, so every stamp below the watermark is in them — and
	// nil when the chunk had none. Visibility of a row is a function of
	// its two stamps and cutoff, nothing else.
	rows    int
	retired []atomic.Uint64
	born    []atomic.Uint64
	cutoff  uint64
}

// IsFrozen reports whether the chunk was frozen (possibly evicted) at
// snapshot time.
func (v *ChunkView) IsFrozen() bool { return v.frozen }

// Block returns the frozen Data Block, or nil for hot views. In a relation
// with a block store it is only meaningful after Acquire, and then holds
// at least the columns Acquire was given.
func (v *ChunkView) Block() *core.Block { return v.blk }

// Acquire pins the view's frozen block in RAM for the duration of a scan,
// with at least the attributes listed in cols loaded (nil: all of them) —
// reading from the block store whichever of them the resident block lacks
// (the I/O runs outside the relation lock). It is a no-op for hot views
// and for frozen views of a relation without a block store, whose blocks
// can never leave RAM. Each successful Acquire must be paired with
// Release; while pinned, the budget evictor will not touch the chunk.
func (v *ChunkView) Acquire(cols []int) error {
	_, err := v.AcquireReload(cols)
	return err
}

// AcquireReload is Acquire, additionally reporting how many bytes this
// call read from the store (zero: everything asked for was resident, or
// another pinner's read was shared). Query profiles use it to attribute
// reloads to the scan that paid them.
func (v *ChunkView) AcquireReload(cols []int) (reloaded int64, err error) {
	if !v.frozen || v.chunk == nil || v.release != nil {
		return 0, nil
	}
	blk, unpin, loaded, err := v.rel.pinBlock(v.chunk, cols)
	if err != nil {
		v.rel.noteLoadError(err)
		return 0, err
	}
	v.blk = blk
	v.release = unpin
	return loaded, nil
}

// MayMatch reports whether a frozen view can hold a tuple satisfying every
// predicate, as far as that is decidable without I/O and without a pin:
// from the resident directory of a chunk whose block has been to the store
// (core.Directory.MayMatch). False means the scan may skip the chunk; true
// promises nothing.
func (v *ChunkView) MayMatch(preds []core.Predicate) bool {
	if v.chunk == nil || len(preds) == 0 {
		return true
	}
	d := v.chunk.dir.Load()
	return d == nil || d.MayMatch(preds)
}

// Release unpins a block pinned by Acquire. Safe to call on any view,
// any number of times.
func (v *ChunkView) Release() {
	if v.release != nil {
		v.release()
		v.release = nil
	}
}

// Hot returns the snapshotted uncompressed chunk, or nil for frozen views.
func (v *ChunkView) Hot() *HotChunk { return v.hot }

// Rows returns the row-count watermark captured at snapshot time,
// including deleted tuples. Rows appended to the live chunk after the
// snapshot sit above the watermark and are not part of the view.
func (v *ChunkView) Rows() int { return v.rows }

// LiveRows returns the tuple count visible at the view's epoch cutoff,
// counted from the view's own stamps: what a scan of the view sees.
func (v *ChunkView) LiveRows() int {
	if v.retired == nil && v.born == nil {
		return v.rows
	}
	n := 0
	for row := 0; row < v.rows; row++ {
		if v.visible(uint32(row)) {
			n++
		}
	}
	return n
}

// IsDeleted reports whether the row is invisible at the view's epoch
// cutoff: delete-flagged at or before the cutoff, or born after it (a
// pending or later-committed update version). The name predates the epoch
// machinery; scan drivers use it to skip rows.
func (v *ChunkView) IsDeleted(row int) bool { return !v.visible(uint32(row)) }

func (v *ChunkView) visible(row uint32) bool {
	return visibleAt(v.retired, v.born, row, v.cutoff) == Visible
}

// FilterVisible compacts a match vector in place, keeping only positions
// visible at the view's epoch cutoff. For a chunk that never had a row
// deleted or updated this is free.
func (v *ChunkView) FilterVisible(m []uint32) []uint32 {
	if v.retired == nil && v.born == nil {
		return m
	}
	w := 0
	for _, p := range m {
		if v.visible(p) {
			m[w] = p
			w++
		}
	}
	return m[:w]
}

// Value returns cell (col, row) of the snapshot as a dynamic value.
func (v *ChunkView) Value(col, row int) types.Value {
	if v.blk != nil {
		return v.blk.Value(col, row)
	}
	return core.Cell(&v.hot.cols[col], row)
}

// Package storage implements the hybrid relation layout of Figure 1:
// relations are divided into fixed-size chunks; hot chunks stay
// uncompressed and writable, cold chunks are frozen into immutable
// compressed Data Blocks. Freezing is per-chunk and O(chunk), avoiding the
// O(relation) merge of write-optimized/read-optimized designs (§1).
//
// Frozen tuples support only delete (a flag); updates are rewritten as a
// delete plus an insert into the hot tail (§3). Tuple identifiers are
// stable across (unsorted) freezing, so primary-key indexes survive.
//
// # Concurrency contract
//
// A Relation is safe for concurrent use. The operations that may overlap
// freely are:
//
//   - OLTP writes: Insert, BulkAppend, Delete and the three-step update
//     protocol InsertPending/CommitUpdate/AbortPending, each O(1).
//     Appends serialize per write stripe (SetWriteStripes): InsertStripe
//     and InsertPendingStripe on distinct stripes run concurrently,
//     holding only their stripe's appender lock; the single-writer entry
//     points route to stripe 0. Deletes and commits still serialize on
//     the relation lock — they are cross-stripe (any stripe's row) and
//     epoch-minting.
//   - OLTP reads: Get, GetAt (shared lock).
//   - OLAP scans: Snapshot returns ChunkViews pinned to an epoch cutoff;
//     scan drivers iterate a snapshot and never observe row versions
//     committed after the cutoff. A view hands the vectorized scan its
//     chunk in one of core's two layouts — Block, or Hot().Columns — and
//     the hot layout is known here and in core only: freeze and scan read
//     it through the same HotChunk.Columns.
//   - Background freezing: FreezeChunk/FreezeAll with a negative SortBy
//     run core.Freeze compression outside the relation lock, so inserts,
//     lookups and scans proceed while a chunk is being compressed.
//   - Background eviction: EvictChunk/EvictUnderBudget spill frozen
//     blocks to the block store and drop their payloads; reads of
//     evicted chunks transparently pin them, loading the attributes they
//     need (see "Eviction, pinning and reload" below). Spill and reload
//     I/O run outside the relation lock.
//
// # Epoch-versioned reads
//
// The relation maintains a monotonically increasing write epoch. Every
// delete stamps the retired row with the epoch that killed it, and every
// committed update stamps the replacement row with the epoch it was born
// at; both stamps are installed under one write-lock acquisition, so they
// become visible atomically. A reader that captured epoch E therefore has
// an exact visibility rule: a row is visible at E iff it was born at or
// before E and not retired at or before E. GetAt evaluates that rule for
// point reads and reports *why* an invisible row is invisible (not yet
// born versus already retired), which is what lets an index with version
// records fall back to the previous version of a tuple that is mid-update
// — closing the update/lookup read anomaly: a key that exists at all
// times resolves to either its pre- or its post-update version, never to
// neither.
//
// The two stamps are all the visibility state a chunk has (Chunk.retired,
// Chunk.born): there is no separate delete flag — a row is deleted when
// its retired slot is non-zero — and visibleAt, a function of the row's
// two slots and the reader's epoch, is the only place the rule is written.
// The per-chunk counters are telemetry; no read consults them.
//
// The three-step update protocol orders the steps so that no read epoch
// ever observes a gap: InsertPending appends the new version invisibly
// (born at +inf), the caller publishes the new tuple identifier in its
// index, and CommitUpdate atomically (one epoch) makes the new version
// visible and retires the old one. Between the steps, readers resolve the
// old version; after commit, the epoch decides.
//
// Snapshots are zero-copy: a ChunkView captures the chunk's row-count
// watermark and then its two stamp arrays, and filters by the cutoff epoch
// captured at snapshot time. Two orderings make that sound without copying
// anything. An append stores the new row's birth stamp before it publishes
// the row through the watermark, so a view that can see a row can see the
// stamp it was published with — a pending update version is never
// mistaken for a plain insert. And deletes and update commits hold the
// relation write lock, which the snapshot's read lock excludes, so every
// stamp written after the snapshot carries an epoch above its cutoff and
// the view keeps reading the pre-mutation state.
//
// Each chunk moves through a state machine that is one-way up to the
// frozen station and oscillates between the last two when a block store
// is attached (SetBlockStore):
//
//	ChunkHot ──(claim: owner stripe lock + brief write lock)──► ChunkFreezing
//	ChunkFreezing ──(compress outside lock, install)──► ChunkFrozen
//	ChunkFreezing ──(compression error)──► ChunkHot
//	ChunkFrozen ──(spill to store, drop payload, keep directory)──► ChunkEvicted
//	ChunkEvicted ──(load the attributes a reader needs, install)──► ChunkFrozen
//
// A freezing chunk no longer accepts appends (the insert tail skips it and
// rolls over to a fresh chunk), but its tuples remain readable from the hot
// payload until the compressed block is installed with an atomic payload
// swap; deletes during freezing land in the chunk's retired stamps, which
// are shared by the hot and frozen forms (tuple identifiers are stable).
//
// # Eviction, pinning and reload
//
// An evicted chunk keeps everything mutable in RAM — the epoch stamps and
// counters — plus its block's directory: the serialized
// block's fixed header and per-attribute entries (SMA, scheme, width, NULL
// flags, section location and checksum; 24 + 64 bytes per attribute). Only
// the compressed vectors leave, and they come back by attribute: a pin
// names the columns its reader needs, and the chunk's resident block holds
// whichever attributes readers have asked for since the last eviction. The
// rules:
//
//   - The directory (Chunk.dir) is read from the store once — by the
//     eviction that first drops the payload, or by the first pin of a chunk
//     restored from a manifest — and never dropped. It is what lets a scan
//     run the SMA test of its pushed-down predicates before pinning
//     (ChunkView.MayMatch): a chunk the SMA rules out costs no I/O and no
//     pin. Its bytes count as resident (MemStats.FrozenBytes,
//     ColdStats.ResidentBytes) and against the budget, but no eviction can
//     win them back.
//   - Readers pin with a column set (pinBlock, ChunkView.Acquire): a scan
//     its ScanNode.Cols (predicate and early-probe columns are among them),
//     an index rebuild the key column, point reads (GetAt) and
//     UnevictAll every column (nil). A pin whose columns are all loaded is
//     one payload load and one check; otherwise the missing attributes'
//     sections are read from the store — adjacent ones in one read, each
//     verified by its own checksum — outside the relation lock and
//     single-flighted per chunk (loadMu), so concurrent readers of one
//     chunk never read an attribute twice.
//   - Blocks are immutable. Loading further attributes builds a new
//     core.Block that shares the vectors already loaded and replaces the
//     payload in one atomic swap under the write lock (Evicted → Frozen
//     the first time); a reader keeps the block its pin returned, which has
//     what it asked for and never changes underneath it. A partly loaded
//     chunk is ChunkFrozen; only core.Block.Has tells what it holds.
//   - A reader pins (Chunk.pins) before loading the payload pointer and
//     unpins when done; the evictor skips pinned chunks, so an in-flight
//     scan cannot have its block evicted underneath it. The residual race —
//     an eviction nominated just before a pin lands — at worst leaves the
//     reader on a privately retained block while the budget accounting
//     already dropped it; it can never produce a torn read.
//   - Eviction (EvictChunk/EvictUnderBudget) is chunk-granular: it targets
//     ChunkFrozen chunks with a zero pin count and drops every loaded
//     vector at once. The first eviction of a chunk serializes the block
//     into the store, later ones reuse the file.
//   - The residency cache is charged what is actually loaded. Every scan
//     and point-lookup touch bumps the chunk's access counter and the cache
//     evicts coldest-first by that temperature, most recently installed
//     first among equals (scans touch every chunk alike, so ties are the
//     rule: a cyclic scan larger than the budget keeps a stable resident
//     prefix). frozenBytes, the manifest's Bytes and MemStats.EvictedBytes
//     keep meaning the complete block's compressed size.
//   - A failed reload (I/O error, a short file, a corrupt directory, or
//     corruption in an attribute that was asked for) is an error, never
//     silent data: scans propagate it, point reads report Unavailable and
//     record it on the relation (LoadError). Damage in an attribute nobody
//     reads goes unnoticed until somebody does.
//
// # Recovery
//
// A relation can be rebuilt from a durable manifest (see
// blockstore.Manifest): each frozen chunk is restored with RestoreEvicted
// in manifest order, in the evicted state — payload and directory stay in
// the block store until the first read touches the chunk, which then reads
// the directory and the attributes it needs. The preconditions are strict and
// unchecked beyond what the functions validate themselves:
//
//   - SetBlockStore must already have been called, and the relation must
//     not yet see concurrent use: restoration is part of construction.
//   - Chunks are restored before any insert, so restored ordinals are
//     dense and precede the new hot tail. Tuple identifiers from the
//     previous process lifetime are NOT preserved in general (hot chunks
//     were not recovered), which is why indexes must be rebuilt by
//     streaming keys from the restored chunks, not loaded from a cache.
//   - The chunk capacity must be at least the restored row counts — reopen
//     a relation with the chunk capacity it was created with (the durable
//     catalog records it).
//   - Epochs are not persisted: the manifest carries one bit per retired
//     row, restored deletes read as retired before every epoch (invisible
//     to everyone), and rows that were pending an uncommitted update at
//     manifest time were recorded as deleted by ManifestChunks.
//     Cross-restart epoch continuity is the owner's job: the durable
//     manifest records the epoch high-water mark and recovery restores it
//     with AdvanceEpoch before replaying its write-ahead log, so replayed
//     mutations mint epochs above everything the previous lifetime
//     acknowledged.
//
// ManifestChunks is the writer-side half: it snapshots the frozen set
// (handles, row counts, delete bitmaps derived from the retired stamps)
// under the relation lock for a manifest write, after FlushFrozen has
// given every frozen block a store handle.
//
// Sorted freezing (SortBy >= 0) reorders tuples and therefore invalidates
// tuple identifiers; it runs stop-the-world under the relation write lock
// and must not overlap other writers or a background freezer — quiesce
// the relation first (see ROADMAP: sorted-freeze under concurrency).
//
// Lock-free access to a *Chunk (Relation.Chunk/Chunks) is safe for frozen
// chunks and for the state/row-count accessors (Rows, LiveRows, Deleted
// counts are atomic); reading the column data of a chunk that is still hot
// while writers run requires a ChunkView from Snapshot.
//
// # Machine-checked contracts
//
// The rules above are enforced by the in-tree dbvet analyzer suite
// (internal/analysis, run by `make lint`): lockcheck checks that *Locked
// helpers run with the relation lock held and that loadMu is acquired
// before the relation lock (the documented rank order); pincheck checks
// that every ChunkView.Acquire and pinBlock is paired with its release on
// all paths. Everything this package shares between goroutines without a
// lock — epoch stamps, counters, payload and directory pointers — has a
// sync/atomic type, so a plain access does not compile; atomiccheck
// guards the function-style atomics elsewhere. Nothing here (or anywhere
// in the tree) suppresses a finding. See ARCHITECTURE.md, "Enforced
// invariants".
package storage

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/simd"
	"datablocks/internal/types"
)

// freezeBlock indirects core.Freeze so tests can stall compression and
// prove it runs outside the relation lock.
var freezeBlock = core.Freeze

// TupleID addresses one tuple: a chunk ordinal and a row within the chunk.
type TupleID struct {
	Chunk uint32
	Row   uint32
}

// HotChunk is an uncompressed, append-only columnar chunk. Rows below the
// published row count are immutable; the backing arrays are allocated at
// full chunk capacity up front, so growing the chunk never reallocates
// them.
type HotChunk struct {
	n    atomic.Int32
	cols []hotCol
}

type hotCol struct {
	kind   types.Kind
	ints   []int64
	floats []float64
	strs   []string
	nulls  []bool // eager for nullable columns; else installed by BulkAppend under the write lock
}

// Rows returns the number of tuples in the chunk (including deleted ones).
func (h *HotChunk) Rows() int { return int(h.n.Load()) }

// Ints exposes an integer column to row-at-a-time readers (compiled scans,
// index rebuild); a vectorized scan reads Columns.
func (h *HotChunk) Ints(col int) []int64 { return h.cols[col].ints[:h.Rows()] }

// Floats exposes a double column.
func (h *HotChunk) Floats(col int) []float64 { return h.cols[col].floats[:h.Rows()] }

// Strs exposes a string column.
func (h *HotChunk) Strs(col int) []string { return h.cols[col].strs[:h.Rows()] }

// Nulls exposes the column's null flags, or nil when the column holds no
// NULLs.
func (h *HotChunk) Nulls(col int) []bool {
	if h.cols[col].nulls == nil {
		return nil
	}
	return h.cols[col].nulls[:h.Rows()]
}

// IsNull reports whether cell (col, row) is NULL.
func (h *HotChunk) IsNull(col, row int) bool {
	c := &h.cols[col]
	return c.nulls != nil && c.nulls[row]
}

// Value returns cell (col, row) as a dynamic value.
func (h *HotChunk) Value(col, row int) types.Value {
	c := &h.cols[col]
	if c.nulls != nil && c.nulls[row] {
		return types.NullValue(c.kind)
	}
	switch c.kind {
	case types.Int64:
		return types.IntValue(c.ints[row])
	case types.Float64:
		return types.FloatValue(c.floats[row])
	default:
		return types.StringValue(c.strs[row])
	}
}

// Columns returns the first n rows of every column as core's uncompressed
// layout, sharing the chunk's arrays: what a freeze compresses and what a
// vectorized scan of the hot chunk reads. n must not exceed a row count the
// caller has observed (a view's watermark, or Rows under the lock that bars
// appends); rows below it are immutable.
func (h *HotChunk) Columns(n int) []core.ColumnData {
	cols := make([]core.ColumnData, len(h.cols))
	for ci := range h.cols {
		col := &h.cols[ci]
		cd := core.ColumnData{Kind: col.kind}
		switch col.kind {
		case types.Int64:
			cd.Ints = col.ints[:n]
		case types.Float64:
			cd.Floats = col.floats[:n]
		default:
			cd.Strs = col.strs[:n]
		}
		if col.nulls != nil {
			cd.Nulls = col.nulls[:n]
		}
		cols[ci] = cd
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

// pendingEpoch is the birth stamp of a row inserted by InsertPending: it
// sorts after every real epoch, so the row is invisible to all readers
// until CommitUpdate overwrites the stamp with the commit epoch.
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
	// sorted freeze collects), pending the InsertPending rows neither
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
	// point-lookup touch, consumed by the cache's coldest-first policy.
	access atomic.Uint64
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
	return v.hot.Value(col, row)
}

// relStripe is one independent append lane of a relation. Each stripe has
// its own hot tail chunk and its own appender lock, so writers hashed to
// different stripes append concurrently without touching the relation
// lock; only a chunk rollover (growing the chunk list) takes r.mu.
type relStripe struct {
	// mu serializes appends within the stripe and a freeze's claim of the
	// stripe's chunks. Lock order: mu before Relation.mu, never after.
	mu sync.Mutex
	// tail is the stripe's current hot chunk (nil before the first
	// append). Written with both mu and Relation.mu held (rollover); read
	// under either lock.
	tail    *Chunk
	tailOrd int
}

// Relation is a chunked table: zero or more frozen chunks followed by hot
// chunks; each write stripe's tail chunk receives its inserts.
type Relation struct {
	mu       sync.RWMutex
	schema   *types.Schema
	chunkCap int
	chunks   []*Chunk

	// stripes are the append lanes (at least one). The slice itself is
	// fixed before concurrent use (SetWriteStripes); single-writer callers
	// use stripe 0 through the Insert/InsertPending entry points.
	stripes []relStripe

	// live is the live tuple count, maintained atomically because stripe
	// appends run outside the relation lock.
	live atomic.Int64

	// epoch is the monotonically increasing write epoch. Deletes and
	// update commits bump it under the write lock and stamp the affected
	// rows; readers capture it (ReadEpoch, Snapshot) to pin a visibility
	// cutoff.
	epoch atomic.Uint64

	// Cold block store state (SetBlockStore). store persists serialized
	// frozen blocks; cache tracks which are resident in RAM against the
	// byte budget; kinds is the schema handed to deserialization;
	// overBudget nudges the owner's background worker when an install
	// pushes the resident set past the budget. All four are set once,
	// before concurrent use.
	store      *blockstore.Store
	cache      *blockstore.Cache
	kinds      []types.Kind
	overBudget func()

	evictions atomic.Int64
	reloads   atomic.Int64
	// collapses counts single-flight reload collapses: pinners that
	// waited on loadMu and found the block already reinstalled by the
	// reader that held it, sharing that reader's disk read.
	collapses atomic.Int64

	// met holds the freeze-pipeline telemetry (see metrics.go).
	met relMetrics

	loadErrMu sync.Mutex
	loadErr   error
}

// NewRelation creates an empty relation. chunkCapacity caps rows per chunk;
// zero selects the Data Block default of 2^16.
func NewRelation(schema *types.Schema, chunkCapacity int) *Relation {
	if chunkCapacity <= 0 || chunkCapacity > core.MaxRows {
		chunkCapacity = core.MaxRows
	}
	return &Relation{schema: schema, chunkCap: chunkCapacity, stripes: make([]relStripe, 1)}
}

// SetWriteStripes partitions the append path into n independent stripes
// (InsertStripe/InsertPendingStripe). It must be called before the
// relation sees any insert or concurrent use; the legacy single-writer
// entry points keep routing to stripe 0.
func (r *Relation) SetWriteStripes(n int) {
	if n < 1 {
		n = 1
	}
	r.stripes = make([]relStripe, n)
}

// NumWriteStripes returns the configured stripe count.
func (r *Relation) NumWriteStripes() int { return len(r.stripes) }

// Schema returns the relation's schema.
func (r *Relation) Schema() *types.Schema { return r.schema }

// ChunkCapacity returns the per-chunk row limit.
func (r *Relation) ChunkCapacity() int { return r.chunkCap }

// NumChunks returns the number of chunks.
func (r *Relation) NumChunks() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.chunks)
}

// Chunk returns chunk i. The chunk list only grows, so a retrieved chunk
// stays valid; hot chunks may keep receiving appends.
func (r *Relation) Chunk(i int) *Chunk {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.chunks[i]
}

// Chunks returns a snapshot of the chunk list. The *Chunk handles track
// live state; concurrent scans should prefer Snapshot.
func (r *Relation) Chunks() []*Chunk {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]*Chunk(nil), r.chunks...)
}

// ReadEpoch returns the current write epoch: the visibility cutoff a
// point reader should capture *before* resolving an index entry, so that
// the index publish/commit ordering guarantees it a visible version.
func (r *Relation) ReadEpoch() uint64 { return r.epoch.Load() }

// Snapshot captures a consistent view of every chunk for a scan, pinned
// to the current write epoch. View i corresponds to chunk ordinal i, so
// row positions remain valid TupleIDs. The views share the live epoch
// stamps (zero-copy); the cutoff keeps later mutations invisible.
func (r *Relation) Snapshot() []ChunkView {
	r.mu.RLock()
	defer r.mu.RUnlock()
	cutoff := r.epoch.Load()
	views := make([]ChunkView, len(r.chunks))
	for i, c := range r.chunks {
		views[i] = r.viewLocked(c, cutoff)
	}
	return views
}

// viewLocked snapshots one chunk at the given epoch cutoff. Caller holds
// at least the read lock, which excludes deletes, update commits, freeze
// installs and bulk loads, so no stamp at or below the cutoff is written
// while the view is taken. Stripe appends run outside the relation lock,
// but they publish through the row-count watermark: a hot chunk's backing
// arrays are allocated at full capacity up front (the headers never move),
// a row's values and its birth stamp are written before the watermark
// advances, and rows below the watermark are immutable — so every mutation
// concurrent with the snapshot either lands above the watermark (appends)
// or carries an epoch above the cutoff (deletes, update commits). The
// order of the loads is the contract: watermark first, stamp arrays after
// it, so a row below the watermark always finds the stamp it was
// published with.
func (r *Relation) viewLocked(c *Chunk, cutoff uint64) ChunkView {
	c.access.Add(1) // scan touch: temperature for the eviction policy
	v := ChunkView{cutoff: cutoff}
	p := c.pay.Load()
	if p.hot == nil {
		// Frozen (blk set) or evicted (blk nil until Acquire reloads it).
		v.frozen = true
		v.blk = p.blk
		v.rows = c.Rows()
		if r.store != nil {
			// With a store attached the block can be evicted mid-scan (or
			// already is): give the view the pin/reload hook.
			v.chunk, v.rel = c, r
		}
	} else {
		// The column copy pins the snapshot's slice headers (a bulk load may
		// install null flags later, under the write lock) and the watermark
		// bounds every accessor, so the view never reads past snapshot state.
		n := p.hot.n.Load()
		v.rows = int(n)
		snap := &HotChunk{cols: append([]hotCol(nil), p.hot.cols...)}
		snap.n.Store(n)
		v.hot = snap
	}
	v.retired, v.born = c.retired.load(), c.born.load()
	return v
}

// NumRows returns the live tuple count.
func (r *Relation) NumRows() int {
	return int(r.live.Load())
}

// newHotChunk allocates a hot chunk with full-capacity backing arrays:
// growth never reallocates, so the slice headers are immutable and a
// snapshot that copies them stays coherent with appends that hold only a
// stripe lock. Nullable columns get their null flags eagerly for the same
// reason (non-nullable columns can only gain them through BulkAppend,
// which holds the write lock).
func (r *Relation) newHotChunk() *HotChunk {
	h := &HotChunk{cols: make([]hotCol, r.schema.NumColumns())}
	for i, col := range r.schema.Columns {
		h.cols[i].kind = col.Kind
		switch col.Kind {
		case types.Int64:
			h.cols[i].ints = make([]int64, r.chunkCap)
		case types.Float64:
			h.cols[i].floats = make([]float64, r.chunkCap)
		default:
			h.cols[i].strs = make([]string, r.chunkCap)
		}
		if col.Nullable {
			h.cols[i].nulls = make([]bool, r.chunkCap)
		}
	}
	return h
}

// ensureTail returns the stripe's hot tail chunk, rolling over to a fresh
// chunk when there is none, the tail is claimed by a freeze, or it is
// full. Caller holds st.mu only; rollover grows the chunk list under a
// brief relation write lock. Callers already inside r.mu use
// ensureTailLocked instead.
func (r *Relation) ensureTail(st *relStripe, sIdx int) (*Chunk, int) {
	if c := st.tail; c != nil && c.State() == ChunkHot && c.pay.Load().hot.Rows() < r.chunkCap {
		return c, st.tailOrd
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ensureTailLocked(st, sIdx)
}

// ensureTailLocked is ensureTail for callers that hold both st.mu and the
// relation write lock.
func (r *Relation) ensureTailLocked(st *relStripe, sIdx int) (*Chunk, int) {
	if c := st.tail; c != nil && c.State() == ChunkHot && c.pay.Load().hot.Rows() < r.chunkCap {
		return c, st.tailOrd
	}
	c := newChunk(r.newHotChunk(), int32(sIdx))
	r.chunks = append(r.chunks, c)
	st.tail, st.tailOrd = c, len(r.chunks)-1
	return c, st.tailOrd
}

// validateRow checks a row against the schema without touching storage, so
// rejected rows leave the relation unchanged.
func (r *Relation) validateRow(row types.Row) error {
	if len(row) != r.schema.NumColumns() {
		return fmt.Errorf("storage: row has %d values, schema has %d", len(row), r.schema.NumColumns())
	}
	for i, v := range row {
		if v.IsNull() {
			if !r.schema.Columns[i].Nullable {
				return fmt.Errorf("storage: NULL in non-nullable column %q", r.schema.Columns[i].Name)
			}
			continue
		}
		if v.Kind() != r.schema.Columns[i].Kind {
			return fmt.Errorf("storage: column %q expects %v, got %v",
				r.schema.Columns[i].Name, r.schema.Columns[i].Kind, v.Kind())
		}
	}
	return nil
}

// Insert appends one tuple and returns its stable identifier. It is the
// single-writer entry point, routing to stripe 0; concurrent writers use
// InsertStripe with distinct stripes.
func (r *Relation) Insert(row types.Row) (TupleID, error) {
	return r.InsertStripe(0, row)
}

// InsertStripe appends one tuple through write stripe s, holding only that
// stripe's appender lock (plus a brief relation lock on chunk rollover).
// Callers on distinct stripes append concurrently.
func (r *Relation) InsertStripe(s int, row types.Row) (TupleID, error) {
	if err := r.validateRow(row); err != nil {
		return TupleID{}, err
	}
	st := &r.stripes[s]
	st.mu.Lock()
	c, ci := r.ensureTail(st, s)
	tid := r.appendRow(c, ci, row, 0)
	st.mu.Unlock()
	r.live.Add(1)
	return tid, nil
}

// appendRow appends a pre-validated row to the resolved tail chunk c
// (ordinal ci, from ensureTail or ensureTailLocked), born at the given
// stamp: 0 for a plain insert, pendingEpoch for an update version awaiting
// its commit. The stamp is stored
// *before* the row count is published, so whoever can see the row sees its
// stamp. Caller holds the owning stripe's mu and adjusts the live count.
func (r *Relation) appendRow(c *Chunk, ci int, row types.Row, born uint64) TupleID {
	h := c.pay.Load().hot
	n := h.Rows()
	if born != 0 {
		c.born.ensure(r.chunkCap)[n].Store(born)
		c.bornCount.Add(1)
	}
	for i, v := range row {
		col := &h.cols[i]
		if col.nulls != nil {
			col.nulls[n] = v.IsNull()
		}
		switch col.kind {
		case types.Int64:
			if v.IsNull() {
				col.ints[n] = 0
			} else {
				col.ints[n] = v.Int()
			}
		case types.Float64:
			if v.IsNull() {
				col.floats[n] = 0
			} else {
				col.floats[n] = v.Float()
			}
		default:
			if v.IsNull() {
				col.strs[n] = ""
			} else {
				col.strs[n] = v.Str()
			}
		}
	}
	// Publish the row only after its values are in place: the row count is
	// the watermark snapshots read, and its atomic store orders the value
	// writes before any reader that loads it.
	h.n.Store(int32(n + 1))
	return TupleID{Chunk: uint32(ci), Row: uint32(n)}
}

// BulkAppend loads n pre-columnarized tuples, splitting them across chunks.
// It is the fast path for data generators and loaders.
func (r *Relation) BulkAppend(cols []core.ColumnData, n int) error {
	_, err := r.BulkAppendTracked(cols, n)
	return err
}

// BulkAppendTracked is BulkAppend returning the ordinals of every chunk
// the load touched, in order — the bookkeeping a write-ahead-logged bulk
// load needs to tie its WAL records to chunk durability.
func (r *Relation) BulkAppendTracked(cols []core.ColumnData, n int) ([]uint32, error) {
	if len(cols) != r.schema.NumColumns() {
		return nil, fmt.Errorf("storage: %d columns, schema has %d", len(cols), r.schema.NumColumns())
	}
	// Bulk loads go through stripe 0 and additionally hold the relation
	// write lock for the whole load: they may install null flags on
	// existing chunks, which the snapshot header-copy otherwise relies on
	// never changing.
	st := &r.stripes[0]
	st.mu.Lock()
	defer st.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	var ords []uint32
	off := 0
	for off < n {
		c, ord := r.ensureTailLocked(st, 0)
		if len(ords) == 0 || ords[len(ords)-1] != uint32(ord) {
			ords = append(ords, uint32(ord))
		}
		h := c.pay.Load().hot
		hn := h.Rows()
		span := r.chunkCap - hn
		if span > n-off {
			span = n - off
		}
		for i := range cols {
			col := &h.cols[i]
			src := &cols[i]
			switch col.kind {
			case types.Int64:
				copy(col.ints[hn:hn+span], src.Ints[off:off+span])
			case types.Float64:
				copy(col.floats[hn:hn+span], src.Floats[off:off+span])
			default:
				copy(col.strs[hn:hn+span], src.Strs[off:off+span])
			}
			if src.Nulls != nil {
				if col.nulls == nil {
					hasNull := false
					for _, b := range src.Nulls[off : off+span] {
						if b {
							hasNull = true
							break
						}
					}
					if hasNull {
						// Lazily install full-capacity null flags; rows below
						// hn had none, and the zero value says so.
						col.nulls = make([]bool, r.chunkCap)
					}
				}
				if col.nulls != nil {
					copy(col.nulls[hn:hn+span], src.Nulls[off:off+span])
				}
			}
		}
		h.n.Store(int32(hn + span))
		r.live.Add(int64(span))
		off += span
	}
	return ords, nil
}

// Delete flags the tuple as deleted, stamping it with a fresh write
// epoch. Frozen tuples keep their slot (§3: frozen records are marked
// with a flag); hot tuples likewise, preserving tuple identifiers. It
// reports whether the tuple existed and was live. Readers that captured
// an earlier epoch keep seeing the tuple.
func (r *Relation) Delete(tid TupleID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.deleteLocked(tid)
}

// deleteLocked flags a tuple under the write lock held by the caller,
// stamping it with a freshly minted epoch.
func (r *Relation) deleteLocked(tid TupleID) bool {
	c, ok := r.chunkFor(tid)
	if !ok || !r.retireLocked(c, tid.Row, r.epoch.Add(1)) {
		return false
	}
	r.live.Add(-1)
	return true
}

// retireLocked stamps row as retired at epoch e, reporting false when it
// already was. Caller holds the write lock.
func (r *Relation) retireLocked(c *Chunk, row uint32, e uint64) bool {
	s := &c.retired.ensure(r.chunkCap)[row]
	if s.Load() != 0 {
		return false
	}
	s.Store(e + 1)
	c.retiredCount.Add(1)
	c.numDeleted.Add(1)
	return true
}

// InsertPending appends a new row version that is invisible to every
// reader and snapshot (born at +inf) until CommitUpdate stamps it. It is
// step one of the anomaly-free update protocol: insert the new version,
// publish its identifier in the index, then commit. The pending row does
// not count as live.
func (r *Relation) InsertPending(row types.Row) (TupleID, error) {
	return r.InsertPendingStripe(0, row)
}

// InsertPendingStripe is InsertPending through write stripe s, holding
// only that stripe's appender lock. It is step one of the striped update
// protocol; the commit still serializes on the relation lock.
func (r *Relation) InsertPendingStripe(s int, row types.Row) (TupleID, error) {
	if err := r.validateRow(row); err != nil {
		return TupleID{}, err
	}
	st := &r.stripes[s]
	st.mu.Lock()
	c, ci := r.ensureTail(st, s)
	c.pending.Add(1)
	tid := r.appendRow(c, ci, row, pendingEpoch)
	st.mu.Unlock()
	return tid, nil
}

// CommitUpdate atomically makes the pending row newTid visible and
// retires oldTid, both stamped with the same freshly minted write epoch;
// any reader epoch therefore sees exactly one of the two versions. It
// returns the commit epoch, and false if oldTid is already dead or either
// identifier is unknown (the caller should AbortPending the new version).
func (r *Relation) CommitUpdate(oldTid, newTid TupleID) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	nc, ok := r.chunkFor(newTid)
	if !ok {
		return 0, false
	}
	oc, ok := r.chunkFor(oldTid)
	if !ok {
		return 0, false
	}
	if ret := oc.retired.load(); ret != nil && ret[oldTid.Row].Load() != 0 {
		return 0, false
	}
	e := r.epoch.Add(1)
	nc.born.ensure(r.chunkCap)[newTid.Row].Store(e)
	nc.pending.Add(-1)
	r.retireLocked(oc, oldTid.Row, e)
	// Live count is unchanged: the old version leaves, the new one enters.
	return e, true
}

// AbortPending discards a pending row inserted by InsertPending: the row
// keeps its slot but is retired before every epoch, invisible to every
// reader past and future. It must only be called on a row whose commit
// never happened.
func (r *Relation) AbortPending(tid TupleID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.chunkFor(tid)
	if !ok {
		return
	}
	if r.retireLocked(c, tid.Row, 0) {
		c.pending.Add(-1)
	}
}

func (r *Relation) chunkFor(tid TupleID) (*Chunk, bool) {
	if int(tid.Chunk) >= len(r.chunks) {
		return nil, false
	}
	c := r.chunks[tid.Chunk]
	if int(tid.Row) >= c.Rows() {
		return nil, false
	}
	return c, true
}

// Visibility reports the outcome of an epoch-aware point read: either the
// tuple is visible, or *why* it is not — the distinction an index needs
// to decide between falling back to a previous version, retrying with a
// fresh epoch, or reporting a true miss.
type Visibility uint8

const (
	// Visible: the tuple was born at or before the read epoch and not
	// retired at or before it.
	Visible Visibility = iota
	// NotYetBorn: the tuple version was committed after the read epoch
	// (or is still pending). The reader should resolve the previous
	// version, or retry with a fresh epoch if it has none.
	NotYetBorn
	// Retired: the tuple was delete-flagged at or before the read epoch.
	Retired
	// Absent: the tuple identifier does not address a row.
	Absent
	// Unavailable: the tuple is visible but its evicted block could not
	// be reloaded from the block store (I/O error or corruption). The
	// failure is recorded on the relation — see LoadError — so it cannot
	// be mistaken for a clean miss.
	Unavailable
)

// String names the visibility for diagnostics.
func (v Visibility) String() string {
	switch v {
	case Visible:
		return "visible"
	case NotYetBorn:
		return "not-yet-born"
	case Retired:
		return "retired"
	case Unavailable:
		return "unavailable"
	default:
		return "absent"
	}
}

// Get materializes the tuple at the current write epoch, or reports false
// if it is deleted, pending or absent.
func (r *Relation) Get(tid TupleID) (types.Row, bool) {
	row, vis := r.GetAt(tid, r.epoch.Load())
	return row, vis == Visible
}

// GetAt materializes the tuple as seen by a reader at epoch e: exactly
// the version visible at that epoch — for a tuple mid-update, the pre- or
// the post-commit version, never neither. The returned Visibility
// explains an invisible result. For evicted chunks the block is pinned
// and reloaded outside the relation lock; a reload failure reports
// Unavailable (and LoadError), never a fabricated miss.
func (r *Relation) GetAt(tid TupleID, e uint64) (types.Row, Visibility) {
	r.mu.RLock()
	c, vis := r.visibilityLocked(tid, e)
	if vis != Visible {
		r.mu.RUnlock()
		return nil, vis
	}
	c.access.Add(1) // lookup touch
	row := make(types.Row, r.schema.NumColumns())
	p := c.pay.Load()
	if p.hot != nil || (p.blk != nil && r.store == nil) {
		// Hot, or frozen with no store attached (the payload cannot leave
		// RAM): materialize under the read lock as before.
		defer r.mu.RUnlock()
		if p.blk != nil {
			p.blk.Row(int(tid.Row), row)
			return row, Visible
		}
		for i := range row {
			row[i] = p.hot.Value(i, int(tid.Row))
		}
		return row, Visible
	}
	// Frozen with a store (evictable) or already evicted: drop the lock
	// and read through a pin. Visibility cannot regress — the stamps that
	// decided it are monotone in the epoch and frozen rows never move.
	r.mu.RUnlock()
	blk, unpin, _, err := r.pinBlock(c, nil)
	if err != nil {
		r.noteLoadError(err)
		return nil, Unavailable
	}
	defer unpin()
	blk.Row(int(tid.Row), row)
	return row, Visible
}

// visibilityLocked resolves a tuple identifier and classifies its
// visibility at epoch e. Caller holds at least the read lock.
func (r *Relation) visibilityLocked(tid TupleID, e uint64) (*Chunk, Visibility) {
	c, ok := r.chunkFor(tid)
	if !ok {
		return nil, Absent
	}
	return c, visibleAt(c.retired.load(), c.born.load(), tid.Row, e)
}

// FreezeChunk compresses chunk i into a Data Block. With a non-negative
// SortBy, deleted tuples are compacted away and rows are reordered, which
// invalidates tuple identifiers — callers must rebuild indexes (the paper's
// freeze-with-sort likewise re-orders tuples, §3.2), and the whole pass
// runs under the relation write lock (stop-the-world).
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
	if opts.SortBy >= 0 {
		return r.freezeChunkSorted(i, opts)
	}
	c, cols, n, err := r.beginFreeze(i)
	if err != nil || c == nil {
		return err
	}
	start := time.Now()
	blk, err := freezeBlock(cols, n, opts)
	if err == nil {
		r.noteFreeze(blk, time.Since(start), false)
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

// beginFreeze claims chunk i for an unsorted freeze: under the owner
// stripe's appender lock and a brief relation write lock it transitions
// hot→freezing and snapshots the hot column data. Claiming under the
// stripe lock is what makes the snapshot complete — a stripe append in
// flight would otherwise publish a row after the freeze captured the row
// count, and the row would vanish with the hot payload. The returned
// chunk is nil when the chunk is already frozen or freezing.
func (r *Relation) beginFreeze(i int) (*Chunk, []core.ColumnData, int, error) {
	r.mu.RLock()
	if i < 0 || i >= len(r.chunks) {
		r.mu.RUnlock()
		return nil, nil, 0, fmt.Errorf("storage: chunk %d out of range", i)
	}
	c := r.chunks[i]
	r.mu.RUnlock()
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
		return nil, nil, 0, nil
	}
	h := c.pay.Load().hot
	n := h.Rows()
	if n == 0 {
		return nil, nil, 0, errors.New("storage: cannot freeze empty chunk")
	}
	c.state.Store(uint32(ChunkFreezing))
	// Rows below n are immutable and the freezing state bars further
	// appends, so the snapshotted slice headers may be read without the
	// lock while core.Freeze compresses them.
	return c, h.Columns(n), n, nil
}

// freezeChunkSorted is the stop-the-world sorted freeze: deleted tuples are
// compacted away and rows reordered under the relation write lock.
func (r *Relation) freezeChunkSorted(i int, opts core.FreezeOptions) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.chunks) {
		return fmt.Errorf("storage: chunk %d out of range", i)
	}
	c := r.chunks[i]
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
	cols := make([]core.ColumnData, len(h.cols))
	for ci := range h.cols {
		col := &h.cols[ci]
		cd := core.ColumnData{Kind: col.kind}
		switch col.kind {
		case types.Int64:
			cd.Ints = gatherI64(col.ints[:total], keep)
		case types.Float64:
			cd.Floats = gatherF64(col.floats[:total], keep)
		default:
			cd.Strs = gatherStr(col.strs[:total], keep)
		}
		if col.nulls != nil {
			cd.Nulls = gatherBool(col.nulls[:total], keep)
		}
		cols[ci] = cd
	}
	start := time.Now()
	blk, err := freezeBlock(cols, n, opts)
	if err != nil {
		return err
	}
	r.noteFreeze(blk, time.Since(start), true)
	r.installBlockLocked(c, blk)
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
	last := len(r.chunks)
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
			if !skip[i] && r.chunks[i].pending.Load() != 0 {
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
	n := 0
	for i, c := range r.chunks {
		if c.State() != ChunkHot || tails[c] {
			continue
		}
		if len(tails) == 0 && i+1 == len(r.chunks) {
			// No stripe tails this lifetime: the positional last chunk is
			// the would-be tail.
			continue
		}
		n++
	}
	return n
}

func gatherI64(src []int64, keep []uint32) []int64 {
	if keep == nil {
		return src
	}
	out := make([]int64, len(keep))
	for i, p := range keep {
		out[i] = src[p]
	}
	return out
}

func gatherF64(src []float64, keep []uint32) []float64 {
	if keep == nil {
		return src
	}
	out := make([]float64, len(keep))
	for i, p := range keep {
		out[i] = src[p]
	}
	return out
}

func gatherStr(src []string, keep []uint32) []string {
	if keep == nil {
		return src
	}
	out := make([]string, len(keep))
	for i, p := range keep {
		out[i] = src[p]
	}
	return out
}

func gatherBool(src []bool, keep []uint32) []bool {
	if keep == nil {
		return src
	}
	out := make([]bool, len(keep))
	for i, p := range keep {
		out[i] = src[p]
	}
	return out
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
	for _, c := range r.chunks {
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

// maybeWakeEvictor nudges the owner's compactor when the resident frozen
// set exceeds the budget. Called without locks held.
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
	r.mu.RLock()
	if i < 0 || i >= len(r.chunks) {
		r.mu.RUnlock()
		return false, fmt.Errorf("storage: chunk %d out of range", i)
	}
	c := r.chunks[i]
	r.mu.RUnlock()
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
// background compactor on the over-budget wake.
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
	r.chunks = append(r.chunks, c)
	r.mu.Unlock()
	r.live.Add(int64(rows - numDeleted))
	return nil
}

// ChunkDurable reports whether chunk i has been frozen AND flushed to the
// block store — the point past which a write-ahead log no longer needs to
// cover its rows. Out-of-range ordinals report false.
func (r *Relation) ChunkDurable(i int) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if i < 0 || i >= len(r.chunks) {
		return false
	}
	c := r.chunks[i]
	return c.IsFrozen() && c.handle.Load() != 0
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
	out := make([]blockstore.ManifestChunk, 0, len(r.chunks))
	for _, c := range r.chunks {
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

// ColdStats summarizes the relation's cold-store traffic.
type ColdStats struct {
	// Evictions counts Frozen→Evicted transitions. Collapses counts
	// single-flight reload collapses: pinners that waited out a concurrent
	// reload and shared its disk read instead of issuing their own.
	Evictions, Reloads, Collapses int64
	// Reloads counts pins that had to read from the store — whole blocks
	// or single attributes. ResidentBytes is the compressed frozen set
	// currently in RAM: the loaded attributes of every block plus the
	// directories evicted chunks keep; BudgetBytes the configured ceiling
	// (0: unbounded).
	ResidentBytes, BudgetBytes int64
	// StoredBlocks/DiskBytes describe the store's on-disk footprint.
	StoredBlocks int
	DiskBytes    int64
}

// ColdStatsSnapshot reports eviction/reload counts and residency. Zero
// values when no block store is attached.
func (r *Relation) ColdStatsSnapshot() ColdStats {
	s := ColdStats{
		Evictions: r.evictions.Load(),
		Reloads:   r.reloads.Load(),
		Collapses: r.collapses.Load(),
	}
	if r.cache != nil {
		cs := r.cache.Stats()
		s.ResidentBytes, s.BudgetBytes = cs.ResidentBytes, cs.BudgetBytes
	}
	if r.store != nil {
		ss := r.store.Stats()
		s.StoredBlocks, s.DiskBytes = ss.Blocks, ss.DiskBytes
	}
	return s
}

// MemStats summarizes a relation's footprint. FrozenBytes covers what is
// resident in RAM — the loaded attributes of frozen blocks and the block
// directories kept for chunks that have been to the store; EvictedBytes is
// the compressed size of what currently lives only in the block store:
// evicted blocks, and the attributes a partly loaded block lacks.
type MemStats struct {
	HotBytes      int
	FrozenBytes   int
	EvictedBytes  int
	HotChunks     int
	FrozenChunks  int
	EvictedChunks int
	Rows          int
	DeletedRows   int
}

// TotalBytes returns the combined in-RAM footprint (evicted blocks are
// on disk and excluded).
func (m MemStats) TotalBytes() int { return m.HotBytes + m.FrozenBytes }

// MemoryStats reports the relation's current footprint, separating hot
// uncompressed storage from frozen Data Blocks (the quantity Table 1 and
// Figure 10 measure). Freezing chunks still count as hot: their block has
// not been installed yet.
func (r *Relation) MemoryStats() MemStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var m MemStats
	for _, c := range r.chunks {
		m.DeletedRows += int(c.numDeleted.Load())
		m.Rows += c.Rows()
		if d := c.dir.Load(); d != nil {
			m.FrozenBytes += d.Size()
		}
		p := c.pay.Load()
		if p.blk != nil {
			m.FrozenChunks++
			loaded := p.blk.CompressedSize()
			m.FrozenBytes += loaded
			if !p.blk.Has(nil) {
				m.EvictedBytes += int(c.frozenBytes.Load()) - loaded
			}
			continue
		}
		if p.hot == nil {
			m.EvictedChunks++
			m.EvictedBytes += int(c.frozenBytes.Load())
			continue
		}
		m.HotChunks++
		h := p.hot
		hn := h.Rows()
		for ci := range h.cols {
			col := &h.cols[ci]
			switch col.kind {
			case types.Int64, types.Float64:
				m.HotBytes += 8 * hn
			default:
				for _, s := range col.strs[:hn] {
					m.HotBytes += len(s) + 16
				}
			}
			if col.nulls != nil {
				m.HotBytes += hn
			}
		}
	}
	return m
}

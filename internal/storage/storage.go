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
//     protocol InsertPendingStripe/CommitUpdate/AbortPending, each O(1).
//     Appends serialize per write stripe (SetWriteStripes): InsertStripe
//     and InsertPendingStripe on distinct stripes run concurrently,
//     holding only their stripe's appender lock; the single-writer entry
//     points route to stripe 0. Deletes and commits still serialize on
//     the relation lock — they are cross-stripe (any stripe's row) and
//     epoch-minting.
//   - OLTP reads: Get, GetAt, which take no relation lock.
//   - OLAP scans: Snapshot returns ChunkViews pinned to an epoch cutoff;
//     scan drivers iterate a snapshot and never observe row versions
//     committed after the cutoff. A view hands the vectorized scan its
//     chunk in one of core's two layouts — Block, or Hot().Columns, the
//     one uncompressed column core.ColumnData — and a hot chunk is read
//     only through HotChunk.Columns and core's column functions: freeze,
//     scan, point read and index rebuild alike.
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
// at. Writers hold the write lock, write their stamps with the next epoch
// and only then publish it (epoch.Store), so a reader that loaded an
// epoch finds every stamp made at or below it, and the stamps of one
// commit become visible atomically. A reader that captured epoch E
// therefore has an exact visibility rule: a row is visible at E iff it
// was born at or before E and not retired at or before E. GetAt
// evaluates that rule for point reads without the relation lock — the
// chunk directory and the stamps are atomic, hot rows below the
// watermark and frozen blocks immutable — and reports *why* an invisible
// row is invisible (not yet born versus already retired), which is what
// lets an index with version records fall back to the previous version
// of a tuple that is mid-update — closing the update/lookup read
// anomaly: a key that exists at all times resolves to either its pre- or
// its post-update version, never to neither.
//
// The two stamps are all the visibility state a chunk has (Chunk.retired,
// Chunk.born): there is no separate delete flag — a row is deleted when
// its retired slot is non-zero — and visibleAt, a function of the row's
// two slots and the reader's epoch, is the only place the rule is written.
// The per-chunk counters are telemetry; no read consults them.
//
// The three-step update protocol orders the steps so that no read epoch
// ever observes a gap: InsertPendingStripe appends the new version
// invisibly (born at +inf), the caller publishes the new tuple identifier
// in its index, and CommitUpdate atomically (one epoch) makes the new
// version visible and retires the old one. Between the steps, readers
// resolve the old version; after commit, the epoch decides.
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
//     an index rebuild the key column, UnevictAll every column (nil). A
//     point read (GetAt) pins only to load: it reads a block that holds
//     every attribute without a pin (the block is immutable and kept alive
//     by the reference it loaded; an eviction only drops the chunk's
//     pointer), and pins, for every column, an evicted or partly loaded
//     one. A pin whose columns are all loaded is one payload load and one
//     check; otherwise the missing attributes' sections are read from the
//     store — adjacent ones in one read, each verified by its own checksum
//     — outside the relation lock and single-flighted per chunk (loadMu),
//     so concurrent readers of one chunk never read an attribute twice.
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
// and must not overlap other writers, a background freezer or point
// reads, which that lock no longer excludes — quiesce the relation first
// (Table.Lookup waits on its own reorganization generation). A sorted
// freeze that runs beside writers is the parked "temperature-driven and
// incremental sorted freeze" item of ROADMAP.md.
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
	"fmt"
	"sync"
	"sync/atomic"

	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/types"
)

// TupleID addresses one tuple: a chunk ordinal and a row within the chunk.
type TupleID struct {
	Chunk uint32
	Row   uint32
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
	dir      chunkDir

	// stripes are the append lanes (at least one). The slice itself is
	// fixed before concurrent use (SetWriteStripes); single-writer callers
	// use stripe 0 through the Insert entry point.
	stripes []relStripe

	// live is the live tuple count, maintained atomically because stripe
	// appends run outside the relation lock.
	live atomic.Int64

	// epoch is the monotonically increasing write epoch. Deletes and
	// update commits stamp the affected rows with epoch+1 under the write
	// lock and then store it; readers capture it (ReadEpoch, Snapshot) to
	// pin a visibility cutoff.
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

// chunkDir is the relation's chunk directory: chunk ordinal i is the
// i-th chunk published, and the list only grows. publish is the only
// append and runs under the relation write lock; list is one atomic load,
// so point reads resolve a chunk without the relation lock.
type chunkDir struct {
	chunks atomic.Pointer[[]*Chunk]
}

// publish appends c and returns its ordinal. Caller holds the write lock.
func (d *chunkDir) publish(c *Chunk) int {
	chunks := append(d.list(), c)
	d.chunks.Store(&chunks)
	return len(chunks) - 1
}

// list returns the published chunks in ordinal order. Callers must not
// modify the slice.
func (d *chunkDir) list() []*Chunk {
	if p := d.chunks.Load(); p != nil {
		return *p
	}
	return nil
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
// relation sees any insert or concurrent use; the single-writer entry
// points (Insert, BulkAppend) keep routing to stripe 0.
func (r *Relation) SetWriteStripes(n int) {
	if n < 1 {
		n = 1
	}
	r.stripes = make([]relStripe, n)
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *types.Schema { return r.schema }

// ChunkCapacity returns the per-chunk row limit.
func (r *Relation) ChunkCapacity() int { return r.chunkCap }

// NumChunks returns the number of chunks.
func (r *Relation) NumChunks() int { return len(r.dir.list()) }

// Chunk returns chunk i. The chunk list only grows, so a retrieved chunk
// stays valid; hot chunks may keep receiving appends.
func (r *Relation) Chunk(i int) *Chunk { return r.dir.list()[i] }

// chunkAt is Chunk for callers that take the ordinal from outside: an
// ordinal that addresses no chunk is an error.
func (r *Relation) chunkAt(i int) (*Chunk, error) {
	if chunks := r.dir.list(); i >= 0 && i < len(chunks) {
		return chunks[i], nil
	}
	return nil, fmt.Errorf("storage: chunk %d out of range", i)
}

// Chunks returns a snapshot of the chunk list. The *Chunk handles track
// live state; concurrent scans should prefer Snapshot.
func (r *Relation) Chunks() []*Chunk {
	return append([]*Chunk(nil), r.dir.list()...)
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
	chunks := r.dir.list()
	views := make([]ChunkView, len(chunks))
	for i, c := range chunks {
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
	c.access.Inc(0) // scan touch: temperature for the eviction policy
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
		// The column headers never change after the chunk is allocated;
		// the watermark bounds every accessor, so the view never reads
		// past snapshot state.
		n := p.hot.n.Load()
		v.rows = int(n)
		snap := &HotChunk{cols: p.hot.cols}
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

func (r *Relation) chunkFor(tid TupleID) (*Chunk, bool) {
	chunks := r.dir.list()
	if int(tid.Chunk) >= len(chunks) {
		return nil, false
	}
	c := chunks[tid.Chunk]
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
// explains an invisible result. It takes no relation lock: the chunk
// directory and the stamps are atomic, hot rows below the watermark and
// frozen blocks are immutable, and writers stamp before they publish the
// epoch that makes a stamp count. Only a block that lacks attributes is
// pinned, and reloaded; a reload failure reports Unavailable (and
// LoadError), never a fabricated miss.
func (r *Relation) GetAt(tid TupleID, e uint64) (types.Row, Visibility) {
	c, ok := r.chunkFor(tid)
	if !ok {
		return nil, Absent
	}
	if vis := visibleAt(c.retired.load(), c.born.load(), tid.Row, e); vis != Visible {
		return nil, vis
	}
	c.access.Inc(uint64(tid.Row)) // lookup touch
	row := make(types.Row, r.schema.NumColumns())
	p := c.pay.Load()
	if p.hot != nil {
		for i := range row {
			row[i] = core.Cell(&p.hot.cols[i], int(tid.Row))
		}
		return row, Visible
	}
	blk := p.blk
	if blk == nil || !blk.Has(nil) {
		// Evicted or partly loaded: load the rest through a pin.
		pinned, unpin, _, err := r.pinBlock(c, nil)
		if err != nil {
			r.noteLoadError(err)
			return nil, Unavailable
		}
		defer unpin()
		blk = pinned
	}
	blk.Row(int(tid.Row), row)
	return row, Visible
}

// Package datablocks is a Go implementation of Data Blocks — the
// compressed columnar storage format for hybrid OLTP & OLAP database
// systems introduced by Lang et al. (SIGMOD 2016) for HyPer.
//
// Relations are divided into fixed-size chunks. Hot chunks remain
// uncompressed and writable; cold chunks are frozen into immutable,
// self-contained Data Blocks that choose the optimal byte-addressable
// compression per attribute (single value, order-preserving dictionary,
// truncation), carry min/max SMAs and Positional SMA (PSMA) lookup tables,
// and still serve O(1) point accesses for transactional workloads.
// Analytical scans evaluate SARGable predicates directly on the compressed
// data with SIMD-within-a-register kernels, narrow scan ranges with SMAs
// and PSMAs, and feed compiled tuple-at-a-time query pipelines through an
// interpreted vectorized scan layer.
//
// The top-level API covers table management, OLTP operations (insert,
// point lookup, delete, update), freezing, predicate scans, a physical
// query-plan layer (joins, aggregation, ordering) and durable databases
// (OpenPath: a versioned on-disk catalog plus per-table block manifests
// make the data directory survive process restarts). See the examples
// directory for end-to-end usage and ARCHITECTURE.md for the
// paper-to-module map and the on-disk format.
package datablocks

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/index"
	"datablocks/internal/obs"
	"datablocks/internal/simd"
	"datablocks/internal/storage"
	"datablocks/internal/types"
	"datablocks/internal/wal"
	"datablocks/internal/walfs"
)

// Re-exported fundamental types, so users need only this package.
type (
	// Kind is a logical column type.
	Kind = types.Kind
	// Column describes one attribute.
	Column = types.Column
	// Value is a dynamically typed cell.
	Value = types.Value
	// Row is a tuple of values.
	Row = types.Row
	// ColumnData is one column of a pre-columnarized BulkLoad batch.
	ColumnData = core.ColumnData
	// CompareOp is a SARGable comparison operator.
	CompareOp = types.CompareOp
	// MemStats summarizes a table's memory footprint.
	MemStats = storage.MemStats
	// ColdStats summarizes a table's cold-store traffic (evictions,
	// reloads, residency against the budget, on-disk footprint).
	ColdStats = storage.ColdStats
	// StoreStats is the block store's raw I/O ledger.
	StoreStats = blockstore.StoreStats
	// QueryProfile is the EXPLAIN-ANALYZE view of a profiled query
	// (QueryOptions.Profile), attached to Result.Profile.
	QueryProfile = exec.QueryProfile
	// TupleID is a stable tuple identifier.
	TupleID = storage.TupleID
	// Result is a materialized query result.
	Result = exec.Result
	// QueryOptions configures plan execution.
	QueryOptions = exec.Options
	// ScanMode selects the scan flavor (JIT, vectorized, +SARG, +PSMA).
	ScanMode = exec.ScanMode
	// Node is a physical query-plan operator.
	Node = exec.Node
	// Expr is a scalar expression for filters, projections and aggregates.
	Expr = exec.Expr
)

// Column kinds.
const (
	Int64   = types.Int64
	Float64 = types.Float64
	String  = types.String
)

// Comparison operators.
const (
	Eq        = types.Eq
	Ne        = types.Ne
	Lt        = types.Lt
	Le        = types.Le
	Gt        = types.Gt
	Ge        = types.Ge
	Between   = types.Between
	IsNull    = types.IsNull
	IsNotNull = types.IsNotNull
	Prefix    = types.Prefix
)

// Scan modes (Table 2 configurations).
const (
	ModeJIT                = exec.ModeJIT
	ModeVectorized         = exec.ModeVectorized
	ModeVectorizedSARG     = exec.ModeVectorizedSARG
	ModeVectorizedSARGPSMA = exec.ModeVectorizedSARGPSMA
)

// Value constructors.
var (
	Int       = types.IntValue
	Float     = types.FloatValue
	Str       = types.StringValue
	Null      = types.NullValue
	Date      = types.DateValue
	NewSchema = types.NewSchema
)

// Expression constructors for the plan layer.
var (
	Col      = exec.Col
	CInt     = exec.CInt
	CFloat   = exec.CFloat
	CStr     = exec.CStr
	Add      = exec.Add
	SubE     = exec.Sub
	MulE     = exec.Mul
	DivE     = exec.Div
	CmpE     = exec.Cmp
	AndE     = exec.And
	OrE      = exec.Or
	NotE     = exec.Not
	BetweenE = exec.BetweenE
)

// DB is a collection of named tables. A DB is either in-memory (Open) —
// tables live for the process, block stores are spill caches — or durable
// (OpenPath): the database owns a directory holding a versioned,
// CRC-protected catalog and per-table manifests, and Close makes the
// directory a complete, reopenable image of every table's frozen data.
type DB struct {
	mu       sync.RWMutex
	tables   map[string]*Table
	defaults []TableOption

	// dir is the durable root of an OpenPath database ("" for Open).
	dir string
	// fs is the file layer every table's block store, manifest and WAL
	// go through: walfs.OS, or a FaultFS in the crash tests.
	fs walfs.FS
	// catMu serializes catalog generation bumps and writes.
	catMu  sync.Mutex
	catGen uint64

	// The background worker: one goroutine runs step on each wake-up
	// until stopBackground closes stop; it closes done on exit. The
	// channels are made once and never reassigned.
	wake, stop, done chan struct{}
	stopOnce         sync.Once
}

// Open creates an empty database and starts its one background worker,
// which freezes and evicts for every table created with WithAutoFreeze
// or WithMemoryBudget. Table options passed here become defaults for
// every CreateTable, applied before the table's own options — e.g.
// Open(WithBlockStore(dir), WithMemoryBudget(64<<20)) gives every table a
// cold block store under dir/<table> with a 64 MiB residency budget. Call
// Close to stop the worker, flush frozen blocks to their stores and
// release them; a database that is never closed stays reachable from its
// worker, tables included, until the process exits.
func Open(defaults ...TableOption) *DB {
	db := newDB(walfs.OS, "", defaults)
	go db.background()
	return db
}

// newDB is the database both Open and openPath start from, its worker
// not yet running.
func newDB(fs walfs.FS, dir string, defaults []TableOption) *DB {
	return &DB{tables: make(map[string]*Table), defaults: defaults, dir: dir, fs: fs,
		wake: make(chan struct{}, 1), stop: make(chan struct{}), done: make(chan struct{})}
}

// OpenPath opens (or creates) a durable database rooted at dir. Every
// table — recovered or created later — keeps its frozen Data Blocks under
// dir/<table> together with a generation-stamped manifest, and the
// directory root carries the table catalog, so a process restart
// reconstructs the full table set: OpenPath reads the newest catalog
// generation that verifies, rebuilds each table with every frozen chunk in
// the evicted state (block payloads are reloaded lazily on first touch),
// rebuilds primary-key indexes by streaming keys from the manifest's
// blocks, and garbage-collects block files a previous generation or an
// interrupted write left unreferenced.
//
// Durability covers frozen data: freezes, flushes and Close write the
// manifest atomically, and DB.Close freezes the hot tail first, so a clean
// close reopens to exactly the pre-close contents. Without WithWAL, rows
// still hot at a crash are lost; tables created with WithWAL extend
// durability to every acknowledged write — reopening replays each write
// stripe's log past the newest manifest generation — and carry their
// write-epoch high-water mark across restarts.
//
// The defaults are table options applied to recovered and newly created
// tables alike — use them for runtime tuning such as WithAutoFreeze and
// WithMemoryBudget. Structural options of recovered tables (schema,
// primary key, chunk capacity) come from the catalog and override the
// defaults. A corrupt or torn newest catalog/manifest generation falls
// back to the previous one; a missing catalog opens an empty database.
// A record or directory that cannot be read, and a record of another
// format version, fail the open instead. The database's background
// worker starts once recovery has succeeded: a failed OpenPath leaves
// nothing running.
func OpenPath(dir string, defaults ...TableOption) (*DB, error) {
	return openPath(walfs.OS, dir, defaults...)
}

// openPath is OpenPath on the file layer fs; the crash tests pass a
// walfs.FaultFS.
func openPath(fs walfs.FS, dir string, defaults ...TableOption) (*DB, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("datablocks: %w", err)
	}
	db := newDB(fs, dir, defaults)
	cat, err := blockstore.LoadCatalog(fs, dir)
	if err != nil {
		return nil, fmt.Errorf("datablocks: open %s: %w", dir, err)
	}
	if cat != nil {
		db.catGen = cat.Generation
		blockstore.PruneCatalogs(fs, dir, cat.Generation)
		for _, ct := range cat.Tables {
			// The catalog's structural record is authoritative, applied
			// after the defaults: WithPrimaryKey(ct.PrimaryKey)
			// deliberately runs even when empty, so a DB-level
			// WithPrimaryKey default cannot graft a primary key onto a
			// table that never had one.
			opts := []TableOption{WithChunkRows(ct.ChunkRows), WithPrimaryKey(ct.PrimaryKey), WithWriteStripes(ct.WriteStripes)}
			if ct.Wal {
				opts = append(opts, WithWAL())
			}
			if _, err := db.createTable(ct.Name, ct.Columns, true, opts...); err != nil {
				// The failed table released what it opened; release the
				// tables recovered before it — logs, stores — reporting the
				// recovery error, not a close error.
				for _, t := range db.tables {
					_ = t.release()
				}
				return nil, fmt.Errorf("datablocks: recover table %q: %w", ct.Name, err)
			}
		}
	}
	go db.background()
	return db, nil
}

// Close stops the database's background worker and waits for its step
// in flight to finish. For a durable database (OpenPath) it then freezes
// each table's hot tail, flushes the frozen set to the block store, writes
// each table's manifest and a fresh catalog generation — making the
// directory a complete image of the database for the next OpenPath. For
// an in-memory database, tables whose block store was a pure spill cache
// (never persisted) reload their evicted blocks into RAM and the store's
// files are garbage-collected: the directory holds nothing a future
// process could use, so nothing is left behind. Note the memory
// implication: the reload re-inflates the table's whole frozen set past
// any WithMemoryBudget, which is what keeps the table readable after the
// files are gone — for datasets that genuinely cannot fit in RAM, make
// the database durable (OpenPath) so Close keeps the blocks on disk
// instead.
//
// Close returns the first error encountered, the worker's first error on
// a table included. It also closes the stripe write-ahead logs: on a WAL
// table later writes fail at their group commit. The data otherwise
// remains readable and writable after Close; only background work stops,
// for tables created later too.
func (db *DB) Close() error {
	db.stopBackground()
	var first error
	for _, name := range db.Tables() {
		t := db.Table(name)
		if err := t.close(); err != nil && first == nil {
			first = err
		}
		if !t.persist && t.bs != nil {
			if err := t.dropStoreFiles(); err != nil && first == nil {
				first = err
			}
		}
	}
	if db.dir != "" {
		db.mu.RLock()
		err := db.writeCatalogLocked()
		db.mu.RUnlock()
		if err != nil && first == nil {
			first = err
		}
	}
	return first
}

// background is the database's one worker goroutine. Every wake-up — a
// chunk sealing behind a table's insert tail, a freeze or reload pushing
// a table's resident blocks over its budget, a background table being
// created or recovered — runs one step.
func (db *DB) background() {
	defer close(db.done)
	for {
		select {
		case <-db.stop:
			return
		case <-db.wake:
			db.step()
		}
	}
}

// stopBackground stops the worker and waits for its step in flight.
// Tests call it and then drive the work with step.
func (db *DB) stopBackground() {
	db.stopOnce.Do(func() { close(db.stop) })
	<-db.done
}

// step makes one pass of background work over every table in name order:
// a table whose sealed hot backlog reached its WithAutoFreeze threshold
// is frozen (keeping the insert tail hot) and, if durable, checkpointed,
// so a crash loses at most the hot tail since the last pass; a table with
// a WithMemoryBudget evicts its coldest unpinned blocks until the budget
// holds. Compression, spill and reload run outside the relation lock, so
// OLTP and OLAP traffic continue meanwhile. A table's first error is kept
// for Close. step reports whether anything froze or was evicted, with no
// error.
func (db *DB) step() bool {
	progress, failed := false, false
	ok := func(t *Table, err error) bool {
		if err != nil && t.bgErr == nil {
			t.bgErr = err
		}
		failed = failed || err != nil
		return err == nil
	}
	for _, name := range db.Tables() {
		t := db.Table(name)
		if t.autoFreeze > 0 && t.rel.SealedHotChunks() >= t.autoFreeze {
			err := t.rel.FreezeAll(core.FreezeOptions{SortBy: -1}, true)
			if err == nil {
				err = t.persistFrozen()
			}
			progress = ok(t, err) || progress
		}
		if t.memBudget > 0 {
			n, err := t.rel.EvictUnderBudget()
			progress = ok(t, err) && n > 0 || progress
		}
	}
	return progress && !failed
}

// writeCatalogLocked persists a fresh catalog generation listing every
// durable table. Caller holds db.mu (read or write).
func (db *DB) writeCatalogLocked() error {
	cat := &blockstore.Catalog{}
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := db.tables[n]
		if !t.persist {
			continue
		}
		cat.Tables = append(cat.Tables, blockstore.CatalogTable{
			Name:         t.name,
			Columns:      t.schema.Columns,
			PrimaryKey:   t.pkName,
			ChunkRows:    t.rel.ChunkCapacity(),
			WriteStripes: t.writeStripes,
			Wal:          t.walEnabled,
		})
	}
	db.catMu.Lock()
	defer db.catMu.Unlock()
	db.catGen++
	cat.Generation = db.catGen
	return blockstore.WriteCatalog(db.fs, db.dir, cat)
}

// TableOption customizes table creation.
type TableOption func(*Table)

// WithPrimaryKey maintains a unique hash index on the named int64 column,
// enabling indexed point lookups (Table 3's "PK index" configurations).
// An empty name clears a primary key applied by an earlier option (e.g. a
// database-wide default).
func WithPrimaryKey(col string) TableOption {
	return func(t *Table) { t.pkName = col }
}

// WithChunkRows bounds rows per chunk (default 2^16, the Data Block
// maximum).
func WithChunkRows(n int) TableOption {
	return func(t *Table) { t.chunkRows = n }
}

// WithParallelism sets the table's default morsel parallelism: Scan,
// LookupScan and Table.Query split their work across up to n workers when
// the caller's QueryOptions leave Parallelism at zero. n <= 0 selects
// runtime.GOMAXPROCS(0) at query time. Passed to Open it becomes the
// database-wide default for every table. Callers can always override per
// query via QueryOptions.Parallelism (1 forces serial execution).
func WithParallelism(n int) TableOption {
	return func(t *Table) {
		t.defaultPar = n
		t.hasDefaultPar = true
	}
}

// WithAutoFreeze hands the table to the database's background worker:
// whenever at least threshold chunks have filled up and fallen behind the
// insert tail, the worker freezes them into Data Blocks. Compression
// happens off the write path and outside the relation lock, so OLTP
// writes, point lookups and OLAP scans proceed while cold chunks are
// compressed — the hybrid workload of §1. threshold < 1 is treated as 1
// (freeze as soon as a chunk seals). One worker serves every table of a
// database; DB.Close stops it.
func WithAutoFreeze(threshold int) TableOption {
	if threshold < 1 {
		threshold = 1
	}
	return func(t *Table) { t.autoFreeze = threshold }
}

// WithBlockStore attaches a disk-backed cold block store rooted at
// dir/<table>: frozen chunks become evictable to secondary storage and
// are transparently reloaded (and pinned) when scans or point lookups
// touch them. On its own the store only fills on DB.Close (flush) or
// manual eviction; combine with WithMemoryBudget for automatic
// temperature-driven eviction, and with WithAutoFreeze to keep the
// frozen set growing behind the insert tail.
func WithBlockStore(dir string) TableOption {
	return func(t *Table) { t.storeDir = dir }
}

// WithMemoryBudget bounds the RAM resident set of frozen Data Blocks to
// bytes: whenever freezing or reloading pushes past the budget, the
// database's background worker evicts the coldest unpinned blocks — by
// observed scan/lookup access, not chunk age — to the block store.
// Requires WithBlockStore. The budget governs compressed frozen payloads;
// the uncompressed hot tail and in-flight pinned blocks are outside it.
// One worker serves every table of a database; DB.Close stops it.
func WithMemoryBudget(bytes int64) TableOption {
	return func(t *Table) { t.memBudget = bytes }
}

// WithWriteStripes shards the table's write path into n independent
// stripes (rounded up to a power of two, capped at 256). Each stripe has
// its own write lock, hot-chunk appender and — with WithWAL — write-ahead
// log, so concurrent writers whose primary keys hash to different stripes
// commit in parallel instead of serializing on one table mutex. Rows hash
// to stripes by primary key; tables without a primary key distribute
// inserts round-robin. n <= 1 keeps the classic single-stripe path.
func WithWriteStripes(n int) TableOption {
	return func(t *Table) { t.writeStripes = n }
}

// WithWAL gives each write stripe a durable write-ahead log with group
// commit: an acknowledged Insert, Update, Delete or BulkLoad has been
// fsynced (one fsync acknowledges a whole batch of concurrent writers)
// and survives any later crash — reopening the database replays each
// stripe's log past the newest manifest generation. Requires a durable
// database (OpenPath) and a primary key (replay identifies rows by key).
//
// Error semantics follow the usual WAL discipline: when an append or
// fsync fails, the write reports the error, the log is poisoned and every
// later write fails too. In-memory state may then be ahead of durable
// state for the rest of the process lifetime; what was acknowledged
// before the failure remains durable.
func WithWAL() TableOption {
	return func(t *Table) { t.walEnabled = true }
}

// CreateTable registers a new table. The DB's default options (see Open)
// are applied first, then the table's own. In a durable database
// (OpenPath) the table automatically keeps its frozen blocks under the
// database directory and is registered in the on-disk catalog.
func (db *DB) CreateTable(name string, cols []Column, opts ...TableOption) (*Table, error) {
	return db.createTable(name, cols, false, opts...)
}

// createTable is the shared construction path of CreateTable and catalog
// recovery (fromCatalog): the latter skips the catalog write — the table
// definition just came from it. It holds db.mu across store opening and
// manifest recovery so two racing creations of the same name cannot both
// run recovery (and its garbage collection) against one directory.
func (db *DB) createTable(name string, cols []Column, fromCatalog bool, opts ...TableOption) (*Table, error) {
	t := &Table{name: name, schema: types.NewSchema(cols...), sortBy: -1}
	for _, opt := range db.defaults {
		opt(t)
	}
	for _, opt := range opts {
		opt(t)
	}
	if t.autoFreeze > 0 || t.memBudget > 0 {
		t.wake = db.wake
	}
	if db.dir != "" {
		// Durable database: the table's blocks live under the database
		// root, it is listed in the catalog, and reopen recovers it.
		t.storeDir = db.dir
		t.persist = true
	}
	if t.pkName != "" {
		i := t.schema.ColumnIndex(t.pkName)
		if i < 0 {
			return nil, fmt.Errorf("datablocks: primary key column %q not in schema", t.pkName)
		}
		if t.schema.Columns[i].Kind != types.Int64 {
			return nil, fmt.Errorf("datablocks: primary key column %q must be int64", t.pkName)
		}
		t.pkCol = i
		t.pk = index.NewHash(0)
	} else {
		t.pkCol = -1
	}
	t.writeStripes = normalizeStripes(t.writeStripes)
	t.stripes = make([]tableStripe, t.writeStripes)
	t.rel = storage.NewRelation(t.schema, t.chunkRows)
	t.rel.SetWriteStripes(t.writeStripes)
	if t.memBudget > 0 && t.storeDir == "" {
		return nil, fmt.Errorf("datablocks: WithMemoryBudget on table %q requires WithBlockStore", name)
	}
	if t.walEnabled {
		if !t.persist {
			return nil, fmt.Errorf("datablocks: WithWAL on table %q requires a durable database (OpenPath)", name)
		}
		if t.pk == nil {
			return nil, fmt.Errorf("datablocks: WithWAL on table %q requires a primary key", name)
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[name]; dup {
		return nil, fmt.Errorf("datablocks: table %q already exists", name)
	}
	if t.storeDir != "" {
		if err := t.openStore(db.fs); err != nil {
			_ = t.release() // the open error is the one to report
			return nil, fmt.Errorf("datablocks: table %q: %w", name, err)
		}
	}
	db.tables[name] = t
	if t.persist && !fromCatalog {
		if err := db.writeCatalogLocked(); err != nil {
			delete(db.tables, name)
			_ = t.release() // the catalog error is the one to report
			return nil, fmt.Errorf("datablocks: table %q: %w", name, err)
		}
	}
	// A recovered table's replayed backlog has no later write to
	// announce it.
	t.wakeWorker()
	return t, nil
}

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

// Table returns a table by name, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// Tables returns the table names, sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for n := range db.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

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

// tableOps is the obs-instrument backing of TableOps.
type tableOps struct {
	inserts, updates, deletes obs.Counter
	lookups, lookupMisses     obs.Counter
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
		if err := t.pk.Rebuild(t.rel, t.pkCol); err != nil {
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
		cd := &cols[c]
		if cd.Nulls != nil && i < len(cd.Nulls) && cd.Nulls[i] {
			row[c] = types.NullValue(cd.Kind)
			continue
		}
		switch cd.Kind {
		case types.Int64:
			row[c] = types.IntValue(cd.Ints[i])
		case types.Float64:
			row[c] = types.FloatValue(cd.Floats[i])
		default:
			row[c] = types.StringValue(cd.Strs[i])
		}
	}
	return row
}

// Lookup resolves a primary key through the hash index: the OLTP point
// access path. Works identically on hot and frozen tuples (§3.4).
//
// Lookups are anomaly-free under concurrent updates: the reader captures
// the relation's write epoch *before* resolving the index record, then
// reads the version visible at that epoch — the current tuple, or, while
// an update is mid-flight (new version published but not yet committed,
// or committed after the reader's epoch), the previous version. A key
// that exists at all times therefore always resolves; a miss means the
// key was absent or deleted at the reader's epoch.
func (t *Table) Lookup(key int64) (Row, bool) {
	if t.pk == nil {
		return nil, false
	}
	t.ops.lookups.Inc()
	row, ok := t.lookupVersioned(key)
	if ok {
		t.ops.rowsRead.Inc()
	} else {
		t.ops.lookupMisses.Inc()
	}
	return row, ok
}

// lookupVersioned is Lookup's epoch-retry loop.
func (t *Table) lookupVersioned(key int64) (Row, bool) {
	for {
		// Epoch first, record second: the writer publishes the index
		// record before it commits (mints the epoch) and drops the
		// previous version only after, so a current version newer than
		// our epoch comes either with a previous version or with a commit
		// that a fresh epoch will see.
		e := t.rel.ReadEpoch()
		rec, ok := t.pk.LookupRecord(key)
		if !ok {
			return nil, false
		}
		row, vis := t.rel.GetAt(rec.Cur, e)
		if vis == storage.Visible {
			return row, true
		}
		if vis != storage.NotYetBorn {
			// Cur retired at or before our epoch (and any previous version
			// even earlier): the key was genuinely deleted.
			return nil, false
		}
		if rec.HasPrev {
			prow, pvis := t.rel.GetAt(rec.Prev, e)
			if pvis == storage.Visible {
				return prow, true
			}
			if pvis != storage.NotYetBorn {
				return nil, false
			}
		}
		// Nothing at or before our epoch is on record: the update sealed
		// between our two loads (with a previous version: two commits
		// landed in that window), or Cur is the pending row of a
		// key-changing update in flight, whose writer commits it or takes
		// the record out again (an aborted row stays not-yet-born). A
		// fresh epoch resolves each: a committed version is visible at
		// any later one.
		runtime.Gosched()
	}
}

// LookupScan finds a row by scanning with a SARGable equality predicate —
// Table 3's "no index" configuration, accelerated by SMAs/PSMAs when the
// data is clustered. A scan failure is reported as an error, distinct
// from a clean miss.
func (t *Table) LookupScan(col string, key int64, mode ScanMode) (Row, bool, error) {
	res, err := t.Scan(t.schema.Names(), []Pred{{Col: col, Op: Eq, Lo: Int(key)}}, QueryOptions{Mode: mode})
	if err != nil {
		return nil, false, err
	}
	if res.NumRows() == 0 {
		return nil, false, nil
	}
	return res.Row(0), true, nil
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

// Freeze compresses all full chunks into Data Blocks, keeping the hot tail
// writable. Tuple identifiers (and the PK index) remain valid. On a
// durable table the newly frozen blocks are flushed to the store and a
// fresh manifest generation is written before Freeze returns.
func (t *Table) Freeze() error {
	if err := t.rel.FreezeAll(core.FreezeOptions{SortBy: -1}, true); err != nil {
		return err
	}
	return t.persistFrozen()
}

// FreezeAll compresses every chunk, including the tail, and persists the
// manifest on durable tables like Freeze.
func (t *Table) FreezeAll() error {
	if err := t.rel.FreezeAll(core.FreezeOptions{SortBy: -1}, false); err != nil {
		return err
	}
	return t.persistFrozen()
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
	if err := t.rel.FreezeAll(core.FreezeOptions{SortBy: i}, false); err != nil {
		return err
	}
	if t.pk != nil {
		if err := t.pk.Rebuild(t.rel, t.pkCol); err != nil {
			return err
		}
	}
	// sortBy is read by manifest writes (background checkpoints included):
	// update it under the same lock.
	t.manMu.Lock()
	t.sortBy = i
	t.manMu.Unlock()
	return t.checkpoint(true)
}

// persistFrozen makes the current frozen set durable on a persistent
// table: every frozen block that has never been spilled is flushed to the
// store, then a fresh manifest generation is written atomically. A no-op
// for non-durable tables.
func (t *Table) persistFrozen() error { return t.checkpoint(false) }

// checkpoint is persistFrozen's body. On a WAL table it additionally
// records each stripe's applied LSN in the manifest and truncates stripe
// logs the manifest has fully caught up with. stripesHeld is true when
// the caller already holds every stripe write lock (FreezeSorted).
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

// wakeWorker nudges the database's background worker without blocking
// the write path; a pending wake-up is enough.
func (t *Table) wakeWorker() {
	if t.wake == nil {
		return
	}
	select {
	case t.wake <- struct{}{}:
	default:
	}
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
			errs = append(errs, t.rel.FreezeAll(core.FreezeOptions{SortBy: -1}, false), t.persistFrozen())
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

// Stats reports the table's memory footprint, split hot vs frozen vs
// evicted.
func (t *Table) Stats() MemStats { return t.rel.MemoryStats() }

// ColdStats reports the table's cold-store traffic: eviction and reload
// counts, RAM residency against the budget, and the on-disk footprint.
// All zero when the table has no block store.
func (t *Table) ColdStats() ColdStats { return t.rel.ColdStatsSnapshot() }

// Pred is a SARGable predicate referencing columns by name.
type Pred struct {
	Col    string
	Op     CompareOp
	Lo, Hi Value
}

// ScanPlan builds a scan over named columns with named predicates, for
// composition into larger plans. Predicate columns missing from the
// projection are scanned internally and trimmed away again, so the output
// schema is exactly cols.
func (t *Table) ScanPlan(cols []string, preds []Pred, filter Expr) (Node, error) {
	ords := make([]int, len(cols))
	for i, c := range cols {
		ords[i] = t.schema.ColumnIndex(c)
		if ords[i] < 0 {
			return nil, fmt.Errorf("datablocks: unknown column %q", c)
		}
	}
	cpreds := make([]core.Predicate, len(preds))
	extended := false
	for i, p := range preds {
		ord := t.schema.ColumnIndex(p.Col)
		if ord < 0 {
			return nil, fmt.Errorf("datablocks: unknown predicate column %q", p.Col)
		}
		cpreds[i] = core.Predicate{Col: ord, Op: p.Op, Lo: p.Lo, Hi: p.Hi}
		present := false
		for _, o := range ords {
			if o == ord {
				present = true
				break
			}
		}
		if !present {
			ords = append(ords, ord)
			extended = true
		}
	}
	scan := &exec.ScanNode{Rel: t.rel, Cols: ords, Preds: cpreds, Filter: filter}
	if !extended {
		return scan, nil
	}
	trim := make([]Expr, len(cols))
	for i := range cols {
		trim[i] = exec.Col(i)
	}
	return &exec.MapNode{Child: scan, Exprs: trim}, nil
}

// Scan runs a predicate scan and materializes the projected columns.
func (t *Table) Scan(cols []string, preds []Pred, opt QueryOptions) (*Result, error) {
	plan, err := t.ScanPlan(cols, preds, nil)
	if err != nil {
		return nil, err
	}
	res, err := exec.Run(plan, t.applyDefaults(opt))
	if err != nil {
		return nil, err
	}
	t.ops.scans.Inc()
	t.ops.rowsRead.Add(uint64(res.NumRows()))
	return res, nil
}

// Query executes an arbitrary physical plan with the table's default
// options (morsel parallelism) applied where the caller left them unset.
// Use this instead of the package-level Query when the plan's driving scan
// belongs to this table and its WithParallelism default should take effect.
func (t *Table) Query(plan Node, opt QueryOptions) (*Result, error) {
	res, err := exec.Run(plan, t.applyDefaults(opt))
	if err != nil {
		return nil, err
	}
	t.ops.queries.Inc()
	t.ops.rowsRead.Add(uint64(res.NumRows()))
	return res, nil
}

// applyDefaults resolves the table-level query defaults: a zero
// Parallelism picks up WithParallelism (n <= 0 meaning all of GOMAXPROCS).
func (t *Table) applyDefaults(opt QueryOptions) QueryOptions {
	if opt.Parallelism == 0 && t.hasDefaultPar {
		if t.defaultPar > 0 {
			opt.Parallelism = t.defaultPar
		} else {
			opt.Parallelism = runtime.GOMAXPROCS(0)
		}
	}
	return opt
}

// Query executes an arbitrary physical plan.
func Query(plan Node, opt QueryOptions) (*Result, error) { return exec.Run(plan, opt) }

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
	"fmt"
	"sort"
	"sync"

	"datablocks/internal/blockstore"
	"datablocks/internal/core"
	"datablocks/internal/exec"
	"datablocks/internal/index"
	"datablocks/internal/storage"
	"datablocks/internal/types"
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
			progress = ok(t, t.freeze(true)) || progress
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

package datablocks

import (
	"runtime"

	"datablocks/internal/simd"
	"datablocks/internal/storage"
)

// FreezeStats aliases the storage layer's freeze-pipeline telemetry:
// freeze counts and durations, bytes in/out and the per-compression-scheme
// breakdown.
type FreezeStats = storage.FreezeStats

// EpochStats aliases the storage layer's MVCC bookkeeping snapshot: write
// epoch, retired-row GC backlog, pending and born version rows.
type EpochStats = storage.EpochStats

// SchemeStats aliases the per-compression-scheme freeze breakdown.
type SchemeStats = storage.SchemeStats

// TableOps counts the table's API traffic. All counters are cumulative
// since table creation.
type TableOps struct {
	// Inserts/Updates/Deletes count successful write operations;
	// RowsWritten counts rows they appended (BulkLoad rows included).
	Inserts, Updates, Deletes uint64
	// Lookups counts primary-key point reads, LookupMisses the subset
	// that resolved no visible row.
	Lookups, LookupMisses uint64
	// Scans counts Table.Scan calls, Queries Table.Query plans; RowsRead
	// counts the rows they returned (plus lookup hits).
	Scans, Queries uint64
	RowsWritten    uint64
	RowsRead       uint64
}

// WalStats is the write-ahead-log section of a table's metrics, summed
// across its write stripes. All zero without WithWAL.
type WalStats struct {
	// Stripes is the table's write-stripe count (1 without
	// WithWriteStripes; reported even when the WAL is off).
	Stripes int
	// Records counts appended records, Batches group-commit flushes (one
	// file append + one fsync each) — Records/Batches is the achieved
	// commit group size. Bytes counts appended bytes including framing.
	Records, Batches, Bytes uint64
	// Replayed counts records recovery re-applied at open,
	// ReplaySkipped records it found already durable, TornTails recovery
	// scans that cut a torn suffix.
	Replayed, ReplaySkipped, TornTails uint64
}

// TableMetrics is one table's consistent telemetry snapshot: every section
// is read once, in one call, so phase-boundary comparisons (before/after a
// freeze, across a restart) do not interleave with concurrent work the way
// separate Stats()/ColdStats() reads can.
type TableMetrics struct {
	// Rows is the live row count.
	Rows int
	// Mem splits the footprint hot vs frozen vs evicted.
	Mem MemStats
	// Cold is the block-store traffic: evictions, reloads, single-flight
	// collapses, residency against the budget, disk footprint.
	Cold ColdStats
	// Freeze is the freeze pipeline: counts, durations, compression
	// ratio overall and per scheme.
	Freeze FreezeStats
	// Epoch is the MVCC side: write epoch and the retired/pending/born
	// version-row backlog awaiting sorted-freeze GC.
	Epoch EpochStats
	// IndexKeys/IndexBytes/IndexPublishes describe the primary-key index:
	// resident keys, the heap its tables hold (not part of Mem, which
	// covers the relation's chunks) and cumulative version installations.
	// Zero without a primary key.
	IndexKeys      int
	IndexBytes     int
	IndexPublishes uint64
	// Store is the raw block-store I/O ledger (zero without a store).
	Store StoreStats
	// Wal is the write-ahead-log and group-commit traffic (zero without
	// WithWAL, except Stripes).
	Wal WalStats
	// Ops is the table's API traffic.
	Ops TableOps
}

// HostInfo describes the execution environment the metrics were captured
// on: the detected CPU feature level, the core count, and which
// implementation (assembly or portable) each kernel family dispatched to.
// Embedding it in every snapshot keeps numbers from different hosts — or
// from the GODEBUG=cpu.avx2=off CI leg — interpretable side by side.
type HostInfo struct {
	CPUFeature string
	Cores      int
	Kernels    []simd.KernelDispatch
}

// Metrics is a whole-database snapshot, one entry per table.
type Metrics struct {
	Host   HostInfo
	Tables map[string]TableMetrics
}

// Metrics snapshots one table's full telemetry in a single call.
func (t *Table) Metrics() TableMetrics {
	m := TableMetrics{
		Rows:   t.rel.NumRows(),
		Mem:    t.rel.MemoryStats(),
		Cold:   t.rel.ColdStatsSnapshot(),
		Freeze: t.rel.FreezeStatsSnapshot(),
		Epoch:  t.rel.EpochStatsSnapshot(),
	}
	if t.pk != nil {
		m.IndexKeys, m.IndexBytes = t.pk.Size()
		m.IndexPublishes = t.pk.Publishes()
	}
	if t.bs != nil {
		m.Store = t.bs.Stats()
	}
	w := &t.walStats
	m.Wal = WalStats{
		Stripes:       t.writeStripes,
		Records:       w.Records.Load(),
		Batches:       w.Batches.Load(),
		Bytes:         w.Bytes.Load(),
		Replayed:      w.Replayed.Load(),
		ReplaySkipped: w.ReplaySkipped.Load(),
		TornTails:     w.TornTails.Load(),
	}
	o := &t.ops
	hits, misses := o.hits.Load(), o.misses.Load()
	m.Ops = TableOps{
		Inserts:      o.inserts.Load(),
		Updates:      o.updates.Load(),
		Deletes:      o.deletes.Load(),
		Lookups:      hits + misses,
		LookupMisses: misses,
		Scans:        o.scans.Load(),
		Queries:      o.queries.Load(),
		RowsWritten:  o.rowsWritten.Load(),
		RowsRead:     o.rowsRead.Load() + hits,
	}
	return m
}

// Metrics snapshots every table. The table set is captured under the
// catalog lock; each table's snapshot is then taken without it.
func (db *DB) Metrics() Metrics {
	db.mu.RLock()
	tables := make(map[string]*Table, len(db.tables))
	for n, t := range db.tables {
		tables[n] = t
	}
	db.mu.RUnlock()
	m := Metrics{
		Host: HostInfo{
			CPUFeature: simd.CPUFeatureLevel(),
			Cores:      runtime.NumCPU(),
			Kernels:    simd.DispatchInfo(),
		},
		Tables: make(map[string]TableMetrics, len(tables)),
	}
	for n, t := range tables {
		m.Tables[n] = t.Metrics()
	}
	return m
}

package datablocks

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"datablocks/internal/obs"
)

// ObsHandler returns an http.Handler exporting the database's telemetry,
// stdlib only:
//
//	/metrics — Prometheus text format 0.0.4, one sample family per
//	           metric, per-table "table" labels
//	/vars    — the full Metrics snapshot as JSON (expvar-style)
//
// Mount it wherever the application serves HTTP:
//
//	http.Handle("/debug/db/", http.StripPrefix("/debug/db", db.ObsHandler()))
func (db *DB) ObsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		obs.WritePrometheus(w, db.promSamples())
	})
	mux.HandleFunc("/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(map[string]Metrics{"datablocks": db.Metrics()})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "datablocks telemetry\n\n/metrics  Prometheus text format\n/vars     JSON snapshot\n")
	})
	return mux
}

// promSamples flattens the Metrics snapshot into Prometheus samples.
func (db *DB) promSamples() []obs.Sample {
	m := db.Metrics()
	names := make([]string, 0, len(m.Tables))
	for n := range m.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []obs.Sample
	for _, name := range names {
		tm := m.Tables[name]
		tbl := obs.Label{K: "table", V: name}
		g := func(metric, help string, v int64, labels ...obs.Label) {
			out = append(out, obs.GaugeSample(metric, help, v, append(labels, tbl)...))
		}
		c := func(metric, help string, v uint64, labels ...obs.Label) {
			out = append(out, obs.CounterSample(metric, help, v, append(labels, tbl)...))
		}

		g("datablocks_rows", "Live rows in the table.", int64(tm.Rows))
		g("datablocks_deleted_rows", "Rows carrying a delete flag.", int64(tm.Mem.DeletedRows))
		g("datablocks_mem_bytes", "In-RAM footprint by region.", int64(tm.Mem.HotBytes), obs.Label{K: "region", V: "hot"})
		g("datablocks_mem_bytes", "In-RAM footprint by region.", int64(tm.Mem.FrozenBytes), obs.Label{K: "region", V: "frozen"})
		g("datablocks_chunks", "Chunks by state.", int64(tm.Mem.HotChunks), obs.Label{K: "state", V: "hot"})
		g("datablocks_chunks", "Chunks by state.", int64(tm.Mem.FrozenChunks), obs.Label{K: "state", V: "frozen"})
		g("datablocks_chunks", "Chunks by state.", int64(tm.Mem.EvictedChunks), obs.Label{K: "state", V: "evicted"})

		c("datablocks_cold_evictions_total", "Frozen blocks evicted to the store.", uint64(tm.Cold.Evictions))
		c("datablocks_cold_reloads_total", "Evicted blocks reloaded into RAM.", uint64(tm.Cold.Reloads))
		c("datablocks_cold_collapses_total", "Reloads collapsed into a concurrent pinner's disk read.", uint64(tm.Cold.Collapses))
		g("datablocks_cold_resident_bytes", "Compressed frozen bytes resident in RAM.", int64(tm.Cold.ResidentBytes))
		g("datablocks_cold_budget_bytes", "Configured residency ceiling (0 = unbounded).", int64(tm.Cold.BudgetBytes))
		g("datablocks_cold_disk_bytes", "On-disk footprint of the block store.", int64(tm.Cold.DiskBytes))

		c("datablocks_freezes_total", "Completed block compressions.", uint64(tm.Freeze.Freezes))
		c("datablocks_freezes_sorted_total", "Freezes that ran the stop-the-world sorted path.", uint64(tm.Freeze.SortedFreezes))
		c("datablocks_freeze_bytes_total", "Freeze traffic by direction.", uint64(tm.Freeze.BytesIn), obs.Label{K: "dir", V: "in"})
		c("datablocks_freeze_bytes_total", "Freeze traffic by direction.", uint64(tm.Freeze.BytesOut), obs.Label{K: "dir", V: "out"})
		for _, s := range tm.Freeze.Schemes {
			sl := obs.Label{K: "scheme", V: s.Scheme}
			c("datablocks_freeze_scheme_attrs_total", "Attribute vectors frozen per compression scheme.", s.Attrs, sl)
			c("datablocks_freeze_scheme_bytes_total", "Per-scheme freeze traffic.", s.BytesIn, sl, obs.Label{K: "dir", V: "in"})
			c("datablocks_freeze_scheme_bytes_total", "Per-scheme freeze traffic.", s.BytesOut, sl, obs.Label{K: "dir", V: "out"})
		}
		out = obs.AppendHistogram(out, "datablocks_freeze_duration_ns",
			"Individual freeze latencies in nanoseconds.", tm.Freeze.Durations, tbl)

		g("datablocks_write_epoch", "Current MVCC write epoch.", int64(tm.Epoch.WriteEpoch))
		g("datablocks_retired_rows", "Retired version rows awaiting sorted-freeze GC.", int64(tm.Epoch.RetiredRows))
		g("datablocks_pending_rows", "Update versions inserted but not yet committed.", int64(tm.Epoch.PendingRows))
		g("datablocks_index_keys", "Keys resident in the primary-key index.", int64(tm.IndexKeys))
		g("datablocks_index_bytes", "Heap held by the primary-key index.", int64(tm.IndexBytes))
		c("datablocks_index_publishes_total", "Version-record installations in the primary-key index.", uint64(tm.IndexPublishes))

		c("datablocks_store_io_total", "Block store operations.", uint64(tm.Store.Puts), obs.Label{K: "op", V: "put"})
		c("datablocks_store_io_total", "Block store operations.", uint64(tm.Store.Loads), obs.Label{K: "op", V: "load"})
		c("datablocks_store_io_total", "Block store operations.", uint64(tm.Store.Removes), obs.Label{K: "op", V: "remove"})
		c("datablocks_store_load_errors_total", "Failed block loads.", uint64(tm.Store.LoadErrors))
		c("datablocks_store_bytes_total", "Block store traffic by direction.", uint64(tm.Store.BytesWritten), obs.Label{K: "dir", V: "written"})
		c("datablocks_store_bytes_total", "Block store traffic by direction.", uint64(tm.Store.BytesRead), obs.Label{K: "dir", V: "read"})

		g("datablocks_write_stripes", "Write stripes sharding the table's write path.", int64(tm.Wal.Stripes))
		c("datablocks_wal_records_total", "Records appended to the stripe write-ahead logs.", tm.Wal.Records)
		c("datablocks_wal_batches_total", "Group-commit flushes (one append + one fsync each).", tm.Wal.Batches)
		c("datablocks_wal_bytes_total", "Bytes appended to the stripe logs, framing included.", tm.Wal.Bytes)
		c("datablocks_wal_replayed_total", "Records recovery re-applied at open.", tm.Wal.Replayed)
		c("datablocks_wal_replay_skipped_total", "Records recovery found already durable.", tm.Wal.ReplaySkipped)
		c("datablocks_wal_torn_tails_total", "Recovery scans that truncated a torn log suffix.", tm.Wal.TornTails)

		c("datablocks_ops_total", "Table API calls by operation.", uint64(tm.Ops.Inserts), obs.Label{K: "op", V: "insert"})
		c("datablocks_ops_total", "Table API calls by operation.", uint64(tm.Ops.Updates), obs.Label{K: "op", V: "update"})
		c("datablocks_ops_total", "Table API calls by operation.", uint64(tm.Ops.Deletes), obs.Label{K: "op", V: "delete"})
		c("datablocks_ops_total", "Table API calls by operation.", uint64(tm.Ops.Lookups), obs.Label{K: "op", V: "lookup"})
		c("datablocks_ops_total", "Table API calls by operation.", uint64(tm.Ops.Scans), obs.Label{K: "op", V: "scan"})
		c("datablocks_ops_total", "Table API calls by operation.", uint64(tm.Ops.Queries), obs.Label{K: "op", V: "query"})
		c("datablocks_lookup_misses_total", "Point lookups that resolved no visible row.", uint64(tm.Ops.LookupMisses))
		c("datablocks_rows_written_total", "Rows appended by inserts, updates and bulk loads.", uint64(tm.Ops.RowsWritten))
		c("datablocks_rows_read_total", "Rows returned by lookups, scans and queries.", uint64(tm.Ops.RowsRead))
	}
	return out
}

package main

// metricDef is one row of the metric catalogue. The catalogue is the single
// source for the names the benchmark emits; BENCHMARK.json repeats it and
// a test keeps the two from drifting apart.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median by which it may worsen
	Doc    string
}

// endToEnd is what a user of the engine sees. Every workload emits every
// one of them: the two schema families (TPC-H for the olap_* workloads,
// CH-benCHmark for oltp_durable and hybrid_ch) each define a query cycle
// with a Q1, a Q4 and a Q6, a transaction, a point lookup and a restart.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "create tables, bulk load, freeze, persist until the database is ready; median of three set-ups"},
	{"query_cycle_ms_p50", "ms", "lower", 0.25, "one pass over the family's analytic queries, median"},
	{"query_cycle_ms_p90", "ms", "lower", 0.25, "the same, 90th percentile (>=100 cycles)"},
	{"q1_ms_p50", "ms", "lower", 0.25, "Q1: scan + grouped aggregate over the fact table"},
	{"q6_ms_p50", "ms", "lower", 0.25, "Q6: selective SARG/PSMA scan + sum"},
	{"q4_ms_p50", "ms", "lower", 0.25, "Q4: semi-join of orders against late lines"},
	{"tx_per_s", "1/s", "higher", 0.25, "transactions per second, median over slices of the run"},
	{"tx_us_p50", "us", "lower", 0.25, "transaction latency, median"},
	{"tx_us_p90", "us", "lower", 0.25, "transaction latency, 90th percentile (the 95th sits on hybrid_ch's knee between a resident and a reloaded stock block and does not repeat)"},
	{"lookup_us_p50", "us", "lower", 0.25, "primary-key point lookup, timed singly, median"},
	{"lookup_us_p95", "us", "lower", 0.25, "the same, 95th percentile"},
	{"recovery_s", "s", "lower", 0.25, "process start of a fresh process to the first verified query answer; median over the restarts"},
	{"mem_bytes_per_user_byte", "ratio", "lower", 0.20, "engine-accounted table bytes in RAM per byte of live user data"},
	{"heap_bytes_per_user_byte", "ratio", "lower", 0.05, "Go live heap (index, stamps, versions included) per byte of live user data"},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.02, "bytes under the database directory after close or kill per byte of live user data"},
}

// perLayer is measured by the traced run: spans around the harness's calls
// into the engine, QueryProfile, Metrics() deltas at phase boundaries and
// micro-probes over the workload's own data. A layer that does no work on
// a workload reports 0 there.
var perLayer = []metricDef{
	{Name: "host.stream_sum_gbps", Unit: "GB/s", Better: "higher", Doc: "pure-Go sum over a 64 MiB int64 array: the roofline denominator"},
	{Name: "host.ref_ms", Unit: "ms", Better: "lower", Doc: "the reference kernel's median time during the run; end-to-end timings are scaled by refNominalMs over it"},
	{Name: "host.calib_ms", Unit: "ms", Better: "lower", Doc: "fixed arithmetic loop, mean of the timing before and after the workload"},
	{Name: "host.unstable", Unit: "count", Better: "lower", Doc: "1 when the two calibration timings differ by more than 15 %"},

	{Name: "simd.find_w8_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "simd.find_w16_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "simd.find_w32_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "simd.find_w64_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "simd.find_bitmap_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "simd.reduce_w8_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "simd.reduce_w32_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "simd.sum_f64_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "simd.minmax_i64_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "simd.hash_mix64_gbps", Unit: "GB/s", Better: "higher"},

	{Name: "core.scan_find_mrows_per_s", Unit: "Mrows/s", Better: "higher", Doc: "NewScanner+NextMatches with the family's Q6 predicates over one block"},
	{Name: "core.sma_skipped_chunk_share", Unit: "share", Better: "higher", Doc: "Q6: chunks ruled out whole / chunks in the snapshot"},
	{Name: "core.pruned_vector_share", Unit: "share", Better: "higher", Doc: "Q6: vectors the SARGs emptied / vectors examined"},
	{Name: "core.unpack_mvals_per_s", Unit: "Mvals/s", Better: "higher", Doc: "UnpackColumn at 10 % selectivity"},
	{Name: "core.column_unpacks_per_cycle", Unit: "count", Better: "lower"},
	{Name: "core.point_get_ns", Unit: "ns", Better: "lower", Doc: "Block.Value on a random cell"},
	{Name: "core.unmarshal_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.marshal_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "core.freeze_mb_per_s", Unit: "MB/s", Better: "higher", Doc: "core.Freeze, uncompressed input bytes per second"},

	{Name: "compress.ratio_lineitem", Unit: "ratio", Better: "higher"},
	{Name: "compress.ratio_orders", Unit: "ratio", Better: "higher"},
	{Name: "compress.ratio_order_line", Unit: "ratio", Better: "higher"},

	{Name: "exec.q1_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "exec.q3_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "exec.q4_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "exec.q5_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "exec.q6_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "exec.q12_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "exec.q14_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "exec.q19_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "exec.q1.scan_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q1.join_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q1.agg_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q1.sink_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q1.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "exec.q3.scan_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q3.join_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q3.agg_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q3.sink_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q3.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "exec.q4.scan_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q4.join_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q4.agg_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q4.sink_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q4.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "exec.q6.scan_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q6.join_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q6.agg_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q6.sink_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q6.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "exec.q12.scan_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q12.join_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q12.agg_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q12.sink_self_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.q12.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "exec.groupagg_g16_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "exec.groupagg_g1024_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "exec.groupagg_g65536_mrows_per_s", Unit: "Mrows/s", Better: "higher"},
	{Name: "exec.fallback_queries", Unit: "count", Better: "lower", Doc: "profiled queries that fell back to the tuple path"},
	{Name: "exec.q1_parallel_speedup", Unit: "ratio", Better: "higher", Doc: "Q1 serial median / Q1 two-worker median"},
	{Name: "exec.q1_hot_ms_p50", Unit: "ms", Better: "lower", Doc: "Q1 over the unfrozen relation (Table 2's contrast)"},
	{Name: "exec.q6_hot_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "table.insert_us_p50", Unit: "us", Better: "lower", Doc: "non-durable scratch table"},
	{Name: "table.update_us_p50", Unit: "us", Better: "lower"},
	{Name: "table.delete_us_p50", Unit: "us", Better: "lower"},
	{Name: "table.lookup_hot_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "table.lookup_frozen_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "table.lookup_evicted_us_p50", Unit: "us", Better: "lower", Doc: "Relation.EvictChunk then Lookup"},
	{Name: "table.tx_us_p99", Unit: "us", Better: "lower"},
	{Name: "table.tx_us_max", Unit: "us", Better: "lower"},
	{Name: "storage.snapshot_us_p50", Unit: "us", Better: "lower"},
	{Name: "storage.freezes", Unit: "count", Better: "lower", Doc: "blocks frozen during the measured phases"},
	{Name: "storage.freeze_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "storage.sealed_backlog_max", Unit: "count", Better: "lower", Doc: "largest SealedHotChunks() seen, sampled every 100 ms"},
	{Name: "storage.pin_wait_ms_per_cycle", Unit: "ms", Better: "lower"},

	{Name: "index.lookup_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "index.publish_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "index.rebuild_mkeys_per_s", Unit: "Mkeys/s", Better: "higher"},

	{Name: "blockstore.put_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "blockstore.load_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "blockstore.reloads_per_cycle", Unit: "count", Better: "lower"},
	{Name: "blockstore.bytes_read_per_cycle", Unit: "bytes", Better: "lower"},
	{Name: "blockstore.evictions", Unit: "count", Better: "lower"},

	{Name: "wal.append_wait_us_p50", Unit: "us", Better: "lower", Doc: "Log.Append + Wait, one writer"},
	{Name: "wal.bytes_per_tx", Unit: "bytes", Better: "lower"},
	{Name: "wal.fsyncs_per_tx", Unit: "count", Better: "lower"},
	{Name: "wal.group_size", Unit: "count", Better: "higher", Doc: "records per group commit"},
	{Name: "wal.replay_mrec_per_s", Unit: "Mrec/s", Better: "higher"},
	{Name: "wal.replayed_records", Unit: "count", Better: "lower"},
	{Name: "wal.scan_records_mb_per_s", Unit: "MB/s", Better: "higher"},

	{Name: "recovery.open_s", Unit: "s", Better: "lower"},
	{Name: "recovery.first_query_ms", Unit: "ms", Better: "lower"},

	{Name: "obs.profile_overhead_share", Unit: "share", Better: "lower", Doc: "profiled vs unprofiled cycle median"},
	{Name: "obs.metrics_snapshot_us_p50", Unit: "us", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Doc: "traced vs untraced cycle median"},

	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.gc_cpu_share", Unit: "share", Better: "lower"},
	{Name: "proc.alloc_mb_per_cycle", Unit: "MB", Better: "lower"},
}

func metricNames(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

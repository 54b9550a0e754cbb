package main

// metricDef names a metric of the result line and fixes its unit. The two
// lists below are the benchmark's contract and must match BENCHMARK.json
// (the self-tests compare them).
type metricDef struct{ name, unit string }

// e2eMetrics is printed by every untraced run. Each applies to every
// workload; "op" is the workload's primary client op (README.md).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"heap_live_mb", "MiB"},
}

// layerMetrics is printed by every traced run. A layer a workload leaves
// idle reports 0.
var layerMetrics = []metricDef{
	{"hierarchy.intern_us.p50", "us"},
	{"core.insert.call_us.p50", "us"},
	{"core.insert.call_us.p99", "us"},
	{"core.delete.call_us.p50", "us"},
	{"core.delete.call_us.p99", "us"},
	{"core.split.hierarchy_per_1k_writes", "count/1k"},
	{"core.split.forced_per_1k_writes", "count/1k"},
	{"core.supernode.created", "count"},
	{"core.supernode.grown", "count"},
	{"runtime.allocs_per_write", "count"},
	{"runtime.bytes_per_write", "B"},
	{"core.query.execute_us.range01.p50", "us"},
	{"core.query.execute_us.range05.p50", "us"},
	{"core.query.execute_us.range25.p50", "us"},
	{"core.query.execute_us.rollup.p50", "us"},
	{"core.query.call_us.p99", "us"},
	{"core.query.nodes_visited_per_query", "count"},
	{"core.query.entries_scanned_per_query", "count"},
	{"core.query.entries_pruned_ratio", "ratio"},
	{"core.query.materialized_hits_per_query", "count"},
	{"core.query.records_matched_per_query", "count"},
	{"runtime.allocs_per_query", "count"},
	{"core.nodecache.hit_ratio", "ratio"},
	{"core.nodecache.misses", "count"},
	{"core.nodecache.cached_nodes", "count"},
	{"storage.mmap.flat_node_reads_per_query", "count"},
	{"storage.mmap.decode_fallbacks", "count"},
	{"storage.store.reads", "count"},
	{"storage.store.hit_ratio", "ratio"},
	{"core.version.snapshot_us.p50", "us"},
	{"core.version.snapshot_us.p99", "us"},
	{"core.version.asof_execute_us.p50", "us"},
	{"core.version.release_us.p50", "us"},
	{"core.version.overlay_nodes", "count"},
	{"core.version.pruned", "count"},
	{"core.checkpoint.count", "count"},
	{"core.checkpoint.latency_ms.p50", "ms"},
	{"core.checkpoint.pages_written", "count"},
	{"core.checkpoint.bytes_written", "B"},
	{"core.checkpoint.writer_stall_ms", "ms"},
	{"core.checkpoint.requeued_nodes", "count"},
	{"storage.wal.appends", "count"},
	{"storage.wal.fsyncs_per_write", "ratio"},
	{"core.wal.group_commit_batch_mean", "count"},
	{"storage.wal.bytes_per_record", "B"},
	{"storage.wal.bytes_stored", "B"},
	{"core.recovery.replayed_records", "count"},
	{"core.recovery.versions_rehydrated", "count"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.late_max_us", "us"},
	{"loadgen.offered_per_s", "1/s"},
	{"loadgen.achieved_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

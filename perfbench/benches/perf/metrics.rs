//! The metric names and units this benchmark reports. `BENCHMARK.json`
//! lists the same names (a unit test holds the two together).

/// Workloads, in the order the suite runs them.
pub const WORKLOADS: [&str; 6] = [
    "collect_apps",
    "analyze_batch",
    "serve_ingest",
    "serve_query",
    "restart_recover",
    "shard_ingest",
];

/// End-to-end metrics, reported by the untraced run of every workload.
///
/// Every run must report every metric, so the workload-specific numbers
/// of the design issue sit in shared slots: a *primary* and a *secondary*
/// operation and one dimensionless *cost ratio* per workload (the README
/// has the table of what each slot holds where).
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("primary_ms_p50", "ms"),
    ("primary_ms_tail", "ms"),
    ("secondary_ms_p50", "ms"),
    ("secondary_ms_tail", "ms"),
    ("cost_ratio", "ratio"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run of every workload; a
/// layer idle on a workload reads 0 there.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("runtime.guard_pairs", "count"),
    ("runtime.guard_pair_ns_d1", "ns"),
    ("runtime.guard_pair_ns_d8", "ns"),
    ("runtime.snapshot_us", "us"),
    ("collect.snapshots", "count"),
    ("collect.delta_ms", "ms"),
    ("collect.matrix_ms", "ms"),
    ("collect.op_self_us", "us"),
    ("profile.gmon_encode_us", "us"),
    ("profile.gmon_decode_us", "us"),
    ("profile.gmon_bytes", "bytes"),
    ("profile.op_self_us", "us"),
    ("cluster.pairwise_ms", "ms"),
    ("cluster.pairwise_extend_us", "us"),
    ("cluster.sweep_cold_ms", "ms"),
    ("cluster.sweep_warm_us", "us"),
    ("cluster.lloyd_iters", "count"),
    ("cluster.pruned_points", "count"),
    ("core.detect_ms", "ms"),
    ("core.algorithm1_ms", "ms"),
    ("core.observe_us", "us"),
    ("core.cache_hit_us", "us"),
    ("core.cache_miss_ms", "ms"),
    ("core.cache_hit_share", "ratio"),
    ("core.cache_pair_extends", "count"),
    ("core.cache_invalidations", "count"),
    ("core.cache_state_bytes", "bytes"),
    ("core.cache_encode_ms", "ms"),
    ("core.cache_decode_ms", "ms"),
    ("core.op_self_us", "us"),
    ("par.tasks", "count"),
    ("par.steals", "count"),
    ("par.queue_waits", "count"),
    ("par.cpu_over_wall", "ratio"),
    ("store.frame_encode_us", "us"),
    ("store.frame_decode_us", "us"),
    ("store.append_us", "us"),
    ("store.checkpoint_ms", "ms"),
    ("store.appends", "count"),
    ("store.checkpoint_writes", "count"),
    ("store.checkpoint_write_share", "ratio"),
    ("store.log_bytes", "bytes"),
    ("store.checkpoint_bytes", "bytes"),
    ("store.replay_ms", "ms"),
    ("store.op_self_us", "us"),
    ("serve.wire_rtt_us", "us"),
    ("serve.enqueue_drain_us", "us"),
    ("serve.report_render_us", "us"),
    ("serve.rehydrate_get_ms", "ms"),
    ("serve.busy_replies", "count"),
    ("serve.client_retries", "count"),
    ("serve.decode_errors", "count"),
    ("serve.op_self_us", "us"),
    ("shard.ping_rtt_us", "us"),
    ("shard.hop_us", "us"),
    ("shard.forwarded", "count"),
    ("shard.failovers", "count"),
    ("shard.op_self_us", "us"),
    ("bench.unaccounted_share", "ratio"),
    ("bench.replay_unaccounted_share", "ratio"),
    ("bench.trace_tax_pct", "%"),
    ("bench.generator_cpu_share", "ratio"),
];

/// The span layers that get an `<layer>.op_self_us` metric: the layers
/// the harness calls into directly (the others are reached only from
/// inside product code, whose spans are a later change).
pub const SPAN_LAYERS: [(&str, &str); 6] = [
    ("collect", "collect.op_self_us"),
    ("profile", "profile.op_self_us"),
    ("core", "core.op_self_us"),
    ("store", "store.op_self_us"),
    ("serve", "serve.op_self_us"),
    ("shard", "shard.op_self_us"),
];

/// The root span whose per-layer self time a workload reports.
pub fn primary_op(workload: &str) -> &'static str {
    match workload {
        "collect_apps" => "app_profiled",
        "analyze_batch" => "analyze",
        "restart_recover" => "rehydrate_warm",
        _ => "push",
    }
}

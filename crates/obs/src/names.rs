//! The metric- and span-name registry.
//!
//! Every observability name used anywhere in the workspace is declared
//! here, once, as a constant (or, for names parameterized at runtime —
//! per-`k` sweep spans, per-`k` iteration counters — as a helper
//! function that stamps the parameter into a declared prefix). Call
//! sites refer to these constants instead of repeating string literals,
//! which kills two failure modes the `incprof-lint` O01 rule exists to
//! catch:
//!
//! * **typos** — a misspelled literal silently creates a second metric
//!   and the dashboards read zero on the real one;
//! * **silent forks** — two call sites that *meant* the same metric but
//!   drifted apart during a refactor.
//!
//! Names follow `<crate>.<subsystem>.<name>`; see the crate-level docs.
//! The [`ALL`] table drives the uniqueness/format self-test below and
//! gives auditors one place to read the whole namespace.

// ---------------------------------------------------------------------
// runtime
// ---------------------------------------------------------------------

/// Counter: snapshots taken by the instrumentation runtime.
pub const RUNTIME_SNAPSHOT_COUNT: &str = "runtime.snapshot.count";
/// Gauge (recorded as a running max): call-stack depth high-water mark.
pub const RUNTIME_STACK_DEPTH_HWM: &str = "runtime.stack.depth_hwm";
/// Counter: guards whose drop found the thread's shadow stack empty (the
/// guard moved to another thread) or another frame on top (a non-LIFO
/// drop in a release build). The counters stay consistent; the stray
/// frame's time is charged where the stack says it ran.
pub const RUNTIME_GUARD_UNBALANCED_EXITS: &str = "runtime.guard.unbalanced_exits";

// ---------------------------------------------------------------------
// collect
// ---------------------------------------------------------------------

/// Histogram: latency of taking one snapshot, nanoseconds.
pub const COLLECT_SNAPSHOT_LATENCY_NS: &str = "collect.snapshot.latency_ns";
/// Counter: snapshots collected.
pub const COLLECT_SNAPSHOT_COUNT: &str = "collect.snapshot.count";
/// Histogram: wall-collector tick lateness vs the absolute deadline.
pub const COLLECT_TICK_JITTER_NS: &str = "collect.collector.tick_jitter_ns";
/// Counter: ticks skipped by the overrun skip-ahead policy.
pub const COLLECT_TICKS_MISSED: &str = "collect.collector.ticks_missed";

// ---------------------------------------------------------------------
// cluster
// ---------------------------------------------------------------------

/// Span: one full k-selection sweep.
pub const CLUSTER_SELECT_K_SWEEP: &str = "cluster.select_k.sweep";
/// Span: the pairwise-distance matrix build inside a silhouette-selection
/// sweep (the elbow builds none).
pub const CLUSTER_SELECT_K_PAIRWISE: &str = "cluster.select_k.pairwise";
/// Histogram: final-iteration centroid movement, in picounits (×1e12).
pub const CLUSTER_KMEANS_CONVERGENCE_DELTA_E12: &str = "cluster.kmeans.convergence_delta_e12";
/// Counter: point assignments skipped by the Hamerly-style
/// triangle-inequality bounds inside Lloyd's assignment step (each skip
/// saves `k` distance evaluations and is provably output-identical).
pub const CLUSTER_KMEANS_PRUNED: &str = "cluster.kmeans.pruned";
/// Counter: exact point–centroid distance evaluations in Lloyd's
/// assignment step (`k` per point the bounds could not skip), added
/// once per Lloyd run.
pub const CLUSTER_KMEANS_DISTANCE_EVALS: &str = "cluster.kmeans.distance_evals";

/// Span name for the `k`-specific leg of a selection sweep.
pub fn cluster_select_k_k(k: usize) -> String {
    format!("cluster.select_k.k{k}")
}

/// Counter name for Lloyd iterations performed by the *winning* restart
/// at a given `k` (what [`cluster_kmeans_iterations_total`] used to be
/// conflated with: the winner's count measures convergence behavior,
/// the total measures compute spent).
pub fn cluster_kmeans_iterations(k: usize) -> String {
    format!("cluster.kmeans.iterations.k{k}")
}

/// Counter name for Lloyd iterations summed across *every* restart (and
/// every warm-started run) at a given `k` — the compute-cost view.
pub fn cluster_kmeans_iterations_total(k: usize) -> String {
    format!("cluster.kmeans.iterations_total.k{k}")
}

// ---------------------------------------------------------------------
// core (pipeline stage spans + counters)
// ---------------------------------------------------------------------

/// Span: one end-to-end phase detection.
pub const CORE_PIPELINE_DETECT: &str = "core.pipeline.detect";
/// Span: feature extraction stage.
pub const CORE_PIPELINE_FEATURES: &str = "core.pipeline.features";
/// Span: clustering stage.
pub const CORE_PIPELINE_CLUSTER: &str = "core.pipeline.cluster";
/// Span: Algorithm 1 site selection stage.
pub const CORE_PIPELINE_ALGORITHM1: &str = "core.pipeline.algorithm1";
/// Counter: completed `detect` runs.
pub const CORE_PIPELINE_DETECT_RUNS: &str = "core.pipeline.detect_runs";
/// Span: a batched `detect_many` call.
pub const CORE_PIPELINE_DETECT_MANY: &str = "core.pipeline.detect_many";
/// Span: detection driven from a cumulative sample series.
pub const CORE_PIPELINE_DETECT_SERIES: &str = "core.pipeline.detect_series";
/// Span: cumulative-series delta (interval differencing) stage.
pub const CORE_PIPELINE_DELTA: &str = "core.pipeline.delta";
/// Span: interval-matrix construction stage.
pub const CORE_PIPELINE_MATRIX: &str = "core.pipeline.matrix";

// ---------------------------------------------------------------------
// core (incremental analysis cache)
// ---------------------------------------------------------------------

/// Span: one `AnalysisCache::analyze` call (hit or miss).
pub const CORE_CACHE_ANALYZE: &str = "core.cache.analyze";
/// Counter: queries answered from the whole-report memo without work.
pub const CORE_CACHE_HITS: &str = "core.cache.memo_hits";
/// Counter: queries that had to (re)run some part of the pipeline.
pub const CORE_CACHE_MISSES: &str = "core.cache.memo_misses";
/// Counter: registered but never incremented — the cache keeps no
/// pairwise-distance matrix to grow. It stays only because perfbench's
/// `core.cache_pair_extends` reads it; it goes when perfbench drops that.
pub const CORE_CACHE_PAIR_EXTENDS: &str = "core.cache.pair_extends";
/// Counter: cached state discarded (config change, series shrink or
/// trim, or cached chains that do not fit the feature columns).
pub const CORE_CACHE_INVALIDATIONS: &str = "core.cache.invalidations";
/// Counter: analyses that warm-started the k-means sweep from cached
/// converged centroid chains instead of refolding from scratch.
pub const CORE_CACHE_CENTROID_CONTINUES: &str = "core.cache.centroid_continues";
/// Counter: cached centroid chains discarded because they do not fit the
/// feature columns (a cached function is missing, or the centroid width
/// disagrees; only a decoded checkpoint can hold such chains).
pub const CORE_CACHE_CENTROID_RESETS: &str = "core.cache.centroid_resets";
/// Counter: centroid chains re-aligned to a grown feature space (new
/// functions insert zero columns; bit-preserving, so no refold).
pub const CORE_CACHE_CENTROID_REMAPS: &str = "core.cache.centroid_remaps";

// ---------------------------------------------------------------------
// par
// ---------------------------------------------------------------------

/// Counter: parallel primitive invocations.
pub const PAR_POOL_CALLS: &str = "par.pool.calls";
/// Counter: chunk tasks executed across all calls.
pub const PAR_POOL_TASKS: &str = "par.pool.tasks";
/// Counter: chunks claimed by a worker other than their static owner.
pub const PAR_POOL_STEALS: &str = "par.pool.steals";
/// Counter: workers that arrived after the chunk queue drained.
pub const PAR_POOL_QUEUE_WAITS: &str = "par.pool.queue_waits";
/// Gauge (running max): workers used by a parallel call.
pub const PAR_POOL_WORKERS: &str = "par.pool.workers";

// ---------------------------------------------------------------------
// lint
// ---------------------------------------------------------------------

/// Span: one whole-workspace lint run.
pub const LINT_RUN: &str = "lint.engine.run";
/// Counter: source files scanned by the lint engine.
pub const LINT_FILES_SCANNED: &str = "lint.files.scanned";
/// Counter: diagnostics emitted (post-suppression).
pub const LINT_DIAGNOSTICS_TOTAL: &str = "lint.diagnostics.total";
/// Counter: suppression markers honored.
pub const LINT_SUPPRESSIONS_USED: &str = "lint.suppressions.used";
/// Counter: function items resolved by the static-analysis passes.
pub const SCA_FUNCTIONS: &str = "lint.sca.functions";
/// Counter: call edges with a unique (confident) resolution.
pub const SCA_EDGES_CONFIDENT: &str = "lint.sca.edges_confident";
/// Counter: call edges with multiple candidates (ambiguous).
pub const SCA_EDGES_AMBIGUOUS: &str = "lint.sca.edges_ambiguous";

// ---------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------

/// Gauge: sessions currently open in the daemon registry.
pub const SERVE_SESSIONS_ACTIVE: &str = "serve.sessions.active";
/// Counter: sessions opened over the daemon's lifetime.
pub const SERVE_SESSIONS_OPENED: &str = "serve.sessions.opened";
/// Counter: sessions closed.
pub const SERVE_SESSIONS_CLOSED: &str = "serve.sessions.closed";
/// Counter: well-formed request frames read off the wire.
pub const SERVE_FRAMES_IN: &str = "serve.frames.received";
/// Counter: reply frames written to the wire.
pub const SERVE_FRAMES_OUT: &str = "serve.frames.sent";
/// Counter: wire bytes received (framed request bytes).
pub const SERVE_BYTES_IN: &str = "serve.bytes.received";
/// Counter: wire bytes sent (framed reply bytes).
pub const SERVE_BYTES_OUT: &str = "serve.bytes.sent";
/// Counter: frames rejected at decode (framing or payload).
pub const SERVE_DECODE_ERRORS: &str = "serve.frames.decode_errors";
/// Counter: BUSY backpressure replies (session queue or accept queue).
pub const SERVE_BUSY_REPLIES: &str = "serve.backpressure.busy_replies";
/// Counter: connections accepted.
pub const SERVE_CONNS_ACCEPTED: &str = "serve.conns.accepted";
/// Histogram: snapshot arrival to online-detector observation, ns.
pub const SERVE_INGEST_DETECT_LATENCY_NS: &str = "serve.ingest.detect_latency_ns";
/// Counter: client-side push retries after a Busy reply.
pub const SERVE_CLIENT_RETRIES: &str = "serve.client.retries";
/// Counter: client-side transparent reconnects after a broken or reset
/// connection (the request is retransmitted on the fresh connection).
pub const SERVE_CLIENT_RECONNECTS: &str = "serve.client.reconnects";
/// Counter: connections accepted on the admin socket.
pub const SERVE_ADMIN_CONNS: &str = "serve.admin.conns_accepted";
/// Counter: admin requests answered (all types).
pub const SERVE_ADMIN_REQUESTS: &str = "serve.admin.requests";
/// Counter: Prometheus-style scrapes served.
pub const SERVE_ADMIN_SCRAPES: &str = "serve.admin.scrapes";

// ---------------------------------------------------------------------
// serve (trace spans: one tree per traced push)
// ---------------------------------------------------------------------

/// Span: client-side root of a traced push (open → ack).
pub const SERVE_CLIENT_PUSH: &str = "serve.client.push";
/// Span: server-side handling of one traced snapshot frame — decode,
/// enqueue, and the worker's drain, which all happen on one thread
/// under one session lock. Kept as a single span on purpose: the
/// traced hot path pays exactly two server-side spans per push (this
/// and [`SERVE_TRACE_OBSERVE`]), which is what holds the workload
/// tracing tax under the `serve_load` gate.
pub const SERVE_TRACE_SNAPSHOT: &str = "serve.trace.snapshot";
/// Span: online-detector / analysis-cache observation of one interval.
pub const SERVE_TRACE_OBSERVE: &str = "serve.trace.observe";
/// Span: server-side dispatch of one traced report query.
pub const SERVE_TRACE_QUERY: &str = "serve.trace.query";
/// Gauge: spans the daemon's full span store refused (set on each admin
/// scrape); non-zero means no new span, traced or not, is kept.
pub const SERVE_TRACE_SPANS_DROPPED: &str = "serve.trace.spans_dropped";

// ---------------------------------------------------------------------
// store (durable session logs, checkpoints, eviction)
// ---------------------------------------------------------------------

/// Counter: snapshot records appended to session logs.
pub const STORE_APPENDS: &str = "store.log.appends";
/// Counter: bytes appended to session logs (encoded record bytes).
pub const STORE_BYTES_APPENDED: &str = "store.log.bytes_appended";
/// Counter: retention-triggered log compactions (rewrites).
pub const STORE_COMPACTIONS: &str = "store.log.compactions";
/// Counter: snapshot records dropped by the retention policy.
pub const STORE_RECORDS_DROPPED: &str = "store.log.records_dropped";
/// Counter: torn log tails truncated during recovery.
pub const STORE_TORN_TAILS: &str = "store.log.torn_tails";
/// Counter: log appends that failed with an I/O error (the session
/// continues in memory only).
pub const STORE_APPEND_ERRORS: &str = "store.log.append_errors";
/// Counter: analysis checkpoints written.
pub const STORE_CHECKPOINTS: &str = "store.checkpoint.writes";
/// Counter: checkpoint writes that failed (blob over the frame cap, I/O
/// error); the next attempt waits a full checkpoint cadence.
pub const STORE_CHECKPOINT_WRITE_ERRORS: &str = "store.checkpoint.write_errors";
/// Counter: checkpoint writes that rewrote the previous write's frame
/// because the analysis state had not changed since (each is also one
/// `store.checkpoint.writes`).
pub const STORE_CHECKPOINTS_REUSED: &str = "store.checkpoint.reused";
/// Counter: checkpoints discarded at rehydration (stale coverage or a
/// memo that failed the byte-identity round-trip); the session replays
/// from the log instead.
pub const STORE_CHECKPOINTS_REJECTED: &str = "store.checkpoint.rejected";
/// Counter: sessions rehydrated from disk.
pub const STORE_REHYDRATIONS: &str = "store.session.rehydrations";
/// Counter: idle sessions evicted from memory to disk (LRU).
pub const STORE_EVICTIONS: &str = "store.session.evictions";

// ---------------------------------------------------------------------
// shard (the consistent-hash session router fronting a serve cluster)
// ---------------------------------------------------------------------

/// Counter: client connections accepted by the router's data plane.
pub const SHARD_CONNS_ACCEPTED: &str = "shard.conns.accepted";
/// Counter: request frames routed to a backend (replies not counted).
pub const SHARD_FRAMES_ROUTED: &str = "shard.frames.routed";
/// Counter: backends declared dead (broken pipe or timeout) and marked
/// down for the rest of the router's life.
pub const SHARD_BACKEND_DEATHS: &str = "shard.backend.deaths";
/// Counter: in-flight requests re-routed to the ring's next healthy
/// backend after their owner died.
pub const SHARD_FAILOVER_REROUTES: &str = "shard.failover.reroutes";
/// Counter: distinct sessions whose placement moved because of a
/// backend death (each replays from the shared store on first touch).
pub const SHARD_SESSIONS_REPLAYED: &str = "shard.sessions.replayed";
/// Gauge: backends currently considered healthy.
pub const SHARD_BACKENDS_UP: &str = "shard.backends.up";
/// Counter: connections accepted on the router's admin socket.
pub const SHARD_ADMIN_CONNS: &str = "shard.admin.conns_accepted";
/// Counter: cluster scrapes merged and served by the router.
pub const SHARD_ADMIN_SCRAPES: &str = "shard.admin.scrapes";

// ---------------------------------------------------------------------
// registry table
// ---------------------------------------------------------------------

/// Every static name above, for uniqueness and format auditing.
///
/// Dynamic helpers are represented by their prefix with a trailing
/// `k*` placeholder documented here rather than enumerated.
pub const ALL: &[&str] = &[
    RUNTIME_SNAPSHOT_COUNT,
    RUNTIME_STACK_DEPTH_HWM,
    RUNTIME_GUARD_UNBALANCED_EXITS,
    COLLECT_SNAPSHOT_LATENCY_NS,
    COLLECT_SNAPSHOT_COUNT,
    COLLECT_TICK_JITTER_NS,
    COLLECT_TICKS_MISSED,
    CLUSTER_SELECT_K_SWEEP,
    CLUSTER_SELECT_K_PAIRWISE,
    CLUSTER_KMEANS_CONVERGENCE_DELTA_E12,
    CLUSTER_KMEANS_PRUNED,
    CLUSTER_KMEANS_DISTANCE_EVALS,
    CORE_PIPELINE_DETECT,
    CORE_PIPELINE_FEATURES,
    CORE_PIPELINE_CLUSTER,
    CORE_PIPELINE_ALGORITHM1,
    CORE_PIPELINE_DETECT_RUNS,
    CORE_PIPELINE_DETECT_MANY,
    CORE_PIPELINE_DETECT_SERIES,
    CORE_PIPELINE_DELTA,
    CORE_PIPELINE_MATRIX,
    CORE_CACHE_ANALYZE,
    CORE_CACHE_HITS,
    CORE_CACHE_MISSES,
    CORE_CACHE_PAIR_EXTENDS,
    CORE_CACHE_INVALIDATIONS,
    CORE_CACHE_CENTROID_CONTINUES,
    CORE_CACHE_CENTROID_RESETS,
    CORE_CACHE_CENTROID_REMAPS,
    PAR_POOL_CALLS,
    PAR_POOL_TASKS,
    PAR_POOL_STEALS,
    PAR_POOL_QUEUE_WAITS,
    PAR_POOL_WORKERS,
    LINT_RUN,
    LINT_FILES_SCANNED,
    LINT_DIAGNOSTICS_TOTAL,
    LINT_SUPPRESSIONS_USED,
    SCA_FUNCTIONS,
    SCA_EDGES_CONFIDENT,
    SCA_EDGES_AMBIGUOUS,
    SERVE_SESSIONS_ACTIVE,
    SERVE_SESSIONS_OPENED,
    SERVE_SESSIONS_CLOSED,
    SERVE_FRAMES_IN,
    SERVE_FRAMES_OUT,
    SERVE_BYTES_IN,
    SERVE_BYTES_OUT,
    SERVE_DECODE_ERRORS,
    SERVE_BUSY_REPLIES,
    SERVE_CONNS_ACCEPTED,
    SERVE_INGEST_DETECT_LATENCY_NS,
    SERVE_CLIENT_RETRIES,
    SERVE_CLIENT_RECONNECTS,
    SERVE_ADMIN_CONNS,
    SERVE_ADMIN_REQUESTS,
    SERVE_ADMIN_SCRAPES,
    SERVE_CLIENT_PUSH,
    SERVE_TRACE_SNAPSHOT,
    SERVE_TRACE_OBSERVE,
    SERVE_TRACE_QUERY,
    SERVE_TRACE_SPANS_DROPPED,
    STORE_APPENDS,
    STORE_BYTES_APPENDED,
    STORE_COMPACTIONS,
    STORE_RECORDS_DROPPED,
    STORE_TORN_TAILS,
    STORE_APPEND_ERRORS,
    STORE_CHECKPOINTS,
    STORE_CHECKPOINT_WRITE_ERRORS,
    STORE_CHECKPOINTS_REUSED,
    STORE_CHECKPOINTS_REJECTED,
    STORE_REHYDRATIONS,
    STORE_EVICTIONS,
    SHARD_CONNS_ACCEPTED,
    SHARD_FRAMES_ROUTED,
    SHARD_BACKEND_DEATHS,
    SHARD_FAILOVER_REROUTES,
    SHARD_SESSIONS_REPLAYED,
    SHARD_BACKENDS_UP,
    SHARD_ADMIN_CONNS,
    SHARD_ADMIN_SCRAPES,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(*name), "duplicate metric name: {name}");
        }
    }

    #[test]
    fn names_follow_crate_subsystem_name_format() {
        for name in ALL {
            let parts: Vec<&str> = name.split('.').collect();
            assert!(
                parts.len() >= 3,
                "{name}: expected <crate>.<subsystem>.<name>"
            );
            for p in &parts {
                assert!(!p.is_empty(), "{name}: empty segment");
                assert!(
                    p.chars()
                        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                    "{name}: segment {p} not lower_snake"
                );
            }
        }
    }

    #[test]
    fn dynamic_helpers_extend_registered_prefixes() {
        assert!(cluster_select_k_k(3).starts_with("cluster.select_k.k"));
        assert_eq!(cluster_select_k_k(3), "cluster.select_k.k3");
        assert_eq!(cluster_kmeans_iterations(8), "cluster.kmeans.iterations.k8");
        assert_eq!(
            cluster_kmeans_iterations_total(8),
            "cluster.kmeans.iterations_total.k8"
        );
    }
}

//! The incremental-analysis determinism contract: warm (cached) results
//! must be **byte-identical** to cold `PhaseDetector` output.
//!
//! `AnalysisCache` reuses interval deltas and pairwise-distance entries
//! across streamed queries; its entire correctness argument is that
//! every reused number is bit-for-bit the one a cold run would have
//! computed. These tests pin that over the paper's five applications
//! under a streaming push/query interleave — at every prefix of every
//! series, the cached analysis JSON is compared byte-wise against a
//! fresh `detect_series` (no tolerance, no reparse), including the
//! memoized second query, scaled-feature configurations that force the
//! invalidation path, config changes mid-stream, and the serve-session
//! wiring with the cache on and off.

use incprof_suite::collect::SampleSeries;
use incprof_suite::core::{AnalysisCache, FeatureSet, PhaseDetector};
use incprof_suite::hpc_apps::{gadget2, graph500, lammps, miniamr, minife, HeartbeatPlan, RunMode};
use incprof_suite::profile::FunctionTable;

/// Profile every app once; returns (name, rank-0 series, table).
fn profiled_runs() -> Vec<(&'static str, SampleSeries, FunctionTable)> {
    let plan = HeartbeatPlan::none();
    let mode = RunMode::virtual_1s();
    let mut runs = Vec::new();
    let g = graph500::run(&graph500::Graph500Config::tiny(), mode, &plan).rank0;
    runs.push(("Graph500", g.series, g.table));
    let m = minife::run(&minife::MiniFeConfig::tiny(), mode, &plan).rank0;
    runs.push(("MiniFE", m.series, m.table));
    let a = miniamr::run(&miniamr::MiniAmrConfig::tiny(), mode, &plan).rank0;
    runs.push(("MiniAMR", a.series, a.table));
    let l = lammps::run(&lammps::LammpsConfig::tiny(), mode, &plan).rank0;
    runs.push(("LAMMPS", l.series, l.table));
    let ga = gadget2::run(&gadget2::Gadget2Config::tiny(), mode, &plan).rank0;
    runs.push(("Gadget2", ga.series, ga.table));
    runs
}

fn json(analysis: &incprof_suite::core::PhaseAnalysis) -> String {
    serde_json::to_string(analysis).expect("serialize analysis")
}

/// Stream `series` prefix-by-prefix through `cache`, comparing every
/// warm result (and a second, memoized query) byte-wise against a cold
/// `detect_series` on the same prefix.
fn assert_warm_equals_cold(
    app: &str,
    detector: &PhaseDetector,
    cache: &mut AnalysisCache,
    series: &SampleSeries,
) {
    let mut prefix = SampleSeries::new();
    for snap in series.snapshots() {
        prefix.push(snap.clone());
        let n = prefix.len();
        let cold = json(
            &detector
                .detect_series(&prefix)
                .unwrap_or_else(|e| panic!("{app}[..{n}]: cold detect failed: {e}")),
        );
        let warm = json(
            &cache
                .analyze(detector, &prefix)
                .unwrap_or_else(|e| panic!("{app}[..{n}]: warm analyze failed: {e}")),
        );
        assert_eq!(warm, cold, "{app}[..{n}]: warm != cold");
        // Query again with no new data: the memo path must return the
        // same bytes, not just an equivalent analysis.
        let memo = json(&cache.analyze(detector, &prefix).expect("memo query"));
        assert_eq!(memo, cold, "{app}[..{n}]: memoized != cold");
    }
}

#[test]
fn warm_analysis_is_byte_identical_across_all_apps() {
    let detector = PhaseDetector::default();
    for (app, series, _) in &profiled_runs() {
        let mut cache = AnalysisCache::new();
        assert_warm_equals_cold(app, &detector, &mut cache, series);
    }
}

#[test]
fn warm_analysis_is_byte_identical_under_column_stat_scalings() {
    // MinMax and ZScore scale by *column* statistics, which shift as new
    // intervals arrive — the configurations that exercise the cache's
    // rescale-invalidation fallback. RowFraction is row-local (rows are
    // stable up to new zero columns) and rides the extend path; the
    // wider feature sets change the block layout the prefix check must
    // re-align.
    use incprof_suite::cluster::Scaling;
    let runs = profiled_runs();
    let (app, series, _) = &runs[2]; // MiniAMR: the longest series.
    for scaling in [Scaling::MinMax, Scaling::ZScore, Scaling::RowFraction] {
        for features in [FeatureSet::SelfTime, FeatureSet::SelfTimeAndCalls] {
            let detector = PhaseDetector {
                scaling,
                features,
                ..PhaseDetector::default()
            };
            let mut cache = AnalysisCache::new();
            assert_warm_equals_cold(app, &detector, &mut cache, series);
        }
    }
}

#[test]
fn chain_catchup_over_skipped_pushes_is_byte_identical() {
    // A dashboard that polls rarely leaves the k-means chains several
    // snapshots behind; the next query advances each chain over the
    // missed rows in one go. The fold is defined purely over the data,
    // so the catch-up answer must match both a cold run and a cache
    // that was queried at every push.
    let detector = PhaseDetector::default();
    for stride in [2usize, 5] {
        for (app, series, _) in &profiled_runs() {
            let mut sparse = AnalysisCache::new();
            let mut prefix = SampleSeries::new();
            for (i, snap) in series.snapshots().iter().enumerate() {
                prefix.push(snap.clone());
                let last = i + 1 == series.len();
                if i % stride != 0 && !last {
                    continue; // push without querying
                }
                let cold = json(&detector.detect_series(&prefix).expect("cold"));
                let warm = json(&sparse.analyze(&detector, &prefix).expect("catch-up"));
                assert_eq!(
                    warm,
                    cold,
                    "{app}[..{}] stride {stride}: catch-up != cold",
                    prefix.len()
                );
            }
        }
    }
}

#[test]
fn checkpoint_roundtrip_mid_stream_preserves_warm_byte_identity() {
    // Encode the cache (pair matrix + k-means chains + memo) halfway
    // through a stream, decode it into a fresh instance — as the serve
    // rehydration path does — and finish the stream on the decoded
    // cache. Every post-restore answer must still be byte-identical to
    // cold, and the restored state must be byte-identical to the
    // original encoder's.
    let detector = PhaseDetector::default();
    let runs = profiled_runs();
    for idx in [1usize, 2] {
        // MiniFE and MiniAMR: the series long enough to split.
        let (app, series, _) = &runs[idx];
        let mut cache = AnalysisCache::new();
        let half = series.len() / 2;
        let mut prefix = SampleSeries::new();
        for snap in &series.snapshots()[..half] {
            prefix.push(snap.clone());
            cache.analyze(&detector, &prefix).expect("warm first half");
        }
        let blob = cache.encode_state();
        let mut restored = AnalysisCache::decode_state(&blob).expect("mid-stream blob must decode");
        assert_eq!(
            restored.encode_state(),
            blob,
            "{app}: decode/encode round trip changed the blob"
        );
        for snap in &series.snapshots()[half..] {
            prefix.push(snap.clone());
            let cold = json(&detector.detect_series(&prefix).expect("cold"));
            let warm = json(&restored.analyze(&detector, &prefix).expect("restored"));
            assert_eq!(warm, cold, "{app}[..{}]: restored != cold", prefix.len());
        }
    }
}

#[test]
fn stale_version_checkpoint_is_rejected_not_misparsed() {
    // The chain section bumped the blob format to v2, dropping the pair
    // section to v3. A v1 or v2 blob (or any other version byte) must be
    // refused outright — the caller then replays the snapshot log cold —
    // never field-shifted into garbage.
    let detector = PhaseDetector::default();
    let runs = profiled_runs();
    let (_, series, _) = &runs[1];
    let mut cache = AnalysisCache::new();
    cache.analyze(&detector, series).expect("warm");
    let mut blob = cache.encode_state();
    assert!(AnalysisCache::decode_state(&blob).is_some());
    let current = blob[0];
    for version in [0u8, 1, 2, current + 1, 0xFF] {
        blob[0] = version;
        assert!(
            AnalysisCache::decode_state(&blob).is_none(),
            "version {version} blob must be rejected"
        );
    }
}

#[test]
fn config_change_mid_stream_invalidates_instead_of_serving_stale() {
    let runs = profiled_runs();
    let (_, series, _) = &runs[1]; // MiniFE
    let a = PhaseDetector::default();
    let b = PhaseDetector {
        seed: 7,
        ..PhaseDetector::default()
    };
    assert_ne!(a.fingerprint(), b.fingerprint());
    let mut cache = AnalysisCache::new();
    // Warm the cache fully under config A, then swap to B on the same
    // series: results must match a cold B run, then a cold A run again.
    cache.analyze(&a, series).expect("warm A");
    let warm_b = json(&cache.analyze(&b, series).expect("warm B"));
    let cold_b = json(&b.detect_series(series).expect("cold B"));
    assert_eq!(warm_b, cold_b, "stale config-A state leaked into B");
    let warm_a = json(&cache.analyze(&a, series).expect("warm A again"));
    let cold_a = json(&a.detect_series(series).expect("cold A"));
    assert_eq!(warm_a, cold_a);
}

#[test]
fn serve_sessions_with_and_without_cache_agree_under_interleave() {
    use incprof_suite::core::OnlineConfig;
    use incprof_suite::serve::{Registry, ReportMode};
    use std::time::Instant;

    let detector = PhaseDetector::default();
    for (app, series, table) in &profiled_runs() {
        let cached = Registry::new(OnlineConfig::default(), 2, 64, true);
        let uncached = Registry::new(OnlineConfig::default(), 2, 64, false);
        let (_, cs) = cached.open().expect("open cached");
        let (_, us) = uncached.open().expect("open uncached");
        let mut cs = cs.lock().expect("lock cached session");
        let mut us = us.lock().expect("lock uncached session");
        for (i, snap) in series.snapshots().iter().enumerate() {
            let gmon = snap.to_gmon(table);
            cs.enqueue(gmon.clone(), Instant::now()).expect("enqueue");
            us.enqueue(gmon, Instant::now()).expect("enqueue");
            // Interleave: query both sessions after every push (the
            // query drains the pending snapshot first), twice every
            // third push to hit the memo path.
            let queries = if i % 3 == 0 { 2 } else { 1 };
            for _ in 0..queries {
                assert_eq!(
                    cs.report_json(&detector, ReportMode::AnalysisOnly),
                    us.report_json(&detector, ReportMode::AnalysisOnly),
                    "{app}: cached session diverged at push {i}"
                );
            }
        }
        assert_eq!(
            cs.report_json(&detector, ReportMode::Full),
            us.report_json(&detector, ReportMode::Full),
            "{app}: full reports diverged"
        );
    }
}

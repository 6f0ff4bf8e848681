//! Parallel determinism gate: phase detection must be **bit-identical**
//! for every `INCPROF_THREADS` setting.
//!
//! The `incprof-par` pool promises that chunk boundaries and reduction
//! order never depend on the worker count. This test drives the promise
//! end-to-end: profile each of the paper's five applications once
//! (virtual clock — the collected series itself is deterministic), then
//! run the full detection pipeline (feature build → k sweep → elbow or
//! silhouette → Algorithm 1) at 1, 2, and 8 workers and require exact equality of
//! every output — assignments, phases, and the raw f64 WCSS / silhouette
//! sweeps (compared bitwise, not within a tolerance).

use incprof_suite::collect::SampleSeries;
use incprof_suite::core::{PhaseAnalysis, PhaseDetector};
use incprof_suite::hpc_apps::{gadget2, graph500, lammps, miniamr, minife, HeartbeatPlan, RunMode};

/// Profile every app once; returns (name, rank-0 cumulative series).
fn profiled_series() -> Vec<(&'static str, SampleSeries)> {
    let plan = HeartbeatPlan::none();
    let mode = RunMode::virtual_1s();
    vec![
        (
            "Graph500",
            graph500::run(&graph500::Graph500Config::tiny(), mode, &plan)
                .rank0
                .series,
        ),
        (
            "MiniFE",
            minife::run(&minife::MiniFeConfig::tiny(), mode, &plan)
                .rank0
                .series,
        ),
        (
            "MiniAMR",
            miniamr::run(&miniamr::MiniAmrConfig::tiny(), mode, &plan)
                .rank0
                .series,
        ),
        (
            "LAMMPS",
            lammps::run(&lammps::LammpsConfig::tiny(), mode, &plan)
                .rank0
                .series,
        ),
        (
            "Gadget2",
            gadget2::run(&gadget2::Gadget2Config::tiny(), mode, &plan)
                .rank0
                .series,
        ),
    ]
}

fn assert_bit_identical(app: &str, threads: usize, base: &PhaseAnalysis, got: &PhaseAnalysis) {
    assert_eq!(got.k, base.k, "{app}: k differs at {threads} threads");
    assert_eq!(
        got.assignments, base.assignments,
        "{app}: assignments differ at {threads} threads"
    );
    assert_eq!(
        got.phases, base.phases,
        "{app}: phases differ at {threads} threads"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(&got.wcss_sweep),
        bits(&base.wcss_sweep),
        "{app}: WCSS sweep differs bitwise at {threads} threads"
    );
    let sil_bits = |v: &[Option<f64>]| {
        v.iter()
            .map(|x| x.map(f64::to_bits))
            .collect::<Vec<Option<u64>>>()
    };
    assert_eq!(
        sil_bits(&got.silhouette_sweep),
        sil_bits(&base.silhouette_sweep),
        "{app}: silhouette sweep differs bitwise at {threads} threads"
    );
}

#[test]
fn clustering_is_bit_identical_across_thread_counts() {
    // The default (elbow) detector scores no silhouette; the silhouette
    // detector is the one that pins the parallel silhouette sums.
    use incprof_suite::cluster::KSelectionMethod;
    use incprof_suite::core::ClusteringMethod;
    let silhouette = PhaseDetector {
        clustering: ClusteringMethod::KMeans {
            k_max: 8,
            selection: KSelectionMethod::Silhouette,
        },
        ..PhaseDetector::default()
    };
    let all = profiled_series();
    for detector in [PhaseDetector::new(), silhouette] {
        for (app, series) in &all {
            incprof_suite::par::set_threads(1);
            let base = detector
                .detect_series(series)
                .unwrap_or_else(|e| panic!("{app}: {e}"));
            assert!(base.k >= 1, "{app}: no phases detected");
            for threads in [2usize, 8] {
                incprof_suite::par::set_threads(threads);
                let got = detector.detect_series(series).unwrap();
                assert_bit_identical(app, threads, &base, &got);
            }
            incprof_suite::par::set_threads(0);
        }
    }
}

#[test]
fn pruned_kmeans_is_bit_identical_across_thread_counts() {
    // The Hamerly-bound fast path skips exact distance work per point;
    // its correctness claim is "identical bits to the naive argmin, at
    // any worker count". The tiny app series stay under the parallel
    // threshold inside Lloyd (n·k·d >= 200_000), so synthesize a
    // 3000×10 dataset where k = 8 crosses it and the pruned assignment
    // really runs chunked.
    use incprof_suite::cluster::{kmeans, Dataset, KMeansConfig};
    let (n, d) = (3000usize, 10usize);
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 40) as f64 / (1u64 << 24) as f64
    };
    let mut data = Dataset::zeros(n, d);
    for i in 0..n {
        let blob = (i % 4) as f64 * 10.0;
        for j in 0..d {
            data.set(i, j, blob + next());
        }
    }
    let pruned = KMeansConfig::new(8).with_seed(99);
    let naive = KMeansConfig {
        pruning: false,
        ..pruned.clone()
    };
    let bits = |r: &incprof_suite::cluster::KMeansResult| {
        let centroid_bits: Vec<u64> = (0..8)
            .flat_map(|c| r.centroids.row(c).iter().map(|v| v.to_bits()))
            .collect();
        (
            r.assignments.clone(),
            r.wcss.to_bits(),
            centroid_bits,
            r.iterations,
        )
    };
    incprof_suite::par::set_threads(1);
    let base = kmeans(&data, &pruned);
    assert_eq!(
        bits(&base),
        bits(&kmeans(&data, &naive)),
        "pruning changed the result at 1 thread"
    );
    for threads in [2usize, 8] {
        incprof_suite::par::set_threads(threads);
        assert_eq!(
            bits(&kmeans(&data, &pruned)),
            bits(&base),
            "pruned k-means differs at {threads} threads"
        );
        assert_eq!(
            bits(&kmeans(&data, &naive)),
            bits(&base),
            "naive k-means differs at {threads} threads"
        );
    }
    incprof_suite::par::set_threads(0);
}

#[test]
fn detect_many_is_bit_identical_to_solo_detects() {
    // Batch-of-runs concurrency (one pool task per run) must not change
    // any individual result either.
    let detector = PhaseDetector::new();
    let series = profiled_series();
    let matrices: Vec<_> = series
        .iter()
        .map(|(_, s)| {
            incprof_suite::collect::IntervalMatrix::from_interval_profiles(
                &s.interval_profiles().unwrap(),
            )
        })
        .collect();
    incprof_suite::par::set_threads(8);
    let batched = detector.detect_many(&matrices);
    incprof_suite::par::set_threads(1);
    for (i, (app, _)) in series.iter().enumerate() {
        let solo = detector.detect(&matrices[i]).unwrap();
        let got = batched[i].as_ref().unwrap();
        assert_bit_identical(app, 8, &solo, got);
    }
    incprof_suite::par::set_threads(0);
}

//! The k = 7/8 Lloyd-iteration budget, end to end.
//!
//! The empty-cluster repair used to oscillate against the argmin step on
//! duplicate-heavy prefixes and burn `max_iters × restarts` ≈ 1650 Lloyd
//! iterations per analysis at k = 7 and k = 8; the exact fixed-point
//! break took that to a few dozen. This pins the drop (≥ 5×) where it
//! matters: one cold `detect_series` per prefix of each of the paper's
//! five applications, counted by the `cluster.kmeans.iterations_total.k*`
//! counters. The count is deterministic at the fixed seed — it does not
//! depend on the thread count or on timing.
//!
//! The counters are process-global and `cargo test` runs a binary's
//! tests concurrently, so this file holds exactly one `#[test]`.

use incprof_suite::collect::SampleSeries;
use incprof_suite::core::PhaseDetector;
use incprof_suite::hpc_apps::{gadget2, graph500, lammps, miniamr, minife, HeartbeatPlan, RunMode};
use incprof_suite::obs::{counter, names};

/// Maximum average Lloyd iterations per analysis summed over k = 7 and
/// k = 8 (one fifth of the ~1650 the repair oscillation used to burn).
const MAX_K78_ITERS_PER_ANALYSIS: u64 = 330;

fn k78_iterations() -> u64 {
    counter(&names::cluster_kmeans_iterations_total(7)).get()
        + counter(&names::cluster_kmeans_iterations_total(8)).get()
}

#[test]
fn k7_k8_lloyd_iterations_stay_within_budget_over_all_app_prefixes() {
    let plan = HeartbeatPlan::none();
    let mode = RunMode::virtual_1s();
    let runs: [(&str, SampleSeries); 5] = [
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
    ];

    let detector = PhaseDetector::default();
    let before = k78_iterations();
    let mut analyses = 0u64;
    for (app, series) in &runs {
        let mut prefix = SampleSeries::new();
        for snap in series.snapshots() {
            prefix.push(snap.clone());
            detector
                .detect_series(&prefix)
                .unwrap_or_else(|e| panic!("{app}[..{}]: {e}", prefix.len()));
            analyses += 1;
        }
    }
    let iterations = k78_iterations() - before;

    assert_eq!(analyses, 57, "one analysis per prefix of the five series");
    assert!(iterations > 0, "the k = 7/8 counters must be live");
    assert!(
        iterations <= MAX_K78_ITERS_PER_ANALYSIS * analyses,
        "k7+k8 Lloyd iterations: {iterations} over {analyses} analyses = {}/analysis, cap {MAX_K78_ITERS_PER_ANALYSIS}",
        iterations / analyses
    );
}

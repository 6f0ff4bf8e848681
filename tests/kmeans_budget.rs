//! The k-means work budget, end to end: one cold `detect_series` per
//! prefix of each of the paper's five applications.
//!
//! * **Lloyd iterations at k = 7/8.** The empty-cluster repair used to
//!   oscillate against the argmin step on duplicate-heavy prefixes and
//!   burn `max_iters × restarts` ≈ 1650 Lloyd iterations per analysis at
//!   k = 7 and k = 8; the exact fixed-point break took that to a few
//!   dozen. This pins the drop (≥ 5×) where it matters, counted by the
//!   `cluster.kmeans.iterations_total.k*` counters.
//! * **Exact distance evaluations** in the assignment step
//!   (`cluster.kmeans.distance_evals`), over every k: what the Hamerly
//!   bounds and the fold's carried state leave to compute. The count is
//!   pinned exactly, so a change to the bounds that computes more (or,
//!   unexpectedly, fewer) distances shows here and must say why.
//! * **Lloyd iterations at k = 1**, pinned exactly: the k = 1 chain is
//!   exempt from review, so its count is the base cases' restarts and
//!   the fold's continuations alone.
//! * **Lloyd iterations of a cycling fold**, pinned exactly: a cold fold
//!   of a duplicate-heavy series whose empty-cluster repair cycles with
//!   the argmin step. The pruned fold stops each cycling run once Brent's
//!   scheme has found the period, on the bits the oracle
//!   (`pruning = false`) reaches at `MAX_ITERS`; both folds' chains are
//!   compared bit for bit.
//!
//! All four counts are deterministic at the fixed seed — they do not
//! depend on the thread count or on timing.
//!
//! The counters are process-global and `cargo test` runs a binary's
//! tests concurrently, so this file holds exactly one `#[test]`.

mod common;

use common::chain_config;
use incprof_suite::cluster::{Dataset, KSelectionMethod, SweepChains};
use incprof_suite::collect::SampleSeries;
use incprof_suite::core::PhaseDetector;
use incprof_suite::obs::{counter, names};

/// Maximum average Lloyd iterations per analysis summed over k = 7 and
/// k = 8 (one fifth of the ~1650 the repair oscillation used to burn).
const MAX_K78_ITERS_PER_ANALYSIS: u64 = 330;

/// Exact point–centroid distance evaluations over all 57 analyses. It
/// was 222 674 while a from-scratch run's first assignment step counted
/// k evaluations per row (it now resumes from k-means++'s distances and
/// computes one: −64 016) and k = 1 chains were reviewed (−544: 17
/// analyses reach the review at 16 rows, whose two k = 1 candidates
/// each computed 16 rows exactly, then pruned them all). The same under
/// per-row Hamerly bounds and under their drift-offset form (one slack
/// key per row). It was 233 831 while k = 1 rows could not prune (their
/// +∞ lower bound had been padded to NaN), and 361 554 before each fold
/// step carried its bounds, cluster sums and point distances, when
/// every step started with an exact pass.
const DISTANCE_EVALS: u64 = 158_114;

/// Exact k = 1 Lloyd iterations over all 57 analyses
/// (`cluster.kmeans.iterations_total.k1`). It was 1 666 while k = 1
/// chains were reviewed: the 17 reviews' two candidates ran two
/// iterations each.
const K1_ITERATIONS: u64 = 1_598;

/// Lloyd iterations actually run by the pruned cold fold of
/// [`duplicates`] (`cluster.kmeans.iterations_total.k*`, every k). The
/// oracle (`pruning = false`), which runs every repair cycle out to
/// `MAX_ITERS`, runs 33 213; so did the pruned fold before it skipped
/// cycles.
const DUPLICATE_FOLD_ITERATIONS: u64 = 8_867;

/// Rows of the duplicate-heavy series [`duplicates`].
const DUPLICATE_ROWS: usize = 96;

/// Every row is one of five distinct, non-dyadic rows, so k = 6..8 has
/// more clusters than distinct points and the empty-cluster repair
/// cycles with the argmin step until `MAX_ITERS`.
fn duplicates() -> Dataset {
    let distinct: Vec<Vec<f64>> = (0..5)
        .map(|r| {
            (0..4)
                .map(|j| ((3 * r + j) % 7) as f64 * 1.3 + 0.1 * r as f64)
                .collect()
        })
        .collect();
    Dataset::from_rows(
        (0..DUPLICATE_ROWS)
            .map(|i| distinct[(i * 7 + i / 3) % 5].clone())
            .collect(),
    )
}

/// A cold fold of `data` at k ≤ 8, and the Lloyd iterations it ran.
fn cold_fold(data: &Dataset, pruning: bool) -> (SweepChains, u64) {
    let all = || (1..=8).map(|k| counter(&names::cluster_kmeans_iterations_total(k)).get());
    let before: u64 = all().sum();
    let mut chains = SweepChains::new();
    chains.evaluate(
        data,
        8,
        KSelectionMethod::Elbow,
        &chain_config(pruning),
        None,
        false,
    );
    (chains, all().sum::<u64>() - before)
}

fn k78_iterations() -> u64 {
    counter(&names::cluster_kmeans_iterations_total(7)).get()
        + counter(&names::cluster_kmeans_iterations_total(8)).get()
}

#[test]
fn k7_k8_lloyd_iterations_stay_within_budget_over_all_app_prefixes() {
    let apps = common::apps();
    let detector = PhaseDetector::default();
    let evals = || counter(names::CLUSTER_KMEANS_DISTANCE_EVALS).get();
    let k1 = || counter(&names::cluster_kmeans_iterations_total(1)).get();
    let before = k78_iterations();
    let evals_before = evals();
    let k1_before = k1();
    let mut analyses = 0u64;
    for app in apps {
        let mut prefix = SampleSeries::new();
        for snap in app.series.snapshots() {
            prefix.push(snap.clone());
            detector
                .detect_series(&prefix)
                .unwrap_or_else(|e| panic!("{}[..{}]: {e}", app.name, prefix.len()));
            analyses += 1;
        }
    }
    let iterations = k78_iterations() - before;
    let distance_evals = evals() - evals_before;
    let k1_iterations = k1() - k1_before;

    assert_eq!(analyses, 57, "one analysis per prefix of the five series");
    assert!(iterations > 0, "the k = 7/8 counters must be live");
    assert!(
        iterations <= MAX_K78_ITERS_PER_ANALYSIS * analyses,
        "k7+k8 Lloyd iterations: {iterations} over {analyses} analyses = {}/analysis, cap {MAX_K78_ITERS_PER_ANALYSIS}",
        iterations / analyses
    );
    assert_eq!(
        distance_evals, DISTANCE_EVALS,
        "exact distance evaluations over {analyses} analyses"
    );
    assert_eq!(
        k1_iterations, K1_ITERATIONS,
        "k = 1 Lloyd iterations over {analyses} analyses"
    );

    // The cycle skip: the pruned fold stops a cycling run early, on the
    // bits the oracle reaches at `MAX_ITERS`.
    let data = duplicates();
    let (pruned, ran) = cold_fold(&data, true);
    let (oracle, oracle_ran) = cold_fold(&data, false);
    for (p, o) in pruned.chains.iter().zip(&oracle.chains) {
        let k = p.k;
        assert_eq!(p.last.assignments, o.last.assignments, "k = {k}");
        let bits = |c: &SweepChains, k: usize| -> Vec<u64> {
            let last = &c.chains[k - 1].last;
            let centroids = (0..k).flat_map(|r| last.centroids.row(r).iter().map(|v| v.to_bits()));
            centroids.chain([last.wcss.to_bits()]).collect()
        };
        assert_eq!(bits(&pruned, k), bits(&oracle, k), "k = {k}");
        assert_eq!(
            (p.last.iterations, p.last.total_iterations),
            (o.last.iterations, o.last.total_iterations),
            "k = {k}"
        );
    }
    assert_eq!(
        ran, DUPLICATE_FOLD_ITERATIONS,
        "Lloyd iterations of the pruned cold fold of {DUPLICATE_ROWS} duplicate-heavy rows \
         (the oracle, which runs every cycle out, ran {oracle_ran})"
    );
}

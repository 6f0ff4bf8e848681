//! k-means clustering: k-means++ seeding + Lloyd's iterations.
//!
//! This is the clustering step of the IncProf pipeline (§V-A): "Interval
//! data is then clustered using the k-means clustering algorithm, and each
//! cluster is interpreted as a phase of execution."
//!
//! The implementation is deterministic given [`KMeansConfig::seed`], uses
//! several restarts and keeps the best (lowest-WCSS) run, and repairs empty
//! clusters by reseeding them on the point farthest from its centroid.
//!
//! Two cost controls keep the hot path cheap without moving a single
//! output bit:
//!
//! * **Hamerly-style pruning** ([`KMeansConfig::pruning`]): per-point
//!   triangle-inequality bounds skip the k distance evaluations whenever
//!   the assigned centroid is provably still the unique nearest. Bounds
//!   are padded conservatively, so a bound error can only cause an extra
//!   exact recomputation — never a wrong (or even differently tie-broken)
//!   assignment.
//! * **Fixed-point detection**: a Lloyd iteration is a deterministic
//!   function of the `(assignments, centroids)` state, so an iteration
//!   that ends in exactly the state the previous one ended in will repeat
//!   it forever. Empty-cluster repair on duplicate-heavy data (more
//!   clusters than distinct points) used to oscillate at such a fixed
//!   point — the repair re-homed a point *after* the `changed` flag was
//!   computed, the next assignment step undid it, and every restart burned
//!   the full `max_iters` budget (the k=7/k=8 "~1650 iterations" burn in
//!   `serve_report.json`). Detecting the repeated state exits with the
//!   exact same final state, just without the burn.

use crate::dataset::Dataset;
use crate::distance::sq_euclidean;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`kmeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum Lloyd iterations per restart.
    pub max_iters: usize,
    /// Number of independent seeded restarts; the best (lowest WCSS) wins.
    pub restarts: usize,
    /// RNG seed for the k-means++ initialization.
    pub seed: u64,
    /// Convergence tolerance on centroid movement (squared distance).
    pub tol: f64,
    /// Skip provably-unchanged assignments via Hamerly-style bounds.
    /// Output is bit-identical either way; `false` exists as the test
    /// oracle and for debugging.
    pub pruning: bool,
}

impl KMeansConfig {
    /// A reasonable default configuration for `k` clusters.
    pub fn new(k: usize) -> KMeansConfig {
        KMeansConfig {
            k,
            max_iters: 100,
            restarts: 8,
            seed: 0x1AC0_FFEE,
            tol: 1e-12,
            pruning: true,
        }
    }

    /// Same configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> KMeansConfig {
        self.seed = seed;
        self
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster index (0..k) for every input row.
    pub assignments: Vec<usize>,
    /// Final centroids, one row per cluster.
    pub centroids: Dataset,
    /// Within-cluster sum of squares (inertia) of the final assignment.
    pub wcss: f64,
    /// Lloyd iterations performed by the winning restart.
    pub iterations: usize,
    /// Lloyd iterations summed across every restart of the call (for a
    /// single warm run, equal to `iterations`). This is the compute-cost
    /// view the `cluster.kmeans.iterations_total.k*` counter tracks;
    /// `iterations` is the convergence view.
    pub total_iterations: u64,
}

impl KMeansResult {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.nrows()
    }

    /// Row indices belonging to cluster `c`, in ascending order.
    pub fn members_of(&self, c: usize) -> Vec<usize> {
        self.assignments
            .iter()
            .enumerate()
            .filter(|&(_, &a)| a == c)
            .map(|(i, _)| i)
            .collect()
    }

    /// Squared distance from row `i` of `data` to its assigned centroid.
    pub fn sq_dist_to_centroid(&self, data: &Dataset, i: usize) -> f64 {
        sq_euclidean(data.row(i), self.centroids.row(self.assignments[i]))
    }
}

/// What [`kmeans`] and [`kmeans_warm`] both require of their input.
fn check_preconditions(data: &Dataset, config: &KMeansConfig) {
    let n = data.nrows();
    assert!(config.k >= 1, "k must be at least 1");
    assert!(n >= 1, "cannot cluster an empty dataset");
    assert!(
        config.k <= n,
        "k = {} exceeds number of points {n}",
        config.k
    );
}

/// Run k-means on `data`.
///
/// # Panics
/// Panics if `config.k == 0` or the dataset is empty, or `k > n`.
pub fn kmeans(data: &Dataset, config: &KMeansConfig) -> KMeansResult {
    check_preconditions(data, config);

    let mut best: Option<KMeansResult> = None;
    let mut total_iterations = 0u64;
    for r in 0..config.restarts.max(1) {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(r as u64));
        let init = kmeanspp_init(data, config.k, &mut rng);
        let result = lloyd(data, config, init);
        total_iterations += result.iterations as u64;
        if best.as_ref().is_none_or(|b| result.wcss < b.wcss) {
            best = Some(result);
        }
    }
    // lint: allow(P01, restarts.max(1) above guarantees the loop body ran at least once)
    let mut best = best.expect("at least one restart ran");
    best.total_iterations = total_iterations;
    // Two views of the same sweep: the winner's iteration count measures
    // convergence, the cross-restart total measures compute spent. The
    // old single counter conflated them (it added the total under the
    // winner's name).
    incprof_obs::counter(&incprof_obs::names::cluster_kmeans_iterations(config.k))
        .add(best.iterations as u64);
    incprof_obs::counter(&incprof_obs::names::cluster_kmeans_iterations_total(
        config.k,
    ))
    .add(total_iterations);
    best
}

/// Run Lloyd's algorithm once, warm-started from `init` (no k-means++
/// seeding, no restarts). This is the per-row step of the incremental
/// fold in [`crate::incremental`]: from near-converged centroids Lloyd
/// typically settles in one or two iterations.
///
/// # Panics
/// Panics if `config.k == 0`, the dataset is empty, `k > n`, or `init`
/// is not a `k × d` centroid matrix for `data`.
pub fn kmeans_warm(data: &Dataset, config: &KMeansConfig, init: &Dataset) -> KMeansResult {
    check_preconditions(data, config);
    assert_eq!(
        init.nrows(),
        config.k,
        "warm start has {} centroids but k = {}",
        init.nrows(),
        config.k
    );
    assert_eq!(
        init.ncols(),
        data.ncols(),
        "warm start dimensionality {} does not match data {}",
        init.ncols(),
        data.ncols()
    );
    let result = lloyd(data, config, init.clone());
    incprof_obs::counter(&incprof_obs::names::cluster_kmeans_iterations_total(
        config.k,
    ))
    .add(result.iterations as u64);
    result
}

fn lloyd(data: &Dataset, config: &KMeansConfig, init: Dataset) -> KMeansResult {
    let n = data.nrows();
    let d = data.ncols();
    let k = config.k;

    let mut centroids = init;
    let mut assignments = vec![0usize; n];
    let mut iterations = 0;
    let mut last_movement = 0.0f64;
    let mut pruned_points = 0u64;

    // Hamerly-style bounds, in plain (square-rooted) distance space,
    // preallocated once per run: `upper[i]` bounds the distance from
    // point i to its assigned centroid from above, `lower[i]` bounds the
    // distance to every *other* centroid from below. While strictly
    // `upper[i] < lower[i]`, the assigned centroid is provably the unique
    // nearest, so the naive argmin (strict `<`, lowest index on ties)
    // would reproduce the same assignment — skipping it is bit-identical.
    // `moved[c]` is how far centroid c traveled in the last update, used
    // to loosen the bounds via the triangle inequality.
    let mut upper = vec![f64::INFINITY; n];
    let mut lower = vec![0.0f64; n];
    let mut moved = vec![0.0f64; k];
    let mut bounds_valid = false;

    // End-of-iteration state of the previous iteration, for the
    // fixed-point break (see the module docs).
    let mut prev_assignments: Vec<usize> = Vec::new();
    let mut prev_centroid_bits: Vec<u64> = Vec::new();

    // Parallelize the assignment step (each point's argmin is
    // independent and deterministic) once the work justifies the
    // fork/join overhead. Inside a full k-sweep this call already
    // runs on a pool worker, so the nested call degrades to sequential.
    let parallel = n * k * d >= 200_000;

    for iter in 0..config.max_iters {
        iterations = iter + 1;
        // Assignment step. Returns (cluster, upper, lower, pruned) per
        // point; pruned points keep their assignment and bounds.
        let use_bounds = bounds_valid && config.pruning;
        let assign_one = |i: usize| -> (usize, f64, f64, bool) {
            if use_bounds && upper[i] < lower[i] {
                return (assignments[i], upper[i], lower[i], true);
            }
            let row = data.row(i);
            let mut best_c = 0;
            let mut best_d = f64::INFINITY;
            let mut second_d = f64::INFINITY;
            for c in 0..k {
                let dist = sq_euclidean(row, centroids.row(c));
                if dist < best_d {
                    second_d = best_d;
                    best_d = dist;
                    best_c = c;
                } else if dist < second_d {
                    second_d = dist;
                }
            }
            (
                best_c,
                pad_up(best_d.sqrt()),
                pad_down(second_d.sqrt()),
                false,
            )
        };
        let new_assignments: Vec<(usize, f64, f64, bool)> = if parallel {
            incprof_par::par_map_index(n, assign_one)
        } else {
            (0..n).map(assign_one).collect()
        };
        let mut changed = false;
        for (i, &(c, up, lo, pruned)) in new_assignments.iter().enumerate() {
            if assignments[i] != c {
                assignments[i] = c;
                changed = true;
            }
            upper[i] = up;
            lower[i] = lo;
            if pruned {
                pruned_points += 1;
            }
        }

        // Update step.
        let mut sums = Dataset::zeros(k, d);
        let mut counts = vec![0usize; k];
        for i in 0..n {
            let c = assignments[i];
            counts[c] += 1;
            let row = data.row(i);
            let target = sums.row_mut(c);
            for j in 0..d {
                target[j] += row[j];
            }
        }
        let mut movement: f64 = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: reseed on the point farthest from its
                // current centroid (a standard repair strategy).
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = sq_euclidean(data.row(a), centroids.row(assignments[a]));
                        let db = sq_euclidean(data.row(b), centroids.row(assignments[b]));
                        da.total_cmp(&db)
                    })
                    // lint: allow(P01, lloyd is only reachable with a non-empty dataset so max_by has candidates)
                    .expect("n >= 1");
                let row = data.row(far).to_vec();
                let m = sq_euclidean(&row, centroids.row(c));
                movement += m;
                moved[c] = pad_up(m.sqrt());
                centroids.row_mut(c).copy_from_slice(&row);
                assignments[far] = c;
                // The repair re-homed `far` outside the assignment step;
                // its bounds describe the old assignment, so force an
                // exact recomputation next iteration.
                upper[far] = f64::INFINITY;
                lower[far] = 0.0;
                continue;
            }
            let inv = 1.0 / counts[c] as f64;
            let mut new_c = vec![0.0; d];
            for (j, v) in new_c.iter_mut().enumerate() {
                *v = sums.get(c, j) * inv;
            }
            let m = sq_euclidean(&new_c, centroids.row(c));
            movement += m;
            moved[c] = pad_up(m.sqrt());
            centroids.row_mut(c).copy_from_slice(&new_c);
        }

        if config.pruning {
            // Triangle inequality: a point's distance to its (moved)
            // centroid grew by at most the centroid's travel; its
            // distance to any other centroid shrank by at most the
            // largest travel of any centroid.
            let mut max_move = 0.0f64;
            for &m in &moved {
                if m > max_move {
                    max_move = m;
                }
            }
            for i in 0..n {
                upper[i] = pad_up(upper[i] + moved[assignments[i]]);
                lower[i] = pad_down(lower[i] - max_move);
            }
            bounds_valid = true;
        }

        last_movement = movement;
        if !changed && movement <= config.tol {
            break;
        }
        // Fixed-point break: the next iteration is a deterministic
        // function of (assignments, centroids), so a repeated
        // end-of-iteration state would replay forever — the final state
        // at max_iters is exactly this one. Catches the empty-cluster
        // repair oscillation on duplicate-heavy data without changing a
        // single output bit.
        let centroid_bits: Vec<u64> = (0..k)
            .flat_map(|c| centroids.row(c).iter().map(|v| v.to_bits()))
            .collect();
        if prev_assignments == assignments && prev_centroid_bits == centroid_bits {
            break;
        }
        prev_assignments.clone_from(&assignments);
        prev_centroid_bits = centroid_bits;
    }

    // Centroid movement of the final iteration, in picounits (×1e12) so
    // sub-tolerance deltas still land in distinguishable buckets.
    incprof_obs::histogram(incprof_obs::names::CLUSTER_KMEANS_CONVERGENCE_DELTA_E12)
        .record((last_movement * 1e12) as u64);
    incprof_obs::counter(incprof_obs::names::CLUSTER_KMEANS_PRUNED).add(pruned_points);

    let wcss = (0..n)
        .map(|i| sq_euclidean(data.row(i), centroids.row(assignments[i])))
        // lint: allow(D04, WCSS is summed sequentially in point order on the caller thread after assignment settles)
        .sum();
    KMeansResult {
        assignments,
        centroids,
        wcss,
        iterations,
        total_iterations: iterations as u64,
    }
}

/// Round a bound up so that accumulated floating-point error can never
/// make it optimistic. ~4500 ulps of relative slack plus a subnormal
/// floor covers the handful of rounded operations per bound update by
/// orders of magnitude; the only cost of over-padding is an extra exact
/// distance computation.
#[inline]
fn pad_up(x: f64) -> f64 {
    x + (x.abs() * 1e-12 + 1e-300)
}

/// Mirror of [`pad_up`] for lower bounds.
#[inline]
fn pad_down(x: f64) -> f64 {
    x - (x.abs() * 1e-12 + 1e-300)
}

/// k-means++ seeding: first centroid uniform, each subsequent centroid
/// sampled with probability proportional to squared distance from the
/// nearest already-chosen centroid.
fn kmeanspp_init(data: &Dataset, k: usize, rng: &mut StdRng) -> Dataset {
    let n = data.nrows();
    let d = data.ncols();
    let mut centroids = Dataset::zeros(k, d);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));

    let mut min_sq = vec![f64::INFINITY; n];
    for c in 1..k {
        for i in 0..n {
            let dist = sq_euclidean(data.row(i), centroids.row(c - 1));
            if dist < min_sq[i] {
                min_sq[i] = dist;
            }
        }
        // lint: allow(D04, kmeans++ seeding is sequential by construction; the running distance sum never crosses threads)
        let total: f64 = min_sq.iter().sum();
        let chosen = if total > 0.0 {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &w) in min_sq.iter().enumerate() {
                if target < w {
                    pick = i;
                    break;
                }
                target -= w;
            }
            pick
        } else {
            // All points coincide with chosen centroids; pick uniformly.
            rng.gen_range(0..n)
        };
        centroids.row_mut(c).copy_from_slice(data.row(chosen));
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> Dataset {
        // Two well-separated 2-D blobs of 5 points each.
        let mut rows = Vec::new();
        for i in 0..5 {
            rows.push(vec![0.0 + 0.1 * i as f64, 0.0 - 0.1 * i as f64]);
        }
        for i in 0..5 {
            rows.push(vec![10.0 + 0.1 * i as f64, 10.0 - 0.1 * i as f64]);
        }
        Dataset::from_rows(rows)
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs();
        let res = kmeans(&data, &KMeansConfig::new(2));
        let first = res.assignments[0];
        assert!(res.assignments[..5].iter().all(|&a| a == first));
        assert!(res.assignments[5..].iter().all(|&a| a == 1 - first));
        assert!(res.wcss < 1.0);
    }

    #[test]
    fn k_equals_one_centroid_is_mean() {
        let data = Dataset::from_rows(vec![vec![1.0], vec![3.0], vec![5.0]]);
        let res = kmeans(&data, &KMeansConfig::new(1));
        assert!((res.centroids.get(0, 0) - 3.0).abs() < 1e-12);
        // WCSS = (2^2 + 0 + 2^2) = 8
        assert!((res.wcss - 8.0).abs() < 1e-12);
    }

    #[test]
    fn k_equals_n_gives_zero_wcss() {
        let data = Dataset::from_rows(vec![vec![1.0, 0.0], vec![2.0, 0.0], vec![3.0, 0.0]]);
        let res = kmeans(&data, &KMeansConfig::new(3));
        assert!(res.wcss < 1e-18);
        let mut sorted = res.assignments.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2], "each point in its own cluster");
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = two_blobs();
        let cfg = KMeansConfig::new(3).with_seed(1234);
        let a = kmeans(&data, &cfg);
        let b = kmeans(&data, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn assignments_are_nearest_centroid() {
        let data = two_blobs();
        let res = kmeans(&data, &KMeansConfig::new(2));
        for i in 0..data.nrows() {
            let own = res.sq_dist_to_centroid(&data, i);
            for c in 0..res.k() {
                let other = sq_euclidean(data.row(i), res.centroids.row(c));
                assert!(own <= other + 1e-12);
            }
        }
    }

    #[test]
    fn members_of_partitions_all_rows() {
        let data = two_blobs();
        let res = kmeans(&data, &KMeansConfig::new(4));
        let mut all: Vec<usize> = (0..res.k()).flat_map(|c| res.members_of(c)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..data.nrows()).collect::<Vec<_>>());
    }

    #[test]
    fn identical_points_do_not_crash() {
        let data = Dataset::from_rows(vec![vec![5.0, 5.0]; 6]);
        let res = kmeans(&data, &KMeansConfig::new(3));
        assert_eq!(res.assignments.len(), 6);
        assert!(res.wcss < 1e-18);
    }

    #[test]
    #[should_panic(expected = "k must be at least 1")]
    fn zero_k_panics() {
        let data = two_blobs();
        let _ = kmeans(&data, &KMeansConfig::new(0));
    }

    #[test]
    #[should_panic(expected = "exceeds number of points")]
    fn k_larger_than_n_panics() {
        let data = Dataset::from_rows(vec![vec![1.0]]);
        let _ = kmeans(&data, &KMeansConfig::new(2));
    }

    #[test]
    fn wcss_never_increases_with_k() {
        // Over best-of-restarts runs, optimal WCSS is non-increasing in k;
        // with enough restarts the heuristic should track that closely.
        let data = two_blobs();
        let mut prev = f64::INFINITY;
        for k in 1..=6 {
            let res = kmeans(
                &data,
                &KMeansConfig {
                    restarts: 20,
                    ..KMeansConfig::new(k)
                },
            );
            assert!(
                res.wcss <= prev + 1e-9,
                "wcss went up from {prev} to {} at k={k}",
                res.wcss
            );
            prev = res.wcss;
        }
    }

    /// Duplicate-heavy data with more clusters than distinct points: the
    /// empty-cluster repair used to oscillate at a fixed point (repair
    /// re-homed a point after `changed` was computed; the next argmin
    /// undid it) and burn `max_iters × restarts = 800` iterations — the
    /// k7/k8 "~1650 iterations" burn observed in `serve_report.json`.
    /// The fixed-point break must cut that by far more than the 5× the
    /// acceptance gate asks for, without touching the output.
    #[test]
    fn duplicate_heavy_repair_converges_without_iteration_burn() {
        let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![(i % 3) as f64 * 10.0, 0.0]).collect();
        let data = Dataset::from_rows(rows);
        for k in [7, 8] {
            let res = kmeans(&data, &KMeansConfig::new(k));
            assert_eq!(res.assignments.len(), 12);
            assert!(
                res.total_iterations <= 160,
                "k={k}: {} total iterations — the repair oscillation burn is back \
                 (pre-fix: 800 = max_iters × restarts)",
                res.total_iterations
            );
            // Three distinct points and k ≥ 3 clusters: a converged run
            // must still explain the data perfectly.
            assert!(res.wcss < 1e-18, "k={k}: wcss {}", res.wcss);
        }
    }

    /// The pruned assignment path must be bit-for-bit the naive one:
    /// same assignments, same centroid bits, same WCSS bits, same
    /// iteration trajectory.
    #[test]
    fn pruning_is_bit_identical_to_naive() {
        let mut rows = two_blobs().to_rows();
        // Add duplicates and a third clump so ties and repairs happen.
        rows.extend(vec![vec![5.0, 5.0]; 4]);
        rows.push(vec![0.0, 0.0]);
        let data = Dataset::from_rows(rows);
        for k in 1..=8 {
            let pruned = kmeans(&data, &KMeansConfig::new(k));
            let naive = kmeans(
                &data,
                &KMeansConfig {
                    pruning: false,
                    ..KMeansConfig::new(k)
                },
            );
            assert_eq!(pruned.assignments, naive.assignments, "k={k}");
            assert_eq!(pruned.iterations, naive.iterations, "k={k}");
            assert_eq!(pruned.wcss.to_bits(), naive.wcss.to_bits(), "k={k}");
            for c in 0..k {
                for (a, b) in pruned.centroids.row(c).iter().zip(naive.centroids.row(c)) {
                    assert_eq!(a.to_bits(), b.to_bits(), "k={k} centroid {c}");
                }
            }
        }
    }

    /// Warm-starting from already-converged centroids must settle
    /// immediately on the same clustering.
    #[test]
    fn warm_start_from_converged_centroids_is_a_fixed_point() {
        let data = two_blobs();
        let cfg = KMeansConfig::new(2);
        let cold = kmeans(&data, &cfg);
        let warm = kmeans_warm(&data, &cfg, &cold.centroids);
        assert_eq!(warm.assignments, cold.assignments);
        assert_eq!(warm.wcss.to_bits(), cold.wcss.to_bits());
        assert!(
            warm.iterations <= 2,
            "converged warm start took {} iterations",
            warm.iterations
        );
    }

    #[test]
    fn total_iterations_accumulates_across_restarts() {
        let data = two_blobs();
        let cfg = KMeansConfig::new(3);
        let res = kmeans(&data, &cfg);
        assert!(res.total_iterations >= res.iterations as u64);
        assert!(
            res.total_iterations >= cfg.restarts as u64,
            "every restart runs at least one iteration"
        );
        let warm = kmeans_warm(&data, &cfg, &res.centroids);
        assert_eq!(warm.total_iterations, warm.iterations as u64);
    }

    #[test]
    #[should_panic(expected = "warm start has")]
    fn warm_start_shape_mismatch_panics() {
        let data = two_blobs();
        let init = Dataset::zeros(3, 2);
        let _ = kmeans_warm(&data, &KMeansConfig::new(2), &init);
    }
}

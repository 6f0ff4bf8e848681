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
//! Six cost controls keep the hot path cheap without moving a single
//! output bit:
//!
//! * **Hamerly-style pruning** ([`KMeansConfig::pruning`]): per-point
//!   triangle-inequality bounds skip the k distance evaluations whenever
//!   the assigned centroid is provably still the unique nearest. They
//!   are stored drift-offset: one slack key per row, measured against
//!   per-cluster sums of centroid movement, so widening every bound after
//!   an update costs O(k) and a pruned row costs one compare. Keys round
//!   down and thresholds up, so a bound error can only cause an extra
//!   exact recomputation — never a wrong (or even differently tie-broken)
//!   assignment.
//! * **Fixed-point detection**: a Lloyd iteration is a deterministic
//!   function of the `(assignments, centroids)` state, so an iteration
//!   that ends in exactly the state the previous one ended in will repeat
//!   it forever. Empty-cluster repair on duplicate-heavy data (more
//!   clusters than distinct points) used to oscillate at such a fixed
//!   point — the repair re-homed a point *after* the `changed` flag was
//!   computed, the next assignment step undid it, and every restart burned
//!   the full `MAX_ITERS` budget (the k=7/k=8 "~1650 iterations" burn in
//!   `serve_report.json`). Detecting the repeated state exits with the
//!   exact same final state, just without the burn. The test reads the
//!   iteration's log of assignment changes and the centroid bits; it
//!   copies no assignment vector.
//! * **Cycle skip** (under pruning): the same argument for a longer
//!   period. On duplicate-heavy data the repair and the argmin step also
//!   cycle through 2 to 7 or more states, and such a run used to burn
//!   all `MAX_ITERS` iterations. From iteration 8 on, Brent's scheme
//!   compares each end-of-iteration state (assignments and centroid
//!   bits) with one saved state, re-saved at doubling distances. When the
//!   state at iteration i repeats with period p, the state iteration
//!   `MAX_ITERS` would end in is `(MAX_ITERS − 1 − i) mod p` iterations
//!   ahead, so the run stops there. The result keeps the trajectory
//!   length (`iterations` = `MAX_ITERS`), so chains and checkpoints do
//!   not move; `cluster.kmeans.iterations_total.k*` and
//!   `cluster.kmeans.distance_evals` count only the iterations run.
//! * **Carried state** (a run's `Carry`): the incremental fold runs
//!   Lloyd once per appended row, from the centroids the previous run
//!   ended with. That run also leaves its bound keys and the movement
//!   sums they are measured against (already widened by its final
//!   centroid movement), and its cluster sums and counts; the
//!   continuation reads them instead of starting from nothing. Old rows
//!   prune from the first iteration on and the new row starts with a −∞
//!   key. Within any run, a cluster's sum is rebuilt from zero, in row
//!   order, only when its membership changed; otherwise the new rows are
//!   added to its running sum, which is the same additions in the same
//!   order.
//! * **Seeded first assignment**: k-means++ measures every row against
//!   every centroid but the last, in order, while it seeds; a from-scratch
//!   run keeps each row's running `(nearest, best, second)` from it,
//!   under `nearest`'s strict-`<` rule, and its first assignment step
//!   measures only centroid k−1.
//! * **WCSS on request**: a continuation measures WCSS only when its
//!   caller reads it (the fold reads it at review steps and at the last
//!   step), as the row-order sum of each row's squared distance to its
//!   centroid. Best-of-restarts runs always measure it.
//!
//! `pruning = false` skips all of the above and is the from-scratch
//! oracle `tests/fold_oracle.rs` holds the fold to.
//!
//! **What a continuation costs.** Per Lloyd iteration over n rows: one
//! compare per row (its key against its cluster's threshold), k·d per
//! exact row (the new row, and the rows whose keys the movement broke),
//! and the O(k·d) centroid update. Only the exact rows are written, and
//! only they go to the pool once there are enough of them. An iteration
//! in which a carried row changes cluster also re-sums the clusters it
//! left and joined, one more pass over the rows. A run whose WCSS is read
//! ends with one d-term distance per row. A continuation is therefore
//! O(n + k·d·(1 + exact)) per iteration, and its O(n) term is one compare
//! per row. A phase timing of one-thread cold folds (k ≤ 8) over the
//! oracle's 512-row drifting-blob, lattice and widening series, taken
//! while every run still ended with a WCSS pass and carried each row's
//! distance, put continuations at 42–51 % of Lloyd time, split as: WCSS
//! pass and carry 34–36 %, bound scan 20–22 %, update 18–19 %, exact rows
//! 11–15 %, run set-up 8–9 %, widening and fixed-point test 3–4 %; the
//! fold now pays that first share only at review steps and the last
//! step. On the duplicate-heavy series continuations were 86 %, almost
//! all exact rows (58 %) and updates (35 %): a row tied between two
//! coincident centroids never prunes, so each iteration of the repair
//! oscillation is a full exact pass. The cycle skip now ends those runs
//! once the period is found: the 96-row duplicate-heavy cold fold of
//! `tests/kmeans_budget.rs` runs 8 867 Lloyd iterations where the
//! oracle runs 33 213.

use crate::dataset::Dataset;
use crate::distance::sq_euclidean;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Maximum Lloyd iterations per restart.
const MAX_ITERS: usize = 100;
/// Convergence tolerance on centroid movement (squared distance).
const TOL: f64 = 1e-12;
/// First Lloyd iteration (0-based) whose end state the cycle skip
/// saves (see [`Cycle`]); runs that settle sooner never allocate it.
const CYCLE_FROM: usize = 8;
/// Most Lloyd iterations one bound frame spans (see [`Frame`]). Each
/// iteration's rounding in the movement sums is at most one unit
/// roundoff (2⁻⁵³) of the threshold, so 1024 of them stay ~9× inside
/// the 10⁻¹² relative pad of [`pad_up`].
const MAX_FRAME_ITERS: usize = 1024;

/// Configuration for [`kmeans`].
#[derive(Debug, Clone)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Number of independent seeded restarts; the best (lowest WCSS) wins.
    pub restarts: usize,
    /// RNG seed for the k-means++ initialization.
    pub seed: u64,
    /// Skip provably-unchanged or unread work: Hamerly-style bounds,
    /// cluster sums that did not change, the state a warm run carries
    /// over, distances seeding already measured, a continuation's
    /// unread WCSS, and the rest of a run caught in a cycle (see the
    /// module docs). Output is bit-identical either
    /// way; `false` rebuilds everything from scratch and exists as the
    /// test oracle and for debugging.
    pub pruning: bool,
}

impl KMeansConfig {
    /// A reasonable default configuration for `k` clusters.
    pub fn new(k: usize) -> KMeansConfig {
        KMeansConfig {
            k,
            restarts: 8,
            seed: 0x1AC0_FFEE,
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
    /// Lloyd iterations in the winning restart's trajectory: a run that
    /// skipped the rest of a cycle counts `MAX_ITERS`, as if it had run
    /// them (see the module docs).
    pub iterations: usize,
    /// `iterations` summed across every restart of the call (for a
    /// single warm run, equal to `iterations`). This is the convergence
    /// view; the `cluster.kmeans.iterations_total.k*` counter counts the
    /// iterations actually run, which a cycle skip makes fewer.
    pub total_iterations: u64,
}

impl KMeansResult {
    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.nrows()
    }

    /// Squared distance from row `i` of `data` to its assigned centroid.
    pub fn sq_dist_to_centroid(&self, data: &Dataset, i: usize) -> f64 {
        sq_euclidean(data.row(i), self.centroids.row(self.assignments[i]))
    }
}

/// What a Lloyd run leaves behind for the next run over the same rows
/// plus appended ones (see the module docs). It is derived state: never
/// encoded, and dropping it costs only an exact first iteration.
#[derive(Debug, Clone)]
pub(crate) struct Carry {
    /// Per row, the slack key of its drift-offset bounds (see `lloyd`),
    /// and the frame the keys are measured in. Together they bound
    /// every row against the run's final centroids.
    key: Vec<f64>,
    frame: Frame,
    /// Per-cluster coordinate sums and member counts of the final
    /// assignment, accumulated in row order.
    sums: Dataset,
    counts: Vec<usize>,
}

/// The frame drift-offset keys are measured in (see `lloyd`): how far
/// the centroids have moved, summed per iteration since it began.
#[derive(Debug, Clone)]
struct Frame {
    /// Per cluster, the summed (padded) movement of its centroid.
    drift: Vec<f64>,
    /// The summed largest movement of any centroid.
    lg: f64,
    /// Lloyd iterations the sums span. A run that could take the frame
    /// past [`MAX_FRAME_ITERS`] first moves every key into a fresh one,
    /// which bounds the rounding the sums accumulate.
    iters: usize,
}

impl Frame {
    fn new(k: usize) -> Frame {
        Frame {
            drift: vec![0.0; k],
            lg: 0.0,
            iters: 0,
        }
    }

    /// The key of a row just computed exactly: nearest centroid `c` at
    /// squared distance `best`, the next nearest at `second`. Rounded
    /// down.
    #[inline]
    fn key(&self, c: usize, best: f64, second: f64) -> f64 {
        pad_down(pad_down(second.sqrt()) - pad_up(best.sqrt()) + (self.drift[c] + self.lg))
    }

    /// What a key in cluster `c` must exceed to prune. Rounded up.
    #[inline]
    fn threshold(&self, c: usize) -> f64 {
        pad_up(self.drift[c] + self.lg)
    }

    /// Widen every row's bounds by one update whose centroids moved
    /// `moved` (padded plain distances): a row's distance to its own
    /// centroid grew by at most that centroid's travel, its distance to
    /// any other shrank by at most the largest travel. O(k); no key moves.
    fn widen(&mut self, moved: &[f64]) {
        let mut max_move = 0.0f64;
        for (dc, &m) in self.drift.iter_mut().zip(moved) {
            *dc += m;
            if m > max_move {
                max_move = m;
            }
        }
        self.lg += max_move;
        self.iters += 1;
    }

    /// Start afresh: each key, of a row assigned as in `assignments`,
    /// gives up its cluster's threshold, so the slack the old frame's
    /// rounding needed stays in the key, and the sums restart at zero.
    fn rebase(&mut self, key: &mut [f64], assignments: &[usize]) {
        let threshold: Vec<f64> = (0..self.drift.len()).map(|c| self.threshold(c)).collect();
        for (kv, &a) in key.iter_mut().zip(assignments) {
            *kv = pad_down(*kv - threshold[a]);
        }
        *self = Frame::new(self.drift.len());
    }
}

/// What [`kmeans`] and [`kmeans_continue`] both require of the first
/// `n` rows of `data`.
fn check_preconditions(data: &Dataset, n: usize, config: &KMeansConfig) {
    assert!(config.k >= 1, "k must be at least 1");
    assert!(n >= 1, "cannot cluster an empty dataset");
    assert!(
        n <= data.nrows(),
        "{n} rows requested from {}",
        data.nrows()
    );
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
    kmeans_rows(data, data.nrows(), config)
}

/// [`kmeans`] on the first `n` rows of `data`, read in place.
pub(crate) fn kmeans_rows(data: &Dataset, n: usize, config: &KMeansConfig) -> KMeansResult {
    check_preconditions(data, n, config);

    let mut best: Option<KMeansResult> = None;
    let mut total_iterations = 0u64;
    let mut executed = 0u64;
    for r in 0..config.restarts.max(1) {
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(r as u64));
        let (init, seen) = kmeanspp_init(data, n, config.k, &mut rng);
        let (result, _, ran) = lloyd(data, n, config, init, Known::Seeded(seen), true);
        executed += ran;
        total_iterations += result.iterations as u64;
        if best.as_ref().is_none_or(|b| result.wcss < b.wcss) {
            best = Some(result);
        }
    }
    // lint: allow(P01, restarts.max(1) above guarantees the loop body ran at least once)
    let mut best = best.expect("at least one restart ran");
    best.total_iterations = total_iterations;
    // Two views of the same sweep: the winner's iteration count measures
    // convergence, the cross-restart total measures compute spent (the
    // iterations actually run: a skipped cycle's are not). The old single
    // counter conflated them (it added the total under the winner's
    // name).
    incprof_obs::counter(&incprof_obs::names::cluster_kmeans_iterations(config.k))
        .add(best.iterations as u64);
    incprof_obs::counter(&incprof_obs::names::cluster_kmeans_iterations_total(
        config.k,
    ))
    .add(executed);
    best
}

/// Run Lloyd's algorithm once over the first `n` rows of `data`,
/// warm-started from `prev`, the clustering of a shorter (or equal)
/// prefix: no k-means++ seeding, no restarts. This is the per-row step
/// of the incremental fold in [`crate::incremental`]: from
/// near-converged centroids Lloyd typically settles in one or two
/// iterations.
///
/// `carry` is what the run that produced `prev` left behind. With it
/// (and [`KMeansConfig::pruning`]), the rows `prev` covers keep their
/// bounds and sums, and only what moved is recomputed; without it the
/// first iteration is one exact pass. The output bits are the same
/// either way. The returned carry describes the new run (`None` when
/// pruning is off).
///
/// Under pruning, the result's WCSS is measured only if `measure` is
/// set, and is NaN otherwise; the oracle (pruning off) always measures.
///
/// # Panics
/// Panics if `config.k == 0`, `n` is zero or exceeds the rows of
/// `data`, `k > n`, `prev` covers more than `n` rows, its centroids are
/// not a `k × d` matrix for `data`, or `carry` does not cover `prev`'s
/// rows.
pub(crate) fn kmeans_continue(
    data: &Dataset,
    n: usize,
    config: &KMeansConfig,
    prev: &KMeansResult,
    carry: Option<Carry>,
    measure: bool,
) -> (KMeansResult, Option<Carry>) {
    check_preconditions(data, n, config);
    assert_eq!(
        prev.k(),
        config.k,
        "warm start has {} centroids but k = {}",
        prev.k(),
        config.k
    );
    assert_eq!(
        prev.centroids.ncols(),
        data.ncols(),
        "warm start dimensionality {} does not match data {}",
        prev.centroids.ncols(),
        data.ncols()
    );
    assert!(
        prev.assignments.len() <= n,
        "warm start covers {} rows but only {n} are given",
        prev.assignments.len()
    );
    let known = match carry {
        Some(c) => {
            assert_eq!(
                c.key.len(),
                prev.assignments.len(),
                "carry covers other rows"
            );
            Known::Carried(&prev.assignments, c)
        }
        None => Known::Nothing,
    };
    let (result, carry, ran) = lloyd(data, n, config, prev.centroids.clone(), known, measure);
    incprof_obs::counter(&incprof_obs::names::cluster_kmeans_iterations_total(
        config.k,
    ))
    .add(ran);
    (result, carry)
}

/// Per row, what an exact assignment has seen of the centroids so far:
/// `(nearest, best, second)` as [`nearest`] keeps them.
type Seen = (usize, f64, f64);

/// A row that has seen no centroid.
const UNSEEN: Seen = (0, f64::INFINITY, f64::INFINITY);

/// What a Lloyd run knows of its rows before its first assignment step.
enum Known<'a> {
    /// Nothing: the first step measures every row against every centroid.
    Nothing,
    /// Each row's [`Seen`] over every centroid but the last, left by
    /// [`kmeanspp_init`] for the centroids it chose.
    Seeded(Vec<Seen>),
    /// A previous run over the first `m ≤ n` rows, whose final centroids
    /// are `init`: its assignment of them and the carry it left. Rows
    /// `m..n` are new.
    Carried(&'a [usize], Carry),
}

/// Lloyd's algorithm over the first `n` rows of `data` from `init`,
/// knowing `known` of the rows (only under pruning: the oracle knows
/// nothing). Returns the result, with its WCSS measured if `measure` is
/// set or pruning is off (NaN otherwise); under pruning, the carry of
/// this run; and the iterations it actually ran, fewer than the result's
/// `iterations` when it skipped a cycle.
fn lloyd(
    data: &Dataset,
    n: usize,
    config: &KMeansConfig,
    init: Dataset,
    known: Known,
    measure: bool,
) -> (KMeansResult, Option<Carry>, u64) {
    let d = data.ncols();
    let k = config.k;

    let mut centroids = init;
    let mut iterations = 0;
    let mut last_movement = 0.0f64;
    let mut pruned_points = 0u64;
    let mut distance_evals = 0u64;

    // Drift-offset Hamerly bounds, in plain (square-rooted) distance
    // space. When row i is computed exactly, its upper bound u (distance
    // to its centroid a) and lower bound l (distance to every *other*
    // centroid) fold into one slack key, `key[i] = l − u + drift[a] +
    // lg` ([`Frame::key`]), where the frame's `drift[c]` sums centroid
    // c's movement and `lg` the largest movement of any centroid, one
    // term per iteration. By the triangle inequality the row's bounds
    // now are u plus `drift[a]`'s growth since and l minus `lg`'s, so
    // the strict `upper < lower` that proves a the unique nearest (the
    // naive argmin — strict `<`, lowest index on ties — would pick it
    // again, so skipping it is bit-identical) reads `key[i] > drift[a] +
    // lg` ([`Frame::threshold`]). Keys round down and thresholds up, so
    // rounding can only cost an exact recomputation. A NaN key never
    // prunes; a row without a key (new, or re-homed by the repair) holds
    // −∞. Widening after an update moves the frame, never a key.
    //
    // `sums`/`counts` are the per-cluster sums of the assignment after
    // the last assignment step, over the first `summed` rows. `dirty[c]`
    // marks a cluster whose sum no longer describes `assignments`: a
    // member moved in or out among the summed rows, or the empty-cluster
    // repair re-homed a point after the sums were taken.
    let (carried, carry, mut seeded): (&[usize], _, _) = match known {
        Known::Seeded(seen) if config.pruning => (&[], None, seen),
        Known::Carried(carried, carry) if config.pruning => (carried, Some(carry), Vec::new()),
        _ => (&[], None, Vec::new()),
    };
    let mut summed = carried.len();
    let mut assignments = Vec::with_capacity(n);
    assignments.extend_from_slice(carried);
    assignments.resize(n, 0);
    let Carry {
        mut key,
        mut frame,
        mut sums,
        mut counts,
    } = carry.unwrap_or_else(|| Carry {
        key: Vec::new(),
        frame: Frame::new(k),
        sums: Dataset::zeros(k, d),
        counts: vec![0; k],
    });
    if frame.iters + MAX_ITERS > MAX_FRAME_ITERS {
        frame.rebase(&mut key, carried);
    }
    key.resize(n, f64::NEG_INFINITY);
    let mut dirty = vec![false; k];
    let mut moved = vec![0.0f64; k];
    let mut threshold = vec![0.0f64; k];
    // The rows the bound check could not prune, in row order.
    let mut exact: Vec<usize> = Vec::new();
    // This iteration's assignment changes as `(row, assignment before)`:
    // the assignment step's first, in row order, then the repair's.
    let mut log: Vec<(usize, usize)> = Vec::new();
    // The previous iteration's final centroid bits, for the fixed-point
    // break (see the module docs).
    let mut prev_bits: Vec<u64> = Vec::with_capacity(k * d);
    // The cycle skip (pruning only; see the module docs): the state
    // Brent's scheme compares against, and once a cycle is found, the
    // iteration that ends in the state iteration `MAX_ITERS` would.
    let mut cycle: Option<Cycle> = None;
    let mut stop_at: Option<usize> = None;

    for iter in 0..MAX_ITERS {
        iterations = iter + 1;
        for (c, t) in threshold.iter_mut().enumerate() {
            *t = frame.threshold(c);
        }
        // Assignment step. A pruned row keeps its assignment and key and
        // costs one compare; only the exact rows are computed and
        // written.
        exact.clear();
        log.clear();
        for (i, (&a, &kv)) in assignments.iter().zip(&key).enumerate() {
            if !(config.pruning && kv > threshold[a]) {
                exact.push(i);
            }
        }
        pruned_points += (n - exact.len()) as u64;
        // A seeded run's first step (every row exact) resumes each row's
        // argmin at the one centroid seeding did not measure it against.
        let seen = std::mem::take(&mut seeded);
        let from = if seen.is_empty() { 0 } else { k - 1 };
        distance_evals += (exact.len() * (k - from)) as u64;
        let assign = |i: usize| {
            let start = seen.get(i).copied().unwrap_or(UNSEEN);
            nearest(data.row(i), &centroids, from, start)
        };
        // Parallelize the exact rows (each argmin is independent and
        // deterministic) once the work justifies the fork/join overhead.
        // Inside a full k-sweep this call already runs on a pool worker,
        // so the nested call degrades to sequential.
        let parallel_out = (exact.len() * k * d >= 200_000)
            .then(|| incprof_par::par_map_index(exact.len(), |j| assign(exact[j])));
        for (j, &i) in exact.iter().enumerate() {
            let (c, best, second) = match &parallel_out {
                Some(out) => out[j],
                None => assign(i),
            };
            key[i] = frame.key(c, best, second);
            let a = assignments[i];
            if c != a {
                log.push((i, a));
                if i < summed {
                    dirty[a] = true;
                    dirty[c] = true;
                }
                assignments[i] = c;
            }
        }
        let stepped = log.len();
        // The first iteration counts `changed` against the all-zero
        // start a from-scratch run begins with, so a carried run
        // converges after exactly as many iterations.
        let changed = if iter == 0 {
            assignments.iter().any(|&a| a != 0)
        } else {
            stepped > 0
        };

        // Update step: bring the sums to this assignment. The oracle
        // (pruning off) rebuilds every cluster from zero; otherwise only
        // dirty clusters are, and rows past `summed` are appended to the
        // running sums of the rest — the same additions in the same row
        // order either way.
        if !config.pruning {
            dirty.fill(true);
        }
        resum(
            data,
            n,
            &assignments,
            &mut sums,
            &mut counts,
            &mut dirty,
            summed,
        );
        summed = n;
        let mut movement: f64 = 0.0;
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: reseed on the point farthest from its
                // current centroid (a standard repair strategy).
                let far = farthest(data, &assignments, &centroids);
                let row = data.row(far).to_vec();
                let m = sq_euclidean(&row, centroids.row(c));
                movement += m;
                moved[c] = pad_up(m.sqrt());
                centroids.row_mut(c).copy_from_slice(&row);
                // The sums still count `far` in its old cluster: both
                // sums are stale from here on.
                log.push((far, assignments[far]));
                dirty[assignments[far]] = true;
                dirty[c] = true;
                assignments[far] = c;
                // The repair re-homed `far` outside the assignment step;
                // its key describes the old assignment, so force an
                // exact recomputation next iteration.
                key[far] = f64::NEG_INFINITY;
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

        frame.widen(&moved);

        last_movement = movement;
        if !changed && movement <= TOL {
            break;
        }
        // Fixed-point break: the next iteration is a deterministic
        // function of (assignments, centroids), so a repeated
        // end-of-iteration state would replay forever — the final state
        // at MAX_ITERS is exactly this one. Catches the empty-cluster
        // repair oscillation on duplicate-heavy data without changing a
        // single output bit.
        let bits = || centroids.iter_rows().flatten().map(|v| v.to_bits());
        if iter > 0 && bits().eq(prev_bits.iter().copied()) && reverted(&log, stepped, &assignments)
        {
            break;
        }
        prev_bits.clear();
        prev_bits.extend(bits());
        // Cycle skip: the state sequence is deterministic, so once the
        // state at `iter` repeats the one `p` iterations back, the state
        // `MAX_ITERS` would end in is `(MAX_ITERS − 1 − iter) mod p`
        // iterations ahead, and no break fires in between: every
        // transition of the cycle has just run without one.
        if stop_at.is_none() && config.pruning && iter >= CYCLE_FROM {
            let saved = cycle.get_or_insert_with(|| Cycle::new(n, k * d));
            if let Some(p) = saved.period(iter, &assignments, &centroids) {
                stop_at = Some(iter + (MAX_ITERS - 1 - iter) % p);
            }
        }
        if stop_at == Some(iter) {
            break;
        }
    }
    let executed = iterations;
    if stop_at.is_some() {
        iterations = MAX_ITERS;
    }

    // Centroid movement of the final iteration, in picounits (×1e12) so
    // sub-tolerance deltas still land in distinguishable buckets.
    incprof_obs::histogram(incprof_obs::names::CLUSTER_KMEANS_CONVERGENCE_DELTA_E12)
        .record((last_movement * 1e12) as u64);
    incprof_obs::counter(incprof_obs::names::CLUSTER_KMEANS_PRUNED).add(pruned_points);
    incprof_obs::counter(incprof_obs::names::CLUSTER_KMEANS_DISTANCE_EVALS).add(distance_evals);

    let wcss = if measure || !config.pruning {
        let dist = assignments
            .iter()
            .enumerate()
            .map(|(i, &c)| sq_euclidean(data.row(i), centroids.row(c)));
        // lint: allow(D04, WCSS is summed sequentially in point order on the caller thread after assignment settles)
        dist.sum()
    } else {
        f64::NAN
    };

    let carry = config.pruning.then(|| {
        // A repair in the final iteration left its clusters' sums
        // describing the assignment before it.
        resum(data, n, &assignments, &mut sums, &mut counts, &mut dirty, n);
        Carry {
            key,
            frame,
            sums,
            counts,
        }
    });
    let result = KMeansResult {
        assignments,
        centroids,
        wcss,
        iterations,
        total_iterations: iterations as u64,
    };
    (result, carry, executed as u64)
}

/// Brent's cycle detection over Lloyd's end-of-iteration states
/// (assignments and centroid bits): one saved state, compared with each
/// later one, and moved to the newest state whenever `power` states have
/// passed since it was saved, doubling `power`. A cycle of period p
/// entered by iteration μ is found by about iteration 2·max(μ, p).
struct Cycle {
    /// The iteration the saved state ended; `None` until one is saved.
    at: Option<usize>,
    power: usize,
    assignments: Vec<usize>,
    bits: Vec<u64>,
}

impl Cycle {
    fn new(n: usize, kd: usize) -> Cycle {
        Cycle {
            at: None,
            power: 1,
            assignments: Vec::with_capacity(n),
            bits: Vec::with_capacity(kd),
        }
    }

    /// Observe the state iteration `iter` ended in: the period, if it is
    /// the saved state again.
    fn period(&mut self, iter: usize, assignments: &[usize], centroids: &Dataset) -> Option<usize> {
        let bits = || centroids.iter_rows().flatten().map(|v| v.to_bits());
        if let Some(at) = self.at {
            if bits().eq(self.bits.iter().copied()) && assignments == self.assignments {
                return Some(iter - at);
            }
            if iter - at < self.power {
                return None;
            }
            self.power *= 2;
        }
        self.at = Some(iter);
        self.assignments.clear();
        self.assignments.extend_from_slice(assignments);
        self.bits.clear();
        self.bits.extend(bits());
        None
    }
}

/// The exact assignment of one row: `(cluster, best, second)`, the
/// argmin over every centroid (strict `<`, so the lowest index wins a
/// tie) with the squared distances to it and to the next nearest.
/// `seen` is the row's argmin over the centroids before `from`; the
/// search resumes there.
#[inline]
fn nearest(row: &[f64], centroids: &Dataset, from: usize, mut seen: Seen) -> Seen {
    for c in from..centroids.nrows() {
        see(&mut seen, c, sq_euclidean(row, centroids.row(c)));
    }
    seen
}

/// Fold centroid `c` at squared distance `dist` into a row's argmin.
#[inline]
fn see(seen: &mut Seen, c: usize, dist: f64) {
    if dist < seen.1 {
        *seen = (c, dist, seen.1);
    } else if dist < seen.2 {
        seen.2 = dist;
    }
}

/// The row farthest from its assigned centroid, by `total_cmp`; the
/// last such row wins a tie, as with `Iterator::max_by`. Each distance
/// is computed once.
fn farthest(data: &Dataset, assignments: &[usize], centroids: &Dataset) -> usize {
    let dist = |i: usize| sq_euclidean(data.row(i), centroids.row(assignments[i]));
    let (mut far, mut far_d) = (0, dist(0));
    for i in 1..assignments.len() {
        let d = dist(i);
        if d.total_cmp(&far_d).is_ge() {
            (far, far_d) = (i, d);
        }
    }
    far
}

/// Whether an iteration whose assignment changes are `log` (`(row,
/// assignment before)`, the first `stepped` from the assignment step in
/// row order, then the repair's) left every row where it began: each
/// row's first entry holds its assignment at the start, so a row moved
/// by the step and moved back by the repair counts as unchanged.
fn reverted(log: &[(usize, usize)], stepped: usize, assignments: &[usize]) -> bool {
    let (step, repairs) = log.split_at(stepped);
    step.iter().all(|&(i, before)| assignments[i] == before)
        && repairs.iter().enumerate().all(|(j, &(i, before))| {
            let seen = step.binary_search_by_key(&i, |e| e.0).is_ok()
                || repairs[..j].iter().any(|e| e.0 == i);
            seen || assignments[i] == before
        })
}

/// Bring `sums`/`counts`, which describe `assignments` over the first
/// `summed` rows except in `dirty` clusters, to all `n` rows: each dirty
/// cluster is summed again from zero, and rows from `summed` on are
/// appended to the running sums of the others. Both visit rows in
/// order, so every sum is the from-zero row-order sum. Clears `dirty`.
fn resum(
    data: &Dataset,
    n: usize,
    assignments: &[usize],
    sums: &mut Dataset,
    counts: &mut [usize],
    dirty: &mut [bool],
    summed: usize,
) {
    let any_dirty = dirty.iter().any(|&x| x);
    for c in (0..dirty.len()).filter(|&c| dirty[c]) {
        sums.row_mut(c).fill(0.0);
        counts[c] = 0;
    }
    let from = if any_dirty { 0 } else { summed };
    for i in from..n {
        let c = assignments[i];
        if i >= summed || dirty[c] {
            counts[c] += 1;
            let target = sums.row_mut(c);
            for (t, &x) in target.iter_mut().zip(data.row(i)) {
                *t += x;
            }
        }
    }
    dirty.fill(false);
}

/// Round a bound up so that accumulated floating-point error can never
/// make it optimistic. ~4500 ulps of relative slack plus a subnormal
/// floor covers the handful of rounded operations behind a key by orders
/// of magnitude, and behind a threshold the one rounding per iteration
/// of a frame's sums ([`MAX_FRAME_ITERS`]); the only cost of
/// over-padding is an extra exact distance computation.
#[inline]
fn pad_up(x: f64) -> f64 {
    x + (x.abs() * 1e-12 + 1e-300)
}

/// Mirror of [`pad_up`] for lower bounds. +∞ stays +∞: with k = 1 there
/// is no second centroid, and ∞ − ∞ would be a NaN bound that never
/// lets the point prune.
#[inline]
fn pad_down(x: f64) -> f64 {
    if x == f64::INFINITY {
        return x;
    }
    x - (x.abs() * 1e-12 + 1e-300)
}

/// k-means++ seeding: first centroid uniform, each subsequent centroid
/// sampled with probability proportional to squared distance from the
/// nearest already-chosen centroid. Also returns each row's [`Seen`]
/// over every centroid but the last, in centroid order.
fn kmeanspp_init(data: &Dataset, n: usize, k: usize, rng: &mut StdRng) -> (Dataset, Vec<Seen>) {
    let d = data.ncols();
    let mut centroids = Dataset::zeros(k, d);
    let first = rng.gen_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));

    let mut seen = vec![UNSEEN; n];
    for c in 1..k {
        for (i, s) in seen.iter_mut().enumerate() {
            see(s, c - 1, sq_euclidean(data.row(i), centroids.row(c - 1)));
        }
        // lint: allow(D04, kmeans++ seeding is sequential by construction; the running distance sum never crosses threads)
        let total: f64 = seen.iter().map(|s| s.1).sum();
        let chosen = if total > 0.0 {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &(_, w, _)) in seen.iter().enumerate() {
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
    (centroids, seen)
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
    /// undid it) and burn `MAX_ITERS × restarts = 800` iterations — the
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
                 (pre-fix: 800 = MAX_ITERS × restarts)",
                res.total_iterations
            );
            // Three distinct points and k ≥ 3 clusters: a converged run
            // must still explain the data perfectly.
            assert!(res.wcss < 1e-18, "k={k}: wcss {}", res.wcss);
        }
    }

    /// The pruned assignment path (bounds, and a first step resumed from
    /// k-means++'s distances) must be bit-for-bit the naive one: same
    /// assignments, same centroid bits, same WCSS bits, same iteration
    /// trajectory, at k = 1..8 over several seeds.
    #[test]
    fn pruning_is_bit_identical_to_naive() {
        let mut rows = two_blobs().to_rows();
        // Add duplicates and a third clump so ties and repairs happen.
        rows.extend(vec![vec![5.0, 5.0]; 4]);
        rows.push(vec![0.0, 0.0]);
        // Integer points on a line: each lies exactly halfway between
        // its neighbours, so seeding's running argmin meets exact ties.
        rows.extend((0..9).map(|x| vec![x as f64, 20.0]));
        let data = Dataset::from_rows(rows);
        let mut seeding_ties = 0;
        for seed in 0..4 {
            for k in 1..=8 {
                let cfg = KMeansConfig::new(k).with_seed(seed);
                let pruned = kmeans(&data, &cfg);
                let naive = kmeans(
                    &data,
                    &KMeansConfig {
                        pruning: false,
                        ..cfg.clone()
                    },
                );
                assert_eq!(pruned.assignments, naive.assignments, "k={k} seed {seed}");
                assert_eq!(pruned.iterations, naive.iterations, "k={k} seed {seed}");
                assert_eq!(
                    pruned.wcss.to_bits(),
                    naive.wcss.to_bits(),
                    "k={k} seed {seed}"
                );
                for c in 0..k {
                    for (a, b) in pruned.centroids.row(c).iter().zip(naive.centroids.row(c)) {
                        assert_eq!(a.to_bits(), b.to_bits(), "k={k} seed {seed} centroid {c}");
                    }
                }
                // The first restart's seeding, as `kmeans_rows` draws it.
                let mut rng = StdRng::seed_from_u64(seed);
                let (_, seen) = kmeanspp_init(&data, data.nrows(), k, &mut rng);
                seeding_ties += seen.iter().filter(|s| s.1 == s.2).count();
            }
        }
        assert!(seeding_ties > 0, "no row tied between two seeded centroids");
    }

    /// Warm-starting from already-converged centroids must settle
    /// immediately on the same clustering.
    #[test]
    fn warm_start_from_converged_centroids_is_a_fixed_point() {
        let data = two_blobs();
        let cfg = KMeansConfig::new(2);
        let cold = kmeans(&data, &cfg);
        let (warm, _) = kmeans_continue(&data, data.nrows(), &cfg, &cold, None, true);
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
        let (warm, _) = kmeans_continue(&data, data.nrows(), &cfg, &res, None, true);
        assert_eq!(warm.total_iterations, warm.iterations as u64);
    }

    #[test]
    #[should_panic(expected = "warm start has")]
    fn warm_start_shape_mismatch_panics() {
        let data = two_blobs();
        let prev = kmeans(&data, &KMeansConfig::new(3));
        let _ = kmeans_continue(
            &data,
            data.nrows(),
            &KMeansConfig::new(2),
            &prev,
            None,
            true,
        );
    }

    /// Assignment, centroid and iteration bits of a result, for exact
    /// comparison.
    fn state_bits(r: &KMeansResult) -> (Vec<usize>, Vec<u64>, usize) {
        let c = (0..r.k()).flat_map(|c| r.centroids.row(c).iter().map(|v| v.to_bits()));
        (r.assignments.clone(), c.collect(), r.iterations)
    }

    /// Continue row by row over `data` from k-means on its first `k`
    /// rows, three ways: carrying, dropping the carry at every step, and
    /// the pruning-off oracle. The first two measure WCSS only where the
    /// fold reads it, at every fourth step (a review) and at the last.
    /// All three must agree on every assignment, centroid and iteration
    /// bit at every step, and on the WCSS bits wherever it was measured
    /// (it is NaN elsewhere). After every step the carry must describe
    /// the run's final state exactly: sums and counts as a from-zero
    /// row-order pass over the final assignment, and keys that prune a
    /// row only where its centroid is strictly the nearest of the final
    /// ones.
    fn carry_matches_from_scratch(data: &Dataset, k: usize) {
        let cfg = KMeansConfig::new(k);
        let oracle_cfg = KMeansConfig {
            pruning: false,
            ..cfg.clone()
        };
        let start = kmeans(&data.prefix(k), &cfg);
        let (mut carried, mut dropped, mut oracle) = (start.clone(), start.clone(), start);
        let mut carry = None;
        for n in k + 1..=data.nrows() {
            let measure = n % 4 == 0 || n == data.nrows();
            let (next, next_carry) = kmeans_continue(data, n, &cfg, &carried, carry, measure);
            (carried, carry) = (next, next_carry);
            dropped = kmeans_continue(data, n, &cfg, &dropped, None, measure).0;
            // Pruning off measures WCSS unasked.
            oracle = kmeans_continue(data, n, &oracle_cfg, &oracle, None, false).0;
            assert_eq!(state_bits(&carried), state_bits(&oracle), "k={k} n={n}");
            assert_eq!(state_bits(&dropped), state_bits(&oracle), "k={k} n={n}");
            for r in [&carried, &dropped] {
                if measure {
                    assert_eq!(r.wcss.to_bits(), oracle.wcss.to_bits(), "k={k} n={n}");
                } else {
                    assert!(r.wcss.is_nan(), "k={k} n={n}: WCSS measured unasked");
                }
            }

            let c = carry.as_ref().expect("pruning leaves a carry");
            let mut sums = Dataset::zeros(k, data.ncols());
            let mut counts = vec![0usize; k];
            for i in 0..n {
                let a = carried.assignments[i];
                counts[a] += 1;
                for (t, &x) in sums.row_mut(a).iter_mut().zip(data.row(i)) {
                    *t += x;
                }
                let exact = carried.sq_dist_to_centroid(data, i);
                // A pruning key proves `a` strictly the nearest; a NaN
                // distance is never nearer, and a NaN own distance must
                // not prune.
                if c.key[i] > c.frame.threshold(a) {
                    assert!(!exact.is_nan(), "k={k} n={n} row {i} prunes at NaN");
                    for o in (0..k).filter(|&o| o != a) {
                        let other = sq_euclidean(data.row(i), carried.centroids.row(o));
                        assert!(
                            other > exact || other.is_nan(),
                            "k={k} n={n} row {i} prunes but {o} is as near"
                        );
                    }
                }
            }
            assert_eq!(c.counts, counts, "k={k} n={n}");
            assert_eq!(c.key.len(), n, "k={k} n={n}");
            let bits = |d: &Dataset| {
                d.iter_rows()
                    .flatten()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&c.sums), bits(&sums), "k={k} n={n}");
        }
    }

    #[test]
    fn carried_continuations_match_from_scratch_on_blobs() {
        let mut rows = two_blobs().to_rows();
        rows.extend((0..20).map(|i| vec![5.0 + 0.3 * (i % 7) as f64, 5.0 - 0.2 * (i % 5) as f64]));
        let data = Dataset::from_rows(rows);
        for k in 1..=6 {
            carry_matches_from_scratch(&data, k);
        }
    }

    /// Three distinct points and up to six clusters: the empty-cluster
    /// repair fires in most runs, often in the final iteration, where
    /// the sums it leaves behind describe the assignment before it.
    #[test]
    fn carried_continuations_match_from_scratch_through_repairs() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![((i * 7) % 3) as f64 * 10.0, 0.0])
            .collect();
        let data = Dataset::from_rows(rows);
        for k in 3..=6 {
            carry_matches_from_scratch(&data, k);
        }
    }

    /// A NaN row turns its cluster's centroid to NaN, and with it that
    /// cluster's movement sums and threshold: every other member must be
    /// computed again (a NaN threshold never prunes) and move away.
    #[test]
    fn carried_continuations_match_from_scratch_with_a_nan_row() {
        let mut rows = two_blobs().to_rows();
        rows.extend((0..12).map(|i| vec![5.0 + 0.3 * (i % 4) as f64, 5.0 - 0.2 * (i % 3) as f64]));
        rows.insert(14, vec![f64::NAN, 1.0]);
        let data = Dataset::from_rows(rows);
        for k in 1..=4 {
            carry_matches_from_scratch(&data, k);
        }
    }

    /// A frame's sums round: a movement under half an ulp of a sum is
    /// lost from it. Over the most iterations a frame spans, a threshold
    /// must still cover the exact total movement, so a row keyed when
    /// the frame began cannot prune past its true slack.
    #[test]
    fn frame_threshold_covers_movement_the_sums_round_away() {
        let mut frame = Frame::new(2);
        frame.widen(&[1.0, 1.0]);
        // A quarter ulp of 1.0: lost from `drift[0]` and from `lg`.
        let tiny = f64::EPSILON / 4.0;
        for _ in 1..MAX_FRAME_ITERS {
            frame.widen(&[tiny, 0.0]);
        }
        assert_eq!(frame.drift[0] + frame.lg, 2.0, "the sums kept a tiny move");
        // Exact: a small integer times a power of two.
        let lost = 2.0 * (MAX_FRAME_ITERS - 1) as f64 * tiny;
        assert!(frame.threshold(0) - 2.0 >= lost);
    }
}

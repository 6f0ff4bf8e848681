//! The k-sweep: per-k k-means chains folded over the rows.
//!
//! The paper's analysis is one loop — k-means for k = 1..8, then the
//! elbow (or silhouette) criterion of [`mod@crate::select_k`] picks k —
//! and [`SweepChains::evaluate`] is the only definition of it. A serve
//! session re-asks for that sweep after every pushed interval, so the
//! definition is chosen to be resumable.
//!
//! Re-running best-of-restarts k-means from k-means++ seeds on grown
//! data cannot be resumed byte-identically: k-means++ consumes RNG draws
//! against every row, so adding one row perturbs every restart. Instead
//! the clustering is defined as a **canonical left fold** over the rows,
//! which is what runs on both the cold and the warm path:
//!
//! * **Base case** (t = k): best-of-restarts batch
//!   [`kmeans`](crate::kmeans()) on the first k rows.
//! * **Step** (t → t+1): one warm Lloyd run over the grown prefix, read
//!   in place, starting from the previous converged centroids — typically
//!   one or two iterations. The chain carries what the previous run
//!   ended with (bound keys and cluster sums; see [`mod@crate::kmeans`]),
//!   so a step computes exact distances only for the appended row and the
//!   rows whose bounds it breaks. What it still pays per row is one
//!   compare per Lloyd iteration (the row's key against its cluster's
//!   threshold), so a step is O(t) even when nothing moves (the costs are
//!   itemised in [`mod@crate::kmeans`]). The step measures its WCSS, one
//!   more pass over the rows, only where it is read: at a review and at
//!   the last step of [`KChain::advance`], so every chain's `last` holds
//!   a measured WCSS.
//! * **Review** (t divisible by [`ChainConfig::review_every`], k ≥ 2): a
//!   few fresh single-restart k-means++ candidates, seeded by
//!   `review_seed(seed, k, t, c)`, compete with the incumbent; a
//!   candidate replaces it only on *strictly* lower WCSS (ties keep the
//!   incumbent). Reviews bound how far the greedy warm path can drift
//!   from a good optimum as the data grows. The k = 1 chain is exempt:
//!   with one centroid, every run assigns every row to it and converges
//!   to the row-order mean of the prefix, the same additions in the same
//!   order from any start. A candidate therefore ends in the incumbent's
//!   centroid and WCSS bits, and a tie keeps the incumbent.
//!
//! The fold state at prefix length t is a pure function of the prefix
//! and the configuration — independent of the query pattern. A chain
//! that was left behind (e.g. because an early-exited sweep never
//! touched its k) simply replays the missed rows the next time it is
//! needed and lands in the identical state. That purity is what makes
//! the analysis cache's byte-identical-or-abandoned discipline hold:
//! cold (fold from scratch) and warm (continue cached chains) produce
//! the same bits at every prefix.

use crate::dataset::Dataset;
use crate::distance::PairwiseDistances;
use crate::kmeans::{kmeans_continue, kmeans_rows, Carry, KMeansConfig, KMeansResult};
use crate::select_k::{elbow_index, silhouette_index, KSelection, KSelectionMethod, KSweep};
use crate::silhouette::mean_silhouette_pre;
use std::sync::{Mutex, PoisonError};

/// Configuration of the incremental fold. Must stay fixed for the
/// lifetime of a [`SweepChains`]; callers key cached chains by a
/// fingerprint that covers every field here.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Base k-means configuration (its `k` is overridden per chain).
    pub base: KMeansConfig,
    /// Run reviews whenever the prefix length is a positive multiple of
    /// this. `0` disables reviews entirely.
    pub review_every: usize,
    /// Number of fresh single-restart candidates per review.
    pub review_candidates: usize,
}

impl ChainConfig {
    /// Default review cadence over a base k-means configuration.
    pub fn new(base: KMeansConfig) -> ChainConfig {
        ChainConfig {
            base,
            review_every: 16,
            review_candidates: 2,
        }
    }
}

/// The fold state for one value of k: the converged clustering of the
/// first [`KChain::covered`] rows.
#[derive(Debug, Clone)]
pub struct KChain {
    /// The number of clusters this chain tracks.
    pub k: usize,
    /// How many rows of the series the state covers.
    pub covered: usize,
    /// The converged clustering of the covered prefix.
    pub last: KMeansResult,
    /// What the Lloyd run that produced `last` left for the next step
    /// (bound keys and cluster sums). Derived, not state: equality
    /// ignores it, a checkpoint does not store it, and it is `None`
    /// whenever `last` did not come from a continuation, which
    /// only makes the next step start with one exact pass.
    carry: Option<Carry>,
}

/// Chains are equal when their fold states are; the carry is derived.
impl PartialEq for KChain {
    fn eq(&self, other: &KChain) -> bool {
        self.k == other.k && self.covered == other.covered && self.last == other.last
    }
}

impl KChain {
    /// A chain resumed from stored fold state (a decoded checkpoint).
    /// It carries nothing, so its first step is one exact pass.
    pub fn resume(k: usize, covered: usize, last: KMeansResult) -> KChain {
        KChain {
            k,
            covered,
            last,
            carry: None,
        }
    }

    /// Base case of the fold: batch best-of-restarts k-means on the
    /// first `k` rows.
    pub fn start(data: &Dataset, k: usize, cfg: &ChainConfig) -> KChain {
        assert!(
            data.nrows() >= k,
            "cannot start a k={k} chain on {} rows",
            data.nrows()
        );
        let base = KMeansConfig {
            k,
            ..cfg.base.clone()
        };
        KChain::resume(k, k, kmeans_rows(data, k, &base))
    }

    /// Replay the fold steps from `covered` up to prefix length `t`,
    /// one appended row at a time. A no-op when already caught up.
    ///
    /// # Panics
    /// Panics if the chain covers more rows than `t` — a shrinking
    /// series invalidates the fold and the chains must be reset by the
    /// caller, never rewound.
    pub fn advance(&mut self, data: &Dataset, t: usize, cfg: &ChainConfig) {
        assert!(
            self.covered <= t,
            "chain for k={} covers {} rows but the series has {t}; \
             chains must be reset when the series shrinks",
            self.k,
            self.covered
        );
        assert!(t <= data.nrows());
        let base = KMeansConfig {
            k: self.k,
            ..cfg.base.clone()
        };
        while self.covered < t {
            let u = self.covered + 1;
            // k = 1 is exempt from review (see the module docs). WCSS is
            // read by a review and by whoever reads `last` after the loop.
            let review = self.k > 1 && cfg.review_every > 0 && u.is_multiple_of(cfg.review_every);
            let (mut best, carry) = kmeans_continue(
                data,
                u,
                &base,
                &self.last,
                self.carry.take(),
                review || u == t,
            );
            self.carry = carry;
            if review {
                for c in 0..cfg.review_candidates {
                    let cand_cfg = KMeansConfig {
                        restarts: 1,
                        seed: review_seed(cfg.base.seed, self.k, u, c),
                        ..base.clone()
                    };
                    let cand = kmeans_rows(data, u, &cand_cfg);
                    // Strictly better only: ties keep the incumbent, so
                    // the winner is unambiguous and replay-stable.
                    if cand.wcss < best.wcss {
                        best = cand;
                        self.carry = None;
                    }
                }
            }
            self.last = best;
            self.covered = u;
        }
    }
}

/// Deterministic per-(k, t, candidate) seed for review candidates
/// (SplitMix64 finalizer over a weighed sum of the coordinates).
fn review_seed(seed: u64, k: usize, t: usize, c: usize) -> u64 {
    let mut z = seed
        .wrapping_add((k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add((t as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add((c as u64).wrapping_mul(0x94D0_49BB_1331_11EB));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// All per-k chains of an incremental sweep. Index `i` holds the chain
/// for k = i + 1; the vector grows as larger k's become reachable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepChains {
    /// The chains, in k order (`chains[i].k == i + 1`).
    pub chains: Vec<KChain>,
}

impl SweepChains {
    /// Empty chain set (a cold fold starts here).
    pub fn new() -> SweepChains {
        SweepChains::default()
    }

    /// Whether no chain state exists yet.
    pub fn is_empty(&self) -> bool {
        self.chains.is_empty()
    }

    /// Drop all chain state (the fold restarts from scratch).
    pub fn clear(&mut self) {
        self.chains.clear();
    }

    /// Re-align cached centroids to a grown feature space: old column
    /// `j` moves to `old_to_new[j]`, every other column is filled with
    /// `+0.0`.
    ///
    /// This is bit-preserving for the fold *provided* the new columns
    /// are exactly `+0.0` in every already-covered row (reset the chains
    /// otherwise). The core crate's analysis cache meets this without
    /// reading a row: `IntervalMatrix` zero-fills every column an
    /// interval names no entry for, and a function outside the cache's
    /// previous feature columns has no entry in any covered interval,
    /// since cached intervals never change in place. Re-running the fold
    /// on the widened data computes every squared distance with extra
    /// `(0-0)²` terms interleaved, and adding `+0.0` to a non-negative
    /// partial sum is a bitwise no-op — the same argument that lets
    /// [`PairwiseDistances::extend`] keep old entries. Centroid means
    /// gain all-zero columns, which average to exactly `+0.0`.
    ///
    /// Each chain's carried state (bound keys and cluster sums of its
    /// last run) is dropped rather than widened, so the next step starts
    /// with one exact pass; only the fold state moves.
    ///
    /// # Panics
    /// Panics if the mapping is not strictly increasing (reordering
    /// surviving columns would change summation order, which is *not*
    /// bit-preserving), does not match the current width, or overflows
    /// `d_new`.
    pub fn remap_columns(&mut self, old_to_new: &[usize], d_new: usize) {
        assert!(
            old_to_new.windows(2).all(|w| w[0] < w[1]),
            "column remap must be strictly increasing"
        );
        if let Some(&last) = old_to_new.last() {
            assert!(
                last < d_new,
                "column remap targets column {last} but the new width is {d_new}"
            );
        }
        for chain in &mut self.chains {
            assert_eq!(
                chain.last.centroids.ncols(),
                old_to_new.len(),
                "column remap covers {} columns but chain k={} has {}",
                old_to_new.len(),
                chain.k,
                chain.last.centroids.ncols()
            );
            let k = chain.last.centroids.nrows();
            let mut wide = Dataset::zeros(k, d_new);
            for c in 0..k {
                for (j, &nj) in old_to_new.iter().enumerate() {
                    wide.set(c, nj, chain.last.centroids.get(c, j));
                }
            }
            chain.last.centroids = wide;
            chain.carry = None;
        }
    }

    /// Advance every needed chain to cover all of `data` and select k
    /// over k = 1..=`k_max` (capped at the number of rows; the paper uses
    /// `k_max = 8`).
    ///
    /// Silhouettes exist only where they pick k. Under
    /// [`KSelectionMethod::Elbow`] the sweep reads WCSS alone: it builds
    /// no pairwise-distance matrix, scores no silhouette, ignores
    /// `shared`, and leaves [`KSweep::silhouettes`] empty. Under
    /// [`KSelectionMethod::Silhouette`] it builds the O(n²·d) matrix once
    /// per call and every k ≥ 2 scores against it — unless `shared` is
    /// `Some`, which must then cover exactly `data`'s rows
    /// (`shared.n() == data.nrows()`) with entries equal to
    /// `euclidean(data.row(i), data.row(j))`, bit-identical to the
    /// matrix [`PairwiseDistances::euclidean_of`] would build here.
    ///
    /// With `early_exit` and the [`KSelectionMethod::Silhouette`]
    /// method, the sweep stops after the mean silhouette has strictly
    /// decreased twice in a row (over the defined entries — k = 1 has
    /// none): the sweep arrays are truncated at that k, identically on
    /// cold and warm runs, and untouched chains catch up whenever a
    /// later sweep reaches them. The elbow method always sweeps the full
    /// range — it needs the first-to-last WCSS chord.
    pub fn evaluate(
        &mut self,
        data: &Dataset,
        k_max: usize,
        method: KSelectionMethod,
        cfg: &ChainConfig,
        shared: Option<&PairwiseDistances>,
        early_exit: bool,
    ) -> KSelection {
        let _sweep_span = incprof_obs::span(incprof_obs::names::CLUSTER_SELECT_K_SWEEP);
        let n = data.nrows();
        assert!(n >= 1, "cannot sweep an empty dataset");
        let cap = k_max.min(n).max(1);
        let scored = method == KSelectionMethod::Silhouette;
        let built: PairwiseDistances;
        let pair: Option<&PairwiseDistances> = if !scored || cap < 2 {
            None
        } else if let Some(p) = shared {
            assert_eq!(
                p.n(),
                n,
                "shared pairwise matrix covers {} rows, data has {}",
                p.n(),
                n
            );
            Some(p)
        } else {
            let _pair_span = incprof_obs::span(incprof_obs::names::CLUSTER_SELECT_K_PAIRWISE);
            built = PairwiseDistances::euclidean_of(data);
            Some(&built)
        };

        // Each chain moves into the task that advances it and back, so
        // a sweep copies no chain state.
        let slots: Vec<Mutex<Option<KChain>>> = std::mem::take(&mut self.chains)
            .into_iter()
            .map(|c| Mutex::new(Some(c)))
            .collect();
        let take = |i: usize| {
            slots
                .get(i)
                .and_then(|s| s.lock().unwrap_or_else(PoisonError::into_inner).take())
        };
        let use_early = early_exit && scored;
        let evaluated: Vec<(KChain, Option<f64>)> = if use_early {
            let mut evaluated = Vec::with_capacity(cap);
            let mut defined: Vec<f64> = Vec::new();
            for i in 0..cap {
                let (chain, sil) = eval_one(data, cfg, pair, i + 1, take(i), n);
                evaluated.push((chain, sil));
                if let Some(v) = sil {
                    defined.push(v);
                }
                let m = defined.len();
                if m >= 3 && defined[m - 1] < defined[m - 2] && defined[m - 2] < defined[m - 3] {
                    break;
                }
            }
            evaluated
        } else {
            // Per-k chains advance independently; fan out one
            // self-scheduled pool task per k, largest k first, so the
            // costliest chain does not start last (bit-identical at any
            // worker count — each task reads only its own chain).
            let mut evaluated = incprof_par::Pool::current().map_index(cap, 1, |j| {
                let i = cap - 1 - j;
                eval_one(data, cfg, pair, i + 1, take(i), n)
            });
            evaluated.reverse();
            evaluated
        };
        // Chains past an early exit were not evaluated: they stay as
        // they were, after the evaluated ones.
        let skipped: Vec<KChain> = slots
            .into_iter()
            .skip(evaluated.len())
            .filter_map(|s| s.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect();

        let mut sweep = KSweep {
            ks: Vec::with_capacity(evaluated.len()),
            wcss: Vec::with_capacity(evaluated.len()),
            silhouettes: Vec::new(),
        };
        for (i, (chain, sil)) in evaluated.into_iter().enumerate() {
            sweep.ks.push(i + 1);
            sweep.wcss.push(chain.last.wcss);
            if scored {
                sweep.silhouettes.push(sil);
            }
            self.chains.push(chain);
        }
        self.chains.extend(skipped);
        let idx = match method {
            KSelectionMethod::Elbow => elbow_index(&sweep.wcss),
            KSelectionMethod::Silhouette => silhouette_index(&sweep.silhouettes),
        };
        KSelection {
            k: sweep.ks[idx],
            result: self.chains[idx].last.clone(),
            method,
            sweep,
        }
    }
}

/// Advance (or start) the chain for one k and, given a matrix, score its
/// silhouette.
fn eval_one(
    data: &Dataset,
    cfg: &ChainConfig,
    pair: Option<&PairwiseDistances>,
    k: usize,
    existing: Option<KChain>,
    t: usize,
) -> (KChain, Option<f64>) {
    let _k_span = incprof_obs::span(incprof_obs::names::cluster_select_k_k(k));
    let mut chain = existing.unwrap_or_else(|| KChain::start(data, k, cfg));
    chain.advance(data, t, cfg);
    let sil = match (pair, k >= 2) {
        (Some(pair), true) => mean_silhouette_pre(pair, &chain.last.assignments),
        _ => None,
    };
    (chain, sil)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `c` well-separated blobs of `per` points each, on a diagonal.
    fn blobs(c: usize, per: usize) -> Dataset {
        let mut rows = Vec::new();
        for b in 0..c {
            let base = 100.0 * b as f64;
            for i in 0..per {
                rows.push(vec![base + 0.01 * i as f64, base - 0.01 * i as f64]);
            }
        }
        Dataset::from_rows(rows)
    }

    /// `c` blobs of `per` points, blob `b` active only in dimension `b` —
    /// the shape of real interval profiles, where each phase exercises a
    /// different set of functions.
    fn orthogonal_blobs(c: usize, per: usize) -> Dataset {
        let mut rows = Vec::new();
        for b in 0..c {
            for i in 0..per {
                let mut row = vec![0.0; c];
                row[b] = 100.0 + 0.01 * i as f64;
                rows.push(row);
            }
        }
        Dataset::from_rows(rows)
    }

    fn cfg() -> ChainConfig {
        let mut c = ChainConfig::new(KMeansConfig::new(0));
        c.review_every = 4; // exercise reviews on small test data
        c
    }

    /// One cold sweep at the default review cadence, the way
    /// `PhaseDetector` runs it.
    fn sweep(data: &Dataset, k_max: usize, method: KSelectionMethod) -> KSelection {
        let cfg = ChainConfig::new(KMeansConfig::new(0));
        SweepChains::new().evaluate(data, k_max, method, &cfg, None, false)
    }

    #[test]
    fn elbow_finds_three_blobs() {
        assert_eq!(sweep(&blobs(3, 6), 8, KSelectionMethod::Elbow).k, 3);
    }

    #[test]
    fn silhouette_finds_three_blobs() {
        assert_eq!(sweep(&blobs(3, 6), 8, KSelectionMethod::Silhouette).k, 3);
    }

    #[test]
    fn elbow_finds_five_blobs_like_minife() {
        // MiniFE in the paper discovers 5 phases; validate at that scale
        // with profile-shaped (orthogonal) clusters.
        let data = orthogonal_blobs(5, 8);
        assert_eq!(sweep(&data, 8, KSelectionMethod::Elbow).k, 5);
    }

    #[test]
    fn silhouette_finds_five_orthogonal_blobs() {
        let data = orthogonal_blobs(5, 8);
        assert_eq!(sweep(&data, 8, KSelectionMethod::Silhouette).k, 5);
    }

    #[test]
    fn uniform_data_selects_one_phase() {
        let data = Dataset::from_rows(vec![vec![1.0, 1.0]; 10]);
        assert_eq!(sweep(&data, 8, KSelectionMethod::Elbow).k, 1);
    }

    #[test]
    fn sweep_is_capped_by_point_count() {
        let sel = sweep(&blobs(1, 3), 8, KSelectionMethod::Elbow);
        assert_eq!(sel.sweep.ks, vec![1, 2, 3]);
    }

    #[test]
    fn paper_k_max_is_eight() {
        // More blobs than k_max: selection still returns at most k_max.
        assert!(sweep(&blobs(10, 3), 8, KSelectionMethod::Elbow).k <= 8);
    }

    #[test]
    fn selection_contains_consistent_sweep() {
        let data = blobs(2, 5);
        let sel = sweep(&data, 6, KSelectionMethod::Elbow);
        assert_eq!(sel.sweep.ks.len(), sel.sweep.wcss.len());
        assert_eq!(sel.result.assignments.len(), data.nrows());
        // Chosen result is the sweep entry for the chosen k.
        let idx = sel.sweep.ks.iter().position(|&k| k == sel.k).unwrap();
        assert_eq!(sel.sweep.wcss[idx], sel.result.wcss);
    }

    fn assert_chains_bit_equal(a: &SweepChains, b: &SweepChains) {
        assert_eq!(a.chains.len(), b.chains.len());
        for (ca, cb) in a.chains.iter().zip(&b.chains) {
            assert_eq!(ca.k, cb.k);
            assert_eq!(ca.covered, cb.covered);
            assert_eq!(ca.last.assignments, cb.last.assignments);
            assert_eq!(ca.last.wcss.to_bits(), cb.last.wcss.to_bits());
            for c in 0..ca.k {
                for (x, y) in ca
                    .last
                    .centroids
                    .row(c)
                    .iter()
                    .zip(cb.last.centroids.row(c))
                {
                    assert_eq!(x.to_bits(), y.to_bits(), "k={} centroid {c}", ca.k);
                }
            }
        }
    }

    /// The fold state at prefix t must not depend on which prefixes were
    /// queried along the way: evaluating at every t and jumping straight
    /// to the end land in bit-identical states and selections.
    #[test]
    fn fold_is_query_pattern_independent() {
        let data = blobs(3, 6);
        let cfg = cfg();
        let mut step_wise = SweepChains::new();
        let mut sel_a = None;
        for t in 1..=data.nrows() {
            let prefix = data.prefix(t);
            sel_a = Some(step_wise.evaluate(
                &prefix,
                8,
                KSelectionMethod::Silhouette,
                &cfg,
                None,
                false,
            ));
        }
        let mut one_shot = SweepChains::new();
        let sel_b = one_shot.evaluate(&data, 8, KSelectionMethod::Silhouette, &cfg, None, false);
        assert_chains_bit_equal(&step_wise, &one_shot);
        let sel_a = sel_a.unwrap();
        assert_eq!(sel_a.k, sel_b.k);
        assert_eq!(sel_a.result.assignments, sel_b.result.assignments);
        assert_eq!(sel_a.result.wcss.to_bits(), sel_b.result.wcss.to_bits());
        for (a, b) in sel_a.sweep.wcss.iter().zip(&sel_b.sweep.wcss) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in sel_a.sweep.silhouettes.iter().zip(&sel_b.sweep.silhouettes) {
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        }
    }

    /// The fold finds the planted structure (sanity: the incremental
    /// semantics still cluster well, reviews and all).
    #[test]
    fn fold_finds_three_blobs() {
        let data = blobs(3, 6);
        let mut chains = SweepChains::new();
        let sel = chains.evaluate(&data, 8, KSelectionMethod::Silhouette, &cfg(), None, false);
        assert_eq!(sel.k, 3);
        let sel = chains.evaluate(&data, 8, KSelectionMethod::Elbow, &cfg(), None, false);
        assert_eq!(sel.k, 3);
    }

    /// Early exit stops after two consecutive strict silhouette drops,
    /// truncating the sweep identically on cold and warm paths; chains
    /// skipped by the exit catch up when a later sweep needs them.
    #[test]
    fn early_exit_truncates_deterministically() {
        let data = blobs(2, 8);
        let cfg = cfg();
        let mut warm = SweepChains::new();
        // Warm the chains over a shorter prefix first (early-exited too).
        warm.evaluate(
            &data.prefix(10),
            8,
            KSelectionMethod::Silhouette,
            &cfg,
            None,
            true,
        );
        let sel_warm = warm.evaluate(&data, 8, KSelectionMethod::Silhouette, &cfg, None, true);
        let mut cold = SweepChains::new();
        let sel_cold = cold.evaluate(&data, 8, KSelectionMethod::Silhouette, &cfg, None, true);
        assert_eq!(sel_warm.k, sel_cold.k);
        assert_eq!(sel_warm.k, 2, "two planted blobs");
        assert_eq!(sel_warm.sweep.ks, sel_cold.sweep.ks);
        assert!(
            sel_warm.sweep.ks.len() < 8,
            "silhouette collapse on two clean blobs should exit before k_max"
        );
        for (a, b) in sel_warm
            .sweep
            .silhouettes
            .iter()
            .zip(&sel_cold.sweep.silhouettes)
        {
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        }
        // A full (non-early) sweep afterwards catches the skipped chains
        // up and still agrees with a cold full sweep.
        let sel_full_warm =
            warm.evaluate(&data, 8, KSelectionMethod::Silhouette, &cfg, None, false);
        let mut cold_full = SweepChains::new();
        let sel_full_cold =
            cold_full.evaluate(&data, 8, KSelectionMethod::Silhouette, &cfg, None, false);
        assert_eq!(sel_full_warm.sweep.ks.len(), 8);
        assert_chains_bit_equal(&warm, &cold_full);
        assert_eq!(sel_full_warm.k, sel_full_cold.k);
    }

    /// The elbow method needs the full WCSS chord, so `early_exit` must
    /// not truncate it — and needs nothing else, so it scores no
    /// silhouette.
    #[test]
    fn elbow_ignores_early_exit() {
        let data = blobs(2, 8);
        let mut chains = SweepChains::new();
        let sel = chains.evaluate(&data, 8, KSelectionMethod::Elbow, &cfg(), None, true);
        assert_eq!(sel.sweep.ks.len(), 8);
        assert!(sel.sweep.silhouettes.is_empty());
    }

    /// Re-aligning chains to a grown feature space (new all-zero columns
    /// in the covered prefix) is bit-identical to folding the widened
    /// data from scratch.
    #[test]
    fn remap_columns_preserves_fold_bits() {
        let old = blobs(2, 6);
        let cfg = cfg();
        let mut warm = SweepChains::new();
        warm.evaluate(&old, 8, KSelectionMethod::Silhouette, &cfg, None, false);
        // Widen: insert a zero column in the middle, append one new row
        // that actually uses it.
        let mut rows: Vec<Vec<f64>> = old.iter_rows().map(|r| vec![r[0], 0.0, r[1]]).collect();
        rows.push(vec![50.0, 7.5, 50.0]);
        let new = Dataset::from_rows(rows);
        warm.remap_columns(&[0, 2], 3);
        let sel_warm = warm.evaluate(&new, 8, KSelectionMethod::Silhouette, &cfg, None, false);
        let mut cold = SweepChains::new();
        let sel_cold = cold.evaluate(&new, 8, KSelectionMethod::Silhouette, &cfg, None, false);
        assert_chains_bit_equal(&warm, &cold);
        assert_eq!(sel_warm.k, sel_cold.k);
        assert_eq!(sel_warm.result.assignments, sel_cold.result.assignments);
    }

    /// Why the k = 1 chain is exempt from review: at every prefix of a
    /// blob, a duplicate-heavy and a NaN-row series, every review
    /// candidate ends in the chain's assignment, centroid and WCSS bits,
    /// so the strict `<` would keep the incumbent.
    #[test]
    fn a_k1_review_candidate_always_ties_the_incumbent() {
        let duplicates: Vec<Vec<f64>> = (0..24)
            .map(|i| vec![((i * 7) % 3) as f64 * 10.0 + 0.1, 0.3])
            .collect();
        let mut nan_row = blobs(2, 6).to_rows();
        nan_row.insert(5, vec![f64::NAN, 1.0]);
        let series = [
            blobs(3, 8),
            Dataset::from_rows(duplicates),
            Dataset::from_rows(nan_row),
        ];
        let cfg = cfg();
        for (s, data) in series.iter().enumerate() {
            let mut chain = KChain::start(data, 1, &cfg);
            for u in 1..=data.nrows() {
                chain.advance(data, u, &cfg);
                let last = &chain.last;
                for c in 0..4 {
                    let cand = kmeans_rows(
                        data,
                        u,
                        &KMeansConfig {
                            k: 1,
                            restarts: 1,
                            seed: review_seed(cfg.base.seed, 1, u, c),
                            ..cfg.base.clone()
                        },
                    );
                    let at = format!("series {s} prefix {u} candidate {c}");
                    assert_eq!(cand.assignments, last.assignments, "{at}");
                    assert_eq!(cand.wcss.to_bits(), last.wcss.to_bits(), "{at}");
                    let centroid = |r: &KMeansResult| {
                        r.centroids
                            .row(0)
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(centroid(&cand), centroid(last), "{at}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "chains must be reset when the series shrinks")]
    fn shrinking_series_panics() {
        // Straight at the chain: through `evaluate` the panic is raised on
        // a pool worker and `thread::scope` replaces its message.
        let data = blobs(2, 4);
        let mut chain = KChain::start(&data, 2, &cfg());
        chain.advance(&data, data.nrows(), &cfg());
        chain.advance(&data.prefix(3), 3, &cfg());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn remap_rejects_reordering() {
        let data = blobs(2, 4);
        let mut chains = SweepChains::new();
        chains.evaluate(&data, 4, KSelectionMethod::Elbow, &cfg(), None, false);
        chains.remap_columns(&[1, 0], 3);
    }

    /// A shared pairwise matrix changes no bits.
    #[test]
    fn shared_pairwise_matrix_gives_bit_identical_fold() {
        let data = blobs(3, 5);
        let cfg = cfg();
        let mut a = SweepChains::new();
        let sa = a.evaluate(&data, 8, KSelectionMethod::Silhouette, &cfg, None, false);
        let pair = PairwiseDistances::euclidean_of(&data);
        let mut b = SweepChains::new();
        let sb = b.evaluate(
            &data,
            8,
            KSelectionMethod::Silhouette,
            &cfg,
            Some(&pair),
            false,
        );
        assert_chains_bit_equal(&a, &b);
        assert_eq!(sa.k, sb.k);
        assert_eq!(sa.result.assignments, sb.result.assignments);
        for (x, y) in sa.sweep.silhouettes.iter().zip(&sb.sweep.silhouettes) {
            assert_eq!(
                x.map(f64::to_bits),
                y.map(f64::to_bits),
                "silhouette bits moved under a shared matrix"
            );
        }
        for (x, y) in sa.sweep.wcss.iter().zip(&sb.sweep.wcss) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "shared pairwise matrix")]
    fn shared_matrix_of_wrong_size_is_rejected() {
        let data = blobs(2, 4);
        let small = Dataset::from_rows(vec![vec![0.0, 0.0], vec![1.0, 1.0]]);
        let pair = PairwiseDistances::euclidean_of(&small);
        SweepChains::new().evaluate(
            &data,
            8,
            KSelectionMethod::Silhouette,
            &cfg(),
            Some(&pair),
            false,
        );
    }
}

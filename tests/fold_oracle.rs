//! A differential oracle for the k-means fold, anchored on committed bits.
//!
//! `KMeansConfig::pruning = false` runs Lloyd from scratch at every fold
//! step: an exact assignment pass per iteration, cluster sums and WCSS
//! rebuilt from zero. With `pruning` on, the same fold skips whatever
//! bounds and bookkeeping prove unchanged. Both must agree on every bit
//! at every prefix: assignments, centroid bits, WCSS bits, `iterations`
//! and `total_iterations` of every chain.
//!
//! Agreement between two paths of the same build does not catch a change
//! that moves both. So the chains of one cold sweep per input are also
//! hashed and compared with `tests/fold_digest.txt`, which was generated
//! before the fold was optimised and is not regenerated by a change that
//! claims to keep the fold's output. On purpose, only a change that
//! moves clustering output edits it, and says so.
//!
//! Inputs: the paper's five applications (`tests/common`) and four seeded
//! synthetic series of 512 rows: well-separated drifting blobs,
//! duplicate-heavy rows (k above the distinct-row count, so the
//! empty-cluster repair fires, also in a run's final iteration), a small
//! integer lattice whose points tie exactly between centroids, and a
//! series that gains a feature column mid-stream, where the chains go
//! through `SweepChains::remap_columns`.

mod common;

use common::chain_config;
use incprof_suite::cluster::{Dataset, KSelectionMethod, SweepChains};
use incprof_suite::collect::IntervalMatrix;

const DIGEST: &str = include_str!("fold_digest.txt");
const K_MAX: usize = 8;
const N: usize = 512;

/// SplitMix64: a seeded stream of `u64`s for the synthetic series.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Five phases of six features that recur in blocks of 8 to 47 rows,
/// each row its phase's centre plus uniform noise.
fn blobs() -> Dataset {
    let mut rng = Rng(11);
    let centres: Vec<Vec<f64>> = (0..5)
        .map(|_| (0..6).map(|_| 100.0 * rng.unit()).collect())
        .collect();
    let mut rows = Vec::with_capacity(N);
    while rows.len() < N {
        let phase = rng.below(5);
        for _ in 0..8 + rng.below(40) {
            let row = centres[phase].iter().map(|c| c + 5.0 * rng.unit());
            rows.push(row.collect());
        }
    }
    rows.truncate(N);
    Dataset::from_rows(rows)
}

/// Every row is one of five distinct rows, so k = 6..8 always has more
/// clusters than distinct points. The coordinates are not dyadic, so the
/// mean of m copies of a row depends on m in its last bits: a cluster
/// sum that miscounts one copy shows in the centroid.
fn duplicates() -> Dataset {
    let mut rng = Rng(12);
    let distinct: Vec<Vec<f64>> = (0..5)
        .map(|_| (0..4).map(|_| 10.0 * rng.unit()).collect())
        .collect();
    Dataset::from_rows((0..N).map(|_| distinct[rng.below(5)].clone()).collect())
}

/// Points on a 5 × 5 integer lattice: many lie exactly halfway between
/// two centroids, so the argmin's lowest-index tie-break decides.
fn ties() -> Dataset {
    let mut rng = Rng(13);
    let rows = (0..N).map(|_| vec![rng.below(5) as f64, rng.below(5) as f64]);
    Dataset::from_rows(rows.collect())
}

/// Rows before this index have a zero in [`WIDE_COL`].
const WIDEN_AT: usize = 192;
/// The column that only becomes nonzero at [`WIDEN_AT`].
const WIDE_COL: usize = 2;

/// Four drifting features, plus a fifth (column [`WIDE_COL`]) that is
/// zero until row [`WIDEN_AT`]: the shape of a function that first runs
/// mid-series.
fn widening() -> Dataset {
    let mut rng = Rng(14);
    let rows = (0..N).map(|i| {
        let phase = (i / 32) % 3;
        let mut row: Vec<f64> = (0..5)
            .map(|j| 10.0 * ((phase + j) % 3) as f64 + rng.unit())
            .collect();
        if i < WIDEN_AT {
            row[WIDE_COL] = 0.0;
        } else {
            row[WIDE_COL] = 30.0 * (phase == 1) as u8 as f64 + rng.unit();
        }
        row
    });
    Dataset::from_rows(rows.collect())
}

/// The widened series without [`WIDE_COL`].
fn narrow(data: &Dataset) -> Dataset {
    let rows = data.iter_rows().map(|r| {
        let mut r = r.to_vec();
        r.remove(WIDE_COL);
        r
    });
    Dataset::from_rows(rows.collect())
}

/// Self-time feature rows of one profiled application.
fn app_rows(app: &common::App) -> Dataset {
    let intervals = app.series.interval_profiles().expect("app series deltas");
    let matrix = IntervalMatrix::from_interval_profiles(&intervals);
    Dataset::from_rows(matrix.feature_rows())
}

/// One chain's k, covered, assignments, centroid bits, WCSS bits,
/// iterations and total_iterations.
type ChainBits = (usize, usize, Vec<usize>, Vec<u64>, u64, usize, u64);

/// Every bit of every chain, as a comparable value.
fn bits(chains: &SweepChains) -> Vec<ChainBits> {
    chains
        .chains
        .iter()
        .map(|c| {
            let centroids =
                (0..c.k).flat_map(|r| c.last.centroids.row(r).iter().map(|v| v.to_bits()));
            (
                c.k,
                c.covered,
                c.last.assignments.clone(),
                centroids.collect(),
                c.last.wcss.to_bits(),
                c.last.iterations,
                c.last.total_iterations,
            )
        })
        .collect()
}

/// FNV-1a over [`bits`].
fn digest(chains: &SweepChains) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (k, covered, assignments, centroids, wcss, iterations, total) in bits(chains) {
        mix(k as u64);
        mix(covered as u64);
        assignments.iter().for_each(|&a| mix(a as u64));
        centroids.iter().for_each(|&c| mix(c));
        mix(wcss);
        mix(iterations as u64);
        mix(total);
    }
    h
}

/// Fold `data` one prefix at a time with pruning on and off and compare
/// every chain after every step. When `widen_at` is set, rows before it
/// are folded without [`WIDE_COL`] and the chains are then remapped onto
/// the full width. Returns the pruned fold's final chains.
fn fold_both_ways(name: &str, data: &Dataset, widen_at: Option<usize>) -> SweepChains {
    let narrow = widen_at.map(|_| narrow(data));
    let (fast_cfg, oracle_cfg) = (chain_config(true), chain_config(false));
    let (mut fast, mut oracle) = (SweepChains::new(), SweepChains::new());
    for t in 1..=data.nrows() {
        let rows = match (&narrow, widen_at) {
            (Some(narrow), Some(at)) if t < at => narrow.prefix(t),
            _ => data.prefix(t),
        };
        if widen_at == Some(t) {
            let d = data.ncols();
            let map: Vec<usize> = (0..d).filter(|&j| j != WIDE_COL).collect();
            fast.remap_columns(&map, d);
            oracle.remap_columns(&map, d);
        }
        let elbow = KSelectionMethod::Elbow;
        let a = fast.evaluate(&rows, K_MAX, elbow, &fast_cfg, None, false);
        let b = oracle.evaluate(&rows, K_MAX, elbow, &oracle_cfg, None, false);
        assert_eq!(a.k, b.k, "{name}[..{t}]: selected k");
        assert!(
            bits(&fast) == bits(&oracle),
            "{name}[..{t}]: the pruned fold left the from-scratch oracle"
        );
    }
    fast
}

/// The committed digest for `name`, if `tests/fold_digest.txt` has one.
fn committed(name: &str) -> Option<u64> {
    let mut fields = DIGEST
        .lines()
        .map(str::split_whitespace)
        .find_map(|mut l| (l.next() == Some(name)).then_some(l))?;
    u64::from_str_radix(fields.next()?, 16).ok()
}

/// The oracle, then the anchor: a cold sweep of the whole input must
/// land on the state the step-wise fold reached, and on the committed
/// digest.
fn check(name: &str, data: &Dataset, widen_at: Option<usize>) {
    let stepped = fold_both_ways(name, data, widen_at);
    let mut cold = SweepChains::new();
    let cfg = chain_config(true);
    cold.evaluate(data, K_MAX, KSelectionMethod::Elbow, &cfg, None, false);
    assert!(
        bits(&stepped) == bits(&cold),
        "{name}: the step-wise fold and a cold sweep disagree"
    );
    let got = digest(&cold);
    assert_eq!(
        Some(got),
        committed(name),
        "{name}: the cold sweep's chain bits moved from tests/fold_digest.txt \
         (this build gives `{name} {got:016x}`)"
    );
}

#[test]
fn the_five_apps() {
    for app in common::apps() {
        check(app.name, &app_rows(app), None);
    }
}

#[test]
fn drifting_blobs() {
    check("blobs", &blobs(), None);
}

#[test]
fn duplicate_heavy_rows() {
    check("duplicates", &duplicates(), None);
}

#[test]
fn exact_ties_on_a_lattice() {
    check("ties", &ties(), None);
}

#[test]
fn a_column_inserted_mid_stream() {
    check("widening", &widening(), Some(WIDEN_AT));
}

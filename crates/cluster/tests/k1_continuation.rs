//! A k = 1 fold step computes one exact distance: the appended row's.
//!
//! With one centroid every point's lower bound (the distance to the
//! nearest *other* centroid) is +∞, so each carried row prunes. The
//! bound used to be padded to ∞ − ∞ = NaN, which never prunes, and every
//! k = 1 step recomputed every row in every iteration.
//!
//! `cluster.kmeans.distance_evals` is process-global and `cargo test`
//! runs a binary's tests concurrently, so this file holds exactly one
//! `#[test]`.

use incprof_cluster::{ChainConfig, Dataset, KChain, KMeansConfig};
use incprof_obs::{counter, names};

#[test]
fn a_k1_continuation_evaluates_only_the_appended_row() {
    let rows: Vec<Vec<f64>> = (0..48)
        .map(|i| {
            let x = i as f64;
            vec![(0.37 * x).sin(), (0.11 * x).cos(), 0.01 * x]
        })
        .collect();
    let data = Dataset::from_rows(rows);
    // No reviews: a review's fresh k-means++ candidates are not a
    // continuation.
    let cfg = ChainConfig {
        review_every: 0,
        ..ChainConfig::new(KMeansConfig::new(1))
    };
    let mut chain = KChain::start(&data, 1, &cfg);
    // The first step has no carried bounds and runs one exact pass.
    chain.advance(&data, 24, &cfg);
    let evals = || counter(names::CLUSTER_KMEANS_DISTANCE_EVALS).get();
    for t in 25..=data.nrows() {
        let before = evals();
        chain.advance(&data, t, &cfg);
        assert_eq!(
            evals() - before,
            1,
            "step to {t} rows: only the appended row may be evaluated"
        );
    }
}

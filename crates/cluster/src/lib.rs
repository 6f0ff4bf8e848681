//! # incprof-cluster
//!
//! Clustering machinery for IncProf phase detection.
//!
//! The paper (§V-A) clusters per-interval profile vectors with *k-means*,
//! runs k = 1..8, and selects k with the *elbow* method (they also
//! evaluated *silhouette*, and tried *DBSCAN* without improvement). This
//! crate implements all of those from scratch, deterministically:
//!
//! * [`Dataset`] — a dense `n × d` matrix of interval feature vectors.
//! * [`kmeans()`] — Lloyd's algorithm with k-means++ seeding, multiple
//!   seeded restarts, and empty-cluster repair.
//! * [`SweepChains::evaluate`] — the k-sweep: one warm-startable k-means
//!   chain per k, folded over the rows, so a sweep over a grown series
//!   continues where the last one stopped and lands on the same bits as
//!   a sweep from scratch.
//! * [`select_k`] — the elbow (maximum distance to the WCSS chord) and
//!   mean-silhouette criteria that pick k from a sweep.
//! * [`silhouette`] — silhouette coefficients.
//! * [`dbscan()`] — density-based clustering, used by the paper's (negative)
//!   ablation and reproduced here for the same comparison.
//! * [`scale`] — feature scaling options (none / min-max / z-score /
//!   row-normalize).
//!
//! Everything is seeded explicitly; there is no global RNG state, so the
//! whole phase-detection pipeline is reproducible run-to-run. The hot
//! paths (the k sweep, Lloyd's assignment step, the pairwise-distance
//! matrix behind silhouette scoring) run on the [`incprof_par`] worker
//! pool with deterministic chunking, so results are additionally
//! bit-identical for every `INCPROF_THREADS` setting.

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// Numerical kernels index several parallel arrays in one loop; the
// iterator rewrite clippy suggests hurts readability there.
#![allow(clippy::needless_range_loop)]

pub mod compare;
pub mod dataset;
pub mod dbscan;
pub mod distance;
pub mod incremental;
pub mod kmeans;
pub mod scale;
pub mod select_k;
pub mod silhouette;

pub use compare::{adjusted_rand_index, rand_index};
pub use dataset::Dataset;
pub use dbscan::{dbscan, DbscanLabel, DbscanParams};
pub use distance::PairwiseDistances;
pub use incremental::{ChainConfig, KChain, SweepChains};
pub use kmeans::{kmeans, kmeans_warm, KMeansConfig, KMeansResult};
pub use scale::Scaling;
pub use select_k::{KSelection, KSelectionMethod, KSweep};
pub use silhouette::{
    mean_silhouette, mean_silhouette_pre, silhouette_values, silhouette_values_pre,
};

//! # incprof-core
//!
//! The IncProf phase-detection and instrumentation-site-selection core —
//! the paper's primary contribution (§V).
//!
//! Given the interval profile data produced by `incprof-collect`, this
//! crate:
//!
//! 1. represents each interval as a tuple of function self times
//!    ([`incprof_collect::IntervalMatrix`]),
//! 2. clusters the intervals with k-means for k = 1..8 and selects k by
//!    the elbow method ([`PhaseDetector`]; silhouette and DBSCAN variants
//!    are available for the paper's ablations),
//! 3. interprets each cluster as a **phase**, and
//! 4. runs **Algorithm 1** ([`algorithm1`]) to pick, for every phase, the
//!    source functions to instrument with heartbeats, each tagged *body*
//!    (instrument function entry/exit) or *loop* (instrument a loop inside
//!    the function), with the paper's 95% coverage threshold.
//!
//! The paper's future-work extensions are implemented behind explicit
//! calls so their effect can be measured:
//!
//! * [`merge`] — postprocessing that combines phases sharing the same
//!   instrumentation sites (suggested in §VI-A after Graph500 produced two
//!   phases with the same `run_bfs` site).
//! * [`callgraph_select`] — call-graph-aware site lifting (suggested in
//!   §VI-B after MiniFE selected `sum_in_symm_elem_matrix` where a human
//!   chose its caller `perform_element_loop`).
//!
//! [`report`] renders the analysis as the paper's per-application tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Numerical kernels index several parallel arrays in one loop; the
// iterator rewrite clippy suggests hurts readability there.
#![allow(clippy::needless_range_loop)]

pub mod algorithm1;
pub mod cache;
pub mod callgraph_select;
pub mod merge;
pub mod online;
pub mod pipeline;
pub mod report;
pub mod types;

pub use cache::AnalysisCache;
pub use online::{OnlineConfig, OnlineObservation, OnlinePhaseDetector};
pub use pipeline::{ClusteringMethod, FeatureSet, PhaseAnalysis, PhaseDetector, PipelineError};
pub use report::source_context_json;
pub use types::{InstrumentationSite, InstrumentationType, Phase};

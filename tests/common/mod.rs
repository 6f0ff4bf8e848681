//! The paper's five applications, profiled once per test binary.
//!
//! Each binary that includes this module uses a different part of it.
#![allow(dead_code)]

use incprof_bench::apps::Size;
use incprof_bench::ALL_APPS;
use incprof_suite::cluster::{ChainConfig, KMeansConfig};
use incprof_suite::collect::SampleSeries;
use incprof_suite::core::PhaseDetector;
use incprof_suite::hpc_apps::HeartbeatPlan;
use std::sync::OnceLock;

/// One profiled application: rank 0's cumulative series, each snapshot
/// with the function table it was taken under.
pub struct App {
    pub name: &'static str,
    pub series: SampleSeries,
}

/// Index of MiniFE in [`apps`].
pub const MINIFE: usize = 1;
/// Index of MiniAMR in [`apps`]: the longest series.
pub const MINIAMR: usize = 2;

/// The apps' names here, in [`ALL_APPS`] order. They key
/// `tests/fold_digest.txt`, which predates the bench crate's shorter
/// "Gadget".
const NAMES: [&str; 5] = ["Graph500", "MiniFE", "MiniAMR", "LAMMPS", "Gadget2"];

/// Graph500, MiniFE, MiniAMR, LAMMPS and Gadget2, in that order, at their
/// tiny configurations on the virtual clock (so every series is
/// deterministic), profiled on first use.
pub fn apps() -> &'static [App] {
    static APPS: OnceLock<Vec<App>> = OnceLock::new();
    APPS.get_or_init(|| {
        NAMES
            .into_iter()
            .zip(ALL_APPS)
            .map(|(name, app)| {
                let series = app
                    .run_virtual(Size::Tiny, &HeartbeatPlan::none())
                    .rank0
                    .series;
                App { name, series }
            })
            .collect()
    })
}

/// The k-means fold configuration of the paper-default detector, with
/// `pruning` on (the product) or off (the from-scratch oracle).
pub fn chain_config(pruning: bool) -> ChainConfig {
    let det = PhaseDetector::default();
    ChainConfig {
        base: KMeansConfig {
            restarts: det.restarts,
            pruning,
            ..KMeansConfig::new(1).with_seed(det.seed)
        },
        review_every: det.review_every,
        review_candidates: det.review_candidates,
    }
}

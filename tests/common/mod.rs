//! The paper's five applications, profiled once per test binary.
//!
//! Each binary that includes this module uses a different part of it.
#![allow(dead_code)]

use incprof_suite::collect::SampleSeries;
use incprof_suite::hpc_apps::{
    gadget2, graph500, lammps, miniamr, minife, AppOutput, HeartbeatPlan, RunMode,
};
use incprof_suite::profile::FunctionTable;
use std::sync::OnceLock;

/// One profiled application: rank 0's cumulative series and the
/// function table its gmon snapshots are encoded against.
pub struct App {
    pub name: &'static str,
    pub series: SampleSeries,
    pub table: FunctionTable,
}

/// Index of MiniFE in [`apps`].
pub const MINIFE: usize = 1;
/// Index of MiniAMR in [`apps`]: the longest series.
pub const MINIAMR: usize = 2;

/// Graph500, MiniFE, MiniAMR, LAMMPS and Gadget2, in that order, at their
/// tiny configurations on the virtual clock (so every series is
/// deterministic), profiled on first use.
pub fn apps() -> &'static [App] {
    static APPS: OnceLock<Vec<App>> = OnceLock::new();
    APPS.get_or_init(|| {
        let (plan, mode) = (HeartbeatPlan::none(), RunMode::virtual_1s());
        let app = |name, out: AppOutput| App {
            name,
            series: out.rank0.series,
            table: out.rank0.table,
        };
        vec![
            app(
                "Graph500",
                graph500::run(&graph500::Graph500Config::tiny(), mode, &plan),
            ),
            app(
                "MiniFE",
                minife::run(&minife::MiniFeConfig::tiny(), mode, &plan),
            ),
            app(
                "MiniAMR",
                miniamr::run(&miniamr::MiniAmrConfig::tiny(), mode, &plan),
            ),
            app(
                "LAMMPS",
                lammps::run(&lammps::LammpsConfig::tiny(), mode, &plan),
            ),
            app(
                "Gadget2",
                gadget2::run(&gadget2::Gadget2Config::tiny(), mode, &plan),
            ),
        ]
    })
}

//! # incprof-bench
//!
//! The experiment harness regenerating every table and figure of the
//! IncProf paper (CLUSTER 2022):
//!
//! | Artifact | Binary |
//! |---|---|
//! | Table I (setup & overhead) | `all_experiments --only table1` |
//! | Table II (Graph500 sites) / Fig. 2 | `all_experiments --only table2` / `--only fig2` |
//! | Table III (MiniFE) / Fig. 3 | `all_experiments --only table3` / `--only fig3` |
//! | Table IV (MiniAMR) / Fig. 4 | `all_experiments --only table4` / `--only fig4` |
//! | Table V (LAMMPS) / Fig. 5 | `all_experiments --only table5` / `--only fig5` |
//! | Table VI (Gadget2) / Fig. 6 | `all_experiments --only table6` / `--only fig6` |
//! | everything + artifacts | `all_experiments` |
//! | ablations (clustering / features / threshold / interval / online) | `ablation_*` |
//! | clustering accuracy against planted ground truth | `accuracy` |
//! | heartbeat rate factors, gaps, co-activity per app | `heartbeat_report` |
//! | tracing-tax gate (traced vs untraced pushes, < 2 % CPU) | `serve_load` |
//!
//! Timing is not here, end to end or per primitive: `perfbench/` (its
//! own package, outside the workspace) is the one thing in the
//! repository that times code, and draws its app workloads from
//! [`apps`]. `serve_load` reports a ratio and an exit code only.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod figures;
pub mod overhead;
pub mod paper;
pub mod tables;

pub use apps::{App, ALL_APPS};

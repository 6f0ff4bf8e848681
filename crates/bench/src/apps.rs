//! Uniform driver over the five evaluation applications.

use hpc_apps::harness::{AppOutput, RunMode};
use hpc_apps::plan::HeartbeatPlan;
use hpc_apps::{gadget2, graph500, lammps, miniamr, minife};
use incprof_core::report::ManualSite;

/// Workload size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Seconds-long virtual runs spanning the paper's interval counts
    /// (the default for table/figure regeneration).
    Paper,
    /// A few dozen intervals (quick checks).
    Medium,
    /// A handful of intervals (smoke tests).
    Tiny,
}

impl Size {
    /// Parse from the `INCPROF_SCALE` environment variable
    /// (`paper`/`medium`/`tiny`), defaulting to `Paper`.
    pub fn from_env() -> Size {
        match std::env::var("INCPROF_SCALE").unwrap_or_default().as_str() {
            "tiny" => Size::Tiny,
            "medium" => Size::Medium,
            _ => Size::Paper,
        }
    }
}

/// One of the five evaluation applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    /// Graph500 BFS benchmark (Table II / Fig. 2).
    Graph500,
    /// MiniFE finite-element mini-app (Table III / Fig. 3).
    MiniFe,
    /// MiniAMR adaptive-mesh proxy (Table IV / Fig. 4).
    MiniAmr,
    /// LAMMPS LJ molecular dynamics (Table V / Fig. 5).
    Lammps,
    /// Gadget2 N-body cosmology (Table VI / Fig. 6).
    Gadget2,
}

/// All five apps in paper order.
pub const ALL_APPS: [App; 5] = [
    App::Graph500,
    App::MiniFe,
    App::MiniAmr,
    App::Lammps,
    App::Gadget2,
];

impl App {
    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            App::Graph500 => "Graph500",
            App::MiniFe => "MiniFE",
            App::MiniAmr => "MiniAMR",
            App::Lammps => "LAMMPS",
            App::Gadget2 => "Gadget",
        }
    }

    /// The paper's manual instrumentation sites for this app.
    pub fn manual_sites(&self) -> Vec<ManualSite> {
        match self {
            App::Graph500 => graph500::manual_sites(),
            App::MiniFe => minife::manual_sites(),
            App::MiniAmr => miniamr::manual_sites(),
            App::Lammps => lammps::manual_sites(),
            App::Gadget2 => gadget2::manual_sites(),
        }
    }

    /// Run in deterministic virtual mode at the given size, sampling at
    /// the paper's 1 s interval.
    pub fn run_virtual(&self, size: Size, plan: &HeartbeatPlan) -> AppOutput {
        self.run_virtual_at(size, 1_000_000_000, plan)
    }

    /// [`App::run_virtual`] sampling every `interval_ns` virtual
    /// nanoseconds.
    pub fn run_virtual_at(&self, size: Size, interval_ns: u64, plan: &HeartbeatPlan) -> AppOutput {
        let mode = RunMode::Virtual { interval_ns };
        match self {
            App::Graph500 => {
                let cfg = match size {
                    Size::Paper => graph500::Graph500Config::default(),
                    Size::Medium => graph500::Graph500Config {
                        scale: 12,
                        edge_factor: 16,
                        num_roots: 20,
                        ..graph500::Graph500Config::default()
                    },
                    Size::Tiny => graph500::Graph500Config::tiny(),
                };
                graph500::run(&cfg, mode, plan)
            }
            App::MiniFe => {
                let cfg = match size {
                    Size::Paper => minife::MiniFeConfig::default(),
                    Size::Medium => minife::MiniFeConfig {
                        n: 14,
                        cg_iters: 60,
                        procs: 1,
                    },
                    Size::Tiny => minife::MiniFeConfig::tiny(),
                };
                minife::run(&cfg, mode, plan)
            }
            App::MiniAmr => {
                let cfg = match size {
                    Size::Paper => miniamr::MiniAmrConfig::default(),
                    Size::Medium => miniamr::MiniAmrConfig {
                        blocks_per_side: 3,
                        steps: 150,
                        comm_burst_every: 25,
                        adapt_at_step: 75,
                        procs: 1,
                    },
                    Size::Tiny => miniamr::MiniAmrConfig::tiny(),
                };
                miniamr::run(&cfg, mode, plan)
            }
            App::Lammps => {
                let cfg = match size {
                    Size::Paper => lammps::LammpsConfig::default(),
                    Size::Medium => lammps::LammpsConfig {
                        atoms_per_side: 9,
                        steps: 60,
                        rebuild_every: 8,
                        ..lammps::LammpsConfig::default()
                    },
                    Size::Tiny => lammps::LammpsConfig::tiny(),
                };
                lammps::run(&cfg, mode, plan)
            }
            App::Gadget2 => {
                let cfg = match size {
                    Size::Paper => gadget2::Gadget2Config::default(),
                    Size::Medium => gadget2::Gadget2Config {
                        particles: 700,
                        steps: 40,
                        pm_grid: 24,
                        ..gadget2::Gadget2Config::default()
                    },
                    Size::Tiny => gadget2::Gadget2Config::tiny(),
                };
                gadget2::run(&cfg, mode, plan)
            }
        }
    }

    /// Run in wall-clock mode for overhead measurements. `procs` ranks;
    /// real compute sized to take on the order of a second.
    pub fn run_wall(&self, profile: bool, plan: &HeartbeatPlan, procs: usize) -> AppOutput {
        let mode = RunMode::Wall {
            interval_ns: 100_000_000,
            profile,
        };
        match self {
            App::Graph500 => graph500::run(
                &graph500::Graph500Config {
                    scale: 15,
                    edge_factor: 16,
                    num_roots: 24,
                    procs,
                    ..graph500::Graph500Config::default()
                },
                mode,
                plan,
            ),
            App::MiniFe => minife::run(
                &minife::MiniFeConfig {
                    n: 32,
                    cg_iters: 500,
                    procs,
                },
                mode,
                plan,
            ),
            App::MiniAmr => miniamr::run(
                &miniamr::MiniAmrConfig {
                    blocks_per_side: 4,
                    steps: 420,
                    comm_burst_every: 36,
                    adapt_at_step: 210,
                    procs,
                },
                mode,
                plan,
            ),
            App::Lammps => lammps::run(
                &lammps::LammpsConfig {
                    atoms_per_side: 14,
                    steps: 200,
                    rebuild_every: 8,
                    procs,
                    ..lammps::LammpsConfig::default()
                },
                mode,
                plan,
            ),
            App::Gadget2 => gadget2::run(
                &gadget2::Gadget2Config {
                    particles: 2048,
                    steps: 80,
                    pm_grid: 32,
                    procs,
                    ..gadget2::Gadget2Config::default()
                },
                mode,
                plan,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_match_paper_order() {
        let names: Vec<&str> = ALL_APPS.iter().map(|a| a.name()).collect();
        assert_eq!(
            names,
            vec!["Graph500", "MiniFE", "MiniAMR", "LAMMPS", "Gadget"]
        );
    }

    #[test]
    fn every_app_has_manual_sites() {
        for app in ALL_APPS {
            assert!(
                !app.manual_sites().is_empty(),
                "{} missing manual sites",
                app.name()
            );
        }
    }

    #[test]
    fn tiny_virtual_runs_complete() {
        for app in ALL_APPS {
            let out = app.run_virtual(Size::Tiny, &HeartbeatPlan::none());
            assert!(
                !out.rank0.series.is_empty(),
                "{} collected nothing",
                app.name()
            );
            assert!(out.result_check.is_finite());
        }
    }

    #[test]
    fn size_from_env_defaults_to_paper() {
        // (Cannot mutate the environment safely in tests; just check the
        // default path when the variable is unset or unknown.)
        assert!(matches!(
            Size::from_env(),
            Size::Paper | Size::Medium | Size::Tiny
        ));
    }
}

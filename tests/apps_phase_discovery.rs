//! Integration: full phase discovery over every mini-app, plus the
//! discovered-heartbeat re-instrumentation loop (the paper's complete
//! workflow: profile → detect → instrument → heartbeat data).

use incprof_bench::apps::{App, Size};
use incprof_bench::ALL_APPS;
use incprof_suite::appekg::HeartbeatSeries;
use incprof_suite::core::PhaseDetector;
use incprof_suite::hpc_apps::plan::discovered_site_names;
use incprof_suite::hpc_apps::{gadget2, graph500, lammps, miniamr, minife, HeartbeatPlan, RunMode};

#[test]
fn graph500_discovered_sites_drive_heartbeats() {
    let cfg = graph500::Graph500Config {
        scale: 11,
        edge_factor: 8,
        num_roots: 8,
        ..graph500::Graph500Config::tiny()
    };
    let profiled = graph500::run(&cfg, RunMode::virtual_1s(), &HeartbeatPlan::none());
    let analysis = PhaseDetector::new()
        .detect_series(&profiled.rank0.series)
        .unwrap();
    let plan = HeartbeatPlan::from_analysis(&analysis, &profiled.rank0.table);
    assert!(!plan.is_empty());

    // Re-run with the discovered instrumentation; every planned site must
    // actually beat.
    let hb_run = graph500::run(&cfg, RunMode::virtual_1s(), &plan);
    let series = HeartbeatSeries::from_records(
        &hb_run.rank0.hb_records,
        Some(hb_run.rank0.series.len() as u64),
    );
    assert_eq!(
        series.len(),
        plan.len(),
        "every discovered site produced heartbeats"
    );
    for s in series.values() {
        assert!(s.total_count() > 0);
    }
}

#[test]
fn minife_phase_count_matches_paper_band() {
    let out = App::MiniFe.run_virtual(Size::Medium, &HeartbeatPlan::none());
    let analysis = PhaseDetector::new()
        .detect_series(&out.rank0.series)
        .unwrap();
    // Paper: 5 phases. Accept the neighborhood — the clustering is
    // scale-dependent — but never a trivial single phase.
    assert!((3..=6).contains(&analysis.k), "k = {}", analysis.k);
}

#[test]
fn every_phase_is_covered_at_threshold() {
    let out = miniamr::run(
        &miniamr::MiniAmrConfig::tiny(),
        RunMode::virtual_1s(),
        &HeartbeatPlan::none(),
    );
    let analysis = PhaseDetector::new()
        .detect_series(&out.rank0.series)
        .unwrap();
    for phase in &analysis.phases {
        if phase.intervals.iter().any(|_| true) {
            assert!(
                phase.coverage() >= 0.5,
                "phase {} coverage {}",
                phase.id,
                phase.coverage()
            );
        }
    }
}

#[test]
fn lammps_heartbeat_durations_track_kernel_cost() {
    // The discovered force-kernel heartbeat's mean duration must be the
    // per-call kernel time, not noise.
    let cfg = lammps::LammpsConfig {
        atoms_per_side: 9,
        steps: 60,
        rebuild_every: 8,
        ..lammps::LammpsConfig::tiny()
    };
    let profiled = lammps::run(&cfg, RunMode::virtual_1s(), &HeartbeatPlan::none());
    let analysis = PhaseDetector::new()
        .detect_series(&profiled.rank0.series)
        .unwrap();
    let plan = HeartbeatPlan::from_analysis(&analysis, &profiled.rank0.table);
    let names = discovered_site_names(&analysis, &profiled.rank0.table);
    assert!(names.contains("PairLJCut::compute"), "{names:?}");

    let hb_run = lammps::run(&cfg, RunMode::virtual_1s(), &plan);
    let compute_idx = hb_run
        .rank0
        .hb_names
        .iter()
        .position(|n| n.starts_with("PairLJCut::compute"))
        .unwrap() as u32;
    let mut total_duration = 0.0;
    let mut total_count = 0u64;
    for r in &hb_run.rank0.hb_records {
        if let Some(s) = r.stats(incprof_suite::appekg::HeartbeatId(compute_idx)) {
            total_duration += s.total_duration_ns as f64;
            total_count += s.count;
        }
    }
    assert!(total_count > 0);
    let mean = total_duration / total_count as f64;
    assert!(mean > 0.0);
}

#[test]
fn gadget2_fast_functions_stay_undetected_at_one_second() {
    // The paper's §VI-E finding: the four fast timestep drivers cannot be
    // phases at 1-second interval resolution.
    let out = gadget2::run(
        &gadget2::Gadget2Config {
            particles: 400,
            steps: 20,
            pm_grid: 16,
            ..gadget2::Gadget2Config::tiny()
        },
        RunMode::virtual_1s(),
        &HeartbeatPlan::none(),
    );
    let analysis = PhaseDetector::new()
        .detect_series(&out.rank0.series)
        .unwrap();
    let names = discovered_site_names(&analysis, &out.rank0.table);
    for fast in [
        "find_next_sync_point_and_drift",
        "advance_and_find_timesteps",
    ] {
        assert!(
            !names.contains(fast),
            "{fast} should be invisible at 1 s intervals"
        );
    }
}

#[test]
fn coarse_runs_are_subsampled_fine_runs() {
    // On the virtual clock a collection at m·Δ takes the samples a
    // collection at Δ takes at the same instants, so one fine run yields
    // every coarser one: flat and call graph, timestamps, stop sample.
    const FINE_NS: u64 = 250_000_000;
    let plan = HeartbeatPlan::none();
    for app in ALL_APPS {
        let fine = app.run_virtual_at(Size::Tiny, FINE_NS, &plan).rank0.series;
        for m in [2, 4] {
            let coarse = app
                .run_virtual_at(Size::Tiny, m * FINE_NS, &plan)
                .rank0
                .series;
            assert!(
                coarse.len() >= 2,
                "{}: too short to say anything",
                app.name()
            );
            assert!(
                fine.coarsen(m as usize) == coarse,
                "{} at m = {m}: the coarse run is not the fine run subsampled",
                app.name()
            );
        }
    }
}

#[test]
fn rank_symmetry_holds_for_multirank_runs() {
    // "All of the applications being used are symmetrically parallel and
    // thus all processes behave similarly" (§VI): result_check values are
    // produced via collectives, so a 4-rank wall run and a 1-rank wall
    // run of graph500 must both validate cleanly.
    for procs in [1usize, 4] {
        let out = graph500::run(
            &graph500::Graph500Config {
                scale: 8,
                edge_factor: 6,
                num_roots: 2,
                procs,
                ..graph500::Graph500Config::tiny()
            },
            RunMode::Wall {
                interval_ns: 50_000_000,
                profile: true,
            },
            &HeartbeatPlan::none(),
        );
        assert_eq!(out.result_check, 0.0, "procs = {procs}");
    }
}

#[test]
fn graph500_ranks_are_symmetric() {
    let out = graph500::run(
        &graph500::Graph500Config {
            scale: 9,
            edge_factor: 8,
            num_roots: 4,
            procs: 4,
            ..graph500::Graph500Config::tiny()
        },
        RunMode::Wall {
            interval_ns: 50_000_000,
            profile: true,
        },
        &HeartbeatPlan::none(),
    );
    assert_eq!(out.rank_profiles.len(), 4);
    // Wall timings jitter across ranks, but call counts are exactly
    // symmetric for the BFS kernel (one call per root per rank).
    let bfs = out.rank0.table.id_of("run_bfs").unwrap();
    for p in &out.rank_profiles {
        assert_eq!(p.get(bfs).calls, 4);
    }
}

#[test]
fn minife_rank_profiles_cover_all_kernels() {
    let out = minife::run(
        &minife::MiniFeConfig {
            n: 6,
            cg_iters: 10,
            procs: 3,
        },
        RunMode::Wall {
            interval_ns: 50_000_000,
            profile: true,
        },
        &HeartbeatPlan::none(),
    );
    assert_eq!(out.rank_profiles.len(), 3);
    let cg = out.rank0.table.id_of("cg_solve").unwrap();
    for p in &out.rank_profiles {
        assert!(p.get(cg).calls >= 1, "cg_solve profiled on every rank");
    }
}

#[test]
fn single_rank_virtual_run_has_one_profile() {
    let out = minife::run(
        &minife::MiniFeConfig::tiny(),
        RunMode::virtual_1s(),
        &HeartbeatPlan::none(),
    );
    assert_eq!(out.rank_profiles.len(), 1);
}

//! Cross-crate integration: runtime → collector → (gprof report path) →
//! phase detection → Algorithm 1, on a synthetic workload with planted
//! phases.

use incprof_suite::collect::series_io::{read_gmon_dir, write_gmon_dir};
use incprof_suite::collect::{CollectorConfig, IncProfCollector, IntervalMatrix};
use incprof_suite::core::types::InstrumentationType;
use incprof_suite::core::{PhaseAnalysis, PhaseDetector};
use incprof_suite::profile::FunctionTable;
use incprof_suite::runtime::{Clock, ProfilerRuntime};

const INTERVAL: u64 = 1_000_000_000;

/// Build a three-phase synthetic run:
/// * phase A — 12 intervals of `setup` (many short calls per interval);
/// * phase B — 20 intervals of one long `simulate` call (zero calls
///   after the first interval → loop site);
/// * phase C — 8 intervals of `teardown`.
fn planted_run() -> (incprof_suite::collect::SampleSeries, FunctionTable) {
    let clock = Clock::virtual_clock();
    let rt = ProfilerRuntime::with_clock(clock.clone());
    let setup = rt.register_function("setup");
    let simulate = rt.register_function("simulate");
    let teardown = rt.register_function("teardown");
    let collector = IncProfCollector::manual(rt.clone(), CollectorConfig::default());

    for _ in 0..12 {
        for _ in 0..40 {
            let _g = rt.enter(setup);
            clock.advance(INTERVAL / 40);
        }
        collector.tick();
    }
    {
        let _g = rt.enter(simulate);
        for _ in 0..20 {
            clock.advance(INTERVAL);
            collector.tick();
        }
    }
    for _ in 0..8 {
        let _g = rt.enter(teardown);
        clock.advance(INTERVAL);
        drop(_g);
        collector.tick();
    }
    (collector.into_series(), rt.function_table())
}

fn phase_of<'a>(
    analysis: &'a PhaseAnalysis,
    table: &FunctionTable,
    name: &str,
) -> &'a incprof_suite::core::Phase {
    analysis
        .phases
        .iter()
        .find(|p| p.sites.iter().any(|s| table.name(s.function) == name))
        .unwrap_or_else(|| panic!("no phase selected site {name}"))
}

#[test]
fn planted_phases_are_recovered_exactly() {
    let (series, table) = planted_run();
    assert_eq!(series.len(), 40);
    let analysis = PhaseDetector::new().detect_series(&series).unwrap();
    assert_eq!(analysis.k, 3, "three planted phases");

    let pa = phase_of(&analysis, &table, "setup");
    assert_eq!(pa.intervals, (0..12).collect::<Vec<_>>());
    let pb = phase_of(&analysis, &table, "simulate");
    assert_eq!(pb.intervals, (12..32).collect::<Vec<_>>());
    let pc = phase_of(&analysis, &table, "teardown");
    assert_eq!(pc.intervals, (32..40).collect::<Vec<_>>());
}

#[test]
fn site_types_follow_call_structure() {
    let (series, table) = planted_run();
    let analysis = PhaseDetector::new().detect_series(&series).unwrap();
    let setup_site = analysis
        .phases
        .iter()
        .flat_map(|p| &p.sites)
        .find(|s| table.name(s.function) == "setup")
        .unwrap();
    assert_eq!(
        setup_site.inst_type,
        InstrumentationType::Body,
        "setup is called every interval"
    );

    let sim_site = analysis
        .phases
        .iter()
        .flat_map(|p| &p.sites)
        .find(|s| table.name(s.function) == "simulate")
        .unwrap();
    assert_eq!(
        sim_site.inst_type,
        InstrumentationType::Loop,
        "simulate runs across intervals without new calls"
    );
}

#[test]
fn coverage_percentages_are_consistent() {
    let (series, _) = planted_run();
    let analysis = PhaseDetector::new().detect_series(&series).unwrap();
    let n_total: usize = analysis.phases.iter().map(|p| p.intervals.len()).sum();
    assert_eq!(n_total, 40);
    for phase in &analysis.phases {
        for site in &phase.sites {
            // app% = phase% × |phase| / total.
            let expected_app = site.phase_pct * phase.intervals.len() as f64 / n_total as f64;
            assert!((site.app_pct - expected_app).abs() < 1e-9);
            assert!(site.phase_pct <= 100.0 + 1e-9);
        }
        assert!(phase.coverage() >= 0.95, "phase {} under-covered", phase.id);
    }
}

#[test]
fn report_path_reproduces_direct_path_phases() {
    // The paper's pipeline goes through gprof *text reports*; verify the
    // report path and the direct in-memory path agree on phase structure
    // despite the 10 ms report rounding.
    let (series, table) = planted_run();
    let detector = PhaseDetector::new();
    let direct = detector.detect_series(&series).unwrap();
    let (via_reports, _matrix, parsed_table) = detector.detect_series_via_reports(&series).unwrap();

    assert_eq!(direct.k, via_reports.k);
    // Same partition of intervals (cluster ids may permute; compare as
    // co-membership).
    let n = direct.assignments.len();
    for i in 0..n {
        for j in (i + 1)..n {
            assert_eq!(
                direct.assignments[i] == direct.assignments[j],
                via_reports.assignments[i] == via_reports.assignments[j],
                "intervals {i},{j} grouped differently via reports"
            );
        }
    }
    // Same site names.
    let direct_names: std::collections::BTreeSet<String> = direct
        .phases
        .iter()
        .flat_map(|p| p.sites.iter().map(|s| table.name(s.function).to_string()))
        .collect();
    let report_names: std::collections::BTreeSet<String> = via_reports
        .phases
        .iter()
        .flat_map(|p| {
            p.sites
                .iter()
                .map(|s| parsed_table.name(s.function).to_string())
        })
        .collect();
    assert_eq!(direct_names, report_names);
}

#[test]
fn interval_matrix_reconstructs_run_totals() {
    let (series, table) = planted_run();
    let intervals = series.interval_profiles().unwrap();
    let matrix = IntervalMatrix::from_interval_profiles(&intervals);
    assert_eq!(matrix.n_intervals(), 40);
    // Sum over the matrix equals the final cumulative sample's total.
    let last_total = series.last().unwrap().flat.total_self_time() as f64 / 1e9;
    assert!((matrix.total_self_secs() - last_total).abs() < 1e-9);
    // Column totals match the per-function cumulative totals.
    for (col, &f) in matrix.functions().iter().enumerate() {
        let cum = series.last().unwrap().flat.get(f).self_time as f64 / 1e9;
        assert!(
            (matrix.column_total_secs(col) - cum).abs() < 1e-9,
            "column {} ({})",
            col,
            table.name(f)
        );
    }
}

#[test]
fn gmon_binary_path_roundtrips_through_collector() {
    let clock = Clock::virtual_clock();
    let rt = ProfilerRuntime::with_clock(clock.clone());
    let f = rt.register_function("kernel");
    let collector = IncProfCollector::manual(
        rt.clone(),
        CollectorConfig {
            interval_ns: INTERVAL,
        },
    );
    for _ in 0..4 {
        let _g = rt.enter(f);
        clock.advance(INTERVAL);
        drop(_g);
        collector.tick();
    }
    let dir = std::env::temp_dir().join(format!("incprof_e2e_gmon_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    write_gmon_dir(&collector.into_series(), &dir).unwrap();
    let series = read_gmon_dir(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(series.len(), 4);
    for (i, snap) in series.snapshots().iter().enumerate() {
        assert_eq!(snap.sample_index as usize, i);
        let id = snap.functions.id_of("kernel").unwrap();
        assert_eq!(snap.flat.get(id).self_time, (i as u64 + 1) * INTERVAL);
    }
}

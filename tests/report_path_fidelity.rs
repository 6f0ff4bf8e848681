//! Paper-fidelity check on a real application: the full
//! snapshot → gprof-text-report → parse → delta → detect path must reach
//! the same conclusions as the in-memory path, despite gprof's 10 ms
//! report rounding — because the paper's own pipeline only ever saw the
//! text reports.

use incprof_suite::core::PhaseDetector;
use incprof_suite::hpc_apps::{graph500, HeartbeatPlan, RunMode};

#[test]
fn graph500_report_path_matches_direct_path() {
    // A scale where BFS and validation are clearly separated phases
    // (sub-interval kernels at tiny scales sit within 10 ms of each
    // other, where gprof's report rounding can legitimately flip the
    // near-tied dominant site).
    let cfg = graph500::Graph500Config {
        scale: 12,
        edge_factor: 16,
        num_roots: 20,
        ..graph500::Graph500Config::tiny()
    };
    let out = graph500::run(&cfg, RunMode::virtual_1s(), &HeartbeatPlan::none());
    let detector = PhaseDetector::new();

    let direct = detector.detect_series(&out.rank0.series).unwrap();
    let (via_reports, _matrix, parsed_table) = detector
        .detect_series_via_reports(&out.rank0.series)
        .unwrap();

    assert_eq!(
        direct.k, via_reports.k,
        "phase count must survive report rounding"
    );

    // The dominant discovered site (by app %) must be the same function.
    let dominant_name = |analysis: &incprof_suite::core::PhaseAnalysis,
                         name: &dyn Fn(incprof_suite::profile::FunctionId) -> String|
     -> String {
        let site = analysis
            .phases
            .iter()
            .flat_map(|p| p.sites.iter())
            .max_by(|a, b| a.app_pct.partial_cmp(&b.app_pct).unwrap())
            .expect("at least one site");
        name(site.function)
    };
    let direct_dom = dominant_name(&direct, &|id| out.rank0.table.name(id).to_string());
    let report_dom = dominant_name(&via_reports, &|id| parsed_table.name(id).to_string());
    assert_eq!(direct_dom, report_dom);
    assert_eq!(direct_dom, "validate_bfs_result");

    // Interval partitions agree (cluster labels may permute).
    let n = direct.assignments.len();
    assert_eq!(n, via_reports.assignments.len());
    let mut mismatches = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        for j in (i + 1)..n {
            total += 1;
            if (direct.assignments[i] == direct.assignments[j])
                != (via_reports.assignments[i] == via_reports.assignments[j])
            {
                mismatches += 1;
            }
        }
    }
    // Rounding can flip a couple of boundary intervals; the partitions
    // must still agree on the overwhelming majority of pairs.
    assert!(
        (mismatches as f64) < 0.02 * total as f64,
        "{mismatches}/{total} pair disagreements"
    );
}

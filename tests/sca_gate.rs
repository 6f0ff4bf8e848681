//! Tier-1 static-analysis gate: the multi-pass analysis (parser →
//! symbols → call graph → reachability → per-line rules plus the graph
//! rules P02/D05/A01) must leave the workspace clean with warnings
//! promoted to errors, actually link a non-trivial graph, and finish
//! fast enough to live in CI (< 2 s, asserted on the obs-timed
//! `lint.engine.run` span rather than a wall clock in the test).
//!
//! A determinism, clock, or panic-hygiene regression fails the build
//! with a file:line diagnostic rather than surviving to review. The
//! workspace is analysed once per binary; every test reads that run.

use incprof_lint::{lint_workspace_analyzed, Config, LintReport, WorkspaceAnalysis};
use std::path::Path;
use std::sync::OnceLock;

/// The one `-D` analysis of the workspace, with the duration of its
/// `lint.engine.run` span in nanoseconds.
fn workspace() -> &'static (LintReport, WorkspaceAnalysis, u64) {
    static RUN: OnceLock<(LintReport, WorkspaceAnalysis, u64)> = OnceLock::new();
    RUN.get_or_init(|| {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let (report, analysis) = lint_workspace_analyzed(root, &Config::default().deny_warnings())
            .expect("lint walk over the workspace failed");
        let dur_ns = incprof_obs::global()
            .spans()
            .records()
            .iter()
            .rev()
            .find(|r| r.closed && r.name == incprof_obs::names::LINT_RUN)
            .map(|r| r.dur_ns)
            .expect("lint.engine.run span not recorded");
        (report, analysis, dur_ns)
    })
}

#[test]
fn workspace_lints_clean_under_deny_warnings() {
    let (report, _, _) = workspace();
    assert!(
        report.is_clean(),
        "lint violations in the workspace:\n{}",
        report.render_human()
    );
    assert_eq!(report.warnings(), 0, "deny-warnings run must promote");
    // Sanity that the walk actually saw the workspace: far more files
    // than an empty checkout, and the known allow-markers were honored.
    assert!(
        report.files_scanned > 50,
        "only {} files scanned — walk is broken",
        report.files_scanned
    );
    assert!(
        report.suppressions_used > 0,
        "the workspace carries justified allow-markers; none matched"
    );
}

#[test]
fn workspace_is_clean_under_graph_rules_and_fast() {
    let (_, analysis, dur_ns) = workspace();
    // The analysis linked a real graph, not a degenerate one.
    let (confident, ambiguous) = analysis.graph.edge_counts();
    assert!(
        analysis.symbols.defs.len() > 500,
        "only {} functions parsed — item parser is broken",
        analysis.symbols.defs.len()
    );
    assert!(
        confident > 500,
        "only {confident} confident edges — resolution is broken"
    );
    assert!(ambiguous > 0, "no ambiguous edges is implausible");

    // Runtime budget: the whole multi-pass run is wrapped in the
    // `lint.engine.run` span; its recorded duration must stay under 2 s.
    assert!(
        *dur_ns < 2_000_000_000,
        "lint run took {} ms, over the 2 s CI budget",
        dur_ns / 1_000_000
    );
}

#[test]
fn graph_rule_hazards_are_all_justified() {
    // Every Panic/Blocking/Alloc fact that graph rules would flag is
    // covered by a reasoned allow-marker, so the clean run above holds
    // with the facts present.
    let (report, analysis, _) = workspace();
    assert!(report.is_clean(), "{}", report.render_human());
    assert!(
        !analysis.graph.facts.is_empty(),
        "hazard scanning found nothing — fact extraction is broken"
    );
}

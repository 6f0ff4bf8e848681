//! Paper-style table rendering for phase analyses.
//!
//! Renders a [`PhaseAnalysis`] in the layout of the paper's Tables II–VI:
//!
//! ```text
//! | Phase ID | HB ID | Discovered Site Function | Phase % | App % | Inst. Type |
//! ```
//!
//! plus an optional "Manual Instrumentation Sites" footer for the
//! side-by-side comparison the paper makes against human-chosen sites.

use crate::pipeline::PhaseAnalysis;
use crate::types::InstrumentationType;
use incprof_obs::JsonWriter;
use incprof_profile::{cycle_membership, find_cycles, CallGraphProfile, FunctionId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// A manually chosen instrumentation site (the paper's human baseline).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManualSite {
    /// Function name as written in the paper's tables.
    pub function: String,
    /// Body or loop.
    pub inst_type: InstrumentationType,
}

impl ManualSite {
    /// Convenience constructor.
    pub fn new(function: impl Into<String>, inst_type: InstrumentationType) -> ManualSite {
        ManualSite {
            function: function.into(),
            inst_type,
        }
    }
}

/// Render the discovered-sites table with paper column headings.
///
/// `name_of` resolves function ids to display names.
pub fn render_sites_table<'a>(
    title: &str,
    analysis: &PhaseAnalysis,
    name_of: impl Fn(FunctionId) -> &'a str,
    manual: &[ManualSite],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(
        out,
        "| {:<8} | {:<5} | {:<34} | {:>7} | {:>6} | {:<10} |",
        "Phase ID", "HB ID", "Discovered Site Function", "Phase %", "App %", "Inst. Type"
    );
    let _ = writeln!(out, "|{}|", "-".repeat(94));
    for phase in &analysis.phases {
        for site in &phase.sites {
            let _ = writeln!(
                out,
                "| {:<8} | {:<5} | {:<34} | {:>7.1} | {:>6.1} | {:<10} |",
                phase.id,
                site.hb_id,
                truncate(name_of(site.function), 34),
                site.phase_pct,
                site.app_pct,
                site.inst_type
            );
        }
    }
    if !manual.is_empty() {
        let _ = writeln!(out, "| Manual Instrumentation Sites{}|", " ".repeat(65));
        for m in manual {
            let _ = writeln!(
                out,
                "| {:<8} | {:<5} | {:<34} | {:>7} | {:>6} | {:<10} |",
                "",
                "",
                truncate(&m.function, 34),
                "",
                "",
                m.inst_type
            );
        }
    }
    out
}

/// Render the k-selection diagnostics (WCSS/silhouette per k).
pub fn render_k_sweep(analysis: &PhaseAnalysis) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "k-sweep (chosen k = {}):", analysis.k);
    let _ = writeln!(out, "{:>3} {:>14} {:>12}", "k", "WCSS", "silhouette");
    for (i, w) in analysis.wcss_sweep.iter().enumerate() {
        let s = analysis
            .silhouette_sweep
            .get(i)
            .and_then(|s| *s)
            .map(|v| format!("{v:.4}"))
            .unwrap_or_else(|| "-".to_string());
        let _ = writeln!(out, "{:>3} {:>14.6} {:>12}", i + 1, w, s);
    }
    out
}

/// Render the phase assignment as a timeline band — the textual
/// equivalent of the colored phase bars over time in the paper's
/// figures. Phases 0-9 print as digits, further ones as letters.
pub fn render_timeline(analysis: &PhaseAnalysis) -> String {
    const GLYPHS: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyz";
    let band: String = analysis
        .assignments
        .iter()
        .map(|&a| GLYPHS[a % GLYPHS.len()] as char)
        .collect();
    format!(
        "phase timeline ({} intervals):\n|{}|\n",
        analysis.assignments.len(),
        band
    )
}

/// Per-phase signatures: the top functions by mean per-interval self
/// time within the phase, with their time share — a human-readable
/// answer to "what *is* phase 2?".
pub fn render_signatures<'a>(
    analysis: &PhaseAnalysis,
    matrix: &incprof_collect::IntervalMatrix,
    name_of: impl Fn(FunctionId) -> &'a str,
    top: usize,
) -> String {
    let mut out = String::new();
    for phase in &analysis.phases {
        let mut totals: Vec<(FunctionId, f64)> = (0..matrix.n_functions())
            .map(|col| {
                let sum: f64 = phase
                    .intervals
                    .iter()
                    .map(|&i| matrix.self_secs(i, col))
                    .sum();
                (matrix.function_at(col), sum)
            })
            .filter(|&(_, t)| t > 0.0)
            .collect();
        totals.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        let phase_total: f64 = totals.iter().map(|t| t.1).sum();
        let _ = write!(
            out,
            "phase {} ({} intervals):",
            phase.id,
            phase.intervals.len()
        );
        for (id, t) in totals.into_iter().take(top) {
            let _ = write!(
                out,
                " {} {:.0}%",
                name_of(id),
                100.0 * t / phase_total.max(1e-12)
            );
        }
        out.push('\n');
    }
    out
}

/// Summary line for Table I's right-hand columns.
pub fn summarize(analysis: &PhaseAnalysis) -> String {
    format!(
        "{} phases discovered, {} distinct instrumentation sites",
        analysis.k,
        analysis.total_sites()
    )
}

/// `s` cut to at most `max` bytes, ending in `...` when cut. The cut
/// falls on the last char boundary at or below `max - 3`, so multibyte
/// names never split a character.
fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        return s.to_string();
    }
    let mut cut = max.saturating_sub(3);
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    format!("{}...", &s[..cut])
}

/// Join a [`PhaseAnalysis`] against the profiled run's own call graph:
/// for each phase, emit the dominant site functions with their
/// *measured* callers, call-path depth, and cycle membership.
///
/// The result is a deterministic JSON array:
///
/// ```json
/// [{"phase":0,"functions":[
///    {"id":3,"name":"cg_solve","callers":["run"],"depth":1,"cycle":null}]}]
/// ```
///
/// `id` is the analysis' runtime [`FunctionId`] (so entries round-trip
/// against the profile's function column map); `callers` are the
/// display names of the functions with an arc into the site, sorted by
/// name. Depth is the minimum number of arcs from a root (a function
/// with no recorded caller); cycle is the index of the Tarjan SCC the
/// function belongs to ([`find_cycles`] order), if any. A function in no
/// arc gets empty callers and `null` depth/cycle.
///
/// The caller index, the depths (one multi-source BFS) and the cycles
/// are each built once per call, so the join costs O(arcs · log arcs)
/// however many sites it reports.
pub fn source_context_json<'a>(
    analysis: &PhaseAnalysis,
    name_of: impl Fn(FunctionId) -> &'a str,
    callgraph: &CallGraphProfile,
) -> String {
    let mut callers: BTreeMap<FunctionId, Vec<FunctionId>> = BTreeMap::new();
    for ((from, to), _) in callgraph.iter() {
        callers.entry(to).or_default().push(from);
    }
    let depths = callgraph.depths_from_roots();
    let cycles = cycle_membership(&find_cycles(callgraph));
    let mut w = JsonWriter::default();
    w.open('[');
    for phase in &analysis.phases {
        w.open('{')
            .field("phase", phase.id)
            .key("functions")
            .open('[');
        let mut seen = BTreeSet::new();
        for site in phase.sites.iter().filter(|s| seen.insert(s.function)) {
            let f = site.function;
            let mut names: Vec<&str> = (callers.get(&f).into_iter().flatten())
                .map(|&c| name_of(c))
                .collect();
            names.sort_unstable();
            w.open('{')
                .field("id", f.0)
                .field("name", name_of(f))
                .array("callers", names)
                .field("depth", depths.get(&f).copied())
                .field("cycle", cycles.get(&f).copied())
                .close('}');
        }
        w.close(']').close('}');
    }
    w.close(']');
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PhaseDetector;
    use incprof_collect::IntervalMatrix;
    use incprof_profile::{FlatProfile, FunctionStats};

    fn analysis() -> PhaseAnalysis {
        let mut intervals = Vec::new();
        for _ in 0..5 {
            let mut p = FlatProfile::new();
            p.set(
                FunctionId(0),
                FunctionStats {
                    self_time: 1_000_000_000,
                    calls: 3,
                    child_time: 0,
                },
            );
            intervals.push(p);
        }
        for _ in 0..5 {
            let mut p = FlatProfile::new();
            p.set(
                FunctionId(1),
                FunctionStats {
                    self_time: 1_000_000_000,
                    calls: 0,
                    child_time: 0,
                },
            );
            intervals.push(p);
        }
        let matrix = IntervalMatrix::from_interval_profiles(&intervals);
        PhaseDetector::new().detect(&matrix).unwrap()
    }

    fn names(id: FunctionId) -> &'static str {
        match id.0 {
            0 => "make_graph",
            1 => "run_bfs",
            2 => "main",
            3 => "helper",
            4 => "zeta",
            5 => "alpha",
            _ => "f",
        }
    }

    fn arcs(edges: &[(u32, u32)]) -> CallGraphProfile {
        let mut cg = CallGraphProfile::new();
        for &(from, to) in edges {
            cg.record_arc(FunctionId(from), FunctionId(to));
        }
        cg
    }

    #[test]
    fn table_contains_paper_columns_and_rows() {
        let a = analysis();
        let table = render_sites_table(
            "TABLE X",
            &a,
            names,
            &[ManualSite::new("run_bfs", InstrumentationType::Body)],
        );
        assert!(table.contains("Phase ID"));
        assert!(table.contains("HB ID"));
        assert!(table.contains("Inst. Type"));
        assert!(table.contains("make_graph"));
        assert!(table.contains("run_bfs"));
        assert!(table.contains("Manual Instrumentation Sites"));
        assert!(table.contains("100.0"));
    }

    #[test]
    fn manual_section_omitted_when_empty() {
        let a = analysis();
        let table = render_sites_table("T", &a, names, &[]);
        assert!(!table.contains("Manual Instrumentation Sites"));
    }

    #[test]
    fn k_sweep_lists_every_k() {
        let a = analysis();
        let sweep = render_k_sweep(&a);
        assert!(sweep.contains(&format!("chosen k = {}", a.k)));
        for k in 1..=a.wcss_sweep.len() {
            assert!(sweep.contains(&format!("\n{k:>3} ")), "missing k={k} row");
        }
    }

    #[test]
    fn summary_counts() {
        let a = analysis();
        let s = summarize(&a);
        assert!(s.contains("2 phases"));
        assert!(s.contains("2 distinct"));
    }

    #[test]
    fn timeline_band_matches_assignments() {
        let a = analysis();
        let text = render_timeline(&a);
        let band = text.lines().nth(1).unwrap().trim_matches('|');
        assert_eq!(band.len(), a.assignments.len());
        // Two contiguous planted phases → the band has exactly one glyph
        // change.
        let changes = band.as_bytes().windows(2).filter(|w| w[0] != w[1]).count();
        assert_eq!(changes, 1, "band {band}");
    }

    #[test]
    fn signatures_name_the_dominant_function() {
        use incprof_collect::IntervalMatrix;
        let mut intervals = Vec::new();
        for _ in 0..5 {
            let mut p = FlatProfile::new();
            p.set(
                FunctionId(0),
                FunctionStats {
                    self_time: 900_000_000,
                    calls: 3,
                    child_time: 0,
                },
            );
            p.set(
                FunctionId(1),
                FunctionStats {
                    self_time: 100_000_000,
                    calls: 9,
                    child_time: 0,
                },
            );
            intervals.push(p);
        }
        let matrix = IntervalMatrix::from_interval_profiles(&intervals);
        let a = PhaseDetector::new().detect(&matrix).unwrap();
        let text = render_signatures(&a, &matrix, names, 2);
        assert!(text.contains("phase 0 (5 intervals)"));
        assert!(text.contains("make_graph 90%"), "{text}");
        assert!(text.contains("run_bfs 10%"), "{text}");
    }

    #[test]
    fn long_names_are_truncated() {
        let long = "a".repeat(60);
        assert_eq!(truncate(&long, 34).len(), 34);
        assert!(truncate(&long, 34).ends_with("..."));
        assert_eq!(truncate("short", 34), "short");
    }

    #[test]
    fn multibyte_names_are_cut_on_a_char_boundary() {
        // 'α'.. are two bytes each and start at byte 16, so byte 31
        // (34 - 3) falls inside one.
        let name = "implicit_solveX_αβγδεζηθικλμνξοπρστ";
        assert!(!name.is_char_boundary(31));
        let cut = truncate(name, 34);
        assert_eq!(cut, "implicit_solveX_αβγδεζη...");
        assert!(cut.len() <= 34);
    }

    #[test]
    fn source_context_joins_measured_callers_depth_and_cycles() {
        let a = analysis();
        // main -> make_graph -> run_bfs, with run_bfs and helper
        // mutually recursive (one Tarjan cycle).
        let cg = arcs(&[(2, 0), (0, 1), (1, 3), (3, 1)]);
        let json = source_context_json(&a, names, &cg);
        assert!(
            json.contains(
                "\"name\":\"make_graph\",\"callers\":[\"main\"],\"depth\":1,\"cycle\":null"
            ),
            "{json}"
        );
        assert!(
            json.contains(
                "\"name\":\"run_bfs\",\"callers\":[\"helper\",\"make_graph\"],\"depth\":2,\"cycle\":0"
            ),
            "{json}"
        );
        // Runtime ids round-trip: the emitted ids are the analysis' own.
        assert!(json.contains("\"id\":0,\"name\":\"make_graph\""), "{json}");
        assert!(json.contains("\"id\":1,\"name\":\"run_bfs\""), "{json}");
    }

    #[test]
    fn a_function_only_on_a_cycle_has_no_depth() {
        let a = analysis();
        // make_graph <-> helper, run_bfs calls itself; no root reaches
        // either cycle. Cycles are indexed by their smallest member.
        let cg = arcs(&[(0, 3), (3, 0), (1, 1)]);
        let json = source_context_json(&a, names, &cg);
        assert!(
            json.contains(
                "\"name\":\"make_graph\",\"callers\":[\"helper\"],\"depth\":null,\"cycle\":0"
            ),
            "{json}"
        );
        assert!(
            json.contains(
                "\"name\":\"run_bfs\",\"callers\":[\"run_bfs\"],\"depth\":null,\"cycle\":1"
            ),
            "{json}"
        );
    }

    #[test]
    fn callers_are_sorted_by_name_not_id() {
        let a = analysis();
        // zeta (id 4) sorts after alpha (id 5) by name.
        let cg = arcs(&[(4, 1), (5, 1)]);
        let json = source_context_json(&a, names, &cg);
        assert!(
            json.contains("\"name\":\"run_bfs\",\"callers\":[\"alpha\",\"zeta\"],\"depth\":1"),
            "{json}"
        );
        assert_eq!(json, source_context_json(&a, names, &cg));
    }

    #[test]
    fn a_function_in_no_arc_gets_an_empty_context() {
        let a = analysis();
        for cg in [CallGraphProfile::new(), arcs(&[(2, 3)])] {
            let json = source_context_json(&a, names, &cg);
            for name in ["make_graph", "run_bfs"] {
                let want =
                    format!("\"name\":\"{name}\",\"callers\":[],\"depth\":null,\"cycle\":null");
                assert!(json.contains(&want), "{json}");
            }
        }
    }

    #[test]
    fn a_50_000_arc_chain_renders_promptly() {
        // 2 -> 3 -> ... -> 50_001 -> make_graph -> run_bfs: a per-site
        // depth search that rescans every arc per node would take
        // billions of steps here; one pass over the arcs takes well
        // under a second.
        let a = analysis();
        let mut cg = CallGraphProfile::new();
        for i in 2..50_001 {
            cg.record_arc(FunctionId(i), FunctionId(i + 1));
        }
        cg.record_arc(FunctionId(50_001), FunctionId(0));
        cg.record_arc(FunctionId(0), FunctionId(1));
        assert_eq!(cg.len(), 50_001);
        let started = std::time::Instant::now();
        let json = source_context_json(&a, names, &cg);
        let took = started.elapsed();
        assert!(
            json.contains("\"name\":\"make_graph\",\"callers\":[\"f\"],\"depth\":50000,"),
            "{json}"
        );
        assert!(
            json.contains("\"name\":\"run_bfs\",\"callers\":[\"make_graph\"],\"depth\":50001,"),
            "{json}"
        );
        assert!(took.as_secs() < 5, "{took:?}");
    }
}

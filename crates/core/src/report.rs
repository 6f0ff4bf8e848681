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
use incprof_obs::json_string;
use incprof_profile::FunctionId;
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

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        format!("{}...", &s[..max - 3])
    }
}

/// A name-keyed static call graph, as produced by `incprof-lint`'s
/// source analysis but carried here as plain data so `incprof-core`
/// stays independent of the lint crate.
///
/// Edges are `(caller, callee, confident)` display names. Only
/// *confident* edges participate in [`source_context_json`]; ambiguous
/// edges are carried for completeness (and for consumers that want to
/// render them) but never influence depth, callers, or cycles.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceGraph {
    /// `(caller, callee, confident)` triples, name-keyed.
    pub edges: Vec<(String, String, bool)>,
}

impl SourceGraph {
    /// Build from edge triples.
    pub fn new(edges: Vec<(String, String, bool)>) -> SourceGraph {
        SourceGraph { edges }
    }

    /// Whether the graph carries no edges at all.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Join a [`PhaseAnalysis`] against a static [`SourceGraph`]: for each
/// phase, emit the dominant site functions with their *static* callers,
/// call-path depth, and cycle membership.
///
/// The result is a deterministic JSON array:
///
/// ```json
/// [{"phase":0,"functions":[
///    {"id":3,"name":"cg_solve","callers":["run"],"depth":1,"cycle":null}]}]
/// ```
///
/// `id` is the analysis' runtime [`FunctionId`] (so entries round-trip
/// against the profile's function column map); `callers`/`depth`/`cycle`
/// come from the static graph, joined by display name. Functions the
/// static analysis never saw (e.g. macro-generated or external) get
/// empty callers and `null` depth/cycle. Depth is the minimum number of
/// confident call arcs from a static root (a function nobody calls);
/// cycle is the index of the Tarjan SCC the function belongs to, if any.
pub fn source_context_json<'a>(
    analysis: &PhaseAnalysis,
    name_of: impl Fn(FunctionId) -> &'a str,
    graph: &SourceGraph,
) -> String {
    use incprof_profile::{cycle_membership, find_cycles, CallGraphProfile};
    use std::collections::BTreeMap;

    // Index every name in the confident subgraph. Sorted-name order makes
    // the local ids (and everything derived from them) deterministic.
    let mut names: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    for (caller, callee, confident) in &graph.edges {
        if *confident {
            names.insert(caller);
            names.insert(callee);
        }
    }
    let local: BTreeMap<&str, FunctionId> = names
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, FunctionId(i as u32)))
        .collect();
    let name_list: Vec<&str> = names.into_iter().collect();

    let mut cg = CallGraphProfile::new();
    for (caller, callee, confident) in &graph.edges {
        if *confident {
            cg.record_arcs(local[caller.as_str()], local[callee.as_str()], 1);
        }
    }
    let cycles = find_cycles(&cg);
    let membership = cycle_membership(&cycles);

    let mut out = String::from("[");
    for (pi, phase) in analysis.phases.iter().enumerate() {
        if pi > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"phase\":{},\"functions\":[", phase.id);
        let mut seen = std::collections::BTreeSet::new();
        let mut first = true;
        for site in &phase.sites {
            if !seen.insert(site.function) {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let name = name_of(site.function);
            let _ = write!(
                out,
                "{{\"id\":{},\"name\":{}",
                site.function.0,
                json_string(name)
            );
            match local.get(name) {
                Some(&lid) => {
                    let mut callers: Vec<&str> = cg
                        .callers_of(lid)
                        .into_iter()
                        .map(|c| name_list[c.index()])
                        .collect();
                    callers.sort_unstable();
                    out.push_str(",\"callers\":[");
                    for (i, c) in callers.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&json_string(c));
                    }
                    out.push(']');
                    match cg.depth_from_roots(lid) {
                        Some(d) => {
                            let _ = write!(out, ",\"depth\":{d}");
                        }
                        None => out.push_str(",\"depth\":null"),
                    }
                    match membership.get(&lid) {
                        Some(c) => {
                            let _ = write!(out, ",\"cycle\":{c}");
                        }
                        None => out.push_str(",\"cycle\":null"),
                    }
                }
                None => out.push_str(",\"callers\":[],\"depth\":null,\"cycle\":null"),
            }
            out.push('}');
        }
        out.push_str("]}");
    }
    out.push(']');
    out
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
            _ => "run_bfs",
        }
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
    fn source_context_joins_static_callers_depth_and_cycles() {
        let a = analysis();
        // Static shape: main -> make_graph -> run_bfs, with run_bfs and
        // helper mutually recursive (one Tarjan cycle).
        let graph = SourceGraph::new(vec![
            ("main".into(), "make_graph".into(), true),
            ("make_graph".into(), "run_bfs".into(), true),
            ("run_bfs".into(), "helper".into(), true),
            ("helper".into(), "run_bfs".into(), true),
        ]);
        let json = source_context_json(&a, names, &graph);
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
    fn source_context_handles_unknown_functions_and_ambiguous_edges() {
        let a = analysis();
        // Only an ambiguous edge mentions make_graph: it must not count.
        let graph = SourceGraph::new(vec![("main".into(), "make_graph".into(), false)]);
        let json = source_context_json(&a, names, &graph);
        assert!(
            json.contains("\"name\":\"make_graph\",\"callers\":[],\"depth\":null,\"cycle\":null"),
            "{json}"
        );
    }

    #[test]
    fn source_context_is_deterministic() {
        let a = analysis();
        let graph = SourceGraph::new(vec![
            ("z".into(), "run_bfs".into(), true),
            ("a".into(), "run_bfs".into(), true),
        ]);
        assert_eq!(
            source_context_json(&a, names, &graph),
            source_context_json(&a, names, &graph)
        );
        assert!(
            source_context_json(&a, names, &graph).contains("\"callers\":[\"a\",\"z\"]"),
            "callers sorted by name"
        );
    }
}

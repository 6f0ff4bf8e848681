//! The lint engine: walk the workspace, run the rules, apply
//! suppressions, and render the results.

use crate::callgraph::StaticCallGraph;
use crate::config::{self, Config};
use crate::dataflow::Reachability;
use crate::diag::{json_rows, Diagnostic, RuleId, Severity};
use crate::lexer::Token;
use crate::parse::{self, ParsedFile};
use crate::rules;
use crate::source::SourceFile;
use crate::symbols::SymbolTable;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// The product of the multi-pass static analysis: the symbol table,
/// the call graph, and reachability over its confident edges. Built
/// once per run, shared by the graph rules (P02/D05/A01) and the
/// `incprof lint --json` stats.
pub struct WorkspaceAnalysis {
    /// Function definitions and name indexes.
    pub symbols: SymbolTable,
    /// Call edges with confidence labels, plus per-body hazard facts.
    pub graph: StaticCallGraph,
    /// Forward/reverse reachability over confident edges.
    pub reach: Reachability,
}

impl WorkspaceAnalysis {
    /// Parse items, resolve symbols, and link the call graph for the
    /// given file set.
    pub fn build(files: &[SourceFile]) -> WorkspaceAnalysis {
        let mut parsed: BTreeMap<String, ParsedFile> = BTreeMap::new();
        let mut tokens: BTreeMap<String, Vec<Token>> = BTreeMap::new();
        for f in files {
            parsed.insert(f.rel_path.clone(), parse::parse_items(&f.tokens));
            tokens.insert(f.rel_path.clone(), f.tokens.clone());
        }
        let symbols = SymbolTable::build(&parsed);
        let graph = StaticCallGraph::build(&symbols, &tokens, &parsed);
        let reach = Reachability::build(&graph);
        WorkspaceAnalysis {
            symbols,
            graph,
            reach,
        }
    }
}

/// The outcome of a lint run.
#[derive(Debug)]
pub struct LintReport {
    /// Source files scanned.
    pub files_scanned: usize,
    /// Surviving diagnostics, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Suppression markers that silenced a diagnostic.
    pub suppressions_used: usize,
    /// Whether warnings fail the run (from the config).
    pub deny_warnings: bool,
}

impl LintReport {
    /// Count of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Count of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// Whether the run passes under its configuration. (`deny_warnings`
    /// was already applied when severities were resolved, so only
    /// errors can fail a run.)
    pub fn is_clean(&self) -> bool {
        self.errors() == 0
    }

    /// Per-rule diagnostic counts.
    pub fn counts(&self) -> BTreeMap<RuleId, usize> {
        let mut m = BTreeMap::new();
        for d in &self.diagnostics {
            *m.entry(d.rule).or_insert(0) += 1;
        }
        m
    }

    /// Human-readable rendering: every diagnostic plus a summary line.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render_human());
            out.push('\n');
        }
        out.push_str(&format!(
            "lint: {} files scanned, {} errors, {} warnings, {} suppressions honored",
            self.files_scanned,
            self.errors(),
            self.warnings(),
            self.suppressions_used
        ));
        out
    }

    /// JSON rendering: a single stable object with per-rule counts and
    /// the diagnostic list, for CI artifacts.
    pub fn render_json(&self) -> String {
        let counts: Vec<String> = self
            .counts()
            .iter()
            .map(|(rule, n)| format!("\"{rule}\": {n}"))
            .collect();
        format!(
            "{{\n  \"files_scanned\": {},\n  \"errors\": {},\n  \"warnings\": {},\n  \
             \"suppressions_used\": {},\n  \"counts\": {{{}}},\n  \"diagnostics\": [{}\n  ]\n}}",
            self.files_scanned,
            self.errors(),
            self.warnings(),
            self.suppressions_used,
            counts.join(", "),
            json_rows(self.diagnostics.iter().map(Diagnostic::render_json)),
        )
    }
}

/// Lint a single in-memory file: run the rules, then apply this file's
/// suppression markers. Returns surviving diagnostics (including L00
/// for malformed markers and L01 for stale ones). This is the unit the
/// fixture tests drive.
pub fn lint_source(rel_path: &str, text: &str, cfg: &Config) -> Vec<Diagnostic> {
    let (diags, _used) = lint_source_counted(rel_path, text, cfg);
    diags
}

/// As [`lint_source`], also returning how many suppressions fired.
pub fn lint_source_counted(rel_path: &str, text: &str, cfg: &Config) -> (Vec<Diagnostic>, usize) {
    let (report, _analysis) = lint_files(&[(rel_path.to_owned(), text.to_owned())], cfg);
    (report.diagnostics, report.suppressions_used)
}

/// The multi-pass core: lint a set of in-memory files as one unit.
/// Per-file rules run on each file, the workspace analysis links them
/// into a call graph, the graph rules (P02/D05/A01) run over the
/// whole, and every file's suppressions apply uniformly at the end.
pub fn lint_files(inputs: &[(String, String)], cfg: &Config) -> (LintReport, WorkspaceAnalysis) {
    let files: Vec<SourceFile> = inputs
        .iter()
        .map(|(p, t)| SourceFile::parse(p, t))
        .collect();
    let analysis = WorkspaceAnalysis::build(&files);

    let mut per_file_raw: Vec<Vec<Diagnostic>> =
        files.iter().map(|f| rules::run_rules(f, cfg)).collect();
    let by_path: BTreeMap<&str, usize> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.rel_path.as_str(), i))
        .collect();
    for d in rules::run_graph_rules(&files, &analysis, cfg) {
        if let Some(&i) = by_path.get(d.file.as_str()) {
            per_file_raw[i].push(d);
        }
    }

    let mut diagnostics = Vec::new();
    let mut suppressions_used = 0usize;
    for (file, raw) in files.iter().zip(per_file_raw) {
        let (mut diags, used) = apply_suppressions(file, raw, cfg);
        diagnostics.append(&mut diags);
        suppressions_used += used;
    }
    diagnostics
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    (
        LintReport {
            files_scanned: files.len(),
            diagnostics,
            suppressions_used,
            deny_warnings: cfg.deny_warnings,
        },
        analysis,
    )
}

/// Apply one file's suppression markers to its raw diagnostics, then
/// append the meta-diagnostics (L00 malformed, L01 stale).
fn apply_suppressions(
    file: &SourceFile,
    raw: Vec<Diagnostic>,
    cfg: &Config,
) -> (Vec<Diagnostic>, usize) {
    // A marker suppresses every diagnostic of its rule on its target
    // line (one line can hold two calls the same marker vouches for).
    let mut used = vec![false; file.suppressions.len()];
    let mut diags: Vec<Diagnostic> = Vec::new();
    for d in raw {
        let mut suppressed = false;
        for (si, s) in file.suppressions.iter().enumerate() {
            if s.rule == d.rule && s.target_line == d.line {
                used[si] = true;
                suppressed = true;
            }
        }
        if !suppressed {
            diags.push(d);
        }
    }
    let used_count = used.iter().filter(|&&u| u).count();

    // Meta-diagnostics. Both are skipped inside test code: lint
    // fixtures legitimately hold malformed or dangling markers.
    for bad in &file.bad_markers {
        let severity = cfg.effective_severity(RuleId::L00);
        if severity == Severity::Allow || file.is_test_line(bad.line) {
            continue;
        }
        diags.push(Diagnostic {
            rule: RuleId::L00,
            severity,
            file: file.rel_path.clone(),
            line: bad.line,
            message: bad.problem.clone(),
            excerpt: file.excerpt(bad.line),
        });
    }
    for (si, s) in file.suppressions.iter().enumerate() {
        if used[si] || file.is_test_line(s.marker_line) {
            continue;
        }
        let severity = cfg.effective_severity(RuleId::L01);
        if severity == Severity::Allow {
            continue;
        }
        diags.push(Diagnostic {
            rule: RuleId::L01,
            severity,
            file: file.rel_path.clone(),
            line: s.marker_line,
            message: format!(
                "suppression `allow({}, ...)` matched no diagnostic; delete the \
                 stale marker",
                s.rule
            ),
            excerpt: file.excerpt(s.marker_line),
        });
    }

    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    (diags, used_count)
}

/// Lint every project source file under `root` (a workspace checkout).
///
/// The walk is fully deterministic: directory entries are sorted, shims
/// and build output are skipped, and diagnostics come back ordered by
/// (file, line, rule). Progress is surfaced through `incprof-obs`. The
/// workspace analysis comes back with the report, so callers can read
/// the call graph without a second pass.
pub fn lint_workspace_analyzed(
    root: &Path,
    cfg: &Config,
) -> io::Result<(LintReport, WorkspaceAnalysis)> {
    let _span = incprof_obs::span(incprof_obs::names::LINT_RUN);
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();

    let mut inputs: Vec<(String, String)> = Vec::with_capacity(files.len());
    for path in &files {
        inputs.push((rel_path(root, path), std::fs::read_to_string(path)?));
    }
    let (report, analysis) = lint_files(&inputs, cfg);

    let (confident, ambiguous) = analysis.graph.edge_counts();
    incprof_obs::counter(incprof_obs::names::LINT_FILES_SCANNED).add(files.len() as u64);
    incprof_obs::counter(incprof_obs::names::LINT_DIAGNOSTICS_TOTAL)
        .add(report.diagnostics.len() as u64);
    incprof_obs::counter(incprof_obs::names::LINT_SUPPRESSIONS_USED)
        .add(report.suppressions_used as u64);
    incprof_obs::counter(incprof_obs::names::SCA_FUNCTIONS).add(analysis.symbols.defs.len() as u64);
    incprof_obs::counter(incprof_obs::names::SCA_EDGES_CONFIDENT).add(confident as u64);
    incprof_obs::counter(incprof_obs::names::SCA_EDGES_AMBIGUOUS).add(ambiguous as u64);

    Ok((report, analysis))
}

/// Walk upward from `start` to the directory whose `Cargo.toml`
/// declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    // Forward slashes keep the scope tables platform-independent.
    rel.to_string_lossy().replace('\\', "/")
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let rel = rel_path(root, &path);
        if config::SKIP_PREFIXES
            .iter()
            .any(|p| rel.starts_with(p) || rel == p.trim_end_matches('/'))
        {
            continue;
        }
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_silences_and_counts() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // lint: allow(P01, invariant)\n    x.unwrap()\n}\n";
        let (diags, used) = lint_source_counted("crates/core/src/x.rs", src, &Config::default());
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(used, 1);
    }

    #[test]
    fn stale_suppression_is_reported_as_l01() {
        let src = "// lint: allow(P01, nothing here anymore)\nfn f() {}\n";
        let diags = lint_source("crates/core/src/x.rs", src, &Config::default());
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::L01);
        assert_eq!(diags[0].severity, Severity::Warn);
    }

    #[test]
    fn malformed_marker_is_reported_as_l00() {
        let src = "// lint: allow(P01)\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let diags = lint_source("crates/core/src/x.rs", src, &Config::default());
        let rules: Vec<RuleId> = diags.iter().map(|d| d.rule).collect();
        // The marker is malformed, so the unwrap still fires too.
        assert_eq!(rules, vec![RuleId::L00, RuleId::P01]);
    }

    #[test]
    fn one_marker_covers_two_same_rule_hits_on_a_line() {
        let src = "fn f(x: Option<u32>, y: Option<u32>) -> u32 {\n    // lint: allow(P01, both checked above)\n    x.unwrap() + y.unwrap()\n}\n";
        let (diags, used) = lint_source_counted("crates/core/src/x.rs", src, &Config::default());
        assert!(diags.is_empty());
        assert_eq!(used, 1);
    }

    #[test]
    fn wrong_rule_marker_does_not_suppress() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // lint: allow(D01, wrong rule)\n    x.unwrap()\n}\n";
        let diags = lint_source("crates/core/src/x.rs", src, &Config::default());
        let rules: Vec<RuleId> = diags.iter().map(|d| d.rule).collect();
        // The unwrap fires AND the marker is stale.
        assert_eq!(rules, vec![RuleId::L01, RuleId::P01]);
    }

    #[test]
    fn report_renders_summary_and_json() {
        let diags = lint_source(
            "crates/core/src/x.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            &Config::default(),
        );
        let report = LintReport {
            files_scanned: 1,
            diagnostics: diags,
            suppressions_used: 0,
            deny_warnings: false,
        };
        assert!(!report.is_clean());
        let human = report.render_human();
        assert!(human.contains("error[P01]"));
        assert!(human.contains("crates/core/src/x.rs:1"));
        let json = report.render_json();
        assert!(json.contains("\"rule\":\"P01\""));
        assert!(json.contains("\"files_scanned\": 1"));
    }

    #[test]
    fn allow_severity_disables_a_rule() {
        let mut cfg = Config::default();
        cfg.set_severity(RuleId::P01, Severity::Allow);
        let diags = lint_source(
            "crates/core/src/x.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
            &cfg,
        );
        assert!(diags.is_empty());
    }

    #[test]
    fn p02_fires_transitively_from_public_api() {
        let inputs = vec![
            (
                "crates/core/src/api.rs".to_owned(),
                "pub fn api() { crate::inner::helper(); }\n".to_owned(),
            ),
            (
                "crates/core/src/inner.rs".to_owned(),
                "pub fn helper() { deep(); }\nfn deep() { panic!(\"boom\"); }\n".to_owned(),
            ),
        ];
        let (report, _) = lint_files(&inputs, &Config::default());
        let p02: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::P02)
            .collect();
        assert_eq!(p02.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(p02[0].file, "crates/core/src/inner.rs");
        assert_eq!(p02[0].line, 2);
        assert!(
            p02[0].message.contains("helper -> deep"),
            "{}",
            p02[0].message
        );
    }

    #[test]
    fn p02_ignores_private_dead_code_and_non_library_crates() {
        // Private, never called from a pub fn → not flagged.
        let (report, _) = lint_files(
            &[(
                "crates/core/src/x.rs".to_owned(),
                "fn orphan() { panic!(\"never\"); }\n".to_owned(),
            )],
            &Config::default(),
        );
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        // Same shape in a binary crate → out of P02 scope.
        let (report, _) = lint_files(
            &[(
                "crates/cli/src/x.rs".to_owned(),
                "pub fn main_ish() { panic!(\"usage\"); }\n".to_owned(),
            )],
            &Config::default(),
        );
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn p02_suppressed_by_line_marker() {
        let src = "pub fn api() {\n    // lint: allow(P02, input validated by construction)\n    unreachable!(\"checked\");\n}\n";
        let (report, _) = lint_files(
            &[("crates/core/src/x.rs".to_owned(), src.to_owned())],
            &Config::default(),
        );
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.suppressions_used, 1);
    }

    #[test]
    fn d05_flags_blocking_reachable_from_configured_root() {
        let src = "struct Session;\nimpl Session {\n    pub fn drain_traced(&mut self) { self.persist(); }\n    fn persist(&self) { std::fs::read_to_string(\"x\"); }\n}\n";
        let (report, _) = lint_files(
            &[("crates/serve/src/x.rs".to_owned(), src.to_owned())],
            &Config::default(),
        );
        let d05: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::D05)
            .collect();
        assert_eq!(d05.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(d05[0].line, 4);
        assert!(d05[0].message.contains("Session::drain_traced"));
    }

    #[test]
    fn d05_silent_when_blocking_is_unreachable_from_roots() {
        let src = "pub fn cold_setup() { std::fs::read_to_string(\"cfg\"); }\n";
        let (report, _) = lint_files(
            &[("crates/serve/src/x.rs".to_owned(), src.to_owned())],
            &Config::default(),
        );
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn a01_flags_alloc_in_ingest_and_respects_allowlist() {
        let src = "struct Session;\nimpl Session {\n    pub fn enqueue(&mut self) { let buf: Vec<u8> = Vec::with_capacity(64); }\n}\n";
        let (report, _) = lint_files(
            &[("crates/serve/src/x.rs".to_owned(), src.to_owned())],
            &Config::default(),
        );
        let a01: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::A01)
            .collect();
        assert_eq!(a01.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(a01[0].severity, Severity::Warn);
        // The same file on the allowlist is exempt.
        let mut cfg = Config::default();
        cfg.a01_allow.push("crates/serve/src/x.rs".to_owned());
        let (report, _) = lint_files(
            &[("crates/serve/src/x.rs".to_owned(), src.to_owned())],
            &cfg,
        );
        assert!(report.diagnostics.is_empty());
    }

    #[test]
    fn ambiguous_edges_never_fire_graph_rules() {
        // Two candidate callees; one panics. The edge is ambiguous, so
        // P02 must not fire through it (misses are recoverable, false
        // positives are not).
        let inputs = vec![
            (
                "crates/core/src/a.rs".to_owned(),
                "pub fn shared() { panic!(\"a\"); }\n".to_owned(),
            ),
            (
                "crates/par/src/lib.rs".to_owned(),
                "pub fn shared() {}\n".to_owned(),
            ),
            (
                "crates/obs/src/lib.rs".to_owned(),
                "pub fn run() { shared(); }\n".to_owned(),
            ),
        ];
        let (report, _) = lint_files(&inputs, &Config::default());
        // Only the direct P02 on core's own pub `shared` fires.
        let p02: Vec<&Diagnostic> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleId::P02)
            .collect();
        assert_eq!(p02.len(), 1);
        assert_eq!(p02[0].file, "crates/core/src/a.rs");
    }

    #[test]
    fn multi_rule_marker_suppresses_both_and_counts_separately() {
        let src = "pub fn api() {\n    // lint: allow(P01, P02, the slot is filled two lines up)\n    x.get(0).unwrap(); panic!(\"never\");\n}\n";
        let (report, _) = lint_files(
            &[("crates/core/src/x.rs".to_owned(), src.to_owned())],
            &Config::default(),
        );
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.suppressions_used, 2);
    }

    #[test]
    fn find_root_walks_upward() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here);
        assert!(root.is_some());
        let root = root.map(|r| r.join("Cargo.toml"));
        assert!(root.is_some_and(|r| r.exists()));
    }
}

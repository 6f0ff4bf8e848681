//! The project rules, as token-pattern matchers over a [`SourceFile`].
//!
//! Every rule is conservative on purpose: it matches the *spelling* of
//! a hazard (`HashMap` in an analysis crate, `.sum(` next to the pool)
//! rather than proving a data flow, and relies on the mandatory-reason
//! suppression mechanism for the sites where a human has judged the
//! spelling harmless. That trade — a few justified markers in exchange
//! for zero type-system machinery — is what keeps the pass fast,
//! dependency-free, and auditable.

use crate::callgraph::FactKind;
use crate::config::{self, Config};
use crate::dataflow::Reachability;
use crate::diag::{Diagnostic, RuleId, Severity};
use crate::engine::WorkspaceAnalysis;
use crate::lexer::TokenKind;
use crate::source::SourceFile;
use std::collections::BTreeMap;

/// Run every enabled rule over `file`, returning raw (pre-suppression)
/// diagnostics.
pub fn run_rules(file: &SourceFile, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let crate_name = config::crate_of(&file.rel_path);

    // Harness crates measure wall time and print ad-hoc output; no rule
    // applies to them.
    if crate_name.is_some_and(|c| config::HARNESS_CRATES.contains(&c)) {
        return out;
    }

    d01_wall_clock(file, cfg, &mut out);
    d02_deterministic_iteration(file, crate_name, cfg, &mut out);
    d03_thread_hygiene(file, cfg, &mut out);
    d04_chunked_reductions(file, crate_name, cfg, &mut out);
    o01_metric_names(file, crate_name, cfg, &mut out);
    p01_panic_hygiene(file, crate_name, cfg, &mut out);
    out
}

/// Run the graph-powered rules (P02/D05/A01) over the whole analyzed
/// file set. Diagnostics point at the hazard *site* (so a normal
/// per-line marker suppresses them) and name the root plus a witness
/// call path in the message.
pub fn run_graph_rules(
    files: &[SourceFile],
    ws: &WorkspaceAnalysis,
    cfg: &Config,
) -> Vec<Diagnostic> {
    let by_path: BTreeMap<&str, &SourceFile> =
        files.iter().map(|f| (f.rel_path.as_str(), f)).collect();
    let mut out = Vec::new();
    p02_panic_reachability(&by_path, ws, cfg, &mut out);
    d05_blocking_in_worker(&by_path, ws, cfg, &mut out);
    a01_alloc_in_hot_path(&by_path, ws, cfg, &mut out);
    out
}

/// Whether a fact site should be skipped: outside the analyzed file
/// set, in a harness crate, or on a test line.
fn fact_site<'a>(
    by_path: &BTreeMap<&str, &'a SourceFile>,
    ws: &WorkspaceAnalysis,
    node: usize,
    line: u32,
) -> Option<&'a SourceFile> {
    let def = &ws.symbols.defs[node];
    if config::HARNESS_CRATES.contains(&def.crate_name.as_str()) {
        return None;
    }
    let file = by_path.get(def.file.as_str())?;
    if file.is_test_line(line) {
        None
    } else {
        Some(file)
    }
}

/// P02: a panic-family macro in a library crate that is public API or
/// confidently reachable from one. Transitive where P01 is per-file.
fn p02_panic_reachability(
    by_path: &BTreeMap<&str, &SourceFile>,
    ws: &WorkspaceAnalysis,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) {
    for fact in ws.graph.facts.iter().filter(|f| f.kind == FactKind::Panic) {
        let def = &ws.symbols.defs[fact.node];
        if !config::P01_CRATES.contains(&def.crate_name.as_str()) {
            continue;
        }
        let Some(file) = fact_site(by_path, ws, fact.node, fact.line) else {
            continue;
        };
        // The nearest public API that can reach this site, in
        // deterministic def order; private dead code is not flagged.
        let rev = ws.reach.can_reach(&[fact.node]);
        let witness = (0..ws.symbols.defs.len()).find(|&i| {
            rev[i]
                && ws.symbols.defs[i].is_pub
                && config::P01_CRATES.contains(&ws.symbols.defs[i].crate_name.as_str())
        });
        let Some(w) = witness else { continue };
        let path = ws
            .reach
            .witness_path(w, fact.node)
            .map(|p| Reachability::render_path(&ws.symbols, &p))
            .unwrap_or_else(|| ws.symbols.defs[w].qualified.clone());
        emit(
            out,
            file,
            cfg,
            RuleId::P02,
            fact.line,
            format!(
                "`{}` is reachable from public API `{}` (via {path}); return an \
                 error instead, or justify with `// lint: allow(P02, <why this \
                 cannot fire on caller data>)`",
                fact.what, ws.symbols.defs[w].qualified
            ),
        );
    }
}

/// D05: a blocking call (lock/IO/sleep) confidently reachable from a
/// configured hot-path root (`config::D05_ROOTS`).
fn d05_blocking_in_worker(
    by_path: &BTreeMap<&str, &SourceFile>,
    ws: &WorkspaceAnalysis,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) {
    let roots = root_nodes(ws, config::D05_ROOTS);
    if roots.is_empty() {
        return;
    }
    let fwd = ws.reach.reachable_from(&roots);
    for fact in ws
        .graph
        .facts
        .iter()
        .filter(|f| f.kind == FactKind::Blocking)
    {
        if !fwd[fact.node] {
            continue;
        }
        let Some(file) = fact_site(by_path, ws, fact.node, fact.line) else {
            continue;
        };
        let (root, path) = first_root_path(ws, &roots, fact.node);
        emit(
            out,
            file,
            cfg,
            RuleId::D05,
            fact.line,
            format!(
                "blocking call `{}` reachable from hot-path root `{root}` (via \
                 {path}); move it off the worker path, or justify with \
                 `// lint: allow(D05, <why this block is bounded>)`",
                fact.what
            ),
        );
    }
}

/// A01: an allocation constructor confidently reachable from the
/// per-snapshot ingest roots (`config::A01_ROOTS`), outside the setup
/// allowlist. Warn by default: allocation is a cost smell, not a bug.
fn a01_alloc_in_hot_path(
    by_path: &BTreeMap<&str, &SourceFile>,
    ws: &WorkspaceAnalysis,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) {
    let roots = root_nodes(ws, config::A01_ROOTS);
    if roots.is_empty() {
        return;
    }
    let fwd = ws.reach.reachable_from(&roots);
    for fact in ws.graph.facts.iter().filter(|f| f.kind == FactKind::Alloc) {
        if !fwd[fact.node] {
            continue;
        }
        let def = &ws.symbols.defs[fact.node];
        if cfg.a01_allows(&def.file) {
            continue;
        }
        let Some(file) = fact_site(by_path, ws, fact.node, fact.line) else {
            continue;
        };
        let (root, path) = first_root_path(ws, &roots, fact.node);
        emit(
            out,
            file,
            cfg,
            RuleId::A01,
            fact.line,
            format!(
                "allocation `{}` reachable from ingest root `{root}` (via {path}); \
                 hoist or reuse the buffer, or justify with \
                 `// lint: allow(A01, <why this allocation is amortized>)`",
                fact.what
            ),
        );
    }
}

/// Resolve configured root names (qualified form) to node indices.
fn root_nodes(ws: &WorkspaceAnalysis, names: &[&str]) -> Vec<usize> {
    let mut roots: Vec<usize> = names
        .iter()
        .filter_map(|n| ws.symbols.by_qualified.get(*n))
        .flatten()
        .copied()
        .collect();
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// The first configured root (in def order) that reaches `node`, with
/// a rendered witness path.
fn first_root_path(ws: &WorkspaceAnalysis, roots: &[usize], node: usize) -> (String, String) {
    for &r in roots {
        if let Some(p) = ws.reach.witness_path(r, node) {
            return (
                ws.symbols.defs[r].qualified.clone(),
                Reachability::render_path(&ws.symbols, &p),
            );
        }
    }
    ("<unknown root>".to_owned(), String::new())
}

fn emit(
    out: &mut Vec<Diagnostic>,
    file: &SourceFile,
    cfg: &Config,
    rule: RuleId,
    line: u32,
    message: String,
) {
    let severity = cfg.effective_severity(rule);
    if severity == Severity::Allow {
        return;
    }
    out.push(Diagnostic {
        rule,
        severity,
        file: file.rel_path.clone(),
        line,
        message,
        excerpt: file.excerpt(line),
    });
}

/// D01: `Instant::now` / `SystemTime` outside the allowlist.
fn d01_wall_clock(file: &SourceFile, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if cfg.d01_allows(&file.rel_path) {
        return;
    }
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.is_test_line(t.line) {
            continue;
        }
        if t.is_ident("Instant")
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 3).is_some_and(|a| a.is_ident("now"))
        {
            emit(
                out,
                file,
                cfg,
                RuleId::D01,
                t.line,
                "wall-clock read (`Instant::now`) outside the clock allowlist; \
                 route timing through `incprof_runtime::Clock` so virtual-time \
                 replay stays faithful"
                    .to_owned(),
            );
        }
        if t.is_ident("SystemTime") {
            emit(
                out,
                file,
                cfg,
                RuleId::D01,
                t.line,
                "wall-clock type `SystemTime` outside the clock allowlist; \
                 virtual-time paths must not read real time"
                    .to_owned(),
            );
        }
    }
}

/// D02: `HashMap`/`HashSet` in the deterministic-output crates.
fn d02_deterministic_iteration(
    file: &SourceFile,
    crate_name: Option<&str>,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) {
    if !crate_name.is_some_and(|c| config::D02_CRATES.contains(&c)) {
        return;
    }
    for t in &file.tokens {
        if file.is_test_line(t.line) {
            continue;
        }
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            emit(
                out,
                file,
                cfg,
                RuleId::D02,
                t.line,
                format!(
                    "`{}` in an analysis crate: hash iteration order can reach \
                     serialized output; use `BTreeMap`/`BTreeSet` or sort before \
                     emitting",
                    t.text
                ),
            );
        }
    }
}

/// D03: `thread::spawn` / `thread::scope` / `thread::Builder` outside
/// the sanctioned spawners.
fn d03_thread_hygiene(file: &SourceFile, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if cfg.d03_allows(&file.rel_path) {
        return;
    }
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.is_test_line(t.line) {
            continue;
        }
        if t.is_ident("thread")
            && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
            && toks.get(i + 3).is_some_and(|a| {
                a.is_ident("spawn") || a.is_ident("scope") || a.is_ident("Builder")
            })
        {
            let what = &toks[i + 3].text;
            emit(
                out,
                file,
                cfg,
                RuleId::D03,
                t.line,
                format!(
                    "`thread::{what}` outside `incprof-par`/the collector: ad-hoc \
                     threads bypass the deterministic pool's chunking and nesting \
                     guarantees"
                ),
            );
        }
    }
}

/// D04: raw `.sum(` in parallel-adjacent analysis files.
fn d04_chunked_reductions(
    file: &SourceFile,
    crate_name: Option<&str>,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) {
    if !crate_name.is_some_and(|c| config::D04_CRATES.contains(&c)) || !file.references_par {
        return;
    }
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.is_test_line(t.line) {
            continue;
        }
        if t.is_punct('.')
            && toks.get(i + 1).is_some_and(|a| a.is_ident("sum"))
            && toks
                .get(i + 2)
                .is_some_and(|a| a.is_punct('(') || a.is_punct(':'))
        {
            emit(
                out,
                file,
                cfg,
                RuleId::D04,
                toks[i + 1].line,
                "raw `.sum()` in a file that uses the parallel engine: float \
                 reductions must go through `incprof_par::par_reduce_chunks` or \
                 `Pool::reduce_chunks` (or justify why this sum never crosses a \
                 chunk boundary)"
                    .to_owned(),
            );
        }
    }
}

/// O01: literal metric/span names at obs call sites.
fn o01_metric_names(
    file: &SourceFile,
    crate_name: Option<&str>,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) {
    if crate_name.is_some_and(|c| config::O01_EXEMPT_CRATES.contains(&c)) {
        return;
    }
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.is_test_line(t.line) {
            continue;
        }
        if t.kind != TokenKind::Ident || !config::O01_CALLEES.contains(&t.text.as_str()) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|a| a.is_punct('(')) {
            continue;
        }
        // First-argument shapes that hide a literal: `"name"`,
        // `&format!(…)`, `format!(…)`.
        let mut j = i + 2;
        if toks.get(j).is_some_and(|a| a.is_punct('&')) {
            j += 1;
        }
        let Some(arg) = toks.get(j) else { continue };
        let literal = arg.kind == TokenKind::Str;
        let formatted = arg.is_ident("format") && toks.get(j + 1).is_some_and(|a| a.is_punct('!'));
        if literal || formatted {
            emit(
                out,
                file,
                cfg,
                RuleId::O01,
                t.line,
                format!(
                    "metric/span name built at the `{}` call site; declare it in \
                     `incprof_obs::names` and reference the constant (or helper) \
                     so names cannot typo or fork",
                    t.text
                ),
            );
        }
    }
}

/// P01: `.unwrap()` / `.expect(` in library crates.
fn p01_panic_hygiene(
    file: &SourceFile,
    crate_name: Option<&str>,
    cfg: &Config,
    out: &mut Vec<Diagnostic>,
) {
    if !crate_name.is_some_and(|c| config::P01_CRATES.contains(&c)) {
        return;
    }
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if file.is_test_line(t.line) {
            continue;
        }
        if t.is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|a| a.is_ident("unwrap") || a.is_ident("expect"))
            && toks.get(i + 2).is_some_and(|a| a.is_punct('('))
        {
            let what = &toks[i + 1].text;
            emit(
                out,
                file,
                cfg,
                RuleId::P01,
                toks[i + 1].line,
                format!(
                    "`.{what}()` in library code: propagate the error, or mark the \
                     invariant with `// lint: allow(P01, <why it cannot fail>)`"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_raw(path: &str, src: &str) -> Vec<Diagnostic> {
        run_rules(&SourceFile::parse(path, src), &Config::default())
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<RuleId> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn d01_fires_outside_allowlist_only() {
        let bad = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(
            rules_of(&lint_raw("crates/core/src/x.rs", bad)),
            [RuleId::D01]
        );
        assert!(lint_raw("crates/runtime/src/clock.rs", bad).is_empty());
        assert!(lint_raw("crates/obs/src/span.rs", bad).is_empty());
    }

    #[test]
    fn d01_catches_system_time() {
        let bad = "use std::time::SystemTime;";
        assert_eq!(
            rules_of(&lint_raw("crates/obs/src/report.rs", bad)),
            [RuleId::D01]
        );
    }

    #[test]
    fn d02_scoped_to_analysis_crates() {
        let bad = "use std::collections::HashMap;";
        assert_eq!(
            rules_of(&lint_raw("crates/profile/src/x.rs", bad)),
            [RuleId::D02]
        );
        assert!(lint_raw("crates/runtime/src/x.rs", bad).is_empty());
    }

    #[test]
    fn d03_fires_outside_pool_and_collector() {
        let bad = "fn f() { std::thread::spawn(|| {}); }";
        assert_eq!(
            rules_of(&lint_raw("crates/runtime/src/x.rs", bad)),
            [RuleId::D03]
        );
        assert!(lint_raw("crates/par/src/pool.rs", bad).is_empty());
        assert!(lint_raw("crates/collect/src/collector.rs", bad).is_empty());
    }

    #[test]
    fn d04_needs_par_reference() {
        let with_par = "use incprof_par as p; fn f(v: &[f64]) -> f64 { v.iter().sum() }";
        let without = "fn f(v: &[f64]) -> f64 { v.iter().sum() }";
        assert_eq!(
            rules_of(&lint_raw("crates/cluster/src/x.rs", with_par)),
            [RuleId::D04]
        );
        assert!(lint_raw("crates/cluster/src/x.rs", without).is_empty());
        assert!(lint_raw("crates/runtime/src/x.rs", with_par).is_empty());
    }

    #[test]
    fn d04_catches_turbofish_sum() {
        let src = "use incprof_par as p; fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }";
        assert_eq!(
            rules_of(&lint_raw("crates/core/src/x.rs", src)),
            [RuleId::D04]
        );
    }

    #[test]
    fn o01_flags_literals_and_format() {
        let lit = r#"fn f() { incprof_obs::counter("a.b.c").inc(); }"#;
        let fmt = r#"fn f(k: usize) { incprof_obs::counter(&format!("a.b.k{k}")).inc(); }"#;
        let good = "fn f() { incprof_obs::counter(incprof_obs::names::PAR_POOL_CALLS).inc(); }";
        assert_eq!(
            rules_of(&lint_raw("crates/core/src/x.rs", lit)),
            [RuleId::O01]
        );
        assert_eq!(
            rules_of(&lint_raw("crates/core/src/x.rs", fmt)),
            [RuleId::O01]
        );
        assert!(lint_raw("crates/core/src/x.rs", good).is_empty());
    }

    #[test]
    fn o01_covers_traced_span_entry() {
        // Trace roots name spans too: `enter_traced("lit", …)` must go
        // through `incprof_obs::names` like every other telemetry name.
        let lit = r#"fn f(s: &SpanStore) { s.enter_traced("serve.x", 1, 0); }"#;
        let good =
            "fn f(s: &SpanStore) { s.enter_traced(incprof_obs::names::SERVE_TRACE_SNAPSHOT, 1, 0); }";
        assert_eq!(
            rules_of(&lint_raw("crates/serve/src/x.rs", lit)),
            [RuleId::O01]
        );
        assert!(lint_raw("crates/serve/src/x.rs", good).is_empty());
    }

    #[test]
    fn o01_exempts_obs_itself() {
        let lit = r#"pub fn counter(name: &str) { registry.counter("a.b.c"); }"#;
        assert!(lint_raw("crates/obs/src/metrics.rs", lit).is_empty());
    }

    #[test]
    fn p01_flags_unwrap_and_expect_in_lib_crates() {
        let bad = r#"fn f(x: Option<u32>) -> u32 { x.unwrap() + x.expect("set") }"#;
        assert_eq!(
            rules_of(&lint_raw("crates/core/src/x.rs", bad)),
            [RuleId::P01, RuleId::P01]
        );
        assert!(lint_raw("crates/cli/src/lib.rs", bad).is_empty());
        assert!(lint_raw("crates/apps/src/x.rs", bad).is_empty());
    }

    #[test]
    fn p01_ignores_unwrap_or_family() {
        let good = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_default() }";
        assert!(lint_raw("crates/core/src/x.rs", good).is_empty());
    }

    #[test]
    fn test_regions_are_exempt_everywhere() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); x.unwrap(); }\n}\n";
        assert!(lint_raw("crates/core/src/x.rs", src).is_empty());
        let bad_path = "crates/core/tests/it.rs";
        assert!(lint_raw(bad_path, "fn f() { x.unwrap(); }").is_empty());
    }

    #[test]
    fn harness_crates_are_exempt() {
        let src = "fn f() { let t = std::time::Instant::now(); x.unwrap(); }";
        assert!(lint_raw("crates/bench/src/bin/speedup.rs", src).is_empty());
    }

    #[test]
    fn spelling_inside_strings_and_comments_is_ignored() {
        let src = r#"fn f() { let s = "Instant::now() HashMap .unwrap()"; } // Instant::now"#;
        assert!(lint_raw("crates/profile/src/x.rs", src).is_empty());
    }
}

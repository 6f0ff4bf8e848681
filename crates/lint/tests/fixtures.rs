//! Fixture-based positive/negative coverage for every rule, plus the
//! suppression grammar and a JSON golden. Each fixture under
//! `tests/fixtures/` is linted as if it sat at an in-scope production
//! path; negative runs move the same source to an exempt path and
//! expect silence.

use incprof_lint::{lint_files, lint_source, lint_source_counted, Config, RuleId, Severity};

const D01_BAD: &str = include_str!("fixtures/d01_bad.rs");
const D02_BAD: &str = include_str!("fixtures/d02_bad.rs");
const D03_BAD: &str = include_str!("fixtures/d03_bad.rs");
const D04_BAD: &str = include_str!("fixtures/d04_bad.rs");
const O01_BAD: &str = include_str!("fixtures/o01_bad.rs");
const P01_BAD: &str = include_str!("fixtures/p01_bad.rs");
const CLEAN: &str = include_str!("fixtures/clean.rs");
const SUPPRESSED: &str = include_str!("fixtures/suppressed.rs");
const L00_BAD: &str = include_str!("fixtures/l00_bad.rs");
const L01_STALE: &str = include_str!("fixtures/l01_stale.rs");

fn rules_and_lines(src: &str, path: &str) -> Vec<(RuleId, u32)> {
    lint_source(path, src, &Config::default())
        .into_iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn d01_fixture_positive_and_negative() {
    // One hit per wall-clock token: the import names `SystemTime`,
    // `Instant::now` fires once, the signature and body again.
    assert_eq!(
        rules_and_lines(D01_BAD, "crates/core/src/fixture.rs"),
        [
            (RuleId::D01, 2),
            (RuleId::D01, 5),
            (RuleId::D01, 9),
            (RuleId::D01, 10),
        ]
    );
    // The clock abstraction itself is the sanctioned home.
    assert!(rules_and_lines(D01_BAD, "crates/runtime/src/clock.rs").is_empty());
    // Harness crates measure wall time by definition.
    assert!(rules_and_lines(D01_BAD, "crates/bench/src/bin/speedup.rs").is_empty());
}

#[test]
fn d02_fixture_positive_and_negative() {
    let hits = rules_and_lines(D02_BAD, "crates/profile/src/fixture.rs");
    assert_eq!(hits.len(), 6, "{hits:?}");
    assert!(hits.iter().all(|(r, _)| *r == RuleId::D02));
    // Outside the analysis crates, hash containers are fine.
    assert!(rules_and_lines(D02_BAD, "crates/runtime/src/fixture.rs").is_empty());
}

#[test]
fn d03_fixture_positive_and_negative() {
    assert_eq!(
        rules_and_lines(D03_BAD, "crates/core/src/fixture.rs"),
        [(RuleId::D03, 3), (RuleId::D03, 9)]
    );
    assert!(rules_and_lines(D03_BAD, "crates/par/src/pool.rs").is_empty());
    assert!(rules_and_lines(D03_BAD, "crates/collect/src/collector.rs").is_empty());
}

#[test]
fn d04_fixture_positive_and_negative() {
    let diags = lint_source("crates/cluster/src/fixture.rs", D04_BAD, &Config::default());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].rule, diags[0].line), (RuleId::D04, 8));
    // The remedy names a path the crate actually exports.
    assert!(
        diags[0]
            .message
            .contains("`incprof_par::par_reduce_chunks` or `Pool::reduce_chunks`"),
        "{}",
        diags[0].message
    );
    // D04 defaults to a warning (heuristic rule)...
    assert_eq!(diags[0].severity, Severity::Warn);
    // ...promoted under deny-warnings.
    let denied = lint_source(
        "crates/cluster/src/fixture.rs",
        D04_BAD,
        &Config::default().deny_warnings(),
    );
    assert_eq!(denied[0].severity, Severity::Error);
    // Out of scope: crate not in D04 set.
    assert!(rules_and_lines(D04_BAD, "crates/runtime/src/fixture.rs").is_empty());
}

#[test]
fn o01_fixture_positive_and_negative() {
    assert_eq!(
        rules_and_lines(O01_BAD, "crates/core/src/fixture.rs"),
        [(RuleId::O01, 4), (RuleId::O01, 5)]
    );
    // The obs crate itself declares names.
    assert!(rules_and_lines(O01_BAD, "crates/obs/src/fixture.rs").is_empty());
}

#[test]
fn p01_fixture_positive_and_negative() {
    assert_eq!(
        rules_and_lines(P01_BAD, "crates/core/src/fixture.rs"),
        [(RuleId::P01, 3), (RuleId::P01, 7)]
    );
    // Binaries and the simulation substrate may panic.
    assert!(rules_and_lines(P01_BAD, "crates/cli/src/fixture.rs").is_empty());
    assert!(rules_and_lines(P01_BAD, "crates/apps/src/fixture.rs").is_empty());
    // Whole-file test locations too.
    assert!(rules_and_lines(P01_BAD, "crates/core/tests/fixture.rs").is_empty());
}

#[test]
fn clean_fixture_is_silent_in_the_strictest_scope() {
    let (diags, used) = lint_source_counted(
        "crates/cluster/src/fixture.rs",
        CLEAN,
        &Config::default().deny_warnings(),
    );
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(used, 0);
}

#[test]
fn suppressed_fixture_is_silent_and_counts_markers() {
    let (diags, used) = lint_source_counted(
        "crates/core/src/fixture.rs",
        SUPPRESSED,
        &Config::default().deny_warnings(),
    );
    assert!(diags.is_empty(), "{diags:?}");
    assert_eq!(used, 2, "trailing and standalone markers both honored");
}

#[test]
fn l00_fixture_reports_every_malformed_marker() {
    // Each malformed marker is an L00 AND fails to silence its P01.
    assert_eq!(
        rules_and_lines(L00_BAD, "crates/core/src/fixture.rs"),
        [
            (RuleId::L00, 3),
            (RuleId::P01, 4),
            (RuleId::L00, 8),
            (RuleId::P01, 9),
            (RuleId::L00, 13),
            (RuleId::P01, 14),
        ]
    );
}

#[test]
fn l01_fixture_reports_the_stale_marker() {
    let diags = lint_source("crates/core/src/fixture.rs", L01_STALE, &Config::default());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!((diags[0].rule, diags[0].line), (RuleId::L01, 4));
    assert_eq!(diags[0].severity, Severity::Warn);
}

#[test]
fn diagnostic_json_golden() {
    let diags = lint_source("crates/core/src/fixture.rs", P01_BAD, &Config::default());
    let rendered: Vec<String> = diags.iter().map(|d| d.render_json()).collect();
    assert_eq!(
        rendered,
        [
            r#"{"rule":"P01","severity":"error","file":"crates/core/src/fixture.rs","line":3,"message":"`.unwrap()` in library code: propagate the error, or mark the invariant with `// lint: allow(P01, <why it cannot fail>)`","excerpt":"*xs.first().unwrap()"}"#,
            r#"{"rule":"P01","severity":"error","file":"crates/core/src/fixture.rs","line":7,"message":"`.expect()` in library code: propagate the error, or mark the invariant with `// lint: allow(P01, <why it cannot fail>)`","excerpt":"s.parse().expect(\"caller promised digits\")"}"#,
        ]
    );
}

#[test]
fn report_json_is_deterministic_and_sorted() {
    // Files handed over in reverse path order, with the later file's
    // diagnostics on earlier lines: the rendered report must come out
    // sorted by (file, line, rule) regardless.
    let inputs = vec![
        (
            "crates/profile/src/zz_fixture.rs".to_string(),
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n".to_string(),
        ),
        (
            "crates/core/src/fixture.rs".to_string(),
            "fn g(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\nfn h(y: Option<u32>) -> u32 { y.expect(\"set\") }\n"
                .to_string(),
        ),
    ];
    let cfg = Config::default();
    let (report, _) = lint_files(&inputs, &cfg);
    let locations: Vec<(String, u32)> = report
        .diagnostics
        .iter()
        .map(|d| (d.file.clone(), d.line))
        .collect();
    assert_eq!(
        locations,
        [
            ("crates/core/src/fixture.rs".to_string(), 2),
            ("crates/core/src/fixture.rs".to_string(), 4),
            ("crates/profile/src/zz_fixture.rs".to_string(), 1),
        ]
    );
    // Byte-identical across runs, pinned against the golden file.
    let (again, _) = lint_files(&inputs, &cfg);
    assert_eq!(report.render_json(), again.render_json());
    assert_eq!(
        report.render_json(),
        include_str!("golden/multi_file_report.json"),
        "LintReport::render_json drifted from tests/golden/multi_file_report.json"
    );
}

#[test]
fn human_rendering_has_location_rule_and_excerpt() {
    let diags = lint_source("crates/core/src/fixture.rs", P01_BAD, &Config::default());
    let human = diags[0].render_human();
    assert!(
        human.starts_with("crates/core/src/fixture.rs:3: error[P01]"),
        "{human}"
    );
    assert!(human.contains("\n    | *xs.first().unwrap()"), "{human}");
}

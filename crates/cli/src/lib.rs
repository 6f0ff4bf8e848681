//! # incprof-cli
//!
//! The `incprof` command-line tool: run the phase-detection pipeline on
//! data from disk, mirroring how the paper's tooling was driven, plus
//! the static-analysis gates and the streaming daemon's client and
//! server commands.
//!
//! Every subcommand, positional and flag is one row of `COMMANDS` (or
//! of `GLOBAL`, the flags accepted anywhere on the line). [`usage`]
//! prints the banner generated from those rows; the functions below
//! document what each command does, not how it is spelled.
//!
//! Exit status: 0 on success, 2 on usage errors, 1 on runtime (I/O,
//! JSON, pipeline) errors.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod args;
mod serve_cmd;
mod shard_cmd;

use args::{flag, Flag, Parsed, Spec};
use incprof_cluster::{DbscanParams, KSelectionMethod};
use incprof_collect::report_path::{clamp_monotone, parse_reports};
use incprof_collect::{IntervalMatrix, SampleSeries};
use incprof_core::merge::merge_phases_with_same_sites;
use incprof_core::report::{
    render_k_sweep, render_signatures, render_sites_table, render_timeline,
};
use incprof_core::{ClusteringMethod, PhaseAnalysis, PhaseDetector};
use incprof_profile::{FlatProfile, FunctionTable, ProfileError};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

const ANALYZE_FLAGS: &[Flag] = &[
    flag("--threshold", "f"),
    flag("--kmax", "n"),
    flag("--silhouette", ""),
    flag("--dbscan", "eps min_pts"),
    flag("--merge", ""),
    flag("--json", ""),
];

/// The flags accepted by every command, anywhere on the line.
const GLOBAL: &[Flag] = &[
    flag("--metrics", "path"),
    flag("--verbose", ""),
    flag("--threads", "n"),
];

/// What the [`GLOBAL`] flags do, printed under their synopsis.
const GLOBAL_HELP: &str = "\
  --metrics   write an observability run report (counters, span tree,
              latency histograms) as JSON on exit; a .jsonl path selects
              one record per line
  --verbose   raise logging to debug (see also INCPROF_LOG)
  --threads   worker threads for the parallel analysis paths (default:
              INCPROF_THREADS, else all cores; results are identical for
              every setting)";

/// The command line: one row per subcommand, in banner order.
static COMMANDS: &[Spec] = &[
    Spec {
        cmd: "demo",
        positionals: "<dump.json>",
        flags: &[],
        run: |p| demo(Path::new(p.rest[0])),
    },
    Spec {
        cmd: "render-reports",
        positionals: "<dump.json> <dir>",
        flags: &[],
        run: |p| render_reports_cmd(Path::new(p.rest[0]), Path::new(p.rest[1])),
    },
    Spec {
        cmd: "render-gmon",
        positionals: "<dump.json> <dir>",
        flags: &[],
        run: |p| render_gmon_cmd(Path::new(p.rest[0]), Path::new(p.rest[1])),
    },
    Spec {
        cmd: "analyze-gmon",
        positionals: "<dir>",
        flags: ANALYZE_FLAGS,
        run: |p| analyze_gmon(Path::new(p.rest[0]), &analyze_options(p)?),
    },
    Spec {
        cmd: "analyze-reports",
        positionals: "<dir>",
        flags: ANALYZE_FLAGS,
        run: |p| analyze_reports(Path::new(p.rest[0]), &analyze_options(p)?),
    },
    Spec {
        cmd: "analyze-json",
        positionals: "<dump.json>",
        flags: ANALYZE_FLAGS,
        run: |p| analyze_json(Path::new(p.rest[0]), &analyze_options(p)?),
    },
    Spec {
        cmd: "lint",
        positionals: "[root]",
        flags: &[
            flag("--json", ""),
            flag("-D|--deny-warnings", ""),
            flag("--allow", "RULE"),
            flag("--warn", "RULE"),
            flag("--deny", "RULE"),
            flag("--list-rules", ""),
        ],
        run: lint_cmd,
    },
    Spec {
        cmd: "sca",
        positionals: "[root]",
        flags: &[flag("--json", "path"), flag("-D|--deny-warnings", "")],
        run: sca_cmd,
    },
    Spec {
        cmd: "callgraph",
        positionals: "[root]",
        flags: &[flag("--json", "path")],
        run: callgraph_cmd,
    },
    Spec {
        cmd: "serve",
        positionals: "",
        flags: &[
            flag("--addr", "host:port"),
            flag("--unix", "path"),
            flag("--workers", "n"),
            flag("--max-sessions", "n"),
            flag("--addr-file", "path"),
            flag("--admin", "host:port"),
            flag("--admin-unix", "path"),
            flag("--admin-addr-file", "path"),
            flag("--final-scrape", "path"),
            flag("--store-dir", "dir"),
            flag("--retention", "hot=H,stride=S[,max_bytes=B]"),
            flag("--max-live", "n"),
            flag("--checkpoint-every", "n"),
        ],
        run: serve_cmd::serve_cmd,
    },
    Spec {
        cmd: "shard",
        positionals: "",
        flags: &[
            flag("--backends", "n"),
            flag("--backend", "data[,admin]"),
            flag("--addr", "host:port"),
            flag("--unix", "path"),
            flag("--addr-file", "path"),
            flag("--admin", "host:port"),
            flag("--admin-unix", "path"),
            flag("--admin-addr-file", "path"),
            flag("--store-dir", "dir"),
            flag("--pid-dir", "dir"),
            flag("--max-conns", "n"),
            flag("--route", "session-id"),
        ],
        run: shard_cmd::shard_cmd,
    },
    Spec {
        cmd: "push",
        positionals: "<addr> <dump.json>",
        flags: &[
            flag("--analysis", ""),
            flag("--keep-open", ""),
            flag("--session-file", "path"),
            flag("--shutdown", ""),
        ],
        run: serve_cmd::push_cmd,
    },
    Spec {
        cmd: "query",
        positionals: "<addr> <session-id>",
        flags: &[
            flag("--analysis", ""),
            flag("--close", ""),
            flag("--shutdown", ""),
        ],
        run: serve_cmd::query_cmd,
    },
    Spec {
        cmd: "collect",
        positionals: "<out.json>",
        flags: &[flag("--interval-ms", "n"), flag("--max-samples", "n")],
        run: serve_cmd::collect_cmd,
    },
    Spec {
        cmd: "top",
        positionals: "<admin-addr>",
        flags: &[
            flag("--interval-ms", "n"),
            flag("--iterations", "n"),
            flag("--raw", ""),
            flag("--recorder", ""),
            flag("--health", ""),
        ],
        run: serve_cmd::top_cmd,
    },
];

/// The usage banner, generated from the tables the parser reads.
pub fn usage() -> String {
    let title = "incprof — source-oriented phase identification (IncProf, CLUSTER 2022)";
    format!("{}\n{GLOBAL_HELP}", args::usage(title, COMMANDS, GLOBAL))
}

/// A collected run, as serialized to disk: the function table plus the
/// cumulative sample series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunDump {
    /// Function names, indexed by id.
    pub table: FunctionTable,
    /// Cumulative profile samples.
    pub series: SampleSeries,
}

/// Read a run dump back from disk, with its name index rebuilt.
fn load_dump(path: &Path) -> Result<RunDump, CliError> {
    let text = std::fs::read_to_string(path)?;
    let mut dump: RunDump = serde_json::from_str(&text)?;
    dump.table.rebuild_index();
    Ok(dump)
}

/// Write a run dump to disk, returning its sample count.
fn save_dump(path: &Path, table: FunctionTable, series: SampleSeries) -> Result<usize, CliError> {
    let dump = RunDump { table, series };
    std::fs::write(path, serde_json::to_string(&dump)?)?;
    Ok(dump.series.len())
}

/// CLI errors.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// I/O failure.
    Io(std::io::Error),
    /// Bad JSON.
    Json(serde_json::Error),
    /// Profile-data or pipeline failure.
    Pipeline(String),
    /// `incprof lint` found violations; the payload is the rendered
    /// report (already formatted for the terminal or as JSON).
    Lint(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "usage error: {m}"),
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Json(e) => write!(f, "JSON error: {e}"),
            CliError::Pipeline(m) => write!(f, "analysis error: {m}"),
            CliError::Lint(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<serde_json::Error> for CliError {
    fn from(e: serde_json::Error) -> Self {
        CliError::Json(e)
    }
}

impl From<incprof_serve::ClientError> for CliError {
    fn from(e: incprof_serve::ClientError) -> Self {
        CliError::Pipeline(format!("serve client: {e}"))
    }
}

fn pipeline(e: impl fmt::Display) -> CliError {
    CliError::Pipeline(e.to_string())
}

/// A bad command line (exit status 2).
fn usage_error<T>(message: impl Into<String>) -> Result<T, CliError> {
    Err(CliError::Usage(message.into()))
}

/// Parsed analysis options.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeOptions {
    /// Algorithm 1 coverage threshold.
    pub threshold: f64,
    /// k-sweep upper bound.
    pub k_max: usize,
    /// Use silhouette instead of elbow.
    pub silhouette: bool,
    /// Use DBSCAN with (eps, min_points).
    pub dbscan: Option<(f64, usize)>,
    /// Merge same-site phases after detection.
    pub merge: bool,
    /// Emit JSON.
    pub json: bool,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            threshold: 0.95,
            k_max: 8,
            silhouette: false,
            dbscan: None,
            merge: false,
            json: false,
        }
    }
}

/// The options shared by the three `analyze-*` commands.
fn analyze_options(p: &Parsed) -> Result<AnalyzeOptions, CliError> {
    let defaults = AnalyzeOptions::default();
    let threshold = p.num("--threshold")?.unwrap_or(defaults.threshold);
    if !(0.0..=1.0).contains(&threshold) {
        return usage_error("--threshold must be in [0, 1]");
    }
    let dbscan = match p.values("--dbscan") {
        Some(v) => Some((args::number(&v[0], "eps")?, args::number(&v[1], "min_pts")?)),
        None => None,
    };
    Ok(AnalyzeOptions {
        threshold,
        k_max: p.at_least("--kmax", 1)?.unwrap_or(defaults.k_max),
        silhouette: p.has("--silhouette"),
        dbscan,
        merge: p.has("--merge"),
        json: p.has("--json"),
    })
}

fn detector_for(opts: &AnalyzeOptions) -> PhaseDetector {
    let clustering = match opts.dbscan {
        Some((eps, min_points)) => ClusteringMethod::Dbscan(DbscanParams { eps, min_points }),
        None => ClusteringMethod::KMeans {
            k_max: opts.k_max,
            selection: if opts.silhouette {
                KSelectionMethod::Silhouette
            } else {
                KSelectionMethod::Elbow
            },
        },
    };
    PhaseDetector {
        clustering,
        coverage_threshold: opts.threshold,
        ..PhaseDetector::default()
    }
}

/// Run the pipeline on an interval matrix with the given options.
pub fn analyze(matrix: &IntervalMatrix, opts: &AnalyzeOptions) -> Result<PhaseAnalysis, CliError> {
    let mut analysis = detector_for(opts).detect(matrix).map_err(pipeline)?;
    if opts.merge {
        analysis = merge_phases_with_same_sites(&analysis);
    }
    Ok(analysis)
}

/// Render an analysis as the CLI's output (text table or JSON).
pub fn render(
    analysis: &PhaseAnalysis,
    matrix: &IntervalMatrix,
    table: &FunctionTable,
    opts: &AnalyzeOptions,
) -> Result<String, CliError> {
    if opts.json {
        Ok(serde_json::to_string_pretty(analysis)?)
    } else {
        let mut out = render_k_sweep(analysis);
        out.push('\n');
        out.push_str(&render_timeline(analysis));
        out.push('\n');
        out.push_str(&render_signatures(analysis, matrix, |id| table.name(id), 3));
        out.push('\n');
        out.push_str(&render_sites_table(
            "Discovered instrumentation sites",
            analysis,
            |id| table.name(id),
            &[],
        ));
        Ok(out)
    }
}

/// The tail every `analyze-*` command shares: interval profiles →
/// matrix → pipeline → rendered output.
fn analyze_intervals(
    intervals: Result<Vec<FlatProfile>, ProfileError>,
    table: &FunctionTable,
    opts: &AnalyzeOptions,
) -> Result<String, CliError> {
    let matrix = IntervalMatrix::from_interval_profiles(&intervals.map_err(pipeline)?);
    render(&analyze(&matrix, opts)?, &matrix, table, opts)
}

/// `incprof analyze-json`: analyze a collected run dump.
pub fn analyze_json(path: &Path, opts: &AnalyzeOptions) -> Result<String, CliError> {
    let dump = load_dump(path)?;
    analyze_intervals(dump.series.interval_profiles(), &dump.table, opts)
}

/// `incprof analyze-reports`: read every regular file in `dir` in
/// lexicographic name order as a cumulative gprof flat-profile text
/// report (one per interval).
pub fn analyze_reports(dir: &Path, opts: &AnalyzeOptions) -> Result<String, CliError> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    if paths.is_empty() {
        return usage_error(format!("no report files in {}", dir.display()));
    }
    let reports: Vec<String> = paths
        .iter()
        .map(std::fs::read_to_string)
        .collect::<Result<_, _>>()?;
    let (cumulative, table) = parse_reports(&reports).map_err(pipeline)?;
    let intervals = SampleSeries::deltas_of(&clamp_monotone(cumulative));
    analyze_intervals(intervals, &table, opts)
}

/// `incprof render-gmon`: write one binary `gmon.out.N` per sample —
/// the paper's literal on-disk artifact.
pub fn render_gmon_cmd(dump_path: &Path, out_dir: &Path) -> Result<String, CliError> {
    let dump = load_dump(dump_path)?;
    let n = incprof_collect::series_io::write_gmon_dir(&dump.series, &dump.table, out_dir)
        .map_err(pipeline)?;
    Ok(format!("wrote {n} gmon binaries to {}", out_dir.display()))
}

/// `incprof analyze-gmon`: analyze a directory of binary `gmon.out.N`
/// cumulative profiles.
pub fn analyze_gmon(dir: &Path, opts: &AnalyzeOptions) -> Result<String, CliError> {
    let (series, table) = incprof_collect::series_io::read_gmon_dir(dir).map_err(pipeline)?;
    if series.is_empty() {
        return usage_error(format!("no gmon files in {}", dir.display()));
    }
    analyze_intervals(series.interval_profiles(), &table, opts)
}

/// `incprof render-reports`: write one gprof flat-profile text report
/// per sample (the paper's renamed per-interval files).
pub fn render_reports_cmd(dump_path: &Path, out_dir: &Path) -> Result<String, CliError> {
    let dump = load_dump(dump_path)?;
    std::fs::create_dir_all(out_dir)?;
    let reports = incprof_collect::report_path::render_reports(&dump.series, &dump.table);
    for (i, report) in reports.iter().enumerate() {
        std::fs::write(out_dir.join(format!("gmon.out.{i:05}.txt")), report)?;
    }
    Ok(format!(
        "wrote {} reports to {}",
        reports.len(),
        out_dir.display()
    ))
}

/// `incprof demo`: generate a synthetic three-phase run dump for trying
/// out the analyze commands.
pub fn demo(out_path: &Path) -> Result<String, CliError> {
    use incprof_collect::{CollectorConfig, IncProfCollector};
    use incprof_runtime::{Clock, ProfilerRuntime};

    let clock = Clock::virtual_clock();
    let rt = ProfilerRuntime::with_clock(clock.clone());
    let setup = rt.register_function("setup_mesh");
    let solve = rt.register_function("implicit_solve");
    let output = rt.register_function("write_output");
    let collector = IncProfCollector::manual(rt.clone(), CollectorConfig::default());
    let second = 1_000_000_000u64;

    for _ in 0..8 {
        let _g = rt.enter(setup);
        clock.advance(second);
        drop(_g);
        collector.tick();
    }
    {
        let _g = rt.enter(solve);
        for _ in 0..25 {
            clock.advance(second);
            collector.tick();
        }
    }
    for _ in 0..5 {
        let _g = rt.enter(output);
        clock.advance(second);
        drop(_g);
        collector.tick();
    }

    let n = save_dump(out_path, rt.function_table(), collector.into_series())?;
    Ok(format!(
        "wrote a {n}-sample demo run to {}",
        out_path.display()
    ))
}

/// The workspace root `lint`, `sca`, `callgraph` and `serve` analyze:
/// the explicit `[root]` positional, else discovered upward from the
/// current directory.
fn workspace_root(cmd: &str, explicit: Option<&str>) -> Result<PathBuf, CliError> {
    if let Some(root) = explicit {
        return Ok(PathBuf::from(root));
    }
    match incprof_lint::find_workspace_root(&std::env::current_dir()?) {
        Some(root) => Ok(root),
        None => usage_error(format!(
            "no workspace root found; pass one: incprof {cmd} <root>"
        )),
    }
}

/// `incprof lint`'s configuration: `-D`, then `--allow`, `--warn` and
/// `--deny RULE` in that order, so the strictest mention of a rule wins.
fn lint_config(p: &Parsed) -> Result<incprof_lint::Config, CliError> {
    use incprof_lint::Severity::{Allow, Error, Warn};
    let mut cfg = incprof_lint::Config::default();
    cfg.deny_warnings = p.has("--deny-warnings");
    for (flag, severity) in [("--allow", Allow), ("--warn", Warn), ("--deny", Error)] {
        for text in p.all(flag).map(|v| &v[0]) {
            let rule = incprof_lint::RuleId::parse(text)
                .ok_or_else(|| CliError::Usage(format!("unknown lint rule {text}")))?;
            cfg.set_severity(rule, severity);
        }
    }
    Ok(cfg)
}

/// `incprof lint`: run the workspace invariant lints (D01..P01; see
/// `docs/LINTS.md`), or print the rule catalogue. Violations come back
/// as [`CliError::Lint`] carrying the rendered report, which the binary
/// prints before exiting nonzero.
fn lint_cmd(p: &Parsed) -> Result<String, CliError> {
    let cfg = lint_config(p)?;
    if p.has("--list-rules") {
        let rules = incprof_lint::RuleId::ALL.iter();
        let lines: Vec<String> = rules.map(|r| format!("{r}  {}", r.summary())).collect();
        return Ok(lines.join("\n"));
    }
    let report =
        incprof_lint::lint_workspace(&workspace_root("lint", p.rest.first().copied())?, &cfg)?;
    let rendered = if p.has("--json") {
        report.render_json()
    } else {
        report.render_human()
    };
    if report.is_clean() {
        Ok(rendered)
    } else {
        Err(CliError::Lint(rendered))
    }
}

/// Print `rendered`, or write it to the `--json <path>` of `sca` and
/// `callgraph` and print `summary` instead.
fn emit(p: &Parsed, rendered: String, summary: &str) -> Result<String, CliError> {
    match p.path("--json") {
        Some(path) => {
            std::fs::write(&path, &rendered)?;
            Ok(format!("{summary} written to {}", path.display()))
        }
        None => Ok(rendered),
    }
}

/// `incprof callgraph`: export the workspace apps' static call graph
/// (functions, confidence-labelled edges, hazard facts) as
/// deterministic JSON — the paper-facing bridge from detected phases
/// back to source structure.
fn callgraph_cmd(p: &Parsed) -> Result<String, CliError> {
    let root = workspace_root("callgraph", p.rest.first().copied())?;
    let analysis = incprof_lint::analyze_subtree(&root, "crates/apps/src")?;
    let rendered = analysis.graph.render_json(&analysis.symbols);
    emit(p, rendered, "static call graph")
}

/// `incprof sca`: the static-analysis gate. Runs the full multi-pass
/// lint (per-line rules plus the graph rules P02/D05/A01) over the
/// workspace, then emits a machine-readable report combining the
/// diagnostics, the analysis stats (functions, confident/ambiguous edge
/// counts), and the timed `lint.engine.run` span — the artifact CI
/// uploads on failure.
fn sca_cmd(p: &Parsed) -> Result<String, CliError> {
    let root = workspace_root("sca", p.rest.first().copied())?;
    let mut cfg = incprof_lint::Config::default();
    cfg.deny_warnings = p.has("--deny-warnings");
    let (report, analysis) = incprof_lint::lint_workspace_analyzed(&root, &cfg)?;
    let (confident, ambiguous) = analysis.graph.edge_counts();
    // The whole analysis ran under the `lint.engine.run` span; its last
    // closed record carries the wall time the sca gate asserts on.
    let elapsed_ms = incprof_obs::global()
        .spans()
        .records()
        .iter()
        .rev()
        .find(|r| r.closed && r.name == incprof_obs::names::LINT_RUN)
        .map_or(0, |r| r.dur_ns / 1_000_000);
    let functions = analysis.symbols.defs.len();
    let rendered = format!(
        "{{\"stats\":{{\"functions\":{functions},\"edges_confident\":{confident},\
         \"edges_ambiguous\":{ambiguous},\"elapsed_ms\":{elapsed_ms}}},\"lint\":{}}}",
        report.render_json(),
    );
    let summary = format!(
        "sca: {functions} functions, {confident} confident / {ambiguous} ambiguous edges, \
         {} diagnostics in {elapsed_ms} ms; report",
        report.diagnostics.len(),
    );
    let output = emit(p, rendered, &summary)?;
    if report.is_clean() {
        Ok(output)
    } else {
        Err(CliError::Lint(output))
    }
}

/// Top-level entry: strip the global flags, dispatch, and (when
/// requested) write the observability run report — on failure too, so a
/// crashed analysis still leaves its metrics behind.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let globals = args::strip("global", GLOBAL, args)?;
    if globals.has("--verbose") {
        incprof_obs::logger::raise_level(incprof_obs::Level::Debug);
    }
    if let Some(n) = globals.at_least("--threads", 1)? {
        incprof_par::set_threads(n);
    }
    let rest: Vec<String> = globals.rest.iter().map(|s| s.to_string()).collect();
    let result = dispatch(&rest);
    if let Some(path) = globals.path("--metrics") {
        let report = incprof_obs::report();
        match report.write(&path) {
            Ok(()) => incprof_obs::debug!("wrote run report to {}", path.display()),
            Err(e) if result.is_ok() => return Err(CliError::Io(e)),
            Err(e) => incprof_obs::error!("failed to write run report: {e}"),
        }
    }
    result
}

/// The [`COMMANDS`] row of a subcommand.
fn spec(cmd: &str) -> Result<&'static Spec, CliError> {
    let found = COMMANDS.iter().find(|s| s.cmd == cmd);
    found.ok_or_else(|| CliError::Usage(format!("unknown command {cmd}")))
}

/// Command dispatch over already-stripped arguments.
fn dispatch(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return usage_error("no command given");
    };
    let spec = spec(cmd)?;
    (spec.run)(&spec.parse(rest)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    /// The global pass of [`run`].
    fn split_global_flags(args: &[String]) -> Result<Parsed<'_>, CliError> {
        args::strip("global", GLOBAL, args)
    }

    /// The `analyze-*` options of a line, as `analyze-json d.json <args>`
    /// parses them.
    fn parse_options(args: &[String]) -> Result<AnalyzeOptions, CliError> {
        let line = [s(&["d.json"]), args.to_vec()].concat();
        analyze_options(&spec("analyze-json")?.parse(&line)?)
    }

    #[test]
    fn options_parse_defaults_and_flags() {
        assert_eq!(parse_options(&[]).unwrap(), AnalyzeOptions::default());
        let o = parse_options(&s(&[
            "--threshold",
            "0.9",
            "--kmax",
            "5",
            "--silhouette",
            "--merge",
            "--json",
        ]))
        .unwrap();
        assert_eq!(o.threshold, 0.9);
        assert_eq!(o.k_max, 5);
        assert!(o.silhouette && o.merge && o.json);
        let d = parse_options(&s(&["--dbscan", "0.3", "4"])).unwrap();
        assert_eq!(d.dbscan, Some((0.3, 4)));
    }

    #[test]
    fn options_reject_garbage() {
        assert!(parse_options(&s(&["--threshold"])).is_err());
        assert!(parse_options(&s(&["--threshold", "2.0"])).is_err());
        assert!(parse_options(&s(&["--kmax", "0"])).is_err());
        assert!(parse_options(&s(&["--wat"])).is_err());
        assert!(parse_options(&s(&["--dbscan", "0.3"])).is_err());
    }

    #[test]
    fn demo_then_analyze_json_roundtrip() {
        let dir = std::env::temp_dir().join(format!("incprof_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("demo.json");
        demo(&dump).unwrap();
        let text = analyze_json(&dump, &AnalyzeOptions::default()).unwrap();
        assert!(text.contains("chosen k = 3"), "{text}");
        assert!(text.contains("implicit_solve"));
        assert!(text.contains("setup_mesh"));
        // JSON mode parses back as an analysis.
        let json = analyze_json(
            &dump,
            &AnalyzeOptions {
                json: true,
                ..Default::default()
            },
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["k"], 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reports_roundtrip_through_directory() {
        let dir = std::env::temp_dir().join(format!("incprof_cli_reports_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("demo.json");
        demo(&dump).unwrap();
        let reports_dir = dir.join("reports");
        let msg = render_reports_cmd(&dump, &reports_dir).unwrap();
        assert!(msg.contains("reports"));
        let text = analyze_reports(&reports_dir, &AnalyzeOptions::default()).unwrap();
        assert!(text.contains("chosen k = 3"), "{text}");
        assert!(text.contains("implicit_solve"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dispatch_reports_usage_errors() {
        assert!(run(&[]).is_err());
        assert!(run(&s(&["bogus"])).is_err());
        assert!(run(&s(&["demo"])).is_err());
        assert!(run(&s(&["analyze-reports"])).is_err());
    }

    #[test]
    fn global_flags_are_stripped_anywhere() {
        let line = s(&["analyze-json", "--metrics", "m.json", "d.json", "--verbose"]);
        let g = split_global_flags(&line).unwrap();
        assert_eq!(g.path("--metrics").as_deref(), Some(Path::new("m.json")));
        assert!(g.has("--verbose"));
        assert_eq!(g.rest, ["analyze-json", "d.json"]);
        assert!(matches!(
            split_global_flags(&s(&["demo", "--metrics"])),
            Err(CliError::Usage(_))
        ));
        let line = s(&["demo", "x.json"]);
        let g = split_global_flags(&line).unwrap();
        assert!(GLOBAL.iter().all(|f| !g.has(f.names)));
        assert_eq!(g.rest, ["demo", "x.json"]);
    }

    #[test]
    fn threads_flag_parses_and_rejects_garbage() {
        let threads = |line: &[&str]| split_global_flags(&s(line))?.at_least("--threads", 1usize);
        let line = s(&["--threads", "4", "demo", "x.json"]);
        let g = split_global_flags(&line).unwrap();
        assert_eq!(g.at_least("--threads", 1).unwrap(), Some(4));
        assert_eq!(g.rest, ["demo", "x.json"]);
        assert!(matches!(threads(&["--threads"]), Err(CliError::Usage(_))));
        assert!(matches!(
            threads(&["--threads", "0"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            threads(&["--threads", "many"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn metrics_flag_writes_run_report() {
        let dir = std::env::temp_dir().join(format!("incprof_cli_obs_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("demo.json");
        let metrics = dir.join("metrics.json");
        run(&s(&["demo", dump.to_str().unwrap()])).unwrap();
        run(&s(&[
            "analyze-json",
            dump.to_str().unwrap(),
            "--json",
            "--metrics",
            metrics.to_str().unwrap(),
        ]))
        .unwrap();

        let report =
            incprof_obs::RunReport::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        // Collector activity from the demo run (wall-clock snapshot cost
        // is nonzero even under the virtual profiling clock).
        assert!(report.counters["collect.snapshot.count"] > 0);
        let lat = &report.histograms["collect.snapshot.latency_ns"];
        assert!(
            lat.count > 0 && lat.sum > 0,
            "snapshot latencies must be nonzero"
        );
        // Per-k k-means iteration counts from the sweep.
        let kmeans_counters: Vec<_> = report
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("cluster.kmeans.iterations.k"))
            .collect();
        assert!(
            kmeans_counters.len() >= 2,
            "expected a k sweep, got {kmeans_counters:?}"
        );
        assert!(kmeans_counters.iter().all(|(_, &v)| v > 0));
        // The pipeline span tree: detect with its stages as children, and
        // the stages accounting for (almost) all of the total.
        let detect = report
            .find_span(incprof_obs::names::CORE_PIPELINE_DETECT)
            .expect("detect span");
        let stages: Vec<&str> = detect.children.iter().map(|c| c.name.as_str()).collect();
        assert!(stages.contains(&"core.pipeline.features"), "{stages:?}");
        assert!(stages.contains(&"core.pipeline.cluster"), "{stages:?}");
        assert!(stages.contains(&"core.pipeline.algorithm1"), "{stages:?}");
        assert!(detect.children_dur_ns() <= detect.dur_ns);
        assert!(
            detect.children_dur_ns() as f64 >= 0.95 * detect.dur_ns as f64,
            "stages cover {} of {} ns",
            detect.children_dur_ns(),
            detect.dur_ns
        );
        // JSONL variant writes one record per line.
        let jsonl = dir.join("metrics.jsonl");
        run(&s(&[
            "demo",
            dump.to_str().unwrap(),
            "--metrics",
            jsonl.to_str().unwrap(),
        ]))
        .unwrap();
        let text = std::fs::read_to_string(&jsonl).unwrap();
        assert!(text.lines().count() > 3);
        assert!(text.lines().all(|l| l.starts_with('{')));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lint_subcommand_runs_clean_on_this_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let root = root.to_str().unwrap();
        let out = run(&s(&["lint", root])).unwrap();
        assert!(out.contains("0 errors"), "{out}");
        let json = run(&s(&["lint", root, "--json", "-D"])).unwrap();
        assert!(json.contains("\"files_scanned\""), "{json}");
        assert!(matches!(
            run(&s(&["lint", "--bogus"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&s(&["lint", root, "extra"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn analyze_reports_on_empty_dir_errors() {
        let dir = std::env::temp_dir().join(format!("incprof_cli_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            analyze_reports(&dir, &AnalyzeOptions::default()),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_and_dbscan_paths_execute() {
        let dir = std::env::temp_dir().join(format!("incprof_cli_opts_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("demo.json");
        demo(&dump).unwrap();
        let merged = analyze_json(
            &dump,
            &AnalyzeOptions {
                merge: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(merged.contains("Discovered"));
        let db = analyze_json(
            &dump,
            &AnalyzeOptions {
                dbscan: Some((0.3, 2)),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(db.contains("Discovered"));
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod table_tests {
    use super::*;

    /// A valid value for every placeholder the tables use.
    fn sample(placeholder: &str) -> String {
        let value = match placeholder {
            "n" | "session-id" | "<session-id>" => "3",
            "f" | "eps" => "0.3",
            "min_pts" => "4",
            "RULE" => "D04",
            "host:port" | "<addr>" | "<admin-addr>" => "127.0.0.1:1",
            "data[,admin]" => "127.0.0.1:1,127.0.0.1:2",
            "hot=H,stride=S[,max_bytes=B]" => "hot=2,stride=4",
            _path_or_dir => "some/where",
        };
        value.to_string()
    }

    fn samples(placeholders: &str) -> Vec<String> {
        placeholders.split_whitespace().map(sample).collect()
    }

    fn usage_message(result: Result<Parsed<'_>, CliError>) -> String {
        match result {
            Err(CliError::Usage(message)) => message,
            Err(other) => panic!("expected a usage error, got {other}"),
            Ok(_) => panic!("expected a usage error, got a parse"),
        }
    }

    #[test]
    fn every_row_of_every_spec_parses_and_its_errors_name_the_subcommand() {
        for spec in COMMANDS {
            let cmd = spec.cmd;
            let positionals = samples(spec.positionals);
            for flag in spec.flags {
                let values = samples(flag.values);
                for name in flag.names.split('|') {
                    // Given twice, before and after the positionals.
                    let given = [vec![name.to_string()], values.clone()].concat();
                    let line = [given.clone(), positionals.clone(), given.clone()].concat();
                    let p = spec
                        .parse(&line)
                        .unwrap_or_else(|e| panic!("{cmd} {name}: {e}"));
                    assert!(p.has(name), "{cmd} {name}");
                    assert_eq!(p.values(name), Some(&values[..]), "{cmd} {name}");
                    assert_eq!(p.all(name).count(), 2, "{cmd} {name}");
                    assert_eq!(p.rest, positionals, "{cmd} {name}");
                    if !values.is_empty() {
                        let short = [positionals.clone(), given[..given.len() - 1].to_vec()];
                        let message = usage_message(spec.parse(&short.concat()));
                        assert!(message.contains(cmd) && message.contains(name), "{message}");
                    }
                }
            }
            // (a) a single-dash typo is an unknown option, not a positional.
            for typo in ["-x", "--x"] {
                let line = [vec![typo.to_string()], positionals.clone()].concat();
                let message = usage_message(spec.parse(&line));
                assert_eq!(message, format!("unknown {cmd} option {typo}"));
            }
            let line = [positionals.clone(), vec!["extra".to_string()]].concat();
            let message = usage_message(spec.parse(&line));
            assert_eq!(message, format!("unexpected extra {cmd} argument extra"));
            if spec.positionals.contains('<') {
                let message = usage_message(spec.parse(&[]));
                assert!(message.contains(&format!("incprof {cmd} <")), "{message}");
            }
        }
    }

    #[test]
    fn generated_banner_lists_every_name_of_every_row() {
        let banner = usage();
        let (commands, global) = banner.split_once("\nglobal options").unwrap();
        // One synopsis per spec, in table order, after the title.
        let sections: Vec<&str> = commands.split("\n  incprof ").skip(1).collect();
        assert_eq!(sections.len(), COMMANDS.len(), "{banner}");
        let lists = |section: &str, flags: &[Flag]| {
            let words = flags.iter().flat_map(|f| [f.names, f.values]);
            words
                .flat_map(|text| text.split([' ', '|']))
                .all(|word| section.contains(word))
        };
        for (spec, section) in COMMANDS.iter().zip(sections) {
            let head = format!("{} {}", spec.cmd, spec.positionals);
            assert!(section.starts_with(head.trim_end()), "{section}");
            assert!(lists(section, spec.flags), "{section}");
        }
        assert!(lists(global, GLOBAL), "{global}");
        // The explanatory footer describes global rows and nothing else.
        for line in GLOBAL_HELP.lines().filter(|l| l.starts_with("  --")) {
            let name = line.split_whitespace().next().unwrap_or_default();
            assert!(GLOBAL.iter().any(|f| f.names == name), "{name}");
        }
    }

    #[test]
    fn global_flags_are_stripped_before_and_after_the_subcommand() {
        let command = vec!["demo".to_string(), "x.json".to_string()];
        for flag in GLOBAL {
            let given = [vec![flag.names.to_string()], samples(flag.values)].concat();
            for line in [
                [given.clone(), command.clone()].concat(),
                [command.clone(), given.clone()].concat(),
            ] {
                let globals = args::strip("global", GLOBAL, &line).unwrap();
                assert!(globals.has(flag.names), "{line:?}");
                assert_eq!(globals.rest, command, "{line:?}");
            }
            if !flag.values.is_empty() {
                let line = [command.clone(), vec![flag.names.to_string()]].concat();
                let stripped = args::strip("global", GLOBAL, &line);
                assert!(matches!(stripped, Err(CliError::Usage(_))));
            }
        }
    }

    #[test]
    fn lint_severity_flags_and_rule_catalogue_survive_the_lint_binary() {
        let line = crate::tests::s;
        let catalogue = run(&line(&["lint", "--list-rules"])).unwrap();
        for rule in incprof_lint::RuleId::ALL {
            assert!(catalogue.contains(&rule.to_string()), "{catalogue}");
        }
        let args = line(&["--allow", "D04", "--warn", "P01", "--deny", "D04", "-D"]);
        let cfg = lint_config(&spec("lint").unwrap().parse(&args).unwrap()).unwrap();
        use incprof_lint::{RuleId, Severity};
        assert_eq!(
            cfg.severity(RuleId::D04),
            Severity::Error,
            "deny beats allow"
        );
        assert_eq!(cfg.severity(RuleId::P01), Severity::Warn);
        assert!(cfg.deny_warnings);
        assert!(matches!(
            run(&line(&["lint", "--allow", "Z99"])),
            Err(CliError::Usage(_))
        ));
    }
}

#[cfg(test)]
mod gmon_cli_tests {
    use super::*;

    #[test]
    fn gmon_directory_roundtrip_via_cli() {
        let dir = std::env::temp_dir().join(format!("incprof_cli_gmon_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dump = dir.join("demo.json");
        demo(&dump).unwrap();
        let gmon_dir = dir.join("gmons");
        let msg = render_gmon_cmd(&dump, &gmon_dir).unwrap();
        assert!(msg.contains("gmon binaries"));
        let text = analyze_gmon(&gmon_dir, &AnalyzeOptions::default()).unwrap();
        assert!(text.contains("chosen k = 3"), "{text}");
        assert!(text.contains("implicit_solve"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_gmon_empty_dir_is_usage_error() {
        let dir =
            std::env::temp_dir().join(format!("incprof_cli_gmon_empty_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            analyze_gmon(&dir, &AnalyzeOptions::default()),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}

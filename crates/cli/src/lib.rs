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
use incprof_obs::{JsonWriter, Raw};
use incprof_profile::{FlatProfile, FunctionTable, ProfileError};
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
        positionals: "<dir>",
        flags: &[],
        run: |p| demo(Path::new(p.rest[0])),
    },
    Spec {
        cmd: "render-reports",
        positionals: "<gmon-dir> <out-dir>",
        flags: &[],
        run: |p| render_reports_cmd(Path::new(p.rest[0]), Path::new(p.rest[1])),
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
        cmd: "lint",
        positionals: "[root]",
        flags: &[
            flag("--json", "path"),
            flag("-D|--deny-warnings", ""),
            flag("--allow", "RULE"),
            flag("--warn", "RULE"),
            flag("--deny", "RULE"),
            flag("--list-rules", ""),
        ],
        run: lint_cmd,
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
        positionals: "<addr> <dir>",
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
        positionals: "<dir>",
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

/// Read a collected run: a directory of `gmon.out.N` cumulative
/// profiles, one per interval, as the paper's collector leaves them and
/// `demo` and `collect` write them (`series_io::write_gmon_dir`). An
/// empty directory is a usage error.
fn load_run(dir: &Path) -> Result<SampleSeries, CliError> {
    let series = incprof_collect::series_io::read_gmon_dir(dir).map_err(pipeline)?;
    if series.is_empty() {
        return usage_error(format!("no gmon files in {}", dir.display()));
    }
    Ok(series)
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
    /// `incprof lint` found violations; the payload is the human report,
    /// or the summary line when the report went to `--json <path>`.
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

/// The options shared by the two `analyze-*` commands.
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
    let (mut cumulative, table) = parse_reports(&reports).map_err(pipeline)?;
    let raised = clamp_monotone(&mut cumulative);
    let out = analyze_intervals(SampleSeries::deltas_of(&cumulative), &table, opts)?;
    // Counters a report lowered, raised back to keep the series
    // cumulative; stdout stays one document under --json.
    let note = format!("counters raised to keep the reports cumulative: {raised}");
    if opts.json {
        eprintln!("{note}");
        Ok(out)
    } else {
        Ok(format!("{out}\n{note}"))
    }
}

/// `incprof analyze-gmon`: analyze a collected run, a directory of
/// binary `gmon.out.N` cumulative profiles.
pub fn analyze_gmon(dir: &Path, opts: &AnalyzeOptions) -> Result<String, CliError> {
    let series = load_run(dir)?;
    // The newest sample's table. It names every id of the run when the
    // run's table only grew by appending, as it does in a collected run.
    let table = &series
        .last()
        .expect("load_run refuses an empty run")
        .functions;
    analyze_intervals(series.interval_profiles(), table, opts)
}

/// `incprof render-reports`: write one gprof flat-profile text report
/// per sample of a collected run (the paper's per-interval reports).
pub fn render_reports_cmd(run_dir: &Path, out_dir: &Path) -> Result<String, CliError> {
    let series = load_run(run_dir)?;
    std::fs::create_dir_all(out_dir)?;
    let reports = incprof_collect::report_path::render_reports(&series);
    let last = reports.len().saturating_sub(1) as u64;
    for (i, report) in reports.iter().enumerate() {
        let name = incprof_collect::series_io::sample_name(i as u64, last);
        std::fs::write(out_dir.join(format!("{name}.txt")), report)?;
    }
    Ok(format!(
        "wrote {} reports to {}",
        reports.len(),
        out_dir.display()
    ))
}

/// `incprof demo`: collect a synthetic three-phase run into `out_dir`
/// for trying out the other commands.
pub fn demo(out_dir: &Path) -> Result<String, CliError> {
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

    let series = collector.into_series();
    let n = incprof_collect::series_io::write_gmon_dir(&series, out_dir).map_err(pipeline)?;
    Ok(format!(
        "wrote a {n}-sample demo run to {}",
        out_dir.display()
    ))
}

/// The workspace root `lint` and `serve` analyze:
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

/// `incprof lint`: the static-analysis gate, or the rule catalogue.
/// Runs the full multi-pass lint (per-line rules plus the graph rules
/// P02/D05/A01; see `docs/LINTS.md`) over the workspace and prints the
/// human report. With `--json <path>` it writes the machine-readable
/// report instead — the diagnostics, the analysis stats (functions,
/// confident/ambiguous edge counts) and the timed `lint.engine.run`
/// span, the artifact CI uploads on failure — and prints a summary.
/// Violations come back as [`CliError::Lint`] carrying that output,
/// which the binary prints before exiting nonzero.
fn lint_cmd(p: &Parsed) -> Result<String, CliError> {
    let cfg = lint_config(p)?;
    if p.has("--list-rules") {
        let rules = incprof_lint::RuleId::ALL.iter();
        let lines: Vec<String> = rules.map(|r| format!("{r}  {}", r.summary())).collect();
        return Ok(lines.join("\n"));
    }
    let root = workspace_root("lint", p.rest.first().copied())?;
    let (report, analysis) = incprof_lint::lint_workspace_analyzed(&root, &cfg)?;
    let output = if p.has("--json") {
        let (confident, ambiguous) = analysis.graph.edge_counts();
        // The whole analysis ran under the `lint.engine.run` span; its last
        // closed record carries the wall time the lint gate asserts on.
        let elapsed_ms = incprof_obs::global()
            .spans()
            .records()
            .iter()
            .rev()
            .find(|r| r.closed && r.name == incprof_obs::names::LINT_RUN)
            .map_or(0, |r| r.dur_ns / 1_000_000);
        let functions = analysis.symbols.defs.len();
        let rendered = JsonWriter::object(|w| {
            w.key("stats")
                .open('{')
                .field("functions", functions)
                .field("edges_confident", confident)
                .field("edges_ambiguous", ambiguous)
                .field("elapsed_ms", elapsed_ms)
                .close('}')
                .field("lint", Raw(&report.render_json()))
        });
        let summary = format!(
            "lint: {functions} functions, {confident} confident / {ambiguous} ambiguous edges, \
             {} diagnostics in {elapsed_ms} ms; report",
            report.diagnostics.len(),
        );
        emit(p, rendered, &summary)?
    } else {
        report.render_human()
    };
    if report.is_clean() {
        Ok(output)
    } else {
        Err(CliError::Lint(output))
    }
}

/// Print `rendered`, or write it to `lint`'s `--json <path>` and print
/// `summary` instead.
fn emit(p: &Parsed, rendered: String, summary: &str) -> Result<String, CliError> {
    match p.path("--json") {
        Some(path) => {
            std::fs::write(&path, &rendered)?;
            Ok(format!("{summary} written to {}", path.display()))
        }
        None => Ok(rendered),
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

    /// The `analyze-*` options of a line, as `analyze-gmon run <args>`
    /// parses them.
    fn parse_options(args: &[String]) -> Result<AnalyzeOptions, CliError> {
        let line = [s(&["run"]), args.to_vec()].concat();
        analyze_options(&spec("analyze-gmon")?.parse(&line)?)
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

    /// A fresh scratch directory for one test.
    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("incprof_cli_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn demo_then_analyze_gmon_roundtrip() {
        let dir = tmpdir("test");
        let run = dir.join("run");
        demo(&run).unwrap();
        let text = analyze_gmon(&run, &AnalyzeOptions::default()).unwrap();
        assert!(text.contains("chosen k = 3"), "{text}");
        assert!(text.contains("implicit_solve"));
        assert!(text.contains("setup_mesh"));
        // A second run into the same directory is refused; `collect`
        // refuses it before collecting anything.
        assert!(matches!(demo(&run), Err(CliError::Pipeline(_))));
        let collect = crate::run(&s(&["collect", run.to_str().unwrap()]));
        assert!(matches!(collect, Err(CliError::Pipeline(_))), "{collect:?}");
        // JSON mode parses back as an analysis.
        let json = analyze_gmon(
            &run,
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
        let dir = tmpdir("reports");
        let run = dir.join("run");
        demo(&run).unwrap();
        let reports_dir = dir.join("reports");
        let msg = render_reports_cmd(&run, &reports_dir).unwrap();
        assert!(msg.contains("reports"));
        let text = analyze_reports(&reports_dir, &AnalyzeOptions::default()).unwrap();
        assert!(text.contains("chosen k = 3"), "{text}");
        assert!(
            text.ends_with("counters raised to keep the reports cumulative: 0"),
            "{text}"
        );
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
        let line = s(&["analyze-gmon", "--metrics", "m.json", "run", "--verbose"]);
        let g = split_global_flags(&line).unwrap();
        assert_eq!(g.path("--metrics").as_deref(), Some(Path::new("m.json")));
        assert!(g.has("--verbose"));
        assert_eq!(g.rest, ["analyze-gmon", "run"]);
        assert!(matches!(
            split_global_flags(&s(&["demo", "--metrics"])),
            Err(CliError::Usage(_))
        ));
        let line = s(&["demo", "run"]);
        let g = split_global_flags(&line).unwrap();
        assert!(GLOBAL.iter().all(|f| !g.has(f.names)));
        assert_eq!(g.rest, ["demo", "run"]);
    }

    #[test]
    fn threads_flag_parses_and_rejects_garbage() {
        let threads = |line: &[&str]| split_global_flags(&s(line))?.at_least("--threads", 1usize);
        let line = s(&["--threads", "4", "demo", "run"]);
        let g = split_global_flags(&line).unwrap();
        assert_eq!(g.at_least("--threads", 1).unwrap(), Some(4));
        assert_eq!(g.rest, ["demo", "run"]);
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
        let dir = tmpdir("obs");
        let demo_run = dir.join("run");
        let metrics = dir.join("metrics.json");
        run(&s(&["demo", demo_run.to_str().unwrap()])).unwrap();
        run(&s(&[
            "analyze-gmon",
            demo_run.to_str().unwrap(),
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
            dir.join("run2").to_str().unwrap(),
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
        let dir = std::env::temp_dir().join(format!("incprof_cli_lint_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        let out = run(&s(&["lint", root, "--json", path.to_str().unwrap(), "-D"])).unwrap();
        assert!(out.contains("0 diagnostics"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"edges_confident\""), "{json}");
        assert!(json.contains("\"files_scanned\""), "{json}");
        std::fs::remove_dir_all(&dir).ok();
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
    fn lint_json_document_is_pinned() {
        let dir = std::env::temp_dir().join(format!("incprof_cli_lint_pin_{}", std::process::id()));
        let src = dir.join("crates/core/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "pub fn run(v: Option<u8>) -> u8 {\n    incprof_obs::counter(\"core.demo.runs\").inc();\n    helper(v).expect(\"a \\\"quoted\\\" reason\")\n}\n\nfn helper(v: Option<u8>) -> Option<u8> {\n    v\n}\n",
        )
        .unwrap();
        let path = dir.join("report.json");
        let out = run(&s(&[
            "lint",
            dir.to_str().unwrap(),
            "--json",
            path.to_str().unwrap(),
        ]));
        assert!(matches!(out, Err(CliError::Lint(_))), "{out:?}");
        let json = std::fs::read_to_string(&path).unwrap();
        // The one wall-clock field: keep its key, blank its value.
        let (head, tail) = json.split_once("\"elapsed_ms\":").unwrap();
        let tail = tail.trim_start_matches(|c: char| c.is_ascii_digit());
        assert_eq!(format!("{head}\"elapsed_ms\":_{tail}"), LINT_JSON);
        std::fs::remove_dir_all(&dir).ok();
    }

    const LINT_JSON: &str = r#"{"stats":{"functions":2,"edges_confident":1,"edges_ambiguous":0,"elapsed_ms":_},"lint":{
  "files_scanned": 1,
  "errors": 2,
  "warnings": 0,
  "suppressions_used": 0,
  "counts": {"O01": 1, "P01": 1},
  "diagnostics": [
    {"rule":"O01","severity":"error","file":"crates/core/src/lib.rs","line":2,"message":"metric/span name built at the `counter` call site; declare it in `incprof_obs::names` and reference the constant (or helper) so names cannot typo or fork","excerpt":"incprof_obs::counter(\"core.demo.runs\").inc();"},
    {"rule":"P01","severity":"error","file":"crates/core/src/lib.rs","line":3,"message":"`.expect()` in library code: propagate the error, or mark the invariant with `// lint: allow(P01, <why it cannot fail>)`","excerpt":"helper(v).expect(\"a \\\"quoted\\\" reason\")"}
  ]
}}"#;

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
    fn analyze_gmon_empty_dir_is_usage_error() {
        let dir = tmpdir("gmon_empty");
        assert!(matches!(
            analyze_gmon(&dir, &AnalyzeOptions::default()),
            Err(CliError::Usage(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn merge_and_dbscan_paths_execute() {
        let dir = tmpdir("opts");
        let run = dir.join("run");
        demo(&run).unwrap();
        let merged = analyze_gmon(
            &run,
            &AnalyzeOptions {
                merge: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(merged.contains("Discovered"));
        let db = analyze_gmon(
            &run,
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
        let command = vec!["demo".to_string(), "run".to_string()];
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

//! # incprof-cli
//!
//! The `incprof` command-line tool: run the phase-detection pipeline on
//! data from disk, mirroring how the paper's tooling was driven.
//!
//! ```text
//! incprof demo <dump.json>              generate a synthetic run dump
//! incprof render-reports <dump> <dir>   write per-sample gprof reports
//! incprof analyze-reports <dir> [opts]  analyze a directory of gprof
//!                                       flat-profile text reports (one
//!                                       cumulative report per interval,
//!                                       lexicographic file order)
//! incprof analyze-json <dump> [opts]    analyze a collected run dump
//! incprof lint [root] [--json] [-D]     run the workspace invariant
//!                                       lints (see docs/LINTS.md)
//! incprof serve [opts]                  run the streaming phase-detection
//!                                       daemon (docs/PROTOCOL.md)
//! incprof push <addr> <dump.json>       replay a run dump into a daemon
//!                                       and print its phase report
//! incprof query <addr> <session-id>     print an existing (or disk-
//!                                       recovered) session's report
//! incprof collect <out.json> [opts]     wall-clock collection of a
//!                                       synthetic workload until Ctrl-C
//!
//! options: --threshold <f>   Algorithm 1 coverage threshold (0.95)
//!          --kmax <n>        maximum k for the sweep (8)
//!          --silhouette      select k by silhouette instead of elbow
//!          --dbscan <eps> <min_pts>   cluster with DBSCAN
//!          --merge           merge phases sharing instrumentation sites
//!          --json            emit the analysis as JSON instead of text
//!
//! global:  --metrics <path>  write an observability run report on exit
//!          --verbose         raise logging to debug
//!          --threads <n>     analysis worker threads (default: the
//!                            INCPROF_THREADS environment variable, else
//!                            all available cores)
//! ```
//!
//! Exit status: 0 on success, 2 on usage errors, 1 on runtime (I/O,
//! JSON, pipeline) errors.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod serve_cmd;
mod shard_cmd;
pub use serve_cmd::{collect_cmd, push_cmd, query_cmd, serve_cmd, top_cmd};
pub use shard_cmd::shard_cmd;

use incprof_cluster::{DbscanParams, KSelectionMethod};
use incprof_collect::report_path::{clamp_monotone, parse_reports};
use incprof_collect::{IntervalMatrix, SampleSeries};
use incprof_core::merge::merge_phases_with_same_sites;
use incprof_core::report::{
    render_k_sweep, render_signatures, render_sites_table, render_timeline,
};
use incprof_core::{ClusteringMethod, PhaseAnalysis, PhaseDetector};
use incprof_profile::FunctionTable;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

/// A collected run, as serialized to disk: the function table plus the
/// cumulative sample series.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunDump {
    /// Function names, indexed by id.
    pub table: FunctionTable,
    /// Cumulative profile samples.
    pub series: SampleSeries,
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

/// Parse trailing options (everything after the positional args).
pub fn parse_options(args: &[String]) -> Result<AnalyzeOptions, CliError> {
    let mut opts = AnalyzeOptions::default();
    let mut i = 0;
    let take = |i: &mut usize, what: &str| -> Result<String, CliError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| CliError::Usage(format!("{what} requires a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--threshold" => {
                opts.threshold = take(&mut i, "--threshold")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("bad --threshold: {e}")))?;
                if !(0.0..=1.0).contains(&opts.threshold) {
                    return Err(CliError::Usage("--threshold must be in [0, 1]".into()));
                }
            }
            "--kmax" => {
                opts.k_max = take(&mut i, "--kmax")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("bad --kmax: {e}")))?;
                if opts.k_max == 0 {
                    return Err(CliError::Usage("--kmax must be at least 1".into()));
                }
            }
            "--silhouette" => opts.silhouette = true,
            "--dbscan" => {
                let eps: f64 = take(&mut i, "--dbscan")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("bad eps: {e}")))?;
                let min_points: usize = take(&mut i, "--dbscan")?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("bad min_points: {e}")))?;
                opts.dbscan = Some((eps, min_points));
            }
            "--merge" => opts.merge = true,
            "--json" => opts.json = true,
            other => return Err(CliError::Usage(format!("unknown option {other}"))),
        }
        i += 1;
    }
    Ok(opts)
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
    let mut analysis = detector_for(opts)
        .detect(matrix)
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
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

/// `incprof analyze-json <dump> [opts]`.
pub fn analyze_json(path: &Path, opts: &AnalyzeOptions) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path)?;
    let mut dump: RunDump = serde_json::from_str(&text)?;
    dump.table.rebuild_index();
    let intervals = dump
        .series
        .interval_profiles()
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    let matrix = IntervalMatrix::from_interval_profiles(&intervals);
    let analysis = analyze(&matrix, opts)?;
    render(&analysis, &matrix, &dump.table, opts)
}

/// `incprof analyze-reports <dir> [opts]`: read every regular file in
/// `dir` in lexicographic name order as a cumulative gprof flat-profile
/// text report.
pub fn analyze_reports(dir: &Path, opts: &AnalyzeOptions) -> Result<String, CliError> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(CliError::Usage(format!(
            "no report files in {}",
            dir.display()
        )));
    }
    let reports: Vec<String> = paths
        .iter()
        .map(std::fs::read_to_string)
        .collect::<Result<_, _>>()?;
    let (cumulative, table) =
        parse_reports(&reports).map_err(|e| CliError::Pipeline(e.to_string()))?;
    let clamped = clamp_monotone(cumulative);
    let intervals =
        SampleSeries::deltas_of(&clamped).map_err(|e| CliError::Pipeline(e.to_string()))?;
    let matrix = IntervalMatrix::from_interval_profiles(&intervals);
    let analysis = analyze(&matrix, opts)?;
    render(&analysis, &matrix, &table, opts)
}

/// `incprof render-gmon <dump> <dir>`: write one binary `gmon.out.N`
/// per sample — the paper's literal on-disk artifact.
pub fn render_gmon_cmd(dump_path: &Path, out_dir: &Path) -> Result<String, CliError> {
    let text = std::fs::read_to_string(dump_path)?;
    let mut dump: RunDump = serde_json::from_str(&text)?;
    dump.table.rebuild_index();
    let n = incprof_collect::series_io::write_gmon_dir(&dump.series, &dump.table, out_dir)
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    Ok(format!("wrote {n} gmon binaries to {}", out_dir.display()))
}

/// `incprof analyze-gmon <dir> [opts]`: analyze a directory of binary
/// `gmon.out.N` cumulative profiles.
pub fn analyze_gmon(dir: &Path, opts: &AnalyzeOptions) -> Result<String, CliError> {
    let (series, table) = incprof_collect::series_io::read_gmon_dir(dir)
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    if series.is_empty() {
        return Err(CliError::Usage(format!(
            "no gmon files in {}",
            dir.display()
        )));
    }
    let intervals = series
        .interval_profiles()
        .map_err(|e| CliError::Pipeline(e.to_string()))?;
    let matrix = IntervalMatrix::from_interval_profiles(&intervals);
    let analysis = analyze(&matrix, opts)?;
    render(&analysis, &matrix, &table, opts)
}

/// `incprof render-reports <dump> <dir>`: write one gprof flat-profile
/// text report per sample (the paper's renamed per-interval files).
pub fn render_reports_cmd(dump_path: &Path, out_dir: &Path) -> Result<String, CliError> {
    let text = std::fs::read_to_string(dump_path)?;
    let mut dump: RunDump = serde_json::from_str(&text)?;
    dump.table.rebuild_index();
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

/// `incprof demo <out.json>`: generate a synthetic three-phase run dump
/// for trying out the analyze commands.
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

    let dump = RunDump {
        table: rt.function_table(),
        series: collector.into_series(),
    };
    std::fs::write(out_path, serde_json::to_string(&dump)?)?;
    Ok(format!(
        "wrote a {}-sample demo run to {}",
        dump.series.len(),
        out_path.display()
    ))
}

/// `incprof lint [root] [--json] [--deny-warnings|-D]`: run the
/// workspace invariant lints (D01..P01; see `docs/LINTS.md`). With no
/// root argument the workspace is discovered upward from the current
/// directory. Violations come back as [`CliError::Lint`] carrying the
/// rendered report, which the binary prints before exiting nonzero.
pub fn lint_cmd(args: &[String]) -> Result<String, CliError> {
    let mut root: Option<std::path::PathBuf> = None;
    let mut json = false;
    let mut cfg = incprof_lint::Config::default();
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "-D" | "--deny-warnings" => cfg.deny_warnings = true,
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown lint option {flag}")));
            }
            path => {
                if root.is_some() {
                    return Err(CliError::Usage(format!(
                        "unexpected extra lint argument {path}"
                    )));
                }
                root = Some(std::path::PathBuf::from(path));
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => incprof_lint::find_workspace_root(&std::env::current_dir()?).ok_or_else(|| {
            CliError::Usage("no workspace root found; pass one: incprof lint <root>".into())
        })?,
    };
    let report = incprof_lint::lint_workspace(&root, &cfg)?;
    let rendered = if json {
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

/// `incprof callgraph [root] [--json <path>]`: export the workspace
/// apps' static call graph (functions, confidence-labelled edges,
/// hazard facts) as deterministic JSON — the paper-facing bridge from
/// detected phases back to source structure. Prints to stdout, or
/// writes to `--json <path>`.
pub fn callgraph_cmd(args: &[String]) -> Result<String, CliError> {
    let mut root: Option<std::path::PathBuf> = None;
    let mut json_path: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                i += 1;
                let p = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--json requires a path".into()))?;
                json_path = Some(std::path::PathBuf::from(p));
            }
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown callgraph option {flag}")));
            }
            path => {
                if root.is_some() {
                    return Err(CliError::Usage(format!(
                        "unexpected extra callgraph argument {path}"
                    )));
                }
                root = Some(std::path::PathBuf::from(path));
            }
        }
        i += 1;
    }
    let root = match root {
        Some(r) => r,
        None => incprof_lint::find_workspace_root(&std::env::current_dir()?).ok_or_else(|| {
            CliError::Usage("no workspace root found; pass one: incprof callgraph <root>".into())
        })?,
    };
    let analysis = incprof_lint::analyze_subtree(&root, "crates/apps/src")?;
    let rendered = analysis.graph.render_json(&analysis.symbols);
    match json_path {
        Some(path) => {
            std::fs::write(&path, &rendered)?;
            Ok(format!("static call graph written to {}", path.display()))
        }
        None => Ok(rendered),
    }
}

/// `incprof sca [root] [--json <path>] [--deny-warnings|-D]`: the
/// static-analysis gate. Runs the full multi-pass lint (per-line rules
/// plus the graph rules P02/D05/A01) over the workspace, then emits a
/// machine-readable report combining the diagnostics, the analysis
/// stats (functions, confident/ambiguous edge counts), and the timed
/// `lint.engine.run` span — the artifact CI uploads on failure.
pub fn sca_cmd(args: &[String]) -> Result<String, CliError> {
    let mut root: Option<std::path::PathBuf> = None;
    let mut json_path: Option<std::path::PathBuf> = None;
    let mut cfg = incprof_lint::Config::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => {
                i += 1;
                let p = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--json requires a path".into()))?;
                json_path = Some(std::path::PathBuf::from(p));
            }
            "-D" | "--deny-warnings" => cfg.deny_warnings = true,
            flag if flag.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown sca option {flag}")));
            }
            path => {
                if root.is_some() {
                    return Err(CliError::Usage(format!(
                        "unexpected extra sca argument {path}"
                    )));
                }
                root = Some(std::path::PathBuf::from(path));
            }
        }
        i += 1;
    }
    let root = match root {
        Some(r) => r,
        None => incprof_lint::find_workspace_root(&std::env::current_dir()?).ok_or_else(|| {
            CliError::Usage("no workspace root found; pass one: incprof sca <root>".into())
        })?,
    };
    let (report, analysis) = incprof_lint::lint_workspace_analyzed(&root, &cfg)?;
    let (confident, ambiguous) = analysis.graph.edge_counts();
    // The whole analysis ran under the `lint.engine.run` span; its last
    // closed record carries the wall time the sca gate asserts on.
    let elapsed_ns = incprof_obs::global()
        .spans()
        .records()
        .iter()
        .rev()
        .find(|r| r.closed && r.name == incprof_obs::names::LINT_RUN)
        .map(|r| r.dur_ns)
        .unwrap_or(0);
    let lint_json = report.render_json();
    let rendered = format!(
        "{{\"stats\":{{\"functions\":{},\"edges_confident\":{confident},\
         \"edges_ambiguous\":{ambiguous},\"elapsed_ms\":{}}},\"lint\":{lint_json}}}",
        analysis.symbols.defs.len(),
        elapsed_ns / 1_000_000,
    );
    let summary = match json_path {
        Some(path) => {
            std::fs::write(&path, &rendered)?;
            format!(
                "sca: {} functions, {confident} confident / {ambiguous} ambiguous edges, \
                 {} diagnostics in {} ms; report written to {}",
                analysis.symbols.defs.len(),
                report.diagnostics.len(),
                elapsed_ns / 1_000_000,
                path.display()
            )
        }
        None => rendered,
    };
    if report.is_clean() {
        Ok(summary)
    } else {
        Err(CliError::Lint(summary))
    }
}

/// Global flags accepted anywhere on the command line, ahead of the
/// per-command options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GlobalFlags {
    /// Write an observability [`incprof_obs::RunReport`] here on exit
    /// (`.jsonl` extension selects the line-oriented format).
    pub metrics: Option<std::path::PathBuf>,
    /// Raise logging to debug (equivalent to `INCPROF_LOG=debug`, except
    /// the environment still wins where it asks for more).
    pub verbose: bool,
    /// Worker-thread count for the parallel analysis paths (overrides
    /// `INCPROF_THREADS`; `None` leaves the default sizing in place).
    pub threads: Option<usize>,
}

/// Strip `--metrics <path>`, `--verbose`, and `--threads <n>` out of
/// `args`, returning the parsed globals plus the remaining arguments.
pub fn split_global_flags(args: &[String]) -> Result<(GlobalFlags, Vec<String>), CliError> {
    let mut globals = GlobalFlags::default();
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics" => {
                i += 1;
                let path = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--metrics requires a path".into()))?;
                globals.metrics = Some(std::path::PathBuf::from(path));
            }
            "--verbose" => globals.verbose = true,
            "--threads" => {
                i += 1;
                let n: usize = args
                    .get(i)
                    .ok_or_else(|| CliError::Usage("--threads requires a count".into()))?
                    .parse()
                    .map_err(|e| CliError::Usage(format!("bad --threads: {e}")))?;
                if n == 0 {
                    return Err(CliError::Usage("--threads must be at least 1".into()));
                }
                globals.threads = Some(n);
            }
            _ => rest.push(args[i].clone()),
        }
        i += 1;
    }
    Ok((globals, rest))
}

/// Top-level entry: strip global flags, dispatch, and (when requested)
/// write the observability run report — on failure too, so a crashed
/// analysis still leaves its metrics behind.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (globals, rest) = split_global_flags(args)?;
    if globals.verbose {
        incprof_obs::logger::raise_level(incprof_obs::Level::Debug);
    }
    if let Some(n) = globals.threads {
        incprof_par::set_threads(n);
    }
    let result = dispatch(&rest);
    if let Some(path) = &globals.metrics {
        let report = incprof_obs::report();
        match report.write(path) {
            Ok(()) => incprof_obs::debug!("wrote run report to {}", path.display()),
            Err(e) if result.is_ok() => return Err(CliError::Io(e)),
            Err(e) => incprof_obs::error!("failed to write run report: {e}"),
        }
    }
    result
}

/// Command dispatch over already-stripped arguments.
fn dispatch(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("demo") => {
            let out = args.get(1).ok_or_else(|| usage("demo <out.json>"))?;
            demo(Path::new(out))
        }
        Some("render-reports") => {
            let dump = args
                .get(1)
                .ok_or_else(|| usage("render-reports <dump> <dir>"))?;
            let dir = args
                .get(2)
                .ok_or_else(|| usage("render-reports <dump> <dir>"))?;
            render_reports_cmd(Path::new(dump), Path::new(dir))
        }
        Some("render-gmon") => {
            let dump = args
                .get(1)
                .ok_or_else(|| usage("render-gmon <dump> <dir>"))?;
            let dir = args
                .get(2)
                .ok_or_else(|| usage("render-gmon <dump> <dir>"))?;
            render_gmon_cmd(Path::new(dump), Path::new(dir))
        }
        Some("analyze-gmon") => {
            let dir = args
                .get(1)
                .ok_or_else(|| usage("analyze-gmon <dir> [opts]"))?;
            let opts = parse_options(&args[2..])?;
            analyze_gmon(Path::new(dir), &opts)
        }
        Some("analyze-reports") => {
            let dir = args
                .get(1)
                .ok_or_else(|| usage("analyze-reports <dir> [opts]"))?;
            let opts = parse_options(&args[2..])?;
            analyze_reports(Path::new(dir), &opts)
        }
        Some("analyze-json") => {
            let dump = args
                .get(1)
                .ok_or_else(|| usage("analyze-json <dump> [opts]"))?;
            let opts = parse_options(&args[2..])?;
            analyze_json(Path::new(dump), &opts)
        }
        Some("lint") => lint_cmd(&args[1..]),
        Some("sca") => sca_cmd(&args[1..]),
        Some("callgraph") => callgraph_cmd(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("shard") => shard_cmd(&args[1..]),
        Some("push") => push_cmd(&args[1..]),
        Some("query") => query_cmd(&args[1..]),
        Some("collect") => collect_cmd(&args[1..]),
        Some("top") => top_cmd(&args[1..]),
        Some(other) => Err(CliError::Usage(format!("unknown command {other}\n{USAGE}"))),
        None => Err(CliError::Usage(USAGE.to_string())),
    }
}

fn usage(s: &str) -> CliError {
    CliError::Usage(format!("expected: incprof {s}"))
}

/// The usage banner.
pub const USAGE: &str = "\
incprof — source-oriented phase identification (IncProf, CLUSTER 2022)

  incprof demo <dump.json>
  incprof render-reports <dump.json> <dir>
  incprof render-gmon <dump.json> <dir>
  incprof analyze-gmon <dir> [same options as analyze-reports]
  incprof analyze-reports <dir> [--threshold f] [--kmax n] [--silhouette]
                                [--dbscan eps min_pts] [--merge] [--json]
  incprof analyze-json <dump.json> [same options]
  incprof lint [root] [--json] [--deny-warnings|-D]
  incprof sca [root] [--json <path>] [--deny-warnings|-D]
  incprof callgraph [root] [--json <path>]
  incprof serve [--addr host:port | --unix path] [--workers n]
                [--max-sessions n] [--max-pending n] [--addr-file path]
                [--admin host:port | --admin-unix path]
                [--admin-addr-file path] [--final-scrape path]
                [--store-dir dir] [--retention hot=H,stride=S[,max_bytes=B]]
                [--max-live n] [--checkpoint-every n]
  incprof shard (--backends n | --backend data[,admin] ...)
                [--addr host:port | --unix path] [--addr-file path]
                [--admin host:port | --admin-unix path]
                [--admin-addr-file path] [--store-dir dir] [--pid-dir dir]
                [--max-conns n] [--route session-id]
  incprof push <addr> <dump.json> [--analysis] [--keep-open]
               [--session-file path] [--shutdown]
  incprof query <addr> <session-id> [--analysis] [--close] [--shutdown]
  incprof collect <out.json> [--interval-ms n] [--max-samples n]
  incprof top <admin-addr> [--interval-ms n] [--iterations n]
              [--raw] [--recorder] [--health]

global options (any command):
  --metrics <path>   write an observability run report (counters, span
                     tree, latency histograms) as JSON; a .jsonl path
                     selects one record per line
  --verbose          raise logging to debug (see also INCPROF_LOG)
  --threads <n>      worker threads for the parallel analysis paths
                     (default: INCPROF_THREADS, else all cores; results
                     are identical for every setting)";

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
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
        let (g, rest) = split_global_flags(&s(&[
            "analyze-json",
            "--metrics",
            "m.json",
            "d.json",
            "--verbose",
        ]))
        .unwrap();
        assert_eq!(g.metrics.as_deref(), Some(Path::new("m.json")));
        assert!(g.verbose);
        assert_eq!(rest, s(&["analyze-json", "d.json"]));
        assert!(matches!(
            split_global_flags(&s(&["demo", "--metrics"])),
            Err(CliError::Usage(_))
        ));
        let (g, rest) = split_global_flags(&s(&["demo", "x.json"])).unwrap();
        assert_eq!(g, GlobalFlags::default());
        assert_eq!(rest, s(&["demo", "x.json"]));
    }

    #[test]
    fn threads_flag_parses_and_rejects_garbage() {
        let (g, rest) = split_global_flags(&s(&["--threads", "4", "demo", "x.json"])).unwrap();
        assert_eq!(g.threads, Some(4));
        assert_eq!(rest, s(&["demo", "x.json"]));
        assert!(matches!(
            split_global_flags(&s(&["--threads"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            split_global_flags(&s(&["--threads", "0"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            split_global_flags(&s(&["--threads", "many"])),
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

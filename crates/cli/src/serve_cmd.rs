//! The long-running subcommands: `incprof serve`, `incprof push`, and
//! `incprof collect`.
//!
//! All three share one lifecycle discipline: SIGINT flips a flag (via
//! `incprof_serve::signal`), the command drains whatever it owns —
//! daemon sessions, the wall collector's series — returns normally, and
//! the process exits 0 with the observability run report flushed by the
//! `--metrics` machinery in [`crate::run`].

use crate::{CliError, RunDump};
use incprof_serve::signal;
use incprof_serve::{BindAddr, Client, PlaneHandle, RetentionPolicy, ServeConfig, Server};
use std::path::{Path, PathBuf};

pub(crate) fn take(args: &[String], i: &mut usize, what: &str) -> Result<String, CliError> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| CliError::Usage(format!("{what} requires a value")))
}

/// The announce-and-wait half of both listener commands (`serve`,
/// `shard`): print `<name> listening on <addr><note>` (and the admin
/// address), write the resolved addresses to the files scripts poll
/// for, then block until a `Shutdown` frame arrives or SIGINT fires.
pub(crate) fn announce_and_wait(
    name: &str,
    note: &str,
    handle: &PlaneHandle,
    addr_file: Option<&Path>,
    admin_addr_file: Option<&Path>,
) -> Result<(), CliError> {
    println!("{name} listening on {}{note}", handle.addr());
    if let Some(admin) = handle.admin_addr() {
        println!("{name} admin on {admin}");
        if let Some(path) = admin_addr_file {
            std::fs::write(path, admin)?;
        }
    }
    if let Some(path) = addr_file {
        std::fs::write(path, handle.addr())?;
    }
    handle.wait(Some(signal::interrupted()));
    Ok(())
}

pub(crate) fn parse_num<T: std::str::FromStr>(v: &str, what: &str) -> Result<T, CliError>
where
    T::Err: std::fmt::Display,
{
    v.parse()
        .map_err(|e| CliError::Usage(format!("bad {what}: {e}")))
}

/// `incprof serve [--addr host:port | --unix path] [--workers n]
/// [--max-sessions n] [--max-pending n] [--addr-file path]
/// [--admin host:port | --admin-unix path]
/// [--admin-addr-file path] [--final-scrape path]
/// [--store-dir dir] [--retention spec] [--max-live n]
/// [--checkpoint-every n]`.
///
/// `--store-dir <dir>` makes sessions durable: every accepted snapshot
/// is appended to a per-session on-disk log, sessions found under the
/// directory at startup are re-adopted (queryable by their old ids
/// after a restart), and `--max-live <n>` bounds how many sessions stay
/// resident in memory — the idlest ones beyond the cap are checkpointed
/// and evicted, to be rehydrated transparently on their next frame.
/// `--retention hot=H,stride=S[,max_bytes=B]` downsamples old log
/// records (see docs/PERSISTENCE.md); the default keeps everything.
/// `--checkpoint-every <n>` sets how many appended snapshots elapse
/// between analysis-state checkpoints (default 16).
///
/// `--admin` (or `--admin-unix`) binds the read-only admin socket:
/// Prometheus scrape, trace-tree lookup, flight-recorder dump, and
/// health, consumed live by `incprof top`. `--final-scrape <path>`
/// writes one last exposition snapshot after the drain, so a scrape of
/// the daemon's dying breath survives the process.
///
/// Binds, prints `listening on <addr>` (and optionally writes the
/// resolved address to `--addr-file`, for scripts using an ephemeral
/// port), then blocks until a `Shutdown` frame arrives or SIGINT fires.
/// Either way the daemon drains every session before returning, and the
/// returned summary reports the ingest tail latency via the histogram
/// quantiles.
pub fn serve_cmd(args: &[String]) -> Result<String, CliError> {
    let mut config = ServeConfig::default();
    let mut addr_file: Option<PathBuf> = None;
    let mut admin_addr_file: Option<PathBuf> = None;
    let mut final_scrape: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => config.addr = BindAddr::Tcp(take(args, &mut i, "--addr")?),
            "--unix" => config.addr = BindAddr::Unix(PathBuf::from(take(args, &mut i, "--unix")?)),
            "--workers" => {
                config.workers = parse_num(&take(args, &mut i, "--workers")?, "--workers")?;
                if config.workers == 0 {
                    return Err(CliError::Usage("--workers must be at least 1".into()));
                }
            }
            "--max-sessions" => {
                config.max_sessions =
                    parse_num(&take(args, &mut i, "--max-sessions")?, "--max-sessions")?;
            }
            "--max-pending" => {
                config.max_pending =
                    parse_num(&take(args, &mut i, "--max-pending")?, "--max-pending")?;
            }
            "--addr-file" => addr_file = Some(PathBuf::from(take(args, &mut i, "--addr-file")?)),
            "--admin" => config.admin = Some(BindAddr::Tcp(take(args, &mut i, "--admin")?)),
            "--admin-unix" => {
                config.admin = Some(BindAddr::Unix(PathBuf::from(take(
                    args,
                    &mut i,
                    "--admin-unix",
                )?)));
            }
            "--admin-addr-file" => {
                admin_addr_file = Some(PathBuf::from(take(args, &mut i, "--admin-addr-file")?));
            }
            "--final-scrape" => {
                final_scrape = Some(PathBuf::from(take(args, &mut i, "--final-scrape")?));
            }
            "--store-dir" => {
                config.store_dir = Some(PathBuf::from(take(args, &mut i, "--store-dir")?));
            }
            "--retention" => {
                let spec = take(args, &mut i, "--retention")?;
                config.retention = RetentionPolicy::parse(&spec)
                    .map_err(|e| CliError::Usage(format!("bad --retention spec {spec:?}: {e}")))?;
            }
            "--max-live" => {
                config.max_live = parse_num(&take(args, &mut i, "--max-live")?, "--max-live")?;
            }
            "--checkpoint-every" => {
                config.checkpoint_every = parse_num(
                    &take(args, &mut i, "--checkpoint-every")?,
                    "--checkpoint-every",
                )?;
            }
            other => return Err(CliError::Usage(format!("unknown serve option {other}"))),
        }
        i += 1;
    }
    if admin_addr_file.is_some() && config.admin.is_none() {
        return Err(CliError::Usage(
            "--admin-addr-file needs --admin or --admin-unix".into(),
        ));
    }
    if config.store_dir.is_none() && (!config.retention.is_keep_all() || config.max_live != 0) {
        return Err(CliError::Usage(
            "--retention and --max-live need --store-dir".into(),
        ));
    }

    // Best-effort: the daemon joins the apps' static call graph into
    // Full reports' `source_context`; outside a workspace it serves
    // empty contexts instead of failing to start.
    config.source_graph = build_source_graph();

    signal::install_sigint_handler();
    let handle = Server::bind(config)
        .and_then(Server::start)
        .map_err(CliError::Io)?;
    // Announce readiness immediately; the summary string below is only
    // printed after shutdown.
    announce_and_wait(
        "incprof-serve",
        "",
        &handle,
        addr_file.as_deref(),
        admin_addr_file.as_deref(),
    )?;
    let sessions_at_exit = handle.active_sessions();
    if let Some(path) = &final_scrape {
        std::fs::write(path, handle.shutdown_scraped())?;
    } else {
        handle.shutdown();
    }

    let frames_in = incprof_obs::counter(incprof_obs::names::SERVE_FRAMES_IN).get();
    let frames_out = incprof_obs::counter(incprof_obs::names::SERVE_FRAMES_OUT).get();
    let opened = incprof_obs::counter(incprof_obs::names::SERVE_SESSIONS_OPENED).get();
    let lat = incprof_obs::histogram(incprof_obs::names::SERVE_INGEST_DETECT_LATENCY_NS).snapshot();
    let (p50, p95, p99) = lat.percentiles();
    Ok(format!(
        "incprof-serve drained: {opened} session(s) ({sessions_at_exit} open at shutdown), \
         {frames_in} frames in / {frames_out} out\n\
         ingest-to-detect latency: n={} p50={p50}ns p95={p95}ns p99={p99}ns",
        lat.count
    ))
}

/// Build the workspace apps' static call graph (via `incprof-lint`'s
/// source analysis) for report source-context joins. Any failure —
/// no workspace, unreadable sources — degrades to an empty graph.
fn build_source_graph() -> incprof_core::SourceGraph {
    let Ok(cwd) = std::env::current_dir() else {
        return incprof_core::SourceGraph::default();
    };
    let Some(root) = incprof_lint::find_workspace_root(&cwd) else {
        return incprof_core::SourceGraph::default();
    };
    match incprof_lint::analyze_subtree(&root, "crates/apps/src") {
        Ok(analysis) => {
            incprof_core::SourceGraph::new(analysis.graph.named_edges(&analysis.symbols))
        }
        Err(e) => {
            incprof_obs::warn!("source graph unavailable: {e}");
            incprof_core::SourceGraph::default()
        }
    }
}

/// `incprof top <admin-addr> [--interval-ms n] [--iterations n]
/// [--raw] [--recorder] [--health]`.
///
/// Live daemon vitals: polls the admin socket's `Scrape` endpoint and
/// renders a refreshing per-session table (snapshots, queue depth,
/// phases, cache hit ratio, idle age, fault flag) until SIGINT or
/// `--iterations` refreshes. `--raw` prints the Prometheus exposition
/// verbatim instead of the table; `--recorder` / `--health` print the
/// flight-recorder dump or health document once and exit (the scripted
/// entry points used by `scripts/check.sh`).
pub fn top_cmd(args: &[String]) -> Result<String, CliError> {
    let mut addr: Option<String> = None;
    let mut interval_ms: u64 = 1000;
    let mut iterations: u64 = 0;
    let mut raw = false;
    let mut recorder = false;
    let mut health = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--interval-ms" => {
                interval_ms = parse_num(&take(args, &mut i, "--interval-ms")?, "--interval-ms")?;
                if interval_ms == 0 {
                    return Err(CliError::Usage("--interval-ms must be at least 1".into()));
                }
            }
            "--iterations" => {
                iterations = parse_num(&take(args, &mut i, "--iterations")?, "--iterations")?;
            }
            "--raw" => raw = true,
            "--recorder" => recorder = true,
            "--health" => health = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown top option {flag}")));
            }
            positional if addr.is_none() => addr = Some(positional.to_string()),
            extra => {
                return Err(CliError::Usage(format!(
                    "unexpected extra top argument {extra}"
                )));
            }
        }
        i += 1;
    }
    let addr = addr.ok_or_else(|| CliError::Usage("top <admin-addr> [opts]".into()))?;

    let mut client = Client::connect(&addr).map_err(client_err)?;
    if recorder {
        return client.recorder_dump().map_err(client_err);
    }
    if health {
        return client.health().map_err(client_err);
    }

    signal::install_sigint_handler();
    let mut refreshes = 0u64;
    loop {
        let scrape = client.scrape().map_err(client_err)?;
        if raw {
            print!("{scrape}");
        } else {
            // Home + clear-to-end keeps a live table in place without
            // scrolling; a single iteration (scripts) never clears.
            if refreshes > 0 || iterations != 1 {
                print!("\x1b[H\x1b[2J");
            }
            println!("{}", render_top(&scrape, &addr));
        }
        refreshes += 1;
        if iterations != 0 && refreshes >= iterations {
            break;
        }
        if signal::interrupted().load(std::sync::atomic::Ordering::Acquire) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
        if signal::interrupted().load(std::sync::atomic::Ordering::Acquire) {
            break;
        }
    }
    Ok(format!("top: {refreshes} refresh(es) of {addr}"))
}

/// One session row accumulated from `incprof_session_*` scrape lines.
#[derive(Debug, Default, Clone, Copy)]
struct TopRow {
    shard: Option<u64>,
    snapshots: u64,
    pending: u64,
    phases: u64,
    cache_hits: u64,
    cache_misses: u64,
    faulted: bool,
    idle_s: Option<f64>,
}

/// Parse one `incprof_session_<metric>{session="<id>"} <value>` line.
/// A merged cluster scrape carries an extra `,shard="<n>"` label (the
/// router's shard injection — see `incprof-shard`), returned as the
/// third element.
fn parse_session_line(line: &str) -> Option<(&str, u64, Option<u64>, f64)> {
    let rest = line.strip_prefix("incprof_session_")?;
    let (metric, rest) = rest.split_once('{')?;
    let rest = rest.strip_prefix("session=\"")?;
    let (id, rest) = rest.split_once('"')?;
    let id: u64 = id.parse().ok()?;
    let (shard, rest) = match rest.strip_prefix(",shard=\"") {
        Some(rest) => {
            let (shard, rest) = rest.split_once('"')?;
            (Some(shard.parse().ok()?), rest)
        }
        None => (None, rest),
    };
    let value: f64 = rest.strip_prefix("} ")?.trim().parse().ok()?;
    Some((metric, id, shard, value))
}

/// Parse one `<name>{shard="<n>"} <value>` daemon line from a merged
/// cluster scrape.
fn parse_shard_line(line: &str) -> Option<(&str, u64, f64)> {
    let (name, rest) = line.split_once("{shard=\"")?;
    let (shard, rest) = rest.split_once('"')?;
    let shard: u64 = shard.parse().ok()?;
    let value: f64 = rest.strip_prefix("} ")?.trim().parse().ok()?;
    Some((name, shard, value))
}

/// Render the `incprof top` table from a raw Prometheus exposition.
/// Pure text-in/text-out so the format is unit-testable. A merged
/// cluster scrape (shard labels present) additionally gets a per-shard
/// summary table, and the session table grows a SHARD column.
fn render_top(scrape: &str, addr: &str) -> String {
    use std::collections::BTreeMap;
    let mut rows: BTreeMap<u64, TopRow> = BTreeMap::new();
    let mut daemon: BTreeMap<&str, f64> = BTreeMap::new();
    let mut shards: BTreeMap<u64, BTreeMap<&str, f64>> = BTreeMap::new();
    for line in scrape.lines() {
        if let Some((metric, id, shard, value)) = parse_session_line(line) {
            let row = rows.entry(id).or_default();
            if shard.is_some() {
                row.shard = shard;
            }
            match metric {
                "snapshots" => row.snapshots = value as u64,
                "pending" => row.pending = value as u64,
                "phases" => row.phases = value as u64,
                "cache_hits" => row.cache_hits = value as u64,
                "cache_misses" => row.cache_misses = value as u64,
                "faulted" => row.faulted = value != 0.0,
                "idle_seconds" => row.idle_s = Some(value),
                _ => {}
            }
        } else if let Some((name, shard, value)) = parse_shard_line(line) {
            shards.entry(shard).or_default().insert(name, value);
        } else if let Some((name, value)) = line.rsplit_once(' ') {
            if let Ok(v) = value.parse::<f64>() {
                daemon.insert(name, v);
            }
        }
    }
    let clustered = !shards.is_empty();
    let get = |m: &BTreeMap<&str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0) as u64;
    let sum = |k: &str| shards.values().map(|m| get(m, k)).sum::<u64>() + get(&daemon, k);
    let mut out = String::new();
    out.push_str(&format!(
        "{} {addr} — {} session(s), {} frames in / {} out, {} busy, {} decode errors\n",
        if clustered {
            "incprof-shard cluster"
        } else {
            "incprof-serve"
        },
        rows.len(),
        sum("incprof_serve_frames_received"),
        sum("incprof_serve_frames_sent"),
        sum("incprof_serve_backpressure_busy_replies"),
        sum("incprof_serve_frames_decode_errors"),
    ));
    if clustered {
        out.push_str(&format!(
            "{:>5}  {:>8}  {:>9}  {:>10}  {:>4}  {:>6}\n",
            "SHARD", "SESSIONS", "FRAMES-IN", "FRAMES-OUT", "BUSY", "ERRORS"
        ));
        for (shard, m) in &shards {
            let sessions = rows.values().filter(|r| r.shard == Some(*shard)).count();
            out.push_str(&format!(
                "{:>5}  {:>8}  {:>9}  {:>10}  {:>4}  {:>6}\n",
                shard,
                sessions,
                get(m, "incprof_serve_frames_received"),
                get(m, "incprof_serve_frames_sent"),
                get(m, "incprof_serve_backpressure_busy_replies"),
                get(m, "incprof_serve_frames_decode_errors"),
            ));
        }
        let routed = get(&daemon, "incprof_shard_frames_routed");
        let deaths = get(&daemon, "incprof_shard_backend_deaths");
        let up = get(&daemon, "incprof_shard_backends_up");
        out.push_str(&format!(
            "router: {routed} frame(s) routed, {up} backend(s) up, {deaths} death(s)\n",
        ));
    }
    out.push_str(&format!(
        "{:>8}  {}{:>9}  {:>7}  {:>6}  {:>9}  {:>8}  {:>5}\n",
        "SESSION",
        if clustered { "SHARD  " } else { "" },
        "SNAPSHOTS",
        "PENDING",
        "PHASES",
        "CACHE-HIT",
        "IDLE(S)",
        "FAULT"
    ));
    for (id, r) in &rows {
        let queries = r.cache_hits + r.cache_misses;
        let hit = if queries == 0 {
            "-".to_string()
        } else {
            format!("{:.0}%", 100.0 * r.cache_hits as f64 / queries as f64)
        };
        let idle = match r.idle_s {
            Some(s) => format!("{s:.1}"),
            None => "-".to_string(),
        };
        let shard_col = if clustered {
            format!(
                "{:>5}  ",
                r.shard.map_or_else(|| "-".to_string(), |s| s.to_string())
            )
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{:>8}  {}{:>9}  {:>7}  {:>6}  {:>9}  {:>8}  {:>5}\n",
            id,
            shard_col,
            r.snapshots,
            r.pending,
            r.phases,
            hit,
            idle,
            if r.faulted { "yes" } else { "-" }
        ));
    }
    if rows.is_empty() {
        out.push_str("(no sessions)\n");
    }
    out
}

/// `incprof push <addr> <dump.json> [--analysis] [--keep-open]
/// [--session-file path] [--shutdown]`.
///
/// Replays a collected run dump into a live daemon: opens a session,
/// streams every cumulative snapshot as a gmon-encoded frame (with
/// bounded busy-retry), and prints the session's JSON report —
/// `--analysis` asks for the offline-identical `PhaseAnalysis` document
/// instead of the full online report. `--session-file <path>` writes
/// the session id (scripts pair it with `--keep-open` so a later
/// `incprof query` can address the same session, e.g. across a daemon
/// restart). `--shutdown` asks the daemon to exit afterwards (used by
/// the check-script smoke step).
pub fn push_cmd(args: &[String]) -> Result<String, CliError> {
    let mut addr: Option<String> = None;
    let mut dump_path: Option<PathBuf> = None;
    let mut analysis = false;
    let mut keep_open = false;
    let mut session_file: Option<PathBuf> = None;
    let mut shutdown = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--analysis" => analysis = true,
            "--keep-open" => keep_open = true,
            "--session-file" => {
                session_file = Some(PathBuf::from(take(args, &mut i, "--session-file")?));
            }
            "--shutdown" => shutdown = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown push option {flag}")));
            }
            positional if addr.is_none() => addr = Some(positional.to_string()),
            positional if dump_path.is_none() => dump_path = Some(PathBuf::from(positional)),
            extra => {
                return Err(CliError::Usage(format!(
                    "unexpected extra push argument {extra}"
                )));
            }
        }
        i += 1;
    }
    let addr = addr.ok_or_else(|| CliError::Usage("push <addr> <dump.json>".into()))?;
    let dump_path = dump_path.ok_or_else(|| CliError::Usage("push <addr> <dump.json>".into()))?;

    let dump = load_dump(&dump_path)?;
    let mut client = Client::connect(&addr).map_err(client_err)?;
    let session = client.open().map_err(client_err)?;
    if let Some(path) = &session_file {
        std::fs::write(path, session.to_string())?;
    }
    for snap in dump.series.snapshots() {
        let gmon = snap.to_gmon(&dump.table);
        client.push_retry(session, &gmon, 50).map_err(client_err)?;
    }
    let report = if analysis {
        client.query_analysis(session).map_err(client_err)?
    } else {
        client.query_report(session).map_err(client_err)?
    };
    if !keep_open {
        client.close(session).map_err(client_err)?;
    }
    if shutdown {
        client.shutdown_server().map_err(client_err)?;
    }
    Ok(report)
}

/// `incprof query <addr> <session-id> [--analysis] [--close]
/// [--shutdown]`.
///
/// Asks a live daemon for the report of an *existing* session by id and
/// prints the JSON. Unlike `incprof push` (which always opens a fresh
/// session), this addresses a session that is already open — or, on a
/// daemon started with `--store-dir`, one recovered from disk after a
/// restart, which is rehydrated transparently by the query. `--close`
/// closes the session afterwards; `--shutdown` asks the daemon to exit.
pub fn query_cmd(args: &[String]) -> Result<String, CliError> {
    let mut addr: Option<String> = None;
    let mut session: Option<u64> = None;
    let mut analysis = false;
    let mut close = false;
    let mut shutdown = false;
    for arg in args {
        match arg.as_str() {
            "--analysis" => analysis = true,
            "--close" => close = true,
            "--shutdown" => shutdown = true,
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown query option {flag}")));
            }
            positional if addr.is_none() => addr = Some(positional.to_string()),
            positional if session.is_none() => {
                session = Some(parse_num(positional, "session id")?);
            }
            extra => {
                return Err(CliError::Usage(format!(
                    "unexpected extra query argument {extra}"
                )));
            }
        }
    }
    let addr = addr.ok_or_else(|| CliError::Usage("query <addr> <session-id>".into()))?;
    let session = session.ok_or_else(|| CliError::Usage("query <addr> <session-id>".into()))?;

    let mut client = Client::connect(&addr).map_err(client_err)?;
    let report = if analysis {
        client.query_analysis(session).map_err(client_err)?
    } else {
        client.query_report(session).map_err(client_err)?
    };
    if close {
        client.close(session).map_err(client_err)?;
    }
    if shutdown {
        client.shutdown_server().map_err(client_err)?;
    }
    Ok(report)
}

/// `incprof collect <out.json> [--interval-ms n] [--max-samples n]`.
///
/// The wall-mode collection path: runs a small three-phase synthetic
/// workload on the main thread while the wall-clock collector samples
/// it in the background, until SIGINT (or `--max-samples`) stops it.
/// The drained series is written as a run dump usable by `analyze-json`
/// and `push`. Exits 0 on Ctrl-C by design: interruption is the normal
/// way to end a collection.
pub fn collect_cmd(args: &[String]) -> Result<String, CliError> {
    use incprof_collect::{CollectorConfig, IncProfCollector};
    use incprof_runtime::ProfilerRuntime;

    let mut out_path: Option<PathBuf> = None;
    let mut interval_ms: u64 = 50;
    let mut max_samples: u64 = u64::MAX;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--interval-ms" => {
                interval_ms = parse_num(&take(args, &mut i, "--interval-ms")?, "--interval-ms")?;
                if interval_ms == 0 {
                    return Err(CliError::Usage("--interval-ms must be at least 1".into()));
                }
            }
            "--max-samples" => {
                max_samples = parse_num(&take(args, &mut i, "--max-samples")?, "--max-samples")?;
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown collect option {flag}")));
            }
            positional if out_path.is_none() => out_path = Some(PathBuf::from(positional)),
            extra => {
                return Err(CliError::Usage(format!(
                    "unexpected extra collect argument {extra}"
                )));
            }
        }
        i += 1;
    }
    let out_path = out_path.ok_or_else(|| CliError::Usage("collect <out.json>".into()))?;

    signal::install_sigint_handler();
    let rt = ProfilerRuntime::new();
    let setup = rt.register_function("setup_mesh");
    let solve = rt.register_function("implicit_solve");
    let output = rt.register_function("write_output");
    let collector = IncProfCollector::start_wall(
        rt.clone(),
        CollectorConfig {
            interval_ns: interval_ms * 1_000_000,
            ..CollectorConfig::default()
        },
    );
    println!(
        "collecting every {interval_ms} ms to {} (Ctrl-C to stop)",
        out_path.display()
    );

    // A three-phase synthetic workload, phased by sample count so the
    // dump's shape tracks collection progress rather than wall time.
    while !signal::interrupted().load(std::sync::atomic::Ordering::Acquire)
        && collector.samples_taken() < max_samples
    {
        let taken = collector.samples_taken();
        let active = match taken {
            t if t < 4 => setup,
            t if t % 8 == 7 => output,
            _ => solve,
        };
        let _g = rt.enter(active);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    let series = collector.stop();
    let n = series.len();
    let dump = RunDump {
        table: rt.function_table(),
        series,
    };
    std::fs::write(&out_path, serde_json::to_string(&dump)?)?;
    Ok(format!(
        "collected {n} sample(s) to {} (drained cleanly)",
        out_path.display()
    ))
}

fn load_dump(path: &Path) -> Result<RunDump, CliError> {
    let text = std::fs::read_to_string(path)?;
    let mut dump: RunDump = serde_json::from_str(&text)?;
    dump.table.rebuild_index();
    Ok(dump)
}

fn client_err(e: incprof_serve::ClientError) -> CliError {
    CliError::Pipeline(format!("serve client: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRAPE: &str = "\
# TYPE incprof_serve_frames_received counter
incprof_serve_frames_received 42
incprof_serve_frames_sent 40
incprof_serve_backpressure_busy_replies 1
incprof_session_snapshots{session=\"7\"} 5
incprof_session_pending{session=\"7\"} 2
incprof_session_phases{session=\"7\"} 3
incprof_session_cache_hits{session=\"7\"} 3
incprof_session_cache_misses{session=\"7\"} 1
incprof_session_faulted{session=\"7\"} 0
incprof_session_idle_seconds{session=\"7\"} 1.5
incprof_session_snapshots{session=\"9\"} 1
incprof_session_faulted{session=\"9\"} 1
";

    #[test]
    fn session_lines_parse_and_others_do_not() {
        assert_eq!(
            parse_session_line("incprof_session_pending{session=\"7\"} 2"),
            Some(("pending", 7, None, 2.0))
        );
        assert_eq!(
            parse_session_line("incprof_session_idle_seconds{session=\"12\"} 0.25"),
            Some(("idle_seconds", 12, None, 0.25))
        );
        assert_eq!(
            parse_session_line("incprof_session_snapshots{session=\"3\",shard=\"1\"} 9"),
            Some(("snapshots", 3, Some(1), 9.0))
        );
        assert_eq!(parse_session_line("incprof_serve_frames_received 42"), None);
        assert_eq!(parse_session_line("# TYPE foo counter"), None);
        assert_eq!(
            parse_session_line("incprof_session_pending{session=\"x\"} 2"),
            None
        );
    }

    #[test]
    fn shard_lines_parse_and_others_do_not() {
        assert_eq!(
            parse_shard_line("incprof_serve_frames_received{shard=\"2\"} 18"),
            Some(("incprof_serve_frames_received", 2, 18.0))
        );
        assert_eq!(parse_shard_line("incprof_serve_frames_received 42"), None);
        assert_eq!(
            parse_shard_line("incprof_session_pending{session=\"7\",shard=\"0\"} 2"),
            None
        );
    }

    #[test]
    fn top_table_renders_rows_hit_ratio_and_faults() {
        let out = render_top(SCRAPE, "127.0.0.1:9");
        assert!(out.contains("2 session(s)"), "{out}");
        assert!(out.contains("42 frames in / 40 out"), "{out}");
        let row7 = out
            .lines()
            .find(|l| l.trim_start().starts_with('7'))
            .unwrap();
        // 3 hits / 4 queries = 75%, idle 1.5s, no fault.
        assert!(row7.contains("75%"), "{row7}");
        assert!(row7.contains("1.5"), "{row7}");
        assert!(!row7.contains("yes"), "{row7}");
        let row9 = out
            .lines()
            .find(|l| l.trim_start().starts_with('9'))
            .unwrap();
        // No queries yet → hit ratio is "-"; faulted flag shows.
        assert!(row9.contains('-'), "{row9}");
        assert!(row9.contains("yes"), "{row9}");
    }

    #[test]
    fn top_table_handles_empty_scrape() {
        let out = render_top("", "a:1");
        assert!(out.contains("0 session(s)"), "{out}");
        assert!(out.contains("(no sessions)"), "{out}");
    }

    const CLUSTER_SCRAPE: &str = "\
# TYPE incprof_serve_frames_received counter
incprof_serve_frames_received{shard=\"0\"} 10
incprof_serve_frames_sent{shard=\"0\"} 9
incprof_session_snapshots{session=\"1\",shard=\"0\"} 4
incprof_session_phases{session=\"1\",shard=\"0\"} 2
incprof_serve_frames_received{shard=\"1\"} 30
incprof_serve_frames_sent{shard=\"1\"} 28
incprof_session_snapshots{session=\"2\",shard=\"1\"} 7
incprof_shard_frames_routed 40
incprof_shard_backends_up 2
incprof_shard_backend_deaths 0
";

    #[test]
    fn top_renders_per_shard_table_for_merged_scrapes() {
        let out = render_top(CLUSTER_SCRAPE, "127.0.0.1:9");
        assert!(out.contains("incprof-shard cluster"), "{out}");
        // Aggregate header sums the shards: 10+30 in, 9+28 out.
        assert!(out.contains("40 frames in / 37 out"), "{out}");
        assert!(out.contains("SHARD"), "{out}");
        assert!(
            out.contains("router: 40 frame(s) routed, 2 backend(s) up, 0 death(s)"),
            "{out}"
        );
        // Per-shard rows carry each backend's own counts and sessions.
        let shard0 = out.lines().nth(2).unwrap_or_default();
        assert!(shard0.contains("10"), "{shard0}");
        // Session rows keep their shard column.
        let row2 = out
            .lines()
            .find(|l| l.trim_start().starts_with("2  "))
            .unwrap_or_default();
        assert!(row2.contains('1'), "{row2}");
    }
}

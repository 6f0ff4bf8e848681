//! The long-running subcommands: `incprof serve`, `incprof push`, and
//! `incprof collect`.
//!
//! All three share one lifecycle discipline: SIGINT flips a flag (via
//! `incprof_serve::signal`), the command drains whatever it owns —
//! daemon sessions, the wall collector's series — returns normally, and
//! the process exits 0 with the observability run report flushed by the
//! `--metrics` machinery in [`crate::run`].

use crate::args::{number, Parsed};
use crate::{load_run, pipeline, usage_error, CliError};
use incprof_serve::signal;
use incprof_serve::{BindAddr, Client, PlaneHandle, RetentionPolicy, ServeConfig, Server};
use std::path::Path;

/// The announce-and-wait half of both listener commands (`serve`,
/// `shard`): print `<name> listening on <addr><note>` (and the admin
/// address), write the resolved addresses to the `--addr-file` and
/// `--admin-addr-file` scripts poll for, then block until a `Shutdown`
/// frame arrives or SIGINT fires.
pub(crate) fn announce_and_wait(
    name: &str,
    note: &str,
    handle: &PlaneHandle,
    p: &Parsed,
) -> Result<(), CliError> {
    println!("{name} listening on {}{note}", handle.addr());
    if let Some(admin) = handle.admin_addr() {
        println!("{name} admin on {admin}");
        if let Some(path) = p.path("--admin-addr-file") {
            std::fs::write(path, admin)?;
        }
    }
    if let Some(path) = p.path("--addr-file") {
        std::fs::write(path, handle.addr())?;
    }
    handle.wait(Some(signal::interrupted()));
    Ok(())
}

/// One listener address from its two spellings (`--addr host:port` or
/// `--unix path`; `--admin` or `--admin-unix`). Giving both is a usage
/// error rather than a silent last-one-wins.
pub(crate) fn bind_addr(p: &Parsed, tcp: &str, unix: &str) -> Result<Option<BindAddr>, CliError> {
    match (p.get(tcp), p.path(unix)) {
        (Some(_), Some(_)) => usage_error(format!("{tcp} and {unix} are mutually exclusive")),
        (Some(addr), None) => Ok(Some(BindAddr::Tcp(addr.to_string()))),
        (None, unix) => Ok(unix.map(BindAddr::Unix)),
    }
}

/// What `incprof serve`'s command line says, before anything is bound.
fn serve_config(p: &Parsed) -> Result<ServeConfig, CliError> {
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: bind_addr(p, "--addr", "--unix")?.unwrap_or(defaults.addr),
        workers: p.at_least("--workers", 1)?.unwrap_or(defaults.workers),
        max_sessions: p
            .at_least("--max-sessions", 1)?
            .unwrap_or(defaults.max_sessions),
        admin: bind_addr(p, "--admin", "--admin-unix")?,
        store_dir: p.path("--store-dir"),
        retention: match p.get("--retention") {
            Some(spec) => RetentionPolicy::parse(spec)
                .map_err(|e| CliError::Usage(format!("bad --retention spec {spec:?}: {e}")))?,
            None => defaults.retention,
        },
        max_live: p.num("--max-live")?.unwrap_or(defaults.max_live),
        checkpoint_every: p
            .num("--checkpoint-every")?
            .unwrap_or(defaults.checkpoint_every),
        ..defaults
    };
    if p.has("--admin-addr-file") && config.admin.is_none() {
        return usage_error("--admin-addr-file needs --admin or --admin-unix");
    }
    if config.store_dir.is_none() && (!config.retention.is_keep_all() || config.max_live != 0) {
        return usage_error("--retention and --max-live need --store-dir");
    }
    Ok(config)
}

/// `incprof serve`: run the streaming phase-detection daemon
/// (docs/PROTOCOL.md).
///
/// `--store-dir` makes sessions durable: every accepted snapshot is
/// appended to a per-session on-disk log, sessions found under the
/// directory at startup are re-adopted (queryable by their old ids
/// after a restart), and `--max-live` bounds how many sessions stay
/// resident in memory — the idlest ones beyond the cap are checkpointed
/// and evicted, to be rehydrated transparently on their next frame.
/// `--retention` downsamples old log records (see docs/PERSISTENCE.md);
/// the default keeps everything. `--checkpoint-every` sets how many
/// appended snapshots elapse between analysis-state checkpoints.
///
/// `--admin` (or `--admin-unix`) binds the read-only admin socket:
/// Prometheus scrape, trace-tree lookup, flight-recorder dump, and
/// health, consumed live by `incprof top`. `--final-scrape` writes one
/// last exposition snapshot after the drain, so a scrape of the
/// daemon's dying breath survives the process.
///
/// Binds, prints `listening on <addr>` (and optionally writes the
/// resolved address to `--addr-file`, for scripts using an ephemeral
/// port), then blocks until a `Shutdown` frame arrives or SIGINT fires.
/// Either way the daemon drains every session before returning, and the
/// returned summary reports the ingest tail latency via the histogram
/// quantiles.
pub(crate) fn serve_cmd(p: &Parsed) -> Result<String, CliError> {
    let config = serve_config(p)?;
    signal::install_sigint_handler();
    let handle = Server::bind(config)
        .and_then(Server::start)
        .map_err(CliError::Io)?;
    // Announce readiness immediately; the summary string below is only
    // printed after shutdown.
    announce_and_wait("incprof-serve", "", &handle, p)?;
    let sessions_at_exit = handle.active_sessions();
    if let Some(path) = p.path("--final-scrape") {
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

/// `incprof top`: live daemon vitals.
///
/// Polls the admin socket's `Scrape` endpoint and renders a refreshing
/// per-session table (snapshots, queue depth, phases, cache hit ratio,
/// idle age, fault flag) until SIGINT or `--iterations` refreshes.
/// `--raw` prints the Prometheus exposition verbatim instead of the
/// table; `--recorder` / `--health` print the flight-recorder dump or
/// health document once and exit (the scripted entry points used by
/// `scripts/check.sh`).
pub(crate) fn top_cmd(p: &Parsed) -> Result<String, CliError> {
    let addr = p.rest[0];
    let interval_ms: u64 = p.at_least("--interval-ms", 1)?.unwrap_or(1000);
    let iterations: u64 = p.num("--iterations")?.unwrap_or(0);
    let raw = p.has("--raw");

    let mut client = Client::connect(addr)?;
    if p.has("--recorder") {
        return Ok(client.recorder_dump()?);
    }
    if p.has("--health") {
        return Ok(client.health()?);
    }

    signal::install_sigint_handler();
    let mut refreshes = 0u64;
    loop {
        let scrape = client.scrape()?;
        if raw {
            print!("{scrape}");
        } else {
            // Home + clear-to-end keeps a live table in place without
            // scrolling; a single iteration (scripts) never clears.
            if refreshes > 0 || iterations != 1 {
                print!("\x1b[H\x1b[2J");
            }
            println!("{}", render_top(&scrape, addr));
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

/// What `push` and `query` end with: fetch the session's report
/// (`--analysis` asks for the offline-identical `PhaseAnalysis`
/// document instead of the full online report), then close the session
/// when asked to and, with `--shutdown`, ask the daemon to exit.
fn report_and_finish(
    p: &Parsed,
    client: &mut Client,
    session: u64,
    close: bool,
) -> Result<String, CliError> {
    let report = if p.has("--analysis") {
        client.query_analysis(session)?
    } else {
        client.query_report(session)?
    };
    if close {
        client.close(session)?;
    }
    if p.has("--shutdown") {
        client.shutdown_server()?;
    }
    Ok(report)
}

/// `incprof push`: replay a collected run (a `gmon.out.N` directory)
/// into a live daemon.
///
/// Opens a session, streams every cumulative snapshot as a gmon-encoded
/// frame (with bounded busy-retry), and prints the session's JSON
/// report. `--session-file` writes the session id (scripts pair it with
/// `--keep-open` so a later `incprof query` can address the same
/// session, e.g. across a daemon restart).
pub(crate) fn push_cmd(p: &Parsed) -> Result<String, CliError> {
    let series = load_run(Path::new(p.rest[1]))?;
    let mut client = Client::connect(p.rest[0])?;
    let session = client.open()?;
    if let Some(path) = p.path("--session-file") {
        std::fs::write(path, session.to_string())?;
    }
    for snap in series.snapshots() {
        client.push_retry(session, snap, 50)?;
    }
    report_and_finish(p, &mut client, session, !p.has("--keep-open"))
}

/// `incprof query`: print the report of an *existing* session by id.
///
/// Unlike `incprof push` (which always opens a fresh session), this
/// addresses a session that is already open — or, on a daemon started
/// with `--store-dir`, one recovered from disk after a restart, which
/// is rehydrated transparently by the query.
pub(crate) fn query_cmd(p: &Parsed) -> Result<String, CliError> {
    let session = number(p.rest[1], "session id")?;
    let mut client = Client::connect(p.rest[0])?;
    report_and_finish(p, &mut client, session, p.has("--close"))
}

/// `incprof collect`: the wall-mode collection path.
///
/// Runs a small three-phase synthetic workload on the main thread while
/// the wall-clock collector samples it in the background, until SIGINT
/// (or `--max-samples`) stops it. The drained series is written as one
/// `gmon.out.N` per sample into the run directory, which `analyze-gmon`,
/// `render-reports` and `push` read. Exits 0 on Ctrl-C by design:
/// interruption is the normal way to end a collection.
pub(crate) fn collect_cmd(p: &Parsed) -> Result<String, CliError> {
    use incprof_collect::{series_io, CollectorConfig, IncProfCollector};
    use incprof_runtime::ProfilerRuntime;

    let out_dir = Path::new(p.rest[0]);
    let interval_ms: u64 = p.at_least("--interval-ms", 1)?.unwrap_or(50);
    let max_samples: u64 = p.num("--max-samples")?.unwrap_or(u64::MAX);
    // Refuse an occupied directory now, not after the collection.
    series_io::ensure_fresh_run_dir(out_dir).map_err(pipeline)?;

    signal::install_sigint_handler();
    let rt = ProfilerRuntime::new();
    let setup = rt.register_function("setup_mesh");
    let solve = rt.register_function("implicit_solve");
    let output = rt.register_function("write_output");
    let collector = IncProfCollector::start_wall(
        rt.clone(),
        CollectorConfig {
            interval_ns: interval_ms * 1_000_000,
        },
    );
    println!(
        "collecting every {interval_ms} ms to {} (Ctrl-C to stop)",
        out_dir.display()
    );

    // A three-phase synthetic workload, phased by sample count so the
    // run's shape tracks collection progress rather than wall time.
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
    let n = series_io::write_gmon_dir(&series, out_dir).map_err(pipeline)?;
    Ok(format!(
        "collected {n} sample(s) to {} (drained cleanly)",
        out_dir.display()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(args: &[&str]) -> Result<ServeConfig, CliError> {
        serve_config(&crate::spec("serve")?.parse(&crate::tests::s(args))?)
    }

    #[test]
    fn serve_flags_no_script_passes_land_in_the_config() {
        let c = config(&[
            "--unix",
            "/tmp/d.sock",
            "--admin-unix",
            "/tmp/a.sock",
            "--admin-addr-file",
            "/tmp/a.txt",
            "--final-scrape",
            "/tmp/last.prom",
            "--workers",
            "2",
            "--max-sessions",
            "5",
            "--store-dir",
            "/tmp/store",
            "--retention",
            "hot=2,stride=4",
            "--max-live",
            "3",
            "--checkpoint-every",
            "8",
        ])
        .unwrap();
        assert_eq!(c.addr, BindAddr::Unix("/tmp/d.sock".into()));
        assert_eq!(c.admin, Some(BindAddr::Unix("/tmp/a.sock".into())));
        assert_eq!((c.workers, c.max_sessions), (2, 5));
        assert_eq!(c.store_dir.as_deref(), Some(Path::new("/tmp/store")));
        assert_eq!(
            c.retention,
            RetentionPolicy::parse("hot=2,stride=4").unwrap()
        );
        assert_eq!((c.max_live, c.checkpoint_every), (3, 8));
        // Nothing given: the library defaults, TCP on an ephemeral port.
        let d = config(&[]).unwrap();
        assert_eq!(d.addr, ServeConfig::default().addr);
        assert_eq!(d.admin, None);
        assert_eq!(
            config(&["--addr", "h:1", "--admin", "h:2"]).unwrap().admin,
            Some(BindAddr::Tcp("h:2".into()))
        );
    }

    #[test]
    fn serve_rejects_zero_counts_and_both_spellings_of_one_address() {
        let usage = |args: &[&str]| match config(args) {
            Err(CliError::Usage(message)) => message,
            other => panic!("{args:?}: expected a usage error, got {other:?}"),
        };
        // (b) a daemon that could never open a session is a usage
        // error, like one with no workers.
        assert_eq!(usage(&["--workers", "0"]), "--workers must be at least 1");
        assert_eq!(
            usage(&["--max-sessions", "0"]),
            "--max-sessions must be at least 1"
        );
        // (c) the exclusive pairs reject both-given, in either order.
        for line in [
            ["--addr", "h:1", "--unix", "/tmp/s"],
            ["--unix", "/tmp/s", "--addr", "h:1"],
        ] {
            assert_eq!(usage(&line), "--addr and --unix are mutually exclusive");
        }
        assert_eq!(
            usage(&["--admin-unix", "/tmp/a", "--admin", "h:2"]),
            "--admin and --admin-unix are mutually exclusive"
        );
        usage(&["--admin-addr-file", "/tmp/a.txt"]);
        usage(&["--max-live", "2"]);
        usage(&["--retention", "hot=x"]);
        // The knob whose every value ≥ 1 behaved the same is gone.
        usage(&["--max-pending", "8"]);
    }

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

//! Graceful-SIGINT tests for the long-running subcommands, driven
//! against the real `incprof` binary as a child process.
//!
//! The contract under test: Ctrl-C makes `serve` and `collect` drain
//! what they own, flush the `--metrics` run report, and exit 0 — an
//! interrupted collection or daemon is a *successful* run, not a crash.

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn incprof() -> Command {
    Command::new(env!("CARGO_BIN_EXE_incprof"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("incprof_sigint_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Deliver SIGINT via the portable `kill` utility (the workspace has no
/// libc binding, and spawning `kill` is exactly what a shell's Ctrl-C
/// or an init system's stop would do).
fn send_sigint(child: &Child) {
    let status = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("spawn kill");
    assert!(status.success(), "kill -INT failed");
}

/// Wait for the child with a hard deadline so a hung drain fails the
/// test instead of wedging the suite.
fn wait_with_deadline(mut child: Child, deadline: Duration) -> std::process::ExitStatus {
    let started = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if started.elapsed() > deadline {
            let _ = child.kill();
            panic!("child did not exit within {deadline:?} after SIGINT");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn wait_for_file(path: &Path, deadline: Duration) {
    let started = Instant::now();
    while !path.exists() {
        assert!(
            started.elapsed() < deadline,
            "{} did not appear within {deadline:?}",
            path.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn serve_drains_and_exits_zero_on_sigint() {
    let dir = temp_dir("serve");
    let addr_file = dir.join("addr.txt");
    let admin_addr_file = dir.join("admin_addr.txt");
    let final_scrape = dir.join("final_scrape.prom");
    let metrics = dir.join("metrics.json");

    let child = incprof()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().expect("utf8 path"),
            "--admin",
            "127.0.0.1:0",
            "--admin-addr-file",
            admin_addr_file.to_str().expect("utf8 path"),
            "--final-scrape",
            final_scrape.to_str().expect("utf8 path"),
            "--metrics",
            metrics.to_str().expect("utf8 path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");

    // The daemon is up once it has written its resolved address. Run
    // one live exchange so the interrupt lands on a daemon with state.
    wait_for_file(&addr_file, Duration::from_secs(10));
    let addr = std::fs::read_to_string(&addr_file).expect("addr");
    let mut client = incprof_serve::Client::connect_tcp(addr.trim()).expect("connect");
    client.ping().expect("ping");
    let session = client.open().expect("open");

    // The admin plane is live alongside the data plane.
    wait_for_file(&admin_addr_file, Duration::from_secs(10));
    let admin_addr = std::fs::read_to_string(&admin_addr_file).expect("admin addr");
    let mut admin = incprof_serve::Client::connect_tcp(admin_addr.trim()).expect("connect admin");
    assert!(admin
        .health()
        .expect("health")
        .contains("\"status\":\"ok\""));
    drop(admin);

    send_sigint(&child);
    let status = wait_with_deadline(child, Duration::from_secs(10));
    assert!(status.success(), "serve must exit 0 on SIGINT: {status:?}");

    // The run report was flushed on the way out with the daemon's
    // traffic in it — including the session left open at interrupt,
    // which the drain owned rather than abandoned.
    let report =
        incprof_obs::RunReport::from_json(&std::fs::read_to_string(&metrics).expect("metrics"))
            .expect("parse run report");
    assert!(report.counters["serve.conns.accepted"] >= 1);
    assert!(report.counters["serve.frames.received"] >= 2);
    assert!(report.counters["serve.sessions.opened"] >= 1, "{session}");

    // The flight-recorder dump rode along in the report: the drain
    // records a Shutdown event, so the ring cannot be empty here.
    assert!(
        report.events_total >= 1,
        "flight recorder must capture the shutdown: {:?}",
        report.events_total
    );
    assert!(
        report
            .events
            .iter()
            .any(|e| e.kind == incprof_obs::EventKind::Shutdown),
        "expected a shutdown event in {:?}",
        report.events
    );

    // And the final scrape was written *after* the drain: a complete,
    // well-formed exposition snapshot of the daemon's last breath.
    let scrape = std::fs::read_to_string(&final_scrape).expect("final scrape written");
    assert!(scrape.contains("incprof_serve_frames_received"), "{scrape}");
    for line in scrape.lines() {
        assert!(
            line.starts_with("# TYPE ")
                || line
                    .rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
            "malformed exposition line: {line}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn collect_drains_and_exits_zero_on_sigint() {
    let dir = temp_dir("collect");
    let run = dir.join("run");
    let metrics = dir.join("metrics.json");

    let child = incprof()
        .args([
            "collect",
            run.to_str().expect("utf8 path"),
            "--interval-ms",
            "10",
            "--metrics",
            metrics.to_str().expect("utf8 path"),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn collect");

    // Let it take a few samples before interrupting.
    std::thread::sleep(Duration::from_millis(300));
    send_sigint(&child);
    let status = wait_with_deadline(child, Duration::from_secs(10));
    assert!(
        status.success(),
        "collect must exit 0 on SIGINT: {status:?}"
    );

    // The interrupted collection still produced a loadable run...
    let series = incprof_collect::series_io::read_gmon_dir(&run).expect("run directory reads back");
    assert!(!series.is_empty(), "run must contain samples");
    assert!(
        series
            .snapshots()
            .iter()
            .all(|s| s.functions.id_of("implicit_solve").is_some()),
        "every sample carries its table"
    );
    assert!(series.interval_profiles().is_ok(), "samples are cumulative");
    // ...and the flushed report shows collector activity.
    let report =
        incprof_obs::RunReport::from_json(&std::fs::read_to_string(&metrics).expect("metrics"))
            .expect("parse run report");
    assert!(report.counters["collect.snapshot.count"] > 0);
    std::fs::remove_dir_all(&dir).ok();
}

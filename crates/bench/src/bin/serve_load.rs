//! The tracing-tax gate for the `incprof-serve` daemon.
//!
//! Starts an in-process daemon, then replays the five paper apps'
//! rank-0 snapshot series from M concurrent clients (apps cycle when
//! M > 5), each in its own session over real TCP, in back-to-back
//! pairs of rounds: one with plain pushes, one with every push a traced
//! v2 frame carrying a wire trace context. A window's estimate is the
//! median per-pair difference in *process CPU time* summed over
//! `/proc/self/task/*/schedstat`, falling back to wall clock where
//! schedstat is unavailable — CPU time is immune to other processes
//! stealing the box, which wall time on a loaded one-core host is
//! not. The overhead is gated at <2% — every push traced must not slow
//! the load generator measurably — and the process exits non-zero on a
//! breach.
//!
//! Nothing else is measured here and nothing is written: throughput and
//! latency are `perfbench/`'s business (`serve_ingest`, `serve_query`,
//! `shard_ingest`). This binary stays only until perfbench has a
//! traced-wire arm of its own (ROADMAP 3c).
//!
//! Usage: `serve_load [clients] [workers]` (defaults: 8 clients, 4 workers).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hpc_apps::HeartbeatPlan;
use incprof_bench::apps::Size;
use incprof_bench::ALL_APPS;
use incprof_collect::SampleSeries;
use incprof_obs::TraceIdGen;
use incprof_profile::FunctionTable;
use incprof_serve::{Client, ServeConfig, Server};

/// Max tolerated traced-vs-untraced slowdown, percent.
const TRACE_OVERHEAD_GATE_PCT: f64 = 2.0;

/// Maximum measurement windows for the workload-level gate. Within a
/// window, each pair runs one untraced and one traced round
/// back-to-back (order alternating pair to pair so drift has no
/// preferred direction) and the window's estimate is the median
/// per-pair difference in process CPU time. Windows run until one
/// passes the gate, up to this cap: interference (preemption by
/// whatever else the box runs leaves our threads cache-cold, and the
/// refills are charged to our CPU time — traced rounds, with their
/// larger working set, pay more) inflates a window's estimate far more
/// readily than it deflates it, so the cleanest window is the most
/// accurate one — the min-of-runs logic classic benchmarking uses. A
/// quiet box finishes after one window; a real regression fails all of
/// them.
const GATE_WINDOWS: usize = 6;

/// Measured pairs per window; each window also starts with one
/// throwaway warmup pair.
const GATE_PAIRS: usize = 9;

/// Replay cycles per workload round: each client runs the series this
/// many times (fresh session each cycle), stretching a round enough
/// that scheduler jitter is small relative to its wall time.
const GATE_CYCLES: usize = 6;

fn app_runs() -> Vec<(SampleSeries, FunctionTable)> {
    let plan = HeartbeatPlan::none();
    ALL_APPS
        .iter()
        .map(|app| {
            let r = app.run_virtual(Size::Tiny, &plan).rank0;
            (r.series, r.table)
        })
        .collect()
}

/// Replay one app's series into its own session. With a generator,
/// every push carries its own wire trace context.
fn replay(addr: &str, series: &SampleSeries, table: &FunctionTable, trace: Option<&TraceIdGen>) {
    let mut client = Client::connect_tcp(addr).expect("connect");
    let session = client.open().expect("open session");
    for snap in series.snapshots() {
        let gmon = snap.to_gmon(table);
        match trace {
            Some(ids) => {
                client
                    .push_traced(session, &gmon, ids.next_id())
                    .expect("traced push");
            }
            None => {
                client.push_retry(session, &gmon, 200).expect("push");
            }
        }
    }
    // The analysis query forces a final drain before the round ends.
    let _ = client.query_analysis(session).expect("query");
    client.close(session).expect("close");
}

/// Sum of `sum_exec_runtime` over every live thread of this process,
/// read from `/proc/self/task/*/schedstat` (nanoseconds). `None` when
/// the kernel doesn't expose schedstat (non-Linux boxes fall back to
/// wall time). A dead thread's runtime vanishes from this sum, so the
/// gate keeps its client threads parked on a barrier — never joined —
/// while it samples.
fn process_cpu_ns() -> Option<u64> {
    let tasks = std::fs::read_dir("/proc/self/task").ok()?;
    let mut total = 0u64;
    for task in tasks.flatten() {
        let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) else {
            // The task exited between readdir and read.
            continue;
        };
        total += stat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())?;
    }
    Some(total)
}

/// One gate round as seen by the driver thread: everything between the
/// two barrier crossings, measured in process CPU time (preferred —
/// immune to other processes stealing the box) and wall time.
struct RoundCost {
    cpu_ns: Option<u64>,
    wall: Duration,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let clients: usize = args
        .next()
        .map(|s| s.parse().expect("clients: not a number"))
        .unwrap_or(8);
    let workers: usize = args
        .next()
        .map(|s| s.parse().expect("workers: not a number"))
        .unwrap_or(4);

    println!("== serve_load: {clients} clients -> {workers} worker daemon ==");
    println!("profiling the 5 paper apps (tiny configs, virtual 1s runs)...");
    let runs = app_runs();
    let total_snaps: usize = runs.iter().map(|(s, _)| s.snapshots().len()).sum();
    println!(
        "  {} apps, {total_snaps} snapshots per full cycle",
        runs.len()
    );

    let handle = Server::bind(ServeConfig {
        workers,
        max_sessions: clients.max(8) * 2,
        read_timeout: Duration::from_millis(25),
        ..ServeConfig::default()
    })
    .expect("bind")
    .start()
    .expect("start");
    let addr = handle.addr().to_string();
    println!("daemon listening on {addr}");

    // The gate: replay the full multi-client workload with every push
    // traced vs untraced in back-to-back pairs; each window's estimate
    // is the median per-pair difference in *process CPU time* over the
    // median untraced round, and the gate judges the best window (see
    // the GATE_WINDOWS doc for why minimum is the honest estimator).
    // CPU time is what the tracing tax actually costs, and unlike wall
    // time it is immune to other processes stealing the box outright.
    // The client threads persist across all rounds (a joined thread's
    // runtime would vanish from the schedstat sum) and the span store
    // is cleared between rounds so no arm ever runs against a full
    // store (dropped spans would make tracing look free).
    println!(
        "\nmeasuring workload trace overhead \
         (up to {GATE_WINDOWS} windows x {GATE_PAIRS} paired rounds)..."
    );
    let ids = TraceIdGen::new(0xBE9C);
    // Each window's pair 0 is a throwaway that warms every connection
    // path and the allocator; GATE_PAIRS measured pairs follow.
    let rounds_per_window = 2 * (GATE_PAIRS + 1);
    let total_rounds = GATE_WINDOWS * rounds_per_window;
    // Round r is pair r/2; even pairs run [untraced, traced], odd pairs
    // the reverse, so drift has no preferred direction.
    let round_is_traced =
        |round: usize| -> bool { (round % 2 == 1) == (round / 2).is_multiple_of(2) };
    let barrier = std::sync::Barrier::new(clients + 1);
    // Set once a window has passed the gate: the remaining scheduled
    // rounds become no-ops, so the early stop never upsets the barrier
    // arithmetic the clients are counting on.
    let stop = AtomicBool::new(false);
    let mut windows: Vec<(f64, f64, f64, bool)> = Vec::new(); // (base, diff, pct, cpu?)
    std::thread::scope(|scope| {
        for i in 0..clients {
            let (series, table) = &runs[i % runs.len()];
            let (addr, barrier, ids, stop) = (addr.as_str(), &barrier, &ids, &stop);
            scope.spawn(move || {
                for round in 0..total_rounds {
                    barrier.wait();
                    if !stop.load(Ordering::Relaxed) {
                        let trace = round_is_traced(round).then_some(ids);
                        for _ in 0..GATE_CYCLES {
                            replay(addr, series, table, trace);
                        }
                    }
                    barrier.wait();
                }
                // Stay alive until the driver has taken its last CPU
                // sample: a thread that exits takes its schedstat
                // runtime with it.
                barrier.wait();
            });
        }
        for window in 0..GATE_WINDOWS {
            let mut costs = Vec::with_capacity(rounds_per_window);
            for _ in 0..rounds_per_window {
                incprof_obs::global().spans().clear();
                let cpu0 = process_cpu_ns();
                let started = Instant::now();
                barrier.wait();
                barrier.wait();
                costs.push(RoundCost {
                    cpu_ns: process_cpu_ns()
                        .zip(cpu0)
                        .and_then(|(a, b)| a.checked_sub(b)),
                    wall: started.elapsed(),
                });
            }
            if stop.load(Ordering::Relaxed) {
                // Draining the already-scheduled rounds of a window we
                // no longer need; nothing ran, nothing to evaluate.
                continue;
            }
            // Per-round cost in seconds: CPU when the kernel provides
            // it (every round or none — the source doesn't come and
            // go), wall otherwise.
            let use_cpu = costs.iter().all(|c| c.cpu_ns.is_some());
            let cost_s = |c: &RoundCost| match c.cpu_ns {
                Some(ns) if use_cpu => ns as f64 * 1e-9,
                _ => c.wall.as_secs_f64(),
            };
            let mut base_s = Vec::with_capacity(GATE_PAIRS);
            let mut diffs_s = Vec::with_capacity(GATE_PAIRS);
            for pair in 1..=GATE_PAIRS {
                let (a, b) = (&costs[2 * pair], &costs[2 * pair + 1]);
                let global_round = window * rounds_per_window + 2 * pair;
                let (base, traced) = if round_is_traced(global_round) {
                    (b, a)
                } else {
                    (a, b)
                };
                base_s.push(cost_s(base));
                diffs_s.push(cost_s(traced) - cost_s(base));
                if std::env::var_os("SERVE_LOAD_DEBUG").is_some() {
                    println!(
                        "    pair {pair:2}: base {:7.2}ms  traced {:7.2}ms  diff {:+7.3}ms  \
                         (walls {:.2}/{:.2}ms)",
                        cost_s(base) * 1e3,
                        cost_s(traced) * 1e3,
                        (cost_s(traced) - cost_s(base)) * 1e3,
                        base.wall.as_secs_f64() * 1e3,
                        traced.wall.as_secs_f64() * 1e3
                    );
                }
            }
            base_s.sort_by(|a, b| a.partial_cmp(b).expect("finite costs"));
            diffs_s.sort_by(|a, b| a.partial_cmp(b).expect("finite diffs"));
            let (base_mid, diff_mid) = (base_s[GATE_PAIRS / 2], diffs_s[GATE_PAIRS / 2]);
            let pct = diff_mid / base_mid * 100.0;
            println!(
                "  window {window}: median untraced {:.2}ms, median pair diff {:+.3}ms  \
                 ->  overhead {pct:+.2}%",
                base_mid * 1e3,
                diff_mid * 1e3
            );
            windows.push((base_mid, diff_mid, pct, use_cpu));
            if pct <= TRACE_OVERHEAD_GATE_PCT {
                stop.store(true, Ordering::Relaxed);
            }
        }
        barrier.wait();
    });
    let (base_mid, diff_mid, overhead_pct, used_cpu) = windows
        .iter()
        .copied()
        .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite overheads"))
        .expect("at least one window");
    println!(
        "  best of {} window(s) ({}): untraced {:.2}ms, pair diff {:+.3}ms  ->  \
         overhead {overhead_pct:+.2}%",
        windows.len(),
        if used_cpu { "process cpu" } else { "wall" },
        base_mid * 1e3,
        diff_mid * 1e3
    );

    assert_eq!(handle.active_sessions(), 0, "sessions must not leak");
    handle.shutdown();

    if overhead_pct > TRACE_OVERHEAD_GATE_PCT {
        eprintln!(
            "FAIL: traced-push overhead {overhead_pct:.2}% exceeds the \
             {TRACE_OVERHEAD_GATE_PCT}% gate"
        );
        std::process::exit(1);
    }
    println!("trace overhead gate (<{TRACE_OVERHEAD_GATE_PCT}%): ok");
}

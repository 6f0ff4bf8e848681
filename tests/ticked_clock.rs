//! The ticked wall clock under concurrent load and over its lifetime.
//!
//! `Clock::ticked` is what the wall-mode profiler reads: one shared ticker
//! thread publishes wall time every millisecond, and runs only while some
//! ticked clock is alive. The ticker is process-global, so the tests here
//! take one lock and run one at a time.

use incprof_suite::collect::{CollectorConfig, IncProfCollector};
use incprof_suite::runtime::{Clock, ProfilerRuntime};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Poll `cond` for up to ten seconds.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

const THREADS: usize = 4;
/// Wall snapshots the collector must take while the workers run.
const MIN_SNAPSHOTS: u64 = 20;

#[test]
fn wall_snapshots_of_four_busy_threads_are_consistent() {
    let _serial = serial();
    let rt = ProfilerRuntime::new();
    let outer = rt.register_function("outer");
    let inner: Vec<_> = (0..THREADS)
        .map(|t| rt.register_function(format!("inner_{t}")))
        .collect();
    let collector = IncProfCollector::start_wall(
        rt.clone(),
        CollectorConfig {
            interval_ns: 2_000_000,
        },
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    let entered: u64 = std::thread::scope(|s| {
        let workers: Vec<_> = inner
            .iter()
            .map(|&f| {
                let (rt, collector) = (&rt, &collector);
                s.spawn(move || {
                    let mut calls = 0u64;
                    while collector.samples_taken() < MIN_SNAPSHOTS && Instant::now() < deadline {
                        let _outer = rt.enter(outer);
                        let _inner = rt.enter(f);
                        calls += 2;
                    }
                    calls
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });
    let series = collector.stop();
    assert!(
        series.len() as u64 > MIN_SNAPSHOTS,
        "{} snapshots",
        series.len()
    );

    // Consecutive cumulative snapshots difference cleanly: no counter of
    // any function or arc ever went backwards, and neither did time.
    series
        .interval_profiles()
        .expect("flat counters never regress");
    for pair in series.snapshots().windows(2) {
        assert!(pair[1].timestamp_ns >= pair[0].timestamp_ns);
        pair[1]
            .callgraph
            .delta(&pair[0].callgraph)
            .expect("arc counters never regress");
    }

    // The final snapshot holds every call entered, exactly.
    let last = series.last().unwrap();
    assert_eq!(last.flat.total_calls(), entered);
    assert_eq!(last.flat.get(outer).calls, entered / 2);
    for &f in &inner {
        assert_eq!(last.callgraph.get(outer, f).count, last.flat.get(f).calls);
    }
}

/// Threads of this process named like the ticker.
#[cfg(target_os = "linux")]
fn tickers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(Result::ok)
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.trim() == "incprof-ticker")
        })
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn the_ticker_runs_only_while_a_ticked_clock_is_alive() {
    let _serial = serial();
    assert!(
        eventually(|| tickers() == 0),
        "a ticker outlived its clocks"
    );

    let clock = Clock::ticked();
    let clone = clock.clone();
    let rt = ProfilerRuntime::new();
    assert!(
        eventually(|| tickers() == 1),
        "one ticker serves every clock"
    );
    drop(clock);
    drop(rt);
    std::thread::sleep(Duration::from_millis(10));
    assert_eq!(tickers(), 1, "a live clone keeps the ticker running");
    let before = clone.now_ns();
    assert!(eventually(|| clone.now_ns() > before), "the ticker ticks");

    drop(clone);
    assert!(
        eventually(|| tickers() == 0),
        "the ticker exits after the last ticked clock drops"
    );

    // A clock created afterwards starts a fresh ticker.
    let again = Clock::ticked();
    let before = again.now_ns();
    assert!(eventually(|| again.now_ns() > before));
    assert_eq!(tickers(), 1);
    drop(again);
    assert!(eventually(|| tickers() == 0));
}

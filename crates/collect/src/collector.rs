//! The IncProf collector: periodic cumulative snapshots.
//!
//! Two operating modes mirror the two clocks:
//!
//! * **Wall mode** ([`IncProfCollector::start_wall`]) — a background
//!   thread sleeps `interval_ns`, wakes, snapshots the runtime (the
//!   "call the gprof write function, rename the file" step of Fig. 1),
//!   and goes back to sleep, until stopped. This is the configuration
//!   used for real overhead measurements.
//! * **Manual mode** ([`IncProfCollector::manual`]) — the simulation
//!   driver calls [`IncProfCollector::tick`] at each virtual interval
//!   boundary, giving a deterministic sample series.

use crate::series::SampleSeries;
use incprof_runtime::ProfilerRuntime;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Collector configuration.
#[derive(Debug, Clone)]
pub struct CollectorConfig {
    /// Sampling interval in nanoseconds. The paper samples once per
    /// second ("Our IncProf sampling rate was set to one second", §VI).
    pub interval_ns: u64,
}

impl Default for CollectorConfig {
    fn default() -> Self {
        CollectorConfig {
            interval_ns: 1_000_000_000,
        }
    }
}

struct CollectorShared {
    runtime: ProfilerRuntime,
    config: CollectorConfig,
    series: Mutex<SampleSeries>,
    next_index: AtomicU64,
    stop: AtomicBool,
}

impl CollectorShared {
    fn take_sample(&self) {
        let started = Instant::now();
        let idx = self.next_index.fetch_add(1, Ordering::Relaxed);
        let snap = self.runtime.snapshot(idx);
        self.series.lock().push(snap);
        incprof_obs::histogram(incprof_obs::names::COLLECT_SNAPSHOT_LATENCY_NS)
            .record(started.elapsed().as_nanos() as u64);
        incprof_obs::counter(incprof_obs::names::COLLECT_SNAPSHOT_COUNT).inc();
    }
}

/// Handle to a running or manual collector.
pub struct IncProfCollector {
    shared: Arc<CollectorShared>,
    thread: Option<JoinHandle<()>>,
}

impl IncProfCollector {
    /// Create a manual-mode collector: no thread is spawned; the driver
    /// calls [`IncProfCollector::tick`] at interval boundaries.
    pub fn manual(runtime: ProfilerRuntime, config: CollectorConfig) -> IncProfCollector {
        IncProfCollector {
            shared: Arc::new(CollectorShared {
                runtime,
                config,
                series: Mutex::new(SampleSeries::new()),
                next_index: AtomicU64::new(0),
                stop: AtomicBool::new(false),
            }),
            thread: None,
        }
    }

    /// Start a wall-clock collector thread that samples every
    /// `config.interval_ns` until [`IncProfCollector::stop`] is called.
    ///
    /// Ticks are scheduled against *absolute* deadlines (`start +
    /// n·interval`) rather than by sleeping the interval after each
    /// sample, so snapshot cost and scheduler wakeup jitter do not
    /// accumulate into drift over a long run. A tick whose deadline has
    /// already passed by a full interval (the snapshot overran) is
    /// skipped and counted in `collect.collector.ticks_missed`; wakeup
    /// lateness is recorded in `collect.collector.tick_jitter_ns`.
    pub fn start_wall(runtime: ProfilerRuntime, config: CollectorConfig) -> IncProfCollector {
        let mut c = Self::manual(runtime, config);
        let shared = Arc::clone(&c.shared);
        let interval_ns = shared.config.interval_ns.max(1);
        c.thread = Some(std::thread::spawn(move || {
            // Sleep/wakeup cycle (paper Fig. 1). Sleeping in small slices
            // keeps stop() latency low without busy-waiting.
            let start = Instant::now();
            let slice = Duration::from_millis(5);
            let mut tick: u64 = 1; // next deadline is start + tick·interval
            while !shared.stop.load(Ordering::Acquire) {
                let deadline = start + Duration::from_nanos(interval_ns.saturating_mul(tick));
                loop {
                    if shared.stop.load(Ordering::Acquire) {
                        return;
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    std::thread::sleep((deadline - now).min(slice));
                }
                let lateness_ns = (Instant::now() - deadline).as_nanos() as u64;
                incprof_obs::histogram(incprof_obs::names::COLLECT_TICK_JITTER_NS)
                    .record(lateness_ns);
                shared.take_sample();
                // If sampling overran one or more whole intervals, jump to
                // the next future deadline instead of firing a burst of
                // back-to-back catch-up samples.
                let elapsed_ns = (Instant::now() - start).as_nanos() as u64;
                let next_due = elapsed_ns / interval_ns + 1;
                if next_due > tick + 1 {
                    let missed = next_due - tick - 1;
                    incprof_obs::counter(incprof_obs::names::COLLECT_TICKS_MISSED).add(missed);
                    incprof_obs::warn!(
                        "collector overran {missed} tick(s) at interval {interval_ns} ns"
                    );
                    tick = next_due;
                } else {
                    tick += 1;
                }
            }
        }));
        c
    }

    /// Manually take one sample (manual mode; also works in wall mode for
    /// a final end-of-run sample after [`IncProfCollector::stop`]).
    pub fn tick(&self) {
        self.shared.take_sample();
    }

    /// Stop the background thread (if any) and take one final sample so
    /// the series always ends with the complete run profile. Returns the
    /// collected series.
    pub fn stop(mut self) -> SampleSeries {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.shared.take_sample();
        self.shared.series.lock().clone()
    }

    /// Finish a manual-mode collection without adding a final sample.
    pub fn into_series(mut self) -> SampleSeries {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        self.shared.series.lock().clone()
    }

    /// Number of samples collected so far.
    pub fn samples_taken(&self) -> u64 {
        self.shared.next_index.load(Ordering::Relaxed)
    }
}

impl Drop for IncProfCollector {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incprof_runtime::Clock;

    #[test]
    fn manual_mode_collects_deterministic_series() {
        let clock = Clock::virtual_clock();
        let rt = ProfilerRuntime::with_clock(clock.clone());
        let f = rt.register_function("work");
        let collector = IncProfCollector::manual(rt.clone(), CollectorConfig::default());

        for interval in 0..5u64 {
            {
                let _g = rt.enter(f);
                clock.advance(1_000_000_000);
            }
            collector.tick();
            let _ = interval;
        }
        let series = collector.into_series();
        assert_eq!(series.len(), 5);
        let intervals = series.interval_profiles().unwrap();
        for p in &intervals {
            assert_eq!(p.get(f).self_time, 1_000_000_000);
            assert_eq!(p.get(f).calls, 1);
        }
    }

    #[test]
    fn wall_mode_collects_samples_over_real_time() {
        let rt = ProfilerRuntime::new(); // wall clock
        let f = rt.register_function("spin");
        let collector = IncProfCollector::start_wall(
            rt.clone(),
            CollectorConfig {
                interval_ns: 20_000_000, // 20 ms
            },
        );
        let deadline = std::time::Instant::now() + Duration::from_millis(120);
        while std::time::Instant::now() < deadline {
            let _g = rt.enter(f);
            std::hint::black_box(0u64);
        }
        let series = collector.stop();
        // ~6 interval samples plus the final stop() sample; allow slack
        // for scheduler jitter.
        assert!(series.len() >= 3, "only {} samples", series.len());
        let last = series.last().unwrap();
        assert!(last.flat.get(f).calls > 0);
        assert!(last.flat.get(f).self_time > 0);
        // Monotone cumulative series.
        assert!(series.interval_profiles().is_ok());
    }

    #[test]
    fn wall_mode_ticks_track_absolute_deadlines() {
        let rt = ProfilerRuntime::new();
        let collector = IncProfCollector::start_wall(
            rt,
            CollectorConfig {
                interval_ns: 10_000_000, // 10 ms
            },
        );
        std::thread::sleep(Duration::from_millis(105));
        let series = collector.stop();
        // Absolute deadlines: ~10 ticks in 105 ms (+ the final stop
        // sample). Relative sleeps would drift short under snapshot cost;
        // allow generous slack for CI scheduling but require most ticks.
        assert!(series.len() >= 7, "only {} samples in 105 ms", series.len());
        assert!(series.len() <= 12, "{} samples in 105 ms", series.len());
        // Every tick recorded its wakeup lateness.
        let jitter = incprof_obs::histogram(incprof_obs::names::COLLECT_TICK_JITTER_NS);
        assert!(jitter.count() >= series.len() as u64 - 1);
    }

    #[test]
    fn stop_appends_final_sample() {
        let rt = ProfilerRuntime::with_clock(Clock::virtual_clock());
        let collector = IncProfCollector::manual(rt, CollectorConfig::default());
        collector.tick();
        let series = collector.stop();
        assert_eq!(series.len(), 2, "tick + final stop sample");
    }

    #[test]
    fn samples_taken_counts() {
        let rt = ProfilerRuntime::with_clock(Clock::virtual_clock());
        let collector = IncProfCollector::manual(rt, CollectorConfig::default());
        assert_eq!(collector.samples_taken(), 0);
        collector.tick();
        collector.tick();
        assert_eq!(collector.samples_taken(), 2);
    }
}

//! The per-rank execution harness shared by all five applications.
//!
//! A [`RankContext`] bundles everything one MPI-rank-equivalent needs:
//! the profiling runtime (the `-pg` equivalent), the AppEKG instance, the
//! clock, and — in virtual mode — the IncProf collector, which the
//! context ticks automatically whenever [`RankContext::advance`] crosses
//! an interval boundary. That reproduces the paper's collection loop
//! (snapshot once per second, wherever the application happens to be in
//! its call stack) deterministically.
//!
//! The **cost model**: in virtual mode, kernels do their real computation
//! and then call `advance(ops * NS_PER_OP)` with per-app calibrated
//! constants, so a run spans the same number of 1-second intervals as the
//! paper's 5–10-minute runs while finishing in milliseconds. In wall mode
//! `advance` is a no-op and elapsed real time is what it is — that mode
//! exists for the Table I overhead measurements.

use appekg::{AppEkg, IntervalRecord};
use incprof_collect::{CollectorConfig, IncProfCollector, SampleSeries};
use incprof_profile::{FunctionId, FunctionTable};
use incprof_runtime::{Clock, ProfilerRuntime};
use std::sync::atomic::{AtomicU64, Ordering};

/// How an application run is clocked and collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Deterministic virtual time; the collector is ticked at every
    /// interval boundary crossed by [`RankContext::advance`]. Requires a
    /// single rank (`procs = 1`) for determinism.
    Virtual {
        /// Profile/heartbeat interval in virtual nanoseconds (paper: 1 s).
        interval_ns: u64,
    },
    /// Real time; a background collector thread samples every
    /// `interval_ns` when `profile` is true. Used for overhead runs.
    Wall {
        /// Collector and heartbeat interval in real nanoseconds.
        interval_ns: u64,
        /// Enable the profiler + collector (IncProf on/off).
        profile: bool,
    },
}

impl RunMode {
    /// The interval length for this mode.
    pub fn interval_ns(&self) -> u64 {
        match self {
            RunMode::Virtual { interval_ns } | RunMode::Wall { interval_ns, .. } => *interval_ns,
        }
    }

    /// Standard virtual mode with the paper's 1-second interval.
    pub fn virtual_1s() -> RunMode {
        RunMode::Virtual {
            interval_ns: 1_000_000_000,
        }
    }
}

/// Everything a rank needs while running, plus collection state.
pub struct RankContext {
    /// The `-pg`-equivalent profiling runtime.
    pub rt: ProfilerRuntime,
    /// The AppEKG heartbeat framework instance.
    pub ekg: AppEkg,
    /// The clock `ekg` reads, and `rt` too unless it profiles wall time.
    pub clock: Clock,
    collector: Option<IncProfCollector>,
    interval_ns: u64,
    virtual_mode: bool,
    next_boundary: AtomicU64,
    started: std::time::Instant,
}

impl RankContext {
    /// Create a context for `mode`. Profiled wall mode reads [`Clock::ticked`]; with
    /// `profile = false` the profiler is disabled (its guards cost one atomic load) and no
    /// collector or ticker runs — the uninstrumented baseline.
    pub fn new(mode: RunMode) -> RankContext {
        match mode {
            RunMode::Virtual { interval_ns } => {
                let clock = Clock::virtual_clock();
                let rt = ProfilerRuntime::with_clock(clock.clone());
                let ekg = AppEkg::new(clock.clone(), interval_ns);
                let collector =
                    IncProfCollector::manual(rt.clone(), CollectorConfig { interval_ns });
                RankContext {
                    rt,
                    ekg,
                    clock,
                    collector: Some(collector),
                    interval_ns,
                    virtual_mode: true,
                    next_boundary: AtomicU64::new(interval_ns),
                    started: std::time::Instant::now(),
                }
            }
            RunMode::Wall {
                interval_ns,
                profile,
            } => {
                let (clock, ticked) = (Clock::wall(), profile.then(Clock::ticked));
                let rt = ProfilerRuntime::with_clock(ticked.unwrap_or_else(|| clock.clone()));
                rt.set_enabled(profile);
                let ekg = AppEkg::new(clock.clone(), interval_ns);
                let collector = profile.then(|| {
                    IncProfCollector::start_wall(rt.clone(), CollectorConfig { interval_ns })
                });
                RankContext {
                    rt,
                    ekg,
                    clock,
                    collector,
                    interval_ns,
                    virtual_mode: false,
                    next_boundary: AtomicU64::new(interval_ns),
                    started: std::time::Instant::now(),
                }
            }
        }
    }

    /// Advance virtual time by `ns` (cost-model charge), ticking the
    /// collector at every interval boundary crossed. A charge that spans
    /// several boundaries is applied in steps — advance to the boundary,
    /// snapshot, continue — so each cumulative sample is taken *at* its
    /// boundary, exactly like the paper's once-per-second renames. No-op
    /// on the wall and ticked clocks.
    pub fn advance(&self, ns: u64) {
        if !self.virtual_mode {
            return;
        }
        let mut remaining = ns;
        while remaining > 0 {
            let now = self.clock.now_ns();
            let boundary = self.next_boundary.load(Ordering::Acquire);
            let to_boundary = boundary.saturating_sub(now);
            if remaining < to_boundary {
                self.clock.advance(remaining);
                break;
            }
            self.clock.advance(to_boundary);
            remaining -= to_boundary;
            self.next_boundary
                .store(boundary + self.interval_ns, Ordering::Release);
            if let Some(c) = &self.collector {
                c.tick();
            }
        }
    }

    /// The interval length.
    pub fn interval_ns(&self) -> u64 {
        self.interval_ns
    }

    /// Whether this context runs on virtual time.
    pub fn is_virtual(&self) -> bool {
        self.virtual_mode
    }

    /// Finish the run: stop the collector (taking a final sample) and
    /// flush all heartbeat records.
    pub fn finish(self) -> RankData {
        let elapsed_wall_ns = self.started.elapsed().as_nanos() as u64;
        let table = self.rt.function_table();
        let series = match self.collector {
            Some(c) => c.stop(),
            None => SampleSeries::new(),
        };
        let hb_records = self.ekg.finish();
        let hb_names = self.ekg.heartbeat_names();
        RankData {
            series,
            table,
            hb_records,
            hb_names,
            elapsed_wall_ns,
            elapsed_virtual_ns: if self.virtual_mode {
                self.clock.now_ns()
            } else {
                0
            },
        }
    }
}

/// The collected artifacts of one rank's run.
#[derive(Debug, Clone)]
pub struct RankData {
    /// Cumulative profile samples (one per interval, plus the final one).
    pub series: SampleSeries,
    /// Function table of the rank's profiler runtime.
    pub table: FunctionTable,
    /// Heartbeat interval records.
    pub hb_records: Vec<IntervalRecord>,
    /// Heartbeat names, indexed by heartbeat id.
    pub hb_names: Vec<String>,
    /// Real elapsed time of the rank.
    pub elapsed_wall_ns: u64,
    /// Final virtual clock reading (0 in wall mode).
    pub elapsed_virtual_ns: u64,
}

impl RankData {
    /// Number of complete intervals the run spanned.
    pub fn n_intervals(&self) -> usize {
        self.series.len()
    }
}

/// Output of a full application run.
#[derive(Debug, Clone)]
pub struct AppOutput {
    /// Rank 0's collected data (the paper analyzes one representative
    /// rank of the symmetric job).
    pub rank0: RankData,
    /// Every rank's final cumulative flat profile, in rank order (rank 0
    /// stands for the whole symmetric job; the others let tests check
    /// that symmetry).
    pub rank_profiles: Vec<incprof_profile::FlatProfile>,
    /// A scalar application result (checksum / energy / residual) for
    /// correctness assertions — phases must come from *real* computation.
    pub result_check: f64,
    /// Wall time of the slowest rank (job makespan).
    pub makespan_ns: u64,
}

/// Convenience: pre-registered function ids for an app's instrumented
/// functions. Apps build one of these at rank start so profiling guards
/// never do name lookups on the hot path.
#[derive(Debug, Clone)]
pub struct Funcs {
    ids: Vec<FunctionId>,
    names: Vec<&'static str>,
}

impl Funcs {
    /// Register `names` in order; ids are retrieved positionally via
    /// [`Funcs::id`].
    pub fn register(rt: &ProfilerRuntime, names: &[&'static str]) -> Funcs {
        Funcs {
            ids: names.iter().map(|n| rt.register_function(*n)).collect(),
            names: names.to_vec(),
        }
    }

    /// Id of the `idx`-th registered name.
    #[inline]
    pub fn id(&self, idx: usize) -> FunctionId {
        self.ids[idx]
    }

    /// Name of the `idx`-th registered function.
    pub fn name(&self, idx: usize) -> &'static str {
        self.names[idx]
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn virtual_context_ticks_collector_on_boundaries() {
        let ctx = RankContext::new(RunMode::Virtual { interval_ns: 1_000 });
        let f = ctx.rt.register_function("work");
        for _ in 0..5 {
            let _g = ctx.rt.enter(f);
            ctx.advance(1_000); // exactly one interval each
        }
        let data = ctx.finish();
        // 5 boundary ticks + 1 final stop sample.
        assert_eq!(data.n_intervals(), 6);
        let intervals = data.series.interval_profiles().unwrap();
        let id = data.table.id_of("work").unwrap();
        for p in intervals.iter().take(5) {
            assert_eq!(p.get(id).self_time, 1_000);
        }
    }

    #[test]
    fn large_advance_ticks_multiple_boundaries() {
        let ctx = RankContext::new(RunMode::Virtual { interval_ns: 1_000 });
        let f = ctx.rt.register_function("long");
        {
            let _g = ctx.rt.enter(f);
            ctx.advance(3_500); // crosses 3 boundaries at once
        }
        let data = ctx.finish();
        assert_eq!(data.n_intervals(), 4); // 3 ticks + final
        let intervals = data.series.interval_profiles().unwrap();
        let id = data.table.id_of("long").unwrap();
        // Long call spreads self time across intervals; call counted once
        // in its first interval.
        assert_eq!(intervals[0].get(id).calls, 1);
        assert_eq!(intervals[0].get(id).self_time, 1_000);
        assert_eq!(intervals[1].get(id).calls, 0);
        assert_eq!(intervals[1].get(id).self_time, 1_000);
    }

    #[test]
    fn wall_unprofiled_context_collects_nothing() {
        let ctx = RankContext::new(RunMode::Wall {
            interval_ns: 10_000_000,
            profile: false,
        });
        let f = ctx.rt.register_function("work");
        {
            let _g = ctx.rt.enter(f);
        }
        let data = ctx.finish();
        assert_eq!(data.n_intervals(), 0);
        assert!(!ctx_is_profiled(&data));
    }

    fn ctx_is_profiled(data: &RankData) -> bool {
        data.series.last().is_some_and(|s| !s.flat.is_empty())
    }

    #[test]
    fn wall_profiled_context_collects() {
        let ctx = RankContext::new(RunMode::Wall {
            interval_ns: 5_000_000,
            profile: true,
        });
        let f = ctx.rt.register_function("spin");
        let deadline = std::time::Instant::now() + std::time::Duration::from_millis(30);
        while std::time::Instant::now() < deadline {
            let _g = ctx.rt.enter(f);
            std::hint::black_box(1u64);
        }
        let data = ctx.finish();
        assert!(data.n_intervals() >= 1);
        assert!(data.elapsed_wall_ns > 0);
    }

    #[test]
    fn advance_is_noop_on_wall() {
        let ctx = RankContext::new(RunMode::Wall {
            interval_ns: 1_000_000,
            profile: false,
        });
        ctx.advance(10_000_000_000);
        assert!(!ctx.is_virtual());
        let data = ctx.finish();
        assert_eq!(data.elapsed_virtual_ns, 0);
    }

    #[test]
    fn funcs_registry_roundtrip() {
        let rt = ProfilerRuntime::with_clock(Clock::virtual_clock());
        let funcs = Funcs::register(&rt, &["alpha", "beta"]);
        assert_eq!(funcs.len(), 2);
        assert_eq!(rt.function_id("alpha"), Some(funcs.id(0)));
        assert_eq!(funcs.name(1), "beta");
    }

    #[test]
    fn heartbeats_flow_through_context() {
        let ctx = RankContext::new(RunMode::Virtual { interval_ns: 1_000 });
        let hb = ctx.ekg.register_heartbeat("beat");
        ctx.ekg.begin(hb);
        ctx.advance(100);
        ctx.ekg.end(hb);
        let data = ctx.finish();
        assert_eq!(data.hb_records.len(), 1);
        assert_eq!(data.hb_names, vec!["beat"]);
    }
}

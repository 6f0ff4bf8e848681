//! The six workloads and what they share.

pub mod analyze_batch;
pub mod collect_apps;
pub mod restart_recover;
pub mod serve;

use crate::stats;
use crate::trace::Recorder;
use std::collections::BTreeMap;
use std::time::Instant;

/// Appends between analysis checkpoints wherever a workload attaches a
/// store (the daemon's default).
pub const CHECKPOINT_EVERY: u64 = 16;

/// Per-layer metric values by name; a name a workload never sets is
/// reported as 0 (the layer was idle on that workload).
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Latency samples of one kind of operation, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Latency {
    pub p50: f64,
    pub tail: f64,
    pub samples: usize,
}

impl Latency {
    /// For an operation a run repeats fewer than twenty times: there is
    /// no tail to report, so the tail slot repeats the median.
    pub fn median_only(samples_ms: Vec<f64>) -> Latency {
        let v = stats::sorted(samples_ms);
        let p50 = stats::median(&v);
        Latency {
            p50,
            tail: p50,
            samples: v.len(),
        }
    }

    /// Median and `tail_q` percentile of each window (one repetition of
    /// the workload: a session, a restart round), then the median of
    /// each over the windows. A neighbour on the shared machine that
    /// disturbs part of a run slows the windows it overlaps and leaves
    /// the reported values alone until it covers half the run; pooled
    /// over the run, the p99 of `shard_ingest` moved between 0.85 and
    /// 2.4 ms under an intermittent neighbour while the median of the
    /// per-session p99 stayed within 0.74–0.84 ms.
    pub fn of_windows(windows_ms: Vec<Vec<f64>>, tail_q: f64) -> Latency {
        let samples = windows_ms.iter().map(Vec::len).sum();
        let (p50s, tails): (Vec<f64>, Vec<f64>) = windows_ms
            .into_iter()
            .filter(|w| !w.is_empty())
            .map(|w| {
                let v = stats::sorted(w);
                (stats::median(&v), stats::percentile(&v, tail_q))
            })
            .unzip();
        Latency {
            p50: stats::median(&stats::sorted(p50s)),
            tail: stats::median(&stats::sorted(tails)),
            samples,
        }
    }
}

/// What one timed body produced.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Primary operations completed.
    pub ops: u64,
    /// Wall seconds of the timed body.
    pub wall_s: f64,
    /// Wall seconds of each whole repetition of the body (a session, a
    /// round, a pair of passes), over all lanes.
    pub rep_s: Vec<f64>,
    /// Repetitions running side by side (closed-loop clients).
    pub lanes: usize,
    /// Process CPU seconds over the timed body.
    pub cpu_s: f64,
    /// CPU seconds of the threads that generate load (the harness's own).
    pub generator_cpu_s: f64,
    pub primary: Latency,
    pub secondary: Latency,
    /// The workload's dimensionless cost (see the README's slot table).
    pub cost_ratio: f64,
    /// Operations and output checks attempted / failed.
    pub attempted: u64,
    pub failed: u64,
    /// The same numbers under the names the design issue gave them,
    /// `(name, value, unit)`, for the human-readable print-out.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Counts gathered during the body (obs counter deltas, exact sizes).
    pub layer: LayerMetrics,
}

impl Outcome {
    /// Primary operations per second: those of one repetition over the
    /// median repetition's wall time, times the lanes. Like the
    /// latencies, and unlike operations over the whole wall time, it
    /// does not follow a neighbour that slows part of the run.
    pub fn ops_per_s(&self) -> f64 {
        let per_rep = self.ops as f64 / self.rep_s.len().max(1) as f64;
        per_rep * self.lanes as f64 / stats::median(&stats::sorted(self.rep_s.clone()))
    }
}

/// One workload, already set up (inputs made from the seed, daemons
/// started, stores built, warm-up done): a timed closed-loop body and
/// probes of the layers it exercises.
pub trait Workload: Sized {
    /// Run the closed loop for about `seconds`, ending on a whole
    /// repetition. Spans go to `rec` when it is enabled.
    fn run(&mut self, seconds: f64, rec: &mut Recorder) -> Outcome;
    /// Time the harness's direct calls into the layers this workload
    /// exercises, on the workload's own inputs (traced run only).
    /// The server side of an operation is replayed in-process here, under
    /// spans of its own.
    fn probe(&mut self, rec: &mut Recorder, layer: &mut LayerMetrics);
    /// Stop what set-up started.
    fn teardown(self);
}

/// A deadline the loops poll between repetitions.
pub struct Deadline {
    start: Instant,
    seconds: f64,
}

impl Deadline {
    pub fn new(seconds: f64) -> Deadline {
        Deadline {
            start: Instant::now(),
            seconds,
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Whether a repetition expected to take `next_s` should still start:
    /// yes while it would end closer to the deadline than not running it.
    pub fn has_room_for(&self, next_s: f64) -> bool {
        self.elapsed_s() + next_s / 2.0 < self.seconds
    }
}

/// Difference of an obs counter against an earlier reading.
pub struct CounterMark(Vec<(String, u64)>);

impl CounterMark {
    pub fn take(names: &[String]) -> CounterMark {
        CounterMark(
            names
                .iter()
                .map(|n| (n.clone(), incprof_obs::counter(n).get()))
                .collect(),
        )
    }

    /// Increase of `name` since the mark (0 for a name not marked).
    pub fn delta(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(n, before)| {
                incprof_obs::counter(n).get().saturating_sub(*before) as f64
            })
    }
}

/// Mean wall time of `f` over `iters` calls, in nanoseconds.
pub fn mean_ns(iters: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_latency_ignores_a_disturbed_window() {
        let windows = vec![
            vec![1.0, 2.0, 3.0],
            vec![10.0, 20.0, 30.0],
            vec![],
            vec![2.0, 3.0, 4.0],
        ];
        let l = Latency::of_windows(windows, 1.0);
        assert_eq!((l.p50, l.tail, l.samples), (3.0, 4.0, 9));
    }
}

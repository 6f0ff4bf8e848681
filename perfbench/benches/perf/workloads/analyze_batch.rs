//! `analyze_batch`: cold `detect_series` + report JSON over a fixed
//! corpus, no sockets and no disk.
//!
//! `cluster` and `core` dominate (with `collect`'s delta/matrix step and
//! the `par` pool). Passes alternate between the pool's default thread
//! count and one thread: the CPU time of the first over the second is
//! the scaling gate that still means something on a one- or two-core
//! machine, and the bytes of both must agree.

use super::{CounterMark, Deadline, Latency, LayerMetrics, Outcome, Workload};
use crate::gen::{synth_gmon, to_series, Rng, SeriesSpec};
use crate::trace::{total_of, Recorder};
use crate::{probes, sys};
use hpc_apps::HeartbeatPlan;
use incprof_bench::apps::Size;
use incprof_bench::ALL_APPS;
use incprof_collect::{IntervalMatrix, SampleSeries};
use incprof_core::PhaseDetector;
use incprof_obs::names;
use std::time::Instant;

/// The synthetic part of the corpus. Sizes are half the design issue's
/// (2048×12, 1024×128, 512×12) so that a run of `run_seconds` holds at
/// least five passes of each kind; analysis cost grows with n².
const SYNTHETIC: [(&str, SeriesSpec); 3] = [
    (
        "long",
        SeriesSpec {
            n: 1024,
            d: 12,
            phases: 4,
            block: 32,
            noise: 0.05,
            dup_share: 0.0,
        },
    ),
    (
        "wide",
        SeriesSpec {
            n: 512,
            d: 64,
            phases: 4,
            block: 32,
            noise: 0.05,
            dup_share: 0.0,
        },
    ),
    // Duplicate-heavy recurring phases: k exceeds the number of distinct
    // rows, the regime where Lloyd's empty-cluster repair used to burn.
    (
        "dup",
        SeriesSpec {
            n: 512,
            d: 12,
            phases: 4,
            block: 16,
            noise: 0.05,
            dup_share: 0.9,
        },
    ),
];

pub struct AnalyzeBatch {
    detector: PhaseDetector,
    corpus: Vec<(String, SampleSeries)>,
    /// Report JSON of the warm-up pass per item; every timed pass, at
    /// any thread count, must reproduce it byte for byte.
    expected: Vec<Option<String>>,
}

fn counter_names() -> Vec<String> {
    let mut v: Vec<String> = (1..=8)
        .map(names::cluster_kmeans_iterations_total)
        .collect();
    v.extend(
        [
            names::CLUSTER_KMEANS_PRUNED,
            names::PAR_POOL_TASKS,
            names::PAR_POOL_STEALS,
            names::PAR_POOL_QUEUE_WAITS,
        ]
        .map(String::from),
    );
    v
}

impl AnalyzeBatch {
    /// One pass over the corpus, series → report JSON. Returns the wall
    /// milliseconds and the number of reports that differ from the first
    /// pass's.
    fn pass(&mut self, rec: &mut Recorder) -> (f64, u64) {
        let t = Instant::now();
        let mut mismatches = 0;
        for (i, (name, series)) in self.corpus.iter().enumerate() {
            let op = rec.root("analyze");
            let json = if rec.enabled() {
                // The same steps `detect_series` takes, unrolled so each
                // call into a layer gets its span.
                let intervals = rec.within(op, "collect", "delta", || {
                    series.interval_profiles().expect("generated series deltas")
                });
                let matrix = rec.within(op, "collect", "matrix", || {
                    IntervalMatrix::from_interval_profiles(&intervals)
                });
                let analysis = rec.within(op, "core", "detect", || {
                    self.detector.detect(&matrix).expect("detect")
                });
                rec.within(op, "core", "report_json", || {
                    serde_json::to_string(&analysis).expect("serialize analysis")
                })
            } else {
                let analysis = self.detector.detect_series(series).expect("detect_series");
                serde_json::to_string(&analysis).expect("serialize analysis")
            };
            rec.end(op);
            match &self.expected[i] {
                None => self.expected[i] = Some(json),
                Some(want) if *want != json => {
                    eprintln!(
                        "FAILED CHECK analyze_batch: {name} report differs from the first pass"
                    );
                    mismatches += 1;
                }
                Some(_) => {}
            }
        }
        (t.elapsed().as_secs_f64() * 1e3, mismatches)
    }
}

impl AnalyzeBatch {
    pub fn setup(seed: u64) -> AnalyzeBatch {
        let plan = HeartbeatPlan::none();
        let mut corpus: Vec<(String, SampleSeries)> = ALL_APPS
            .iter()
            .map(|app| {
                (
                    app.name().to_string(),
                    app.run_virtual(Size::Medium, &plan).rank0.series,
                )
            })
            .collect();
        for (lane, (name, spec)) in SYNTHETIC.iter().enumerate() {
            let records = synth_gmon(*spec, &mut Rng::fork(seed, lane as u64));
            corpus.push((name.to_string(), to_series(&records)));
        }
        let expected = vec![None; corpus.len()];
        let mut batch = AnalyzeBatch {
            detector: PhaseDetector::default(),
            corpus,
            expected,
        };
        // The warm-up pass, which also fixes the reference reports.
        batch.pass(&mut Recorder::off());
        batch
    }
}

impl Workload for AnalyzeBatch {
    fn run(&mut self, seconds: f64, rec: &mut Recorder) -> Outcome {
        let mark = CounterMark::take(&counter_names());
        let cpu0 = sys::process_cpu_s();
        let gen0 = sys::thread_cpu_s();
        let deadline = Deadline::new(seconds);
        let (mut par_ms, mut seq_ms) = (Vec::new(), Vec::new());
        let (mut par_cpu_s, mut seq_cpu_s, mut failed) = (0.0, 0.0, 0u64);
        let mut pairs_s: Vec<f64> = Vec::new();
        while deadline.has_room_for(pairs_s.last().copied().unwrap_or(0.0)) {
            let t = Instant::now();
            incprof_par::set_threads(0);
            let c = sys::process_cpu_s();
            let (ms, bad) = self.pass(rec);
            par_cpu_s += sys::process_cpu_s() - c;
            par_ms.push(ms);
            failed += bad;
            incprof_par::set_threads(1);
            let c = sys::process_cpu_s();
            let (ms, bad) = self.pass(rec);
            seq_cpu_s += sys::process_cpu_s() - c;
            seq_ms.push(ms);
            failed += bad;
            pairs_s.push(t.elapsed().as_secs_f64());
        }
        incprof_par::set_threads(0);
        let wall_s = deadline.elapsed_s();
        let passes = (par_ms.len() + seq_ms.len()) as f64;
        let items = self.corpus.len() as u64;

        let mut layer = LayerMetrics::new();
        let iters: f64 = (1..=8)
            .map(|k| mark.delta(&names::cluster_kmeans_iterations_total(k)))
            .sum();
        layer.insert("cluster.lloyd_iters", iters / passes);
        layer.insert(
            "cluster.pruned_points",
            mark.delta(names::CLUSTER_KMEANS_PRUNED) / passes,
        );
        layer.insert("par.tasks", mark.delta(names::PAR_POOL_TASKS));
        layer.insert("par.steals", mark.delta(names::PAR_POOL_STEALS));
        layer.insert("par.queue_waits", mark.delta(names::PAR_POOL_QUEUE_WAITS));
        let par_wall_s = par_ms.iter().sum::<f64>() / 1e3;
        layer.insert("par.cpu_over_wall", par_cpu_s / par_wall_s);

        let cpu_s = sys::process_cpu_s() - cpu0;
        let primary = Latency::median_only(par_ms);
        let secondary = Latency::median_only(seq_ms);
        // CPU seconds the pool spends per CPU second of the same work on
        // one thread: the efficiency gate that still means something on
        // one or two cores. Adjacent passes, so machine drift cancels.
        let cost_ratio = par_cpu_s / seq_cpu_s;
        Outcome {
            ops: passes as u64 * items,
            wall_s,
            rep_s: pairs_s,
            lanes: 1,
            cpu_s,
            generator_cpu_s: sys::thread_cpu_s() - gen0,
            cost_ratio,
            attempted: 2 * passes as u64 * items,
            failed,
            named: vec![
                ("analyze_s", primary.p50 / 1e3, "s"),
                ("analyze_1thread_s", secondary.p50 / 1e3, "s"),
                ("analyze_cpu_s", cpu_s / passes, "s"),
                (
                    "par_wall_over_seq_wall",
                    primary.p50 / secondary.p50,
                    "ratio",
                ),
                ("par_cpu_over_seq_cpu", cost_ratio, "ratio"),
            ],
            primary,
            secondary,
            layer,
        }
    }

    fn probe(&mut self, rec: &mut Recorder, layer: &mut LayerMetrics) {
        let passes =
            (total_of(rec.spans(), "analyze").1 as f64 / self.corpus.len() as f64).max(1.0);
        for (metric, span) in [
            ("collect.delta_ms", "delta"),
            ("collect.matrix_ms", "matrix"),
            ("core.detect_ms", "detect"),
        ] {
            layer.insert(metric, total_of(rec.spans(), span).0 as f64 / 1e6 / passes);
        }
        for (_, series) in &self.corpus {
            probes::cluster(&self.detector, series, layer);
        }
    }

    fn teardown(self) {}
}

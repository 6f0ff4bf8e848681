//! `collect_apps`: the five applications in wall-clock mode, as
//! alternating (baseline, profiled) pairs.
//!
//! The only workload where the `runtime` guards and the `collect` tick
//! thread do the work while analysis, serve and store are idle: a change
//! to the guard hot path must move numbers here and nowhere else.

use super::{mean_ns, Deadline, Latency, LayerMetrics, Outcome, Workload};
use crate::stats;
use crate::sys;
use crate::trace::Recorder;
use hpc_apps::{AppOutput, HeartbeatPlan};
use incprof_bench::{App, ALL_APPS};
use incprof_runtime::ProfilerRuntime;
use std::hint::black_box;
use std::time::Instant;

/// Guard pairs timed per depth by the `runtime.guard_pair_ns_*` probes.
const GUARD_PAIRS: usize = 2_000_000;

pub struct CollectApps {
    plan: HeartbeatPlan,
    /// The last profiled output per app, kept for the exact counts.
    last_profiled: Vec<Option<AppOutput>>,
}

fn timed_run(app: App, profile: bool, plan: &HeartbeatPlan) -> (f64, AppOutput) {
    let t = Instant::now();
    let out = app.run_wall(profile, plan, 1);
    (t.elapsed().as_secs_f64() * 1e3, out)
}

/// Run `f` with every function of `outer` entered, innermost last, so
/// the guards drop in LIFO order.
fn nested(
    rt: &ProfilerRuntime,
    outer: &[incprof_profile::FunctionId],
    f: &mut dyn FnMut() -> f64,
) -> f64 {
    match outer.split_first() {
        None => f(),
        Some((id, rest)) => {
            let _guard = rt.enter(*id);
            nested(rt, rest, f)
        }
    }
}

impl CollectApps {
    pub fn setup(_seed: u64) -> CollectApps {
        // The applications are fixed configurations, so the seed selects
        // nothing here. Set-up is the warm-up: one unprofiled run of each
        // app, single-threaded like the timed runs.
        incprof_par::set_threads(1);
        let plan = HeartbeatPlan::none();
        for app in ALL_APPS {
            black_box(app.run_wall(false, &plan, 1));
        }
        CollectApps {
            plan,
            last_profiled: vec![None; ALL_APPS.len()],
        }
    }
}

impl Workload for CollectApps {
    fn run(&mut self, seconds: f64, rec: &mut Recorder) -> Outcome {
        let cpu0 = sys::process_cpu_s();
        let gen0 = sys::thread_cpu_s();
        let deadline = Deadline::new(seconds);
        // [app][round] wall milliseconds.
        let mut base: Vec<Vec<f64>> = vec![Vec::new(); ALL_APPS.len()];
        let mut prof: Vec<Vec<f64>> = vec![Vec::new(); ALL_APPS.len()];
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut rounds_s: Vec<f64> = Vec::new();
        while deadline.has_room_for(rounds_s.last().copied().unwrap_or(0.0)) {
            let round = rounds_s.len();
            let t = Instant::now();
            for (a, app) in ALL_APPS.into_iter().enumerate() {
                // Alternate which side of a pair runs first so drift has
                // no preferred direction.
                let order = if round.is_multiple_of(2) {
                    [false, true]
                } else {
                    [true, false]
                };
                let mut checks = [0.0f64; 2];
                for profile in order {
                    let op = rec.root(if profile {
                        "app_profiled"
                    } else {
                        "app_baseline"
                    });
                    let (ms, out) = timed_run(app, profile, &self.plan);
                    rec.end(op);
                    checks[usize::from(profile)] = out.result_check;
                    if profile {
                        prof[a].push(ms);
                        self.last_profiled[a] = Some(out);
                    } else {
                        base[a].push(ms);
                    }
                    attempted += 1;
                }
                // Output check: profiling must not change what the app computes.
                attempted += 1;
                if checks[0].to_bits() != checks[1].to_bits() {
                    eprintln!(
                        "FAILED CHECK collect_apps: {} result_check {} (baseline) != {} (profiled)",
                        app.name(),
                        checks[0],
                        checks[1]
                    );
                    failed += 1;
                }
            }
            rounds_s.push(t.elapsed().as_secs_f64());
        }
        let wall_s = deadline.elapsed_s();
        let round = rounds_s.len();

        let sum_of_medians = |per_app: &[Vec<f64>]| -> f64 {
            per_app
                .iter()
                .map(|v| stats::median(&stats::sorted(v.clone())))
                .sum()
        };
        let profiled_ms = sum_of_medians(&prof);
        let baseline_ms = sum_of_medians(&base);
        let snapshots: usize = self
            .last_profiled
            .iter()
            .flatten()
            .map(|o| o.rank0.series.len())
            .sum();
        let guard_pairs: u64 = self
            .last_profiled
            .iter()
            .flatten()
            .filter_map(|o| o.rank0.series.last())
            .map(|s| s.flat.total_calls())
            .sum();
        let mut layer = LayerMetrics::new();
        layer.insert("collect.snapshots", snapshots as f64);
        layer.insert("runtime.guard_pairs", guard_pairs as f64);
        Outcome {
            ops: (2 * round * ALL_APPS.len()) as u64,
            wall_s,
            rep_s: rounds_s,
            lanes: 1,
            cpu_s: sys::process_cpu_s() - cpu0,
            generator_cpu_s: sys::thread_cpu_s() - gen0,
            // A handful of rounds has no tail: the tail slots repeat the medians.
            primary: Latency {
                p50: profiled_ms,
                tail: profiled_ms,
                samples: round,
            },
            secondary: Latency {
                p50: baseline_ms,
                tail: baseline_ms,
                samples: round,
            },
            cost_ratio: profiled_ms / baseline_ms,
            attempted,
            failed,
            named: vec![
                ("profiled_run_s", profiled_ms / 1e3, "s"),
                ("baseline_run_s", baseline_ms / 1e3, "s"),
                ("overhead_ratio", profiled_ms / baseline_ms, "ratio"),
            ],
            layer,
        }
    }

    fn probe(&mut self, _rec: &mut Recorder, layer: &mut LayerMetrics) {
        // Guard cost at depth 1 and with eight frames already open.
        let rt = ProfilerRuntime::new();
        let ids: Vec<_> = (0..9)
            .map(|i| rt.register_function(format!("probe_{i}")))
            .collect();
        layer.insert(
            "runtime.guard_pair_ns_d1",
            mean_ns(GUARD_PAIRS, || drop(black_box(rt.enter(ids[0])))),
        );
        layer.insert(
            "runtime.guard_pair_ns_d8",
            nested(&rt, &ids[1..], &mut || {
                mean_ns(GUARD_PAIRS, || drop(black_box(rt.enter(ids[0]))))
            }),
        );
        // Snapshot cost at each app's function-table size, averaged.
        let mut snapshot_us = Vec::new();
        for out in self.last_profiled.iter().flatten() {
            let rt = ProfilerRuntime::new();
            for (_, info) in out.rank0.table.iter() {
                let id = rt.register_function(info.name.clone());
                drop(rt.enter(id));
            }
            let mut i = 0u64;
            snapshot_us.push(
                mean_ns(2_000, || {
                    black_box(rt.snapshot(i));
                    i += 1;
                }) / 1e3,
            );
        }
        if !snapshot_us.is_empty() {
            layer.insert(
                "runtime.snapshot_us",
                snapshot_us.iter().sum::<f64>() / snapshot_us.len() as f64,
            );
        }
    }

    fn teardown(self) {
        incprof_par::set_threads(0);
    }
}

//! `restart_recover`: what a daemon restart costs, at the registry layer
//! (no sockets).
//!
//! Set-up builds durable sessions with an analysis checkpoint each, and a
//! copy of the store with the checkpoints removed. Timed rounds open a
//! fresh registry over each and rehydrate every session: warm (log +
//! checkpoint, the first report is a memo hit) and cold (log only, the
//! first report recomputes the analysis). The only workload where
//! *reading* the store dominates.

use super::{CounterMark, Deadline, Latency, LayerMetrics, Outcome, Workload, CHECKPOINT_EVERY};
use crate::gen::{synth_gmon, Rng, SeriesSpec};
use crate::trace::{total_of, Recorder};
use crate::{probes, sys};
use incprof_core::online::OnlineConfig;
use incprof_core::PhaseDetector;
use incprof_obs::names;
use incprof_profile::GmonData;
use incprof_serve::{Registry, ReportMode, RetentionPolicy, Store};
use incprof_store::store::{CHECKPOINT_FILE, LOG_FILE};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Durable sessions built by set-up (the design issue's 8, halved so
/// that three set-ups and five timed rounds fit one run).
const SESSIONS: usize = 4;

const SPEC: SeriesSpec = SeriesSpec {
    n: 1024,
    d: 12,
    phases: 4,
    block: 32,
    noise: 0.05,
    dup_share: 0.0,
};

pub struct RestartRecover {
    detector: PhaseDetector,
    records: Vec<Vec<GmonData>>,
    work: PathBuf,
    warm_root: PathBuf,
    cold_root: PathBuf,
    /// `(session id, the live session's analysis report)`.
    live: Vec<(u64, String)>,
    amplification: f64,
    log_bytes: f64,
    checkpoint_bytes: f64,
}

fn registry_over(root: &Path) -> Registry {
    let store =
        Store::open(root, RetentionPolicy::keep_all(), CHECKPOINT_EVERY).expect("open store");
    Registry::new(OnlineConfig::default(), 4 * SESSIONS, 64, true).with_store(store, 0)
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create copy target");
    for entry in std::fs::read_dir(from).expect("read store").flatten() {
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).expect("copy store file");
        }
    }
}

impl RestartRecover {
    pub fn setup(seed: u64) -> RestartRecover {
        let detector = PhaseDetector::default();
        let records: Vec<Vec<GmonData>> = (0..SESSIONS)
            .map(|s| synth_gmon(SPEC, &mut Rng::fork(seed, s as u64)))
            .collect();
        let work = sys::work_dir("restart");
        let warm_root = work.join("warm");
        let cold_root = work.join("cold");

        // Build the sessions the way a daemon would have left them: every
        // snapshot logged, one analysis computed, and the graceful
        // shutdown's final checkpoint. Sessions build concurrently, one
        // thread per CPU (this is set-up, not load).
        let registry = registry_over(&warm_root);
        let mut live: Vec<(u64, String)> = Vec::new();
        for batch in records.chunks(sys::nproc().min(SESSIONS)) {
            live.extend(std::thread::scope(|scope| {
                let handles: Vec<_> = batch
                    .iter()
                    .map(|series| {
                        let (registry, detector) = (&registry, &detector);
                        scope.spawn(move || {
                            let (id, session) = registry.open().expect("open session");
                            let mut s = session.lock().expect("session lock");
                            for gmon in series {
                                s.enqueue(gmon.clone(), Instant::now()).expect("enqueue");
                                s.drain().expect("drain");
                            }
                            (id, s.report_json(detector, ReportMode::AnalysisOnly))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("build thread"))
                    .collect::<Vec<_>>()
            }));
        }
        registry.drain_all();
        drop(registry);

        let payload_bytes: u64 = records
            .iter()
            .flatten()
            .map(|g| g.encode().len() as u64)
            .sum();
        let (mut logs, mut checkpoints) = (0u64, 0u64);
        for (id, _) in &live {
            let dir = warm_root.join(id.to_string());
            logs += sys::file_len(&dir.join(LOG_FILE));
            checkpoints += sys::file_len(&dir.join(CHECKPOINT_FILE));
        }
        copy_dir(&warm_root, &cold_root);
        for (id, _) in &live {
            std::fs::remove_file(cold_root.join(id.to_string()).join(CHECKPOINT_FILE))
                .expect("remove the copy's checkpoint");
        }
        RestartRecover {
            detector,
            records,
            work,
            warm_root,
            cold_root,
            live,
            amplification: (logs + checkpoints) as f64 / payload_bytes as f64,
            log_bytes: logs as f64 / SESSIONS as f64,
            checkpoint_bytes: checkpoints as f64 / SESSIONS as f64,
        }
    }

    /// A restart over `root`: fresh registry, recover, then `get` and the
    /// first report of every session. Returns per-session milliseconds
    /// and the number of reports that differ from the live session's.
    fn restart(&self, root: &Path, op_name: &'static str, rec: &mut Recorder) -> (Vec<f64>, u64) {
        let registry = registry_over(root);
        let recovered = registry.recover();
        let mut mismatches = u64::from(recovered.len() != self.live.len());
        let mut ms = Vec::with_capacity(self.live.len());
        for (id, want) in &self.live {
            let t = Instant::now();
            let op = rec.root(op_name);
            let session = rec.within(op, "serve", "registry_get", || registry.get(*id));
            let report = session.map(|s| {
                rec.within(op, "serve", "report_json", || {
                    s.lock()
                        .expect("session lock")
                        .report_json(&self.detector, ReportMode::AnalysisOnly)
                })
            });
            rec.end(op);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            // Output check: warm and cold rehydration both reproduce the
            // live session's report, byte for byte.
            if report.as_ref() != Some(want) {
                eprintln!("FAILED CHECK restart_recover: {op_name} report of session {id} differs");
                mismatches += 1;
            }
        }
        (ms, mismatches)
    }
}

impl Workload for RestartRecover {
    fn run(&mut self, seconds: f64, rec: &mut Recorder) -> Outcome {
        let mark = CounterMark::take(&[names::STORE_CHECKPOINTS_REJECTED.to_string()]);
        let cpu0 = sys::process_cpu_s();
        let gen0 = sys::thread_cpu_s();
        let deadline = Deadline::new(seconds);
        let (mut warm_ms, mut cold_ms) = (Vec::new(), Vec::new());
        let mut failed = 0u64;
        let mut rounds_s: Vec<f64> = Vec::new();
        while deadline.has_room_for(rounds_s.last().copied().unwrap_or(0.0)) {
            let t = Instant::now();
            let (ms, bad) = self.restart(&self.warm_root, "rehydrate_warm", rec);
            warm_ms.push(ms);
            failed += bad;
            let (ms, bad) = self.restart(&self.cold_root, "rehydrate_cold", rec);
            cold_ms.push(ms);
            failed += bad;
            rounds_s.push(t.elapsed().as_secs_f64());
        }
        let wall_s = deadline.elapsed_s();
        // A rejected checkpoint would silently turn a warm rehydration
        // into a cold one.
        let rejected = mark.delta(names::STORE_CHECKPOINTS_REJECTED);
        if rejected > 0.0 {
            eprintln!("FAILED CHECK restart_recover: {rejected} checkpoints rejected");
            failed += 1;
        }

        let mut layer = LayerMetrics::new();
        layer.insert("store.log_bytes", self.log_bytes);
        layer.insert("store.checkpoint_bytes", self.checkpoint_bytes);
        let primary = Latency::of_windows(warm_ms, 0.75);
        let secondary = Latency::of_windows(cold_ms, 0.75);
        let ops = (primary.samples + secondary.samples) as u64;
        Outcome {
            ops,
            wall_s,
            rep_s: rounds_s,
            lanes: 1,
            cpu_s: sys::process_cpu_s() - cpu0,
            generator_cpu_s: sys::thread_cpu_s() - gen0,
            cost_ratio: self.amplification,
            // Each rehydration and its report check, plus the rejected-
            // checkpoint check.
            attempted: 2 * ops + 1,
            failed,
            named: vec![
                ("rehydrate_warm_ms", primary.p50, "ms"),
                ("rehydrate_cold_ms", secondary.p50, "ms"),
                ("store_amplification", self.amplification, "ratio"),
            ],
            primary,
            secondary,
            layer,
        }
    }

    fn probe(&mut self, rec: &mut Recorder, layer: &mut LayerMetrics) {
        let (get_ns, gets) = total_of(rec.spans(), "registry_get");
        layer.insert(
            "serve.rehydrate_get_ms",
            get_ns as f64 / 1e6 / gets.max(1) as f64,
        );
        let records = &self.records[0];
        probes::codecs(records, layer);
        probes::online(records, layer);
        let checkpoint = probes::cache(&self.detector, records, layer);
        probes::store(records, &checkpoint, CHECKPOINT_EVERY, layer);
        // Replay of a log this workload's set-up wrote, not the scratch one.
        let store = Store::open(
            &self.cold_root,
            RetentionPolicy::keep_all(),
            CHECKPOINT_EVERY,
        )
        .expect("open cold store");
        let t = Instant::now();
        black_box(store.open_session(self.live[0].0).expect("replay log"));
        layer.insert("store.replay_ms", t.elapsed().as_secs_f64() * 1e3);
    }

    fn teardown(self) {
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

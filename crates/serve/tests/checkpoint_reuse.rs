//! Checkpoint upkeep when the analysis state has not changed: a due
//! checkpoint rewrites the frame the previous write encoded, and the
//! file, the write count and a restart's adoption stay as they were.
//!
//! Alone in its own test binary: it asserts exact deltas of the
//! process-global `store.checkpoint.*` counters.

use incprof_collect::SampleSeries;
use incprof_core::online::OnlineConfig;
use incprof_core::{AnalysisCache, PhaseDetector};
use incprof_obs::{counter, names};
use incprof_profile::{FlatProfile, FunctionStats, FunctionTable, GmonData};
use incprof_serve::session::Session;
use incprof_serve::{Frame, FrameType, Registry, ReportMode, RetentionPolicy, Store};
use incprof_store::store::CHECKPOINT_FILE;
use std::path::Path;
use std::time::Instant;

/// Appends per due checkpoint.
const EVERY: u64 = 4;

/// Snapshot `idx` of a run alternating between two functions.
fn gmon(idx: u64) -> GmonData {
    let mut table = FunctionTable::new();
    let (f, g) = (table.register("f"), table.register("g"));
    let mut flat = FlatProfile::new();
    let (hot, cold) = (idx / 2 + 1, idx.div_ceil(2));
    flat.set(
        f,
        FunctionStats {
            self_time: hot * 900_000_000 + cold * 40_000_000,
            calls: idx + 1,
            child_time: 0,
        },
    );
    flat.set(
        g,
        FunctionStats {
            self_time: cold * 800_000_000 + hot * 50_000_000,
            calls: idx + 1,
            child_time: 0,
        },
    );
    GmonData {
        sample_index: idx,
        timestamp_ns: idx * 1_000_000_000,
        functions: table,
        flat,
        callgraph: Default::default(),
    }
}

/// Push snapshots `from..to`, running the checkpoint cadence after each
/// as the daemon does after an ack.
fn push(s: &mut Session, from: u64, to: u64) {
    for i in from..to {
        s.enqueue(gmon(i), Instant::now()).unwrap();
        s.drain().unwrap();
        s.maybe_checkpoint();
    }
}

/// `(writes, reused, write errors)` so far.
fn counts() -> [u64; 3] {
    [
        names::STORE_CHECKPOINTS,
        names::STORE_CHECKPOINTS_REUSED,
        names::STORE_CHECKPOINT_WRITE_ERRORS,
    ]
    .map(|n| counter(n).get())
}

/// What the counters moved by since `before`.
fn moved(before: [u64; 3]) -> [u64; 3] {
    let now = counts();
    [0, 1, 2].map(|i| now[i] - before[i])
}

/// The first `n` snapshots as a series.
fn series(n: u64) -> SampleSeries {
    (0..n).map(gmon).collect()
}

/// What session `id`'s checkpoint file must hold once its last query
/// saw `queried` snapshots: the framed blob of a cache that analyzed
/// that prefix.
fn expected(id: u64, queried: u64) -> Vec<u8> {
    let mut cache = AnalysisCache::new();
    cache
        .analyze(&PhaseDetector::default(), &series(queried))
        .unwrap();
    Frame::with_payload(FrameType::Checkpoint, id, cache.encode_state()).encode()
}

fn registry(root: &Path) -> Registry {
    let store = Store::open(root, RetentionPolicy::keep_all(), EVERY).unwrap();
    Registry::new(OnlineConfig::default(), 4, 2, true).with_store(store, 0)
}

#[test]
fn an_unchanged_state_rewrites_the_previous_frame() {
    let root = std::env::temp_dir().join(format!("incprof_ckpt_reuse_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let detector = PhaseDetector::default();
    let r = registry(&root);
    let (id, s) = r.open().unwrap();
    let dir = root.join(id.to_string());
    let file = dir.join(CHECKPOINT_FILE);
    let mut s = s.lock().unwrap();

    // A query, then two due checkpoints with nothing changed between
    // them: both are written and counted, the second from the first's
    // frame, and the file is the framed blob of the queried state.
    push(&mut s, 0, 6);
    s.report_json(&detector, ReportMode::AnalysisOnly);
    let before = counts();
    push(&mut s, 6, 12);
    assert_eq!(moved(before), [2, 1, 0], "(writes, reused, errors)");
    assert_eq!(std::fs::read(&file).unwrap(), expected(id, 6));
    assert_eq!(s.stats(Instant::now()).cache_misses, 1, "one analysis");

    // A query between two due checkpoints is a miss: the next one holds
    // the new state, framed afresh.
    let before = counts();
    push(&mut s, 12, 14);
    s.report_json(&detector, ReportMode::AnalysisOnly);
    push(&mut s, 14, 16);
    assert_eq!(
        moved(before),
        [1, 0, 0],
        "a miss must not reuse the old frame"
    );
    assert_eq!(std::fs::read(&file).unwrap(), expected(id, 14));

    // A deleted checkpoint is back at the next due one.
    std::fs::remove_file(&file).unwrap();
    let before = counts();
    push(&mut s, 16, 20);
    assert_eq!(moved(before), [1, 1, 0]);
    assert_eq!(std::fs::read(&file).unwrap(), expected(id, 14));

    // A failed write (the session directory is gone; the open log keeps
    // taking appends) forgets the frame, so the next write frames the
    // blob again.
    std::fs::remove_dir_all(&dir).unwrap();
    let before = counts();
    push(&mut s, 20, 24);
    assert_eq!(moved(before), [0, 0, 1]);
    std::fs::create_dir_all(&dir).unwrap();
    let before = counts();
    push(&mut s, 24, 28);
    assert_eq!(
        moved(before),
        [1, 0, 0],
        "a failed write must drop the frame"
    );
    assert_eq!(std::fs::read(&file).unwrap(), expected(id, 14));

    // A restart after reused writes adopts the checkpoint, and answers
    // what the first life answered. The first life's log went with its
    // directory, so this is a fresh store.
    drop(s);
    drop(r);
    let _ = std::fs::remove_dir_all(&root);
    let r = registry(&root);
    let (id, s) = r.open().unwrap();
    let baseline = {
        let mut s = s.lock().unwrap();
        push(&mut s, 0, 6);
        s.report_json(&detector, ReportMode::AnalysisOnly);
        let before = counts();
        push(&mut s, 6, 14);
        assert_eq!(moved(before), [2, 1, 0]);
        // Two appends since the last checkpoint: none is due.
        s.report_json(&detector, ReportMode::Full)
    };
    let file = root.join(id.to_string()).join(CHECKPOINT_FILE);
    assert_eq!(std::fs::read(&file).unwrap(), expected(id, 6));
    drop(s);
    drop(r);
    let rejected = counter(names::STORE_CHECKPOINTS_REJECTED).get();
    let r = registry(&root);
    assert_eq!(r.recover(), vec![id]);
    let s = r.get(id).expect("recovered session is queryable");
    let mut s = s.lock().unwrap();
    assert_eq!(counter(names::STORE_CHECKPOINTS_REJECTED).get(), rejected);
    // The first query resumes the adopted chains; a cold cache has none.
    let continues = counter(names::CORE_CACHE_CENTROID_CONTINUES).get();
    assert_eq!(s.report_json(&detector, ReportMode::Full), baseline);
    assert_eq!(
        counter(names::CORE_CACHE_CENTROID_CONTINUES).get(),
        continues + 1
    );
    let cold = detector.detect_series(&series(14)).unwrap();
    assert_eq!(
        s.report_json(&detector, ReportMode::AnalysisOnly),
        serde_json::to_string(&cold).unwrap()
    );
    drop(s);
    let _ = std::fs::remove_dir_all(&root);
}

//! The equivalence table: every path to a phase analysis answers with
//! the bytes the offline pipeline gives.
//!
//! The paper's five applications are profiled once per process
//! ([`common::apps`]). Two references anchor every comparison, each
//! computed once and shared by every arm:
//! - `detect_series` on a prefix anchors analysis-only bytes, one
//!   reference per (app, detector, prefix);
//! - one uninterrupted, store-less daemon that streams the five apps in
//!   order anchors Full-report bytes and session ids; its reports'
//!   `source_context` sections are checked against offline's join of
//!   the same analysis with the last snapshot's arcs.
//!
//! A [`Path`] is one way the system reaches an answer: the incremental
//! cache, the thread pool, the daemon, the router, a restart. Its arm
//! drives that path over the apps and returns what it answered. One
//! function, [`check`], compares every answer with its reference as raw
//! bytes (answers computed in-process also bit for bit on every f64)
//! and names the arm, app, detector and prefix that differ. It also
//! fails an arm that skipped one of its (app, detector) cases.
//!
//! Each arm is its own `#[test]`, so failures are named and arms run
//! concurrently. Only `Path::Threads`, `Path::DetectMany` and the
//! synthetic k-means test call the process-global `par::set_threads`,
//! under [`THREADS`]; every other arm is thread-count-invariant by the
//! contract under test.
//! Adding a path is one variant, its arm in [`Path::run`] and one line
//! in `arms!`.

mod common;

use common::{apps, App, MINIAMR, MINIFE};
use incprof_suite::cluster::KSelectionMethod;
use incprof_suite::collect::{IntervalMatrix, SampleSeries};
use incprof_suite::core::{source_context_json, PhaseAnalysis, PhaseDetector, PipelineError};
use incprof_suite::core::{AnalysisCache, ClusteringMethod, FeatureSet, OnlineConfig};
use incprof_suite::obs::TraceIdGen;
use incprof_suite::serve::{BindAddr, Client, Push, Registry, ReportMode};
use incprof_suite::serve::{ServeConfig, Server, ServerHandle};
use incprof_suite::shard::{BackendSpec, Ring, Router, RouterConfig, RouterHandle};
use std::collections::HashMap;
use std::fmt::Display;
use std::ops::Range;
use std::path::{Path as Dir, PathBuf};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Serialises every caller of the process-global `par::set_threads`.
static THREADS: Mutex<()> = Mutex::new(());

/// Index of the paper-default detector (the daemon's) in [`detectors`].
const DEFAULT: usize = 0;
/// Index of the default detector with silhouette k selection.
const SILHOUETTE: usize = 2;

/// Every detector the table runs: k selection × feature set. The wider
/// feature set changes the block layout the cache re-aligns its chains
/// through when a new function inserts a column.
fn detectors() -> &'static [PhaseDetector] {
    use FeatureSet::{SelfTime, SelfTimeAndCalls};
    use KSelectionMethod::{Elbow, Silhouette};
    static DETECTORS: OnceLock<Vec<PhaseDetector>> = OnceLock::new();
    DETECTORS.get_or_init(|| {
        let mut all = Vec::new();
        for selection in [Elbow, Silhouette] {
            for features in [SelfTime, SelfTimeAndCalls] {
                let k_max = 8;
                all.push(PhaseDetector {
                    clustering: ClusteringMethod::KMeans { k_max, selection },
                    features,
                    ..PhaseDetector::default()
                });
            }
        }
        let default = PhaseDetector::default().fingerprint();
        assert_eq!(all[DEFAULT].fingerprint(), default, "row 0 is the daemon's");
        all
    })
}

fn json(analysis: &PhaseAnalysis) -> String {
    serde_json::to_string(analysis).expect("serialize analysis")
}

/// The raw bits of every f64 sweep: JSON prints NaN and ±inf alike as
/// `null`, so the text alone cannot pin them.
type Bits = (Vec<u64>, Vec<Option<u64>>);

fn bits(a: &PhaseAnalysis) -> Bits {
    let wcss = a.wcss_sweep.iter().map(|x| x.to_bits()).collect();
    let sil = a.silhouette_sweep.iter().map(|x| x.map(f64::to_bits));
    (wcss, sil.collect())
}

/// Unwrap `r`, naming where it failed.
fn ok<T, E: Display>(r: Result<T, E>, at: impl Display) -> T {
    r.unwrap_or_else(|e| panic!("{at}: {e}"))
}

/// The offline answer for `app` under detector `det` on the first
/// `prefix` snapshots, computed on first use.
struct Reference {
    json: String,
    bits: Bits,
}

fn reference(app: usize, det: usize, prefix: usize) -> &'static Reference {
    type Memo = Mutex<HashMap<(usize, usize, usize), &'static OnceLock<Reference>>>;
    static MEMO: OnceLock<Memo> = OnceLock::new();
    let cell = *MEMO
        .get_or_init(Memo::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .entry((app, det, prefix))
        .or_insert_with(|| Box::leak(Box::default()));
    cell.get_or_init(|| {
        let a = &apps()[app];
        let series: SampleSeries = a.series.snapshots()[..prefix].iter().cloned().collect();
        let r = detectors()[det].detect_series(&series);
        let r = ok(r, format_args!("{}[..{prefix}] offline", a.name));
        Reference {
            json: json(&r),
            bits: bits(&r),
        }
    })
}

/// Session id and Full report per app from one uninterrupted,
/// store-less daemon that streams the five apps in order. Each report's
/// `source_context` is anchored on offline too, and at least one names
/// a caller, so every arm that compares Full reports compares measured
/// arcs carried through its path, not empty lists.
fn full_reference(app: usize) -> &'static (u64, String) {
    static FULL: OnceLock<Vec<(u64, String)>> = OnceLock::new();
    &FULL.get_or_init(|| {
        let daemon = start(ServeConfig::default());
        let mut client = connect(daemon.addr());
        let full: Vec<(u64, String)> = (0..apps().len())
            .map(|app| {
                let (a, session) = (&apps()[app], ok(client.open(), "open"));
                stream(&mut client, session, a, 0..whole(app));
                (session, ok(client.query_report(session), a.name))
            })
            .collect();
        daemon.shutdown();
        let contexts: Vec<String> = (0..apps().len()).map(offline_source_context).collect();
        for ((_, report), context) in full.iter().zip(&contexts) {
            let section = format!("\"source_context\":{context},\"analysis\":");
            assert!(
                report.contains(&section),
                "not offline's source_context:\n{report}"
            );
        }
        let named = contexts.iter().any(|c| c.contains("\"callers\":[\""));
        assert!(named, "no app's source_context names a caller");
        full
    })[app]
}

/// The offline `source_context` of `app`: the whole series' analysis
/// under `DEFAULT`, joined with its last snapshot's arcs.
fn offline_source_context(app: usize) -> String {
    let a = &apps()[app];
    let analysis = ok(detectors()[DEFAULT].detect_series(&a.series), a.name);
    let last = a.series.last().expect("a profiled series is not empty");
    source_context_json(&analysis, |f| last.functions.name(f), &last.callgraph)
}

/// What a path answered: (app, detector, prefix, answer).
struct Seen(usize, usize, usize, Answer);

enum Answer {
    /// Computed in this process: checked as JSON and as bits.
    Analysis(PhaseAnalysis),
    /// Analysis-only JSON as a session or the wire rendered it.
    Json(String),
    /// A Full report over the whole series under `DEFAULT`.
    Full(String),
}

/// "MiniAMR, detector #3 (KMeans { .. }, SelfTimeAndCalls)".
fn case(app: usize, det: usize) -> String {
    let d = &detectors()[det];
    let config = format!("{:?}, {:?}", d.clustering, d.features);
    format!("{}, detector #{det} ({config})", apps()[app].name)
}

fn whole(app: usize) -> usize {
    apps()[app].series.len()
}

fn start(config: ServeConfig) -> ServerHandle {
    let daemon = ok(Server::bind(config), "bind daemon");
    ok(daemon.start(), "start daemon")
}

/// A daemon over the durable store `store`.
fn durable(store: &Dir) -> ServerHandle {
    start(ServeConfig {
        store_dir: Some(store.to_path_buf()),
        ..ServeConfig::default()
    })
}

fn connect(addr: &str) -> Client {
    ok(Client::connect(addr), format_args!("connect {addr}"))
}

/// Open `app`'s session on a fresh daemon or cluster, where the apps
/// open in order: its id must be the reference daemon's.
fn open(client: &mut Client, app: usize) -> u64 {
    let (name, want) = (apps()[app].name, full_reference(app).0);
    let session = ok(client.open(), name);
    assert_eq!(
        session, want,
        "{name}: session id differs from the reference"
    );
    session
}

/// Push `app`'s snapshots `range` into `session`.
fn stream(client: &mut Client, session: u64, app: &App, range: Range<usize>) {
    for snap in &app.series.snapshots()[range] {
        let at = format!("{}[..{}] push", app.name, snap.sample_index + 1);
        ok(client.push_retry(session, snap, 100), at);
    }
}

/// A fresh, empty directory for the arm `name`.
fn tmpdir(name: String) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("incprof_eq_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ok(std::fs::create_dir_all(&dir), dir.display());
    dir
}

/// Shut `daemon` down once every session is closed. Close is
/// destructive, so nothing may remain in its `store` either.
fn assert_closed(daemon: ServerHandle, store: Option<&Dir>) {
    assert_eq!(daemon.active_sessions(), 0, "sessions leaked");
    daemon.shutdown();
    if let Some(store) = store {
        let left: Vec<_> = ok(std::fs::read_dir(store), "store").flatten().collect();
        assert!(left.is_empty(), "closed sessions left {left:?}");
        let _ = std::fs::remove_dir_all(store);
    }
}

/// `n` durable backends over one shared store, fronted by a router.
struct Cluster {
    backends: Vec<ServerHandle>,
    router: RouterHandle,
    store: PathBuf,
}

impl Cluster {
    fn start(n: usize, store: PathBuf) -> Cluster {
        let backends: Vec<_> = (0..n).map(|_| durable(&store)).collect();
        let spec = |b: &ServerHandle| BackendSpec {
            data: b.addr().to_string(),
            admin: None,
        };
        let router = Router::bind(RouterConfig {
            backends: backends.iter().map(spec).collect(),
            store_dir: Some(store.clone()),
            ..RouterConfig::default()
        });
        let router = ok(ok(router, "bind router").start(), "start router");
        Cluster {
            backends,
            router,
            store,
        }
    }

    fn shutdown(self) {
        self.router.shutdown();
        self.backends.into_iter().for_each(ServerHandle::shutdown);
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

#[derive(Clone, Copy, Debug)]
enum Path {
    /// `AnalysisCache` queried at every prefix, then again (the memo).
    CacheWarm,
    /// `CacheWarm` on MiniAMR under every detector of the table.
    CacheDetectors,
    /// `AnalysisCache` queried every 2nd and every 5th push.
    CacheSparse,
    /// `AnalysisCache` encoded and decoded mid-stream.
    CacheCodec,
    /// Cached and uncached `Registry` sessions, queried after every push.
    Registry,
    /// `detect_series` at 1, 2, 3 and 8 threads (3 does not divide the
    /// eight k-sweep tasks).
    Threads,
    /// `detect_many` at 8 threads, one pool task per run.
    DetectMany,
    /// A daemon at 1 and 4 workers.
    Daemon,
    /// 8 concurrent sessions on one daemon; apps repeat across them.
    Concurrent,
    /// A router in front of 1 and of 3 backends.
    Router,
    /// A router one of whose 3 backends is stopped mid-stream.
    Failover,
    /// A durable daemon stopped mid-stream and restarted over its store.
    Restart,
    /// A durable daemon whose log loses the tail of its last record.
    TornTail,
    /// A durable daemon keeping one session live while the apps push
    /// interleaved: every push after the first rehydrates an evicted
    /// session and reads a table-less push against the replayed table.
    Evict,
    /// Traced (version 2) frames to a daemon on a Unix socket.
    TracedUnix,
}

impl Path {
    /// The (app, detector) pairs this arm must answer for.
    fn cases(self) -> Vec<(usize, usize)> {
        let every_app = |det| (0..apps().len()).map(move |app| (app, det));
        match self {
            Path::CacheDetectors => (0..detectors().len()).map(|d| (MINIAMR, d)).collect(),
            Path::Threads => every_app(DEFAULT).chain(every_app(SILHOUETTE)).collect(),
            _ => every_app(DEFAULT).collect(),
        }
    }

    fn run(self) -> Vec<Seen> {
        let (cases, mut out) = (self.cases(), Vec::new());
        let analysis = |app: usize, det, n, r: Result<PhaseAnalysis, PipelineError>| {
            let at = format!("{self:?}: {}[..{n}]", apps()[app].name);
            Seen(app, det, n, Answer::Analysis(ok(r, at)))
        };
        match self {
            Path::CacheWarm | Path::CacheDetectors | Path::CacheSparse | Path::CacheCodec => {
                let strides = match self {
                    Path::CacheSparse => vec![2, 5],
                    _ => vec![1],
                };
                let queries = match self {
                    Path::CacheWarm | Path::CacheDetectors => 2,
                    _ => 1,
                };
                for stride in strides {
                    for &(app, det) in &cases {
                        let (a, n, mut cache) = (&apps()[app], whole(app), AnalysisCache::new());
                        let mut series = SampleSeries::new();
                        for (i, snap) in a.series.snapshots().iter().enumerate() {
                            if let (Path::CacheCodec, true) = (self, i == n / 2) {
                                let blob = cache.encode_state();
                                cache = AnalysisCache::decode_state(&blob).expect("blob decodes");
                                assert!(cache.encode_state() == blob, "{}: blob moved", a.name);
                            }
                            series.push(snap.clone());
                            if i % stride != 0 && i + 1 != n {
                                continue; // pushed, not queried
                            }
                            for _ in 0..queries {
                                let r = cache.analyze(&detectors()[det], &series);
                                out.push(analysis(app, det, i + 1, r));
                            }
                        }
                    }
                }
            }
            Path::Registry => {
                let d = &detectors()[DEFAULT];
                for cached in [true, false] {
                    // One registry for all apps, opened in order: the
                    // session ids match the reference daemon's.
                    let registry = Registry::new(OnlineConfig::default(), 5, 64, cached);
                    for &(app, det) in &cases {
                        let a = &apps()[app];
                        let (_, session) = ok(registry.open(), a.name);
                        let mut session = session.lock().expect("session lock");
                        for (i, snap) in a.series.snapshots().iter().enumerate() {
                            ok(session.enqueue(snap.clone(), Instant::now()), a.name);
                            let queries = if i % 3 == 0 { 2 } else { 1 };
                            for _ in 0..queries {
                                let got = session.report_json(d, ReportMode::AnalysisOnly);
                                out.push(Seen(app, det, i + 1, Answer::Json(got)));
                            }
                        }
                        let full = session.report_json(d, ReportMode::Full);
                        out.push(Seen(app, det, whole(app), Answer::Full(full)));
                    }
                }
            }
            Path::Threads => {
                let _only_caller = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
                for threads in [1, 2, 3, 8] {
                    incprof_suite::par::set_threads(threads);
                    for &(app, det) in &cases {
                        let r = detectors()[det].detect_series(&apps()[app].series);
                        out.push(analysis(app, det, whole(app), r));
                    }
                }
                incprof_suite::par::set_threads(0);
            }
            Path::DetectMany => {
                let _only_caller = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
                incprof_suite::par::set_threads(8);
                let matrix = |&(app, _): &(usize, usize)| {
                    let a: &App = &apps()[app];
                    let intervals = ok(a.series.interval_profiles(), a.name);
                    IntervalMatrix::from_interval_profiles(&intervals)
                };
                let matrices: Vec<_> = cases.iter().map(matrix).collect();
                let batched = detectors()[DEFAULT].detect_many(&matrices);
                for (&(app, det), r) in cases.iter().zip(batched) {
                    out.push(analysis(app, det, whole(app), r));
                }
                incprof_suite::par::set_threads(0);
            }
            Path::Daemon | Path::TracedUnix => {
                let (dir, traces) = (tmpdir(format!("{self:?}")), TraceIdGen::new(0x7ACE));
                for workers in [1, 4] {
                    let addr = match self {
                        Path::Daemon => ServeConfig::default().addr,
                        _ => BindAddr::Unix(dir.join("serve.sock")),
                    };
                    let daemon = start(ServeConfig {
                        addr,
                        workers,
                        ..ServeConfig::default()
                    });
                    let mut client = connect(daemon.addr());
                    for &(app, det) in &cases {
                        let (a, session) = (&apps()[app], open(&mut client, app));
                        let got = if let Path::Daemon = self {
                            stream(&mut client, session, a, 0..whole(app));
                            client.query_analysis(session)
                        } else {
                            let trace = traces.next_id();
                            for snap in a.series.snapshots() {
                                let push = ok(client.push_traced(session, snap, trace), a.name);
                                assert!(matches!(push, Push::Ack(_)), "{}: busy", a.name);
                            }
                            client.query_analysis_traced(session, trace)
                        };
                        out.push(Seen(app, det, whole(app), Answer::Json(ok(got, a.name))));
                        ok(client.close(session), a.name);
                    }
                    assert_closed(daemon, None);
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
            Path::Concurrent => {
                let daemon = start(ServeConfig {
                    workers: 8,
                    max_sessions: 16,
                    read_timeout: Duration::from_millis(25),
                    ..ServeConfig::default()
                });
                let addr = daemon.addr();
                std::thread::scope(|scope| {
                    let slots: Vec<_> = (0..8)
                        .map(|slot| {
                            let (app, det) = cases[slot % cases.len()];
                            scope.spawn(move || {
                                let (a, mut client) = (&apps()[app], connect(addr));
                                let session = ok(client.open(), a.name);
                                stream(&mut client, session, a, 0..whole(app));
                                let got = ok(client.query_analysis(session), a.name);
                                ok(client.close(session), a.name);
                                Seen(app, det, whole(app), Answer::Json(got))
                            })
                        })
                        .collect();
                    out.extend(slots.into_iter().map(|s| s.join().expect("slot")));
                });
                assert_closed(daemon, None);
            }
            Path::Router => {
                for n in [1, 3] {
                    let cluster = Cluster::start(n, tmpdir(format!("{self:?}")));
                    let mut client = connect(cluster.router.addr());
                    for &(app, det) in &cases {
                        let (a, session) = (&apps()[app], open(&mut client, app));
                        stream(&mut client, session, a, 0..whole(app));
                        let full = ok(client.query_report(session), a.name);
                        out.push(Seen(app, det, whole(app), Answer::Full(full)));
                    }
                    let all_up = cluster.router.backends_up().iter().all(|&u| u);
                    assert!(all_up, "no backend may die in the happy path");
                    cluster.shutdown();
                }
            }
            Path::Failover => {
                let mut cluster = Cluster::start(3, tmpdir(format!("{self:?}")));
                let mut sessions = Vec::new();
                for &(app, _) in &cases {
                    let mut client = connect(cluster.router.addr());
                    let session = open(&mut client, app);
                    stream(&mut client, session, &apps()[app], 0..whole(app) / 2);
                    sessions.push((client, session));
                }
                // Stop the first session's home shard. By the pinned ring
                // placements it owns some sessions but not all, so both
                // the failover and the untouched path run.
                let ring = Ring::new(3);
                let owners: Vec<_> = sessions.iter().map(|(_, s)| ring.owner(*s)).collect();
                let moved = owners.iter().filter(|&&o| o == owners[0]).count();
                assert!((1..cases.len()).contains(&moved), "victim owns {moved}");
                cluster.backends.remove(owners[0]).shutdown();
                for (&(app, det), (client, session)) in cases.iter().zip(&mut sessions) {
                    stream(client, *session, &apps()[app], whole(app) / 2..whole(app));
                    let full = ok(client.query_report(*session), apps()[app].name);
                    out.push(Seen(app, det, whole(app), Answer::Full(full)));
                }
                let up = cluster.router.backends_up();
                assert!(!up[owners[0]], "the router must mark the victim down");
                let still_up = up.iter().filter(|&&u| u).count();
                assert_eq!(still_up, 2, "only the victim may be down");
                cluster.shutdown();
            }
            Path::Restart => {
                let store = tmpdir(format!("{self:?}"));
                let half = |app: usize| whole(app).div_ceil(2);
                let first = durable(&store);
                let mut client = connect(first.addr());
                for &(app, _) in &cases {
                    let session = open(&mut client, app);
                    stream(&mut client, session, &apps()[app], 0..half(app));
                }
                first.shutdown(); // every session still open
                let second = durable(&store);
                let mut client = connect(second.addr());
                for &(app, det) in &cases {
                    let (a, session) = (&apps()[app], full_reference(app).0);
                    stream(&mut client, session, a, half(app)..whole(app));
                    let full = ok(client.query_report(session), a.name);
                    out.push(Seen(app, det, whole(app), Answer::Full(full)));
                    ok(client.close(session), a.name);
                }
                assert_closed(second, Some(&store));
            }
            Path::Evict => {
                let store = tmpdir(format!("{self:?}"));
                let daemon = start(ServeConfig {
                    store_dir: Some(store.clone()),
                    max_live: 1,
                    ..ServeConfig::default()
                });
                let mut client = connect(daemon.addr());
                let sessions: Vec<u64> = cases
                    .iter()
                    .map(|&(app, _)| open(&mut client, app))
                    .collect();
                let longest = cases.iter().map(|&(app, _)| whole(app)).max().unwrap_or(0);
                for i in 0..longest {
                    for (&(app, _), &session) in cases.iter().zip(&sessions) {
                        if i < whole(app) {
                            stream(&mut client, session, &apps()[app], i..i + 1);
                        }
                    }
                }
                // A ping is read after the last push's eviction ran.
                ok(client.ping(), "ping");
                assert_eq!(daemon.active_sessions(), 1, "sessions were not evicted");
                for (&(app, det), &session) in cases.iter().zip(&sessions) {
                    let full = ok(client.query_report(session), apps()[app].name);
                    out.push(Seen(app, det, whole(app), Answer::Full(full)));
                    ok(client.close(session), apps()[app].name);
                }
                assert_closed(daemon, Some(&store));
            }
            Path::TornTail => {
                let store = tmpdir(format!("{self:?}"));
                let first = durable(&store);
                let mut client = connect(first.addr());
                for &(app, _) in &cases {
                    let session = open(&mut client, app);
                    stream(&mut client, session, &apps()[app], 0..whole(app));
                }
                // The graceful stop also checkpoints the whole series;
                // tearing the log's last record leaves that checkpoint
                // stale, so reopening must reject it and replay cold.
                first.shutdown();
                for &(app, _) in &cases {
                    assert!(whole(app) >= 2, "{}: too short to tear", apps()[app].name);
                    let log = store
                        .join(full_reference(app).0.to_string())
                        .join("log.iprf");
                    let file = std::fs::OpenOptions::new().write(true).open(&log);
                    let file = ok(file, log.display());
                    let len = ok(file.metadata(), log.display()).len();
                    ok(file.set_len(len - 5), log.display());
                }
                let second = durable(&store);
                let mut client = connect(second.addr());
                for &(app, det) in &cases {
                    let (a, session, n) = (&apps()[app], full_reference(app).0, whole(app) - 1);
                    let got = ok(client.query_analysis(session), a.name);
                    out.push(Seen(app, det, n, Answer::Json(got)));
                    let full = ok(client.query_report(session), a.name);
                    let want = format!("\"snapshots\":{n}");
                    assert!(full.contains(&want), "{}: want {want}: {full}", a.name);
                    assert!(!full.contains("\"fault\""), "{}: faulted: {full}", a.name);
                    ok(client.close(session), a.name);
                }
                assert_closed(second, Some(&store));
            }
        }
        out
    }
}

/// Run `path` and compare each of its answers with its reference.
fn check(path: Path) {
    let seen = path.run();
    for Seen(app, det, prefix, answer) in &seen {
        let at = format!("{path:?}: {} at prefix {prefix}", case(*app, *det));
        let want = || reference(*app, *det, *prefix);
        match answer {
            Answer::Full(got) => {
                let want = &full_reference(*app).1;
                assert_eq!(got, want, "{at}: not the reference Full report");
            }
            Answer::Json(got) => assert_eq!(got, &want().json, "{at}: bytes differ from offline"),
            Answer::Analysis(a) => {
                assert_eq!(json(a), want().json, "{at}: bytes differ from offline");
                assert_eq!(bits(a), want().bits, "{at}: f64 bits differ from offline");
            }
        }
    }
    for (app, det) in path.cases() {
        let answered = seen.iter().any(|s| (s.0, s.1) == (app, det));
        assert!(answered, "{path:?}: no answer for {}", case(app, det));
    }
}

macro_rules! arms {
    ($($test:ident => $path:ident),* $(,)?) => {
        $(#[test]
        fn $test() {
            check(Path::$path);
        })*
    };
}

arms! {
    cache_warm_at_every_prefix_and_memo_requery => CacheWarm,
    cache_warm_under_every_selection_and_feature_set => CacheDetectors,
    cache_sparse_at_strides_2_and_5 => CacheSparse,
    cache_encoded_and_decoded_mid_stream => CacheCodec,
    registry_cached_and_uncached_under_interleave => Registry,
    threads_1_2_3_8_elbow_and_silhouette => Threads,
    detect_many_at_8_threads_against_offline => DetectMany,
    daemon_at_1_and_4_workers => Daemon,
    eight_concurrent_sessions => Concurrent,
    router_with_1_and_3_backends => Router,
    router_with_a_backend_stopped_mid_stream => Failover,
    daemon_restarted_mid_stream => Restart,
    torn_log_tail_leaves_the_prefix_queryable => TornTail,
    evicted_sessions_rehydrate_between_interleaved_pushes => Evict,
    traced_frames_over_a_unix_socket => TracedUnix,
}

#[test]
fn pruned_kmeans_is_bit_identical_across_thread_counts() {
    // The Hamerly-bound fast path skips exact distance work per point;
    // its claim is "identical bits to the naive argmin, at any worker
    // count". The app series stay under Lloyd's parallel threshold
    // (exact rows·k·d >= 200_000), so a 3000×10 dataset at k = 8 crosses
    // it on each restart's first, all-exact iteration and the pruned
    // run's exact rows really go to the pool chunked.
    use incprof_suite::cluster::{kmeans, Dataset, KMeansConfig, KMeansResult};
    let (n, d) = (3000usize, 10usize);
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 40) as f64 / (1u64 << 24) as f64
    };
    let mut data = Dataset::zeros(n, d);
    for i in 0..n {
        for j in 0..d {
            data.set(i, j, (i % 4) as f64 * 10.0 + next());
        }
    }
    let pruned = KMeansConfig::new(8).with_seed(99);
    let naive = KMeansConfig {
        pruning: false,
        ..pruned.clone()
    };
    let bits = |r: &KMeansResult| {
        let c = (0..8).flat_map(|c| r.centroids.row(c).iter().map(|v| v.to_bits()));
        (
            r.assignments.clone(),
            r.wcss.to_bits(),
            c.collect::<Vec<_>>(),
            r.iterations,
        )
    };
    let _only_caller = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
    incprof_suite::par::set_threads(1);
    let base = bits(&kmeans(&data, &pruned));
    let naive1 = bits(&kmeans(&data, &naive));
    assert_eq!(base, naive1, "pruning changed the result at 1 thread");
    for threads in [2usize, 8] {
        incprof_suite::par::set_threads(threads);
        let (p, q) = (bits(&kmeans(&data, &pruned)), bits(&kmeans(&data, &naive)));
        assert_eq!(p, base, "pruned k-means differs at {threads} threads");
        assert_eq!(q, base, "naive k-means differs at {threads} threads");
    }
    incprof_suite::par::set_threads(0);
}

#[test]
fn stale_version_checkpoint_is_rejected_not_misparsed() {
    // v2 added the chain section, v3 dropped the pair section, v4 the
    // elbow silhouettes, v5 the feature rows and v6 the intervals. A
    // v1..v5 blob (or any other version byte) is refused outright, so
    // the caller replays the log cold; it is never field-shifted into
    // garbage or served as a stale memo.
    let mut cache = AnalysisCache::new();
    let warm = cache.analyze(&detectors()[DEFAULT], &apps()[MINIFE].series);
    ok(warm, "warm");
    let mut blob = cache.encode_state();
    assert!(AnalysisCache::decode_state(&blob).is_some());
    let current = blob[0];
    for version in [0u8, 1, 2, 3, 4, 5, current + 1, 0xFF] {
        blob[0] = version;
        let decoded = AnalysisCache::decode_state(&blob);
        assert!(decoded.is_none(), "version {version} blob must be rejected");
    }
}

#[test]
fn config_change_mid_stream_invalidates_instead_of_serving_stale() {
    // Warm fully under A, swap to B on the same series, then back to A:
    // each answer matches a cold run of its own config.
    let (series, a) = (&apps()[MINIFE].series, &detectors()[DEFAULT]);
    let b = PhaseDetector {
        seed: 7,
        ..PhaseDetector::default()
    };
    assert_ne!(a.fingerprint(), b.fingerprint());
    let mut cache = AnalysisCache::new();
    ok(cache.analyze(a, series), "warm A");
    let warm_b = json(&ok(cache.analyze(&b, series), "warm B"));
    let cold_b = json(&ok(b.detect_series(series), "cold B"));
    assert_eq!(warm_b, cold_b, "stale config-A state leaked into B");
    let warm_a = json(&ok(cache.analyze(a, series), "warm A again"));
    let cold_a = &reference(MINIFE, DEFAULT, whole(MINIFE)).json;
    assert_eq!(&warm_a, cold_a, "config-B state leaked back into A");
}

//! The three socket workloads: `serve_ingest`, `serve_query` and
//! `shard_ingest`.
//!
//! All three drive an in-process daemon over TCP loopback with a durable
//! store, from C closed-loop clients that cycle whole sessions (open →
//! pushes with queries → close). They differ in the traffic mix and in
//! whether a shard router sits in between.

use super::{CounterMark, Deadline, Latency, LayerMetrics, Outcome, Workload, CHECKPOINT_EVERY};
use crate::gen::{synth_gmon, to_series, Rng, SeriesSpec};
use crate::trace::{total_of, Recorder, SpanId};
use crate::{probes, sys};
use incprof_core::PhaseDetector;
use incprof_obs::names;
use incprof_profile::GmonData;
use incprof_serve::frame::{read_frame, ReadOutcome, DEFAULT_MAX_PAYLOAD};
use incprof_serve::{
    Client, Frame, FrameType, Registry, RetentionPolicy, ServeConfig, Server, ServerHandle,
    SnapshotAck, Store,
};
use incprof_shard::{BackendSpec, Router, RouterConfig, RouterHandle};
use incprof_store::store::{CHECKPOINT_FILE, LOG_FILE};
use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Busy replies tolerated per push before it counts as failed.
const PUSH_ATTEMPTS: usize = 200;
/// Pushes of the warm-up session each client runs during set-up.
const WARMUP_PUSHES: usize = 256;

/// When a client queries.
#[derive(Debug, Clone, Copy)]
pub enum Queries {
    /// One `query_analysis` per this many pushes (write-heavy).
    Every(usize),
    /// This many queries after every push, alternating `query_analysis`
    /// and `query_report`: the first misses the memo, the rest hit it.
    AfterEachPush(usize),
}

/// One socket workload's shape.
#[derive(Debug)]
pub struct ServeSpec {
    /// Snapshots per session. Capped at 1024 on purpose: past n ≈ 1450
    /// the analysis checkpoint outgrows the 16 MiB frame cap and every
    /// checkpoint fails with only a WARN line (see the README).
    pub session_len: usize,
    pub queries: Queries,
    /// Backends behind a shard router; 0 connects to the daemon directly.
    pub shards: usize,
    /// Percentile of a session's pushes reported as the push tail (the
    /// run reports the median over its sessions). p99 sits inside the
    /// one push in sixteen that waits for a checkpoint write; beside
    /// queries those writes are small and their time is file-system
    /// noise (it doubled for minutes at a time on the development
    /// machine), so `serve_query` reports p90 and leaves the checkpoint
    /// tail to `serve_ingest`.
    pub push_tail_q: f64,
    /// Percentile of a session's queries reported as the query tail: p99
    /// only where a session holds thousands of queries; p75 of the
    /// write-heavy sessions' few queries is the one at three quarters
    /// of the session's length or later.
    pub query_tail_q: f64,
}

pub const SERVE_INGEST: ServeSpec = ServeSpec {
    session_len: 1024,
    queries: Queries::Every(256),
    shards: 0,
    push_tail_q: 0.99,
    query_tail_q: 0.75,
};

pub const SERVE_QUERY: ServeSpec = ServeSpec {
    session_len: 512,
    queries: Queries::AfterEachPush(4),
    shards: 0,
    push_tail_q: 0.9,
    query_tail_q: 0.99,
};

pub const SHARD_INGEST: ServeSpec = ServeSpec {
    session_len: 512,
    queries: Queries::Every(256),
    shards: 2,
    push_tail_q: 0.99,
    query_tail_q: 0.75,
};

fn series_spec(n: usize) -> SeriesSpec {
    SeriesSpec {
        n,
        d: 24,
        phases: 4,
        block: 32,
        noise: 0.05,
        dup_share: 0.0,
    }
}

/// A client connection: the product's [`Client`] on the untraced run,
/// and on the traced run the same exchanges unrolled over a bare stream
/// so each call into a layer gets its span.
enum Conn {
    Product(Client),
    Raw(TcpStream),
}

fn exchange(stream: &mut TcpStream, bytes: &[u8]) -> Result<Frame, String> {
    stream.write_all(bytes).map_err(|e| e.to_string())?;
    loop {
        match read_frame(stream, DEFAULT_MAX_PAYLOAD).map_err(|e| e.to_string())? {
            ReadOutcome::Frame(f) => return Ok(f),
            ReadOutcome::TimedOut => continue,
            ReadOutcome::Closed => return Err("connection closed".to_string()),
            ReadOutcome::Malformed(e) => return Err(e.to_string()),
        }
    }
}

fn expect(reply: Frame, want: FrameType) -> Result<Frame, String> {
    if reply.frame_type == want {
        Ok(reply)
    } else {
        Err(format!("expected {want:?}, got {:?}", reply.frame_type))
    }
}

impl Conn {
    fn connect(addr: &str, unrolled: bool) -> Conn {
        if unrolled {
            let stream = TcpStream::connect(addr).expect("connect to the daemon");
            // Same socket options as the product client.
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("set read timeout");
            Conn::Raw(stream)
        } else {
            Conn::Product(Client::connect_tcp(addr).expect("connect to the daemon"))
        }
    }

    fn open(&mut self) -> Result<u64, String> {
        match self {
            Conn::Product(c) => c.open().map_err(|e| e.to_string()),
            Conn::Raw(s) => exchange(s, &Frame::empty(FrameType::Open, 0).encode())
                .and_then(|r| expect(r, FrameType::OpenAck))
                .map(|r| r.session_id),
        }
    }

    /// Push one snapshot, retrying while the daemon answers Busy.
    /// `wire` is the layer the round trip is charged to.
    fn push(
        &mut self,
        sid: u64,
        gmon: &GmonData,
        rec: &mut Recorder,
        op: SpanId,
        wire: &'static str,
    ) -> Result<(), String> {
        match self {
            Conn::Product(c) => c
                .push_retry(sid, gmon, PUSH_ATTEMPTS)
                .map(drop)
                .map_err(|e| e.to_string()),
            Conn::Raw(s) => {
                let payload = rec.within(op, "profile", "gmon_encode", || gmon.encode().to_vec());
                let bytes = rec.within(op, "store", "frame_encode", || {
                    Frame::with_payload(FrameType::Snapshot, sid, payload).encode()
                });
                for _ in 0..PUSH_ATTEMPTS {
                    let reply = rec.within(op, wire, "push_round_trip", || exchange(s, &bytes))?;
                    match reply.frame_type {
                        FrameType::SnapshotAck => {
                            return rec
                                .within(op, "store", "ack_decode", || {
                                    SnapshotAck::decode(&reply.payload)
                                })
                                .map(drop)
                                .map_err(|e| e.to_string());
                        }
                        FrameType::Busy => std::thread::sleep(Duration::from_micros(200)),
                        other => return Err(format!("push answered with {other:?}")),
                    }
                }
                Err(format!(
                    "session {sid} still busy after {PUSH_ATTEMPTS} attempts"
                ))
            }
        }
    }

    /// `full` asks for the Full report, otherwise the analysis JSON.
    fn query(
        &mut self,
        sid: u64,
        full: bool,
        rec: &mut Recorder,
        op: SpanId,
        wire: &'static str,
    ) -> Result<String, String> {
        match self {
            Conn::Product(c) => if full {
                c.query_report(sid)
            } else {
                c.query_analysis(sid)
            }
            .map_err(|e| e.to_string()),
            Conn::Raw(s) => {
                let bytes =
                    Frame::with_payload(FrameType::Query, sid, vec![u8::from(!full)]).encode();
                let reply = rec
                    .within(op, wire, "query_round_trip", || exchange(s, &bytes))
                    .and_then(|r| expect(r, FrameType::Report))?;
                String::from_utf8(reply.payload).map_err(|e| e.to_string())
            }
        }
    }

    fn close(&mut self, sid: u64) -> Result<(), String> {
        match self {
            Conn::Product(c) => c.close(sid).map_err(|e| e.to_string()),
            Conn::Raw(s) => exchange(s, &Frame::empty(FrameType::Close, sid).encode())
                .and_then(|r| expect(r, FrameType::CloseAck))
                .map(drop),
        }
    }
}

/// What one client thread measured.
#[derive(Default)]
struct ClientLog {
    /// Round-trip milliseconds, one window per session.
    push_ms: Vec<Vec<f64>>,
    query_ms: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
    sessions: u64,
    /// Wall seconds of each timed session.
    session_s: Vec<f64>,
    /// Final analysis JSON of the first session, checked against the
    /// offline pipeline after the timed body; later sessions replay the
    /// same series and must reproduce it.
    final_analysis: Option<String>,
    log_bytes: u64,
    checkpoint_bytes: u64,
    cpu_s: f64,
}

pub struct Serve {
    spec: &'static ServeSpec,
    detector: PhaseDetector,
    /// One generated series per client.
    records: Vec<Vec<GmonData>>,
    payload_bytes: Vec<u64>,
    /// Offline `detect_series` JSON per client series, computed on first use.
    offline: Vec<Option<String>>,
    backends: Vec<ServerHandle>,
    router: Option<RouterHandle>,
    addr: String,
    work: PathBuf,
    store_root: PathBuf,
}

impl Serve {
    pub fn setup(spec: &'static ServeSpec, seed: u64) -> Serve {
        let clients = sys::clients();
        let records: Vec<Vec<GmonData>> = (0..clients)
            .map(|c| {
                synth_gmon(
                    series_spec(spec.session_len),
                    &mut Rng::fork(seed, c as u64),
                )
            })
            .collect();
        let payload_bytes = records
            .iter()
            .map(|r| r.iter().map(|g| g.encode().len() as u64).sum())
            .collect();

        let work = sys::work_dir("serve");
        let store_root = work.join("store");
        let backends: Vec<ServerHandle> = (0..spec.shards.max(1))
            .map(|_| {
                Server::bind(ServeConfig {
                    workers: clients,
                    max_sessions: 4 * clients,
                    read_timeout: Duration::from_millis(25),
                    store_dir: Some(store_root.clone()),
                    checkpoint_every: CHECKPOINT_EVERY,
                    ..ServeConfig::default()
                })
                .expect("bind daemon")
                .start()
                .expect("start daemon")
            })
            .collect();
        let router = (spec.shards > 0).then(|| {
            Router::bind(RouterConfig {
                backends: backends
                    .iter()
                    .map(|b| BackendSpec {
                        data: b.addr().to_string(),
                        admin: None,
                    })
                    .collect(),
                store_dir: Some(store_root.clone()),
                read_timeout: Duration::from_millis(25),
                max_conns: 2 * clients,
                ..RouterConfig::default()
            })
            .expect("bind router")
            .start()
            .expect("start router")
        });
        let addr = router
            .as_ref()
            .map_or_else(|| backends[0].addr().to_string(), |r| r.addr().to_string());

        let rig = Serve {
            spec,
            detector: PhaseDetector::default(),
            offline: vec![None; records.len()],
            records,
            payload_bytes,
            backends,
            router,
            addr,
            work,
            store_root,
        };
        rig.warm_up();
        rig
    }

    /// The head of a session per client, under the workload's own query
    /// plan, so connection paths, allocator and page cache are warm
    /// before the timed body.
    fn warm_up(&self) {
        std::thread::scope(|scope| {
            for c in 0..self.records.len() {
                scope.spawn(move || {
                    let mut conn = Conn::connect(&self.addr, false);
                    let mut log = ClientLog::default();
                    self.session(c, WARMUP_PUSHES, &mut conn, &mut Recorder::off(), &mut log);
                    assert_eq!(log.failed, 0, "warm-up session failed");
                });
            }
        });
    }

    fn wire_layer(&self) -> &'static str {
        if self.spec.shards > 0 {
            "shard"
        } else {
            "serve"
        }
    }

    /// One session of client `c`: the first `pushes` snapshots of its
    /// series (the timed body pushes them all).
    fn session(
        &self,
        c: usize,
        pushes: usize,
        conn: &mut Conn,
        rec: &mut Recorder,
        log: &mut ClientLog,
    ) {
        let wire = self.wire_layer();
        let fail = |log: &mut ClientLog, what: &str, e: String| {
            eprintln!("FAILED OP client {c}: {what}: {e}");
            log.failed += 1;
        };
        log.attempted += 1;
        let sid = match conn.open() {
            Ok(sid) => sid,
            Err(e) => return fail(log, "open", e),
        };
        let mut last_analysis = None;
        let (mut push_ms, mut query_ms) = (Vec::with_capacity(pushes), Vec::new());
        for (i, gmon) in self.records[c].iter().take(pushes).enumerate() {
            log.attempted += 1;
            let t = Instant::now();
            let op = rec.root("push");
            let pushed = conn.push(sid, gmon, rec, op, wire);
            rec.end(op);
            match pushed {
                Ok(()) => push_ms.push(t.elapsed().as_secs_f64() * 1e3),
                Err(e) => fail(log, "push", e),
            }
            let queries = match self.spec.queries {
                Queries::Every(n) if (i + 1) % n == 0 => 1,
                Queries::Every(_) => 0,
                Queries::AfterEachPush(n) => n,
            };
            for q in 0..queries {
                let full = q % 2 == 1;
                log.attempted += 1;
                let t = Instant::now();
                let op = rec.root("query");
                let answer = conn.query(sid, full, rec, op, wire);
                rec.end(op);
                match answer {
                    Ok(json) => {
                        query_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        if !full {
                            last_analysis = Some(json);
                        }
                    }
                    Err(e) => fail(log, "query", e),
                }
            }
        }
        log.push_ms.push(push_ms);
        log.query_ms.push(query_ms);
        // Output check: every session of this client replays one series,
        // so every final analysis must equal the first session's (which
        // is compared with the offline pipeline after the timed body).
        log.attempted += 1;
        match (&log.final_analysis, last_analysis) {
            (_, None) => fail(
                log,
                "check",
                "session ended without an analysis".to_string(),
            ),
            (None, Some(json)) => log.final_analysis = Some(json),
            (Some(first), Some(json)) if *first != json => fail(
                log,
                "check",
                "final analysis differs between two sessions of one series".to_string(),
            ),
            _ => {}
        }
        // Sizes on disk, read before close deletes the session.
        let dir = self.store_root.join(sid.to_string());
        log.log_bytes += sys::file_len(&dir.join(LOG_FILE));
        log.checkpoint_bytes += sys::file_len(&dir.join(CHECKPOINT_FILE));
        log.attempted += 1;
        if let Err(e) = conn.close(sid) {
            fail(log, "close", e);
        }
        log.sessions += 1;
    }

    fn counter_names() -> Vec<String> {
        [
            names::STORE_APPENDS,
            names::STORE_CHECKPOINTS,
            names::CORE_CACHE_HITS,
            names::CORE_CACHE_MISSES,
            names::CORE_CACHE_PAIR_EXTENDS,
            names::CORE_CACHE_INVALIDATIONS,
            names::SERVE_BUSY_REPLIES,
            names::SERVE_CLIENT_RETRIES,
            names::SERVE_DECODE_ERRORS,
            names::SHARD_FRAMES_ROUTED,
            names::SHARD_FAILOVER_REROUTES,
            names::SHARD_BACKEND_DEATHS,
        ]
        .map(String::from)
        .to_vec()
    }

    /// Mean `Client::ping` round trip to `addr`, microseconds.
    fn ping_us(addr: &str) -> f64 {
        let mut client = Client::connect_tcp(addr).expect("connect for ping");
        for _ in 0..200 {
            client.ping().expect("ping");
        }
        super::mean_ns(2_000, || client.ping().expect("ping")) / 1e3
    }
}

impl Serve {
    /// Mean round trip of the cheapest exchanges a router forwards (an
    /// empty session's open and close), microseconds.
    fn open_close_us(addr: &str) -> f64 {
        let mut client = Client::connect_tcp(addr).expect("connect for open/close");
        super::mean_ns(300, || {
            let sid = client.open().expect("open");
            client.close(sid).expect("close");
        }) / 2e3
    }
}

impl Workload for Serve {
    fn run(&mut self, seconds: f64, rec: &mut Recorder) -> Outcome {
        let mark = CounterMark::take(&Serve::counter_names());
        let cpu0 = sys::process_cpu_s();
        let deadline = Deadline::new(seconds);
        let rig = &*self;
        let logs: Vec<(ClientLog, Recorder)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..rig.records.len())
                .map(|c| {
                    let mut rec = rec.sibling();
                    let deadline = &deadline;
                    scope.spawn(move || {
                        let mut log = ClientLog::default();
                        let mut conn = Conn::connect(&rig.addr, rec.enabled());
                        let mut session_s = 0.0;
                        while log.sessions == 0 || deadline.has_room_for(session_s) {
                            let t = Instant::now();
                            rig.session(c, rig.spec.session_len, &mut conn, &mut rec, &mut log);
                            session_s = t.elapsed().as_secs_f64();
                            log.session_s.push(session_s);
                        }
                        log.cpu_s = sys::thread_cpu_s();
                        (log, rec)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let wall_s = deadline.elapsed_s();
        let cpu_s = sys::process_cpu_s() - cpu0;

        let mut total = ClientLog::default();
        let mut payload_bytes = 0u64;
        for (c, (log, client_rec)) in logs.into_iter().enumerate() {
            rec.absorb(client_rec);
            payload_bytes += log.sessions * self.payload_bytes[c];
            total.push_ms.extend(log.push_ms);
            total.query_ms.extend(log.query_ms);
            total.attempted += log.attempted;
            total.failed += log.failed;
            total.sessions += log.sessions;
            total.session_s.extend(log.session_s);
            total.log_bytes += log.log_bytes;
            total.checkpoint_bytes += log.checkpoint_bytes;
            total.cpu_s += log.cpu_s;
            // Output check: the daemon's (or router's) analysis must be
            // the offline pipeline's, byte for byte.
            total.attempted += 1;
            if self.offline[c].is_none() {
                let analysis = self
                    .detector
                    .detect_series(&to_series(&self.records[c]))
                    .expect("offline detect_series");
                self.offline[c] =
                    Some(serde_json::to_string(&analysis).expect("serialize analysis"));
            }
            if log.final_analysis != self.offline[c] {
                eprintln!("FAILED CHECK client {c}: served analysis != offline detect_series JSON");
                total.failed += 1;
            }
        }

        let sessions = total.sessions as f64;
        let due = sessions * (self.spec.session_len as u64 / CHECKPOINT_EVERY) as f64;
        let writes = mark.delta(names::STORE_CHECKPOINTS);
        let write_share = if due > 0.0 { writes / due } else { 1.0 };
        let failovers =
            mark.delta(names::SHARD_FAILOVER_REROUTES) + mark.delta(names::SHARD_BACKEND_DEATHS);
        // Output checks on the layers' own counts: a due checkpoint that
        // failed is only a WARN line in the daemon, and a failover would
        // mean a backend died under a workload on which none should.
        total.attempted += 2;
        if write_share < 1.0 {
            eprintln!("FAILED CHECK checkpoint_write_share {write_share} < 1");
            total.failed += 1;
        }
        if failovers > 0.0 {
            eprintln!("FAILED CHECK shard failovers {failovers} > 0");
            total.failed += 1;
        }

        let hits = mark.delta(names::CORE_CACHE_HITS);
        let misses = mark.delta(names::CORE_CACHE_MISSES);
        let mut layer = LayerMetrics::new();
        layer.insert("store.appends", mark.delta(names::STORE_APPENDS));
        layer.insert("store.checkpoint_writes", writes);
        layer.insert("store.checkpoint_write_share", write_share);
        layer.insert("store.log_bytes", total.log_bytes as f64 / sessions);
        layer.insert(
            "store.checkpoint_bytes",
            total.checkpoint_bytes as f64 / sessions,
        );
        layer.insert("core.cache_hit_share", hits / (hits + misses).max(1.0));
        layer.insert(
            "core.cache_pair_extends",
            mark.delta(names::CORE_CACHE_PAIR_EXTENDS),
        );
        layer.insert(
            "core.cache_invalidations",
            mark.delta(names::CORE_CACHE_INVALIDATIONS),
        );
        layer.insert("serve.busy_replies", mark.delta(names::SERVE_BUSY_REPLIES));
        layer.insert(
            "serve.client_retries",
            mark.delta(names::SERVE_CLIENT_RETRIES),
        );
        layer.insert(
            "serve.decode_errors",
            mark.delta(names::SERVE_DECODE_ERRORS),
        );
        layer.insert("shard.forwarded", mark.delta(names::SHARD_FRAMES_ROUTED));
        layer.insert("shard.failovers", failovers);

        let amplification =
            (total.log_bytes + total.checkpoint_bytes) as f64 / payload_bytes.max(1) as f64;
        let primary = Latency::of_windows(total.push_ms, self.spec.push_tail_q);
        let secondary = Latency::of_windows(total.query_ms, self.spec.query_tail_q);
        let mut outcome = Outcome {
            ops: primary.samples as u64,
            wall_s,
            rep_s: total.session_s,
            lanes: self.records.len(),
            cpu_s,
            generator_cpu_s: total.cpu_s,
            cost_ratio: amplification,
            attempted: total.attempted,
            failed: total.failed,
            named: vec![
                ("push_ack_us_p50", primary.p50 * 1e3, "us"),
                ("push_ack_us_tail", primary.tail * 1e3, "us"),
                ("query_ms_p50", secondary.p50, "ms"),
                ("query_ms_tail", secondary.tail, "ms"),
                ("store_amplification", amplification, "ratio"),
                ("sessions", sessions, "count"),
            ],
            primary,
            secondary,
            layer,
        };
        outcome
            .named
            .insert(0, ("push_per_s", outcome.ops_per_s(), "1/s"));
        outcome
    }

    fn probe(&mut self, rec: &mut Recorder, layer: &mut LayerMetrics) {
        let records = &self.records[0];
        probes::codecs(records, layer);
        probes::online(records, layer);
        let checkpoint = probes::cache(&self.detector, records, layer);
        probes::store(records, &checkpoint, CHECKPOINT_EVERY, layer);
        if matches!(self.spec.queries, Queries::AfterEachPush(_)) {
            probes::cluster(&self.detector, &to_series(records), layer);
        }

        layer.insert("serve.wire_rtt_us", Serve::ping_us(self.backends[0].addr()));
        if let Some(router) = &self.router {
            // The router answers a ping itself, so its ping is the floor of
            // its own front plane; the hop to a backend is what a forwarded
            // exchange costs over the same exchange made directly.
            layer.insert("shard.ping_rtt_us", Serve::ping_us(router.addr()));
            layer.insert(
                "shard.hop_us",
                Serve::open_close_us(router.addr()) - Serve::open_close_us(self.backends[0].addr()),
            );
        }

        // The server side of a push, replayed in-process (no socket, store
        // attached) so each layer the daemon calls into gets its span.
        let root = sys::work_dir("replay");
        let store = Store::open(&root, RetentionPolicy::keep_all(), CHECKPOINT_EVERY)
            .expect("open replay store");
        let registry = Registry::new(Default::default(), 4, 64, true).with_store(store, 0);
        let (sid, session) = registry.open().expect("open replay session");
        let mut session = session.lock().expect("replay session lock");
        for gmon in records {
            let wire =
                Frame::with_payload(FrameType::Snapshot, sid, gmon.encode().to_vec()).encode();
            let op = rec.root("push_replay");
            let (frame, _) = rec.within(op, "store", "frame_decode", || {
                Frame::decode(&wire, DEFAULT_MAX_PAYLOAD).expect("own frame decodes")
            });
            let decoded = rec.within(op, "profile", "gmon_decode", || {
                GmonData::decode(&frame.payload).expect("own payload decodes")
            });
            rec.within(op, "serve", "enqueue_drain", || {
                session
                    .enqueue(decoded, Instant::now())
                    .expect("enqueue in order");
                session.drain().expect("drain");
            });
            rec.end(op);
        }
        let (drain_ns, drains) = total_of(rec.spans(), "enqueue_drain");
        layer.insert(
            "serve.enqueue_drain_us",
            drain_ns as f64 / 1e3 / drains.max(1) as f64,
        );
        layer.insert(
            "serve.report_render_us",
            probes::report_render_us(&self.detector, &mut session),
        );
        drop(session);
        let _ = std::fs::remove_dir_all(&root);
    }

    fn teardown(self) {
        if let Some(router) = self.router {
            router.shutdown();
        }
        for backend in self.backends {
            backend.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.work);
    }
}

//! The streaming phase-detection daemon.
//!
//! The sockets belong to [`crate::plane`]: this module binds one data
//! [`Plane`] (and, when configured, one admin plane), and supplies the
//! data plane's handler — one request frame in, one reply frame out,
//! against the session registry. Ingest is bounded end to end: the
//! plane's connection queue and the frame payload size have hard caps
//! whose overflow answers with a typed reply instead of buffering, and
//! a push holds its session's lock from enqueue to ack, so pushes to
//! one session wait on that lock rather than pile up behind it.
//!
//! Shutdown is graceful by construction: the flag flips (via a
//! [`FrameType::Shutdown`] frame or [`ServerHandle::shutdown`]), the
//! planes stop accepting and finish their in-flight requests, every
//! session's pending queue is drained, and only then does
//! [`ServerHandle::shutdown`] return.

use crate::frame::{ErrorCode, Frame, FrameType, SnapshotAck};
use crate::plane::{
    error_reply, error_reply_info, BindAddr, Plane, PlaneHandle, PlaneSpec, Reply, Stop,
};
use crate::session::{lock, Enqueue, Registry, ReportMode, Session};
use incprof_core::online::OnlineConfig;
use incprof_core::{PhaseDetector, SourceGraph};
use incprof_profile::GmonData;
use incprof_store::{RetentionPolicy, Store};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address.
    pub addr: BindAddr,
    /// Connection-handler threads.
    pub workers: usize,
    /// Cap on concurrently open sessions.
    pub max_sessions: usize,
    /// Socket read poll interval; also the shutdown-observation latency.
    pub read_timeout: Duration,
    /// Idle connections are dropped after this long without a frame.
    pub idle_timeout: Duration,
    /// The offline detector answering report queries.
    pub detector: PhaseDetector,
    /// The incremental detector fed per frame.
    pub online: OnlineConfig,
    /// Optional read-only admin listener (scrape, trace lookup, flight
    /// recorder, health). `None` = no admin surface.
    pub admin: Option<BindAddr>,
    /// Root directory for durable session storage (`--store-dir`).
    /// `None` runs memory-only; sessions die with the daemon.
    pub store_dir: Option<PathBuf>,
    /// Tiered retention applied to each session's snapshot log (only
    /// meaningful with a store). Default keeps everything.
    pub retention: RetentionPolicy,
    /// With a store: evict the most idle sessions to disk once more
    /// than this many are live (0 = never evict).
    pub max_live: usize,
    /// With a store: write an analysis checkpoint after this many
    /// appended snapshots (clamped to at least 1).
    pub checkpoint_every: u64,
    /// Static call graph joined against phases in Full reports'
    /// `source_context` section. Empty = report empty contexts.
    pub source_graph: SourceGraph,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: BindAddr::Tcp("127.0.0.1:0".to_string()),
            workers: 4,
            max_sessions: 64,
            read_timeout: Duration::from_millis(100),
            idle_timeout: crate::plane::IDLE_TIMEOUT,
            detector: PhaseDetector::default(),
            online: OnlineConfig::default(),
            admin: None,
            store_dir: None,
            retention: RetentionPolicy::keep_all(),
            max_live: 0,
            checkpoint_every: 16,
            source_graph: SourceGraph::default(),
        }
    }
}

/// The per-session pending-queue bound `Registry::new` still takes. No
/// value ≥ 1 changes what this daemon does: `handle_snapshot` enqueues
/// and drains under one session-lock hold and a drain always leaves the
/// queue empty, so the queue never holds more than the frame in hand.
const SESSION_QUEUE_BOUND: usize = 64;

/// Flight-recorder `b` tag on [`incprof_obs::EventKind::BusyReply`]
/// (beside [`crate::plane::BUSY_CONN_BACKLOG`]): a session's bounded
/// pending queue was full.
pub const BUSY_SESSION_QUEUE: u64 = 2;

pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) registry: Registry,
    pub(crate) stop: Arc<Stop>,
}

/// A bound (but not yet running) daemon.
pub struct Server {
    data: Plane,
    admin: Option<Plane>,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the configured address. For `BindAddr::Tcp` with port 0 the
    /// kernel picks an ephemeral port; [`Server::local_addr`] reports it.
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let spec = |name, threads, conns_counter| PlaneSpec {
            name,
            threads,
            read_timeout: config.read_timeout,
            idle_timeout: config.idle_timeout,
            conns_counter,
        };
        let data = Plane::bind(
            &config.addr,
            spec(
                "incprof-serve",
                config.workers,
                incprof_obs::names::SERVE_CONNS_ACCEPTED,
            ),
        )?;
        // One thread on purpose: every admin request is answered from
        // in-memory snapshots, so one slow scraper only delays other
        // scrapers, never ingest.
        let admin_spec = spec(
            "incprof-serve-admin",
            1,
            incprof_obs::names::SERVE_ADMIN_CONNS,
        );
        let admin = config.admin.as_ref();
        let admin = admin.map(|a| Plane::bind(a, admin_spec)).transpose()?;
        let mut registry = Registry::new(
            config.online.clone(),
            config.max_sessions,
            SESSION_QUEUE_BOUND,
            true,
        )
        .with_source_graph(config.source_graph.clone());
        if let Some(dir) = &config.store_dir {
            let store = Store::open(dir, config.retention, config.checkpoint_every)?;
            registry = registry.with_store(store, config.max_live);
            let recovered = registry.recover();
            if !recovered.is_empty() {
                incprof_obs::info!(
                    "store: {} session(s) recoverable under {}",
                    recovered.len(),
                    dir.display()
                );
            }
        }
        let shared = Arc::new(Shared {
            config,
            registry,
            stop: Arc::default(),
        });
        Ok(Server {
            data,
            admin,
            shared,
        })
    }

    /// The bound address: `ip:port` for TCP, the path for Unix.
    pub fn local_addr(&self) -> &str {
        self.data.addr()
    }

    /// Start the data (and admin) plane and return a handle.
    pub fn start(self) -> io::Result<ServerHandle> {
        let mut planes = PlaneHandle::new(Arc::clone(&self.shared.stop));
        let shared = Arc::clone(&self.shared);
        planes.start(self.data, || (), move |(), frame| dispatch(&shared, frame))?;
        if let Some(admin) = self.admin {
            let shared = Arc::clone(&self.shared);
            planes.start(
                admin,
                || (),
                move |(), frame| crate::admin::dispatch_admin(&shared, frame),
            )?;
        }
        Ok(ServerHandle {
            shared: self.shared,
            planes,
        })
    }
}

/// Handle to a running daemon. Derefs to its [`PlaneHandle`] for the
/// addresses and the request/wait half of the shutdown sequence.
pub struct ServerHandle {
    shared: Arc<Shared>,
    planes: PlaneHandle,
}

impl std::ops::Deref for ServerHandle {
    type Target = PlaneHandle;

    fn deref(&self) -> &PlaneHandle {
        &self.planes
    }
}

impl ServerHandle {
    /// Number of live sessions.
    pub fn active_sessions(&self) -> usize {
        self.shared.registry.active()
    }

    /// Gracefully stop: stop the planes, then drain every session's
    /// pending queue.
    pub fn shutdown(mut self) {
        self.drain();
    }

    /// [`ServerHandle::shutdown`], then render one final admin
    /// exposition reflecting the drained state — the `--final-scrape`
    /// snapshot a scraper would have seen just before exit.
    pub fn shutdown_scraped(mut self) -> String {
        self.drain();
        crate::admin::render_exposition(&self.shared.registry, Instant::now())
    }

    fn drain(&mut self) {
        self.planes.join();
        let drained = self.shared.registry.active() as u64;
        self.shared.registry.drain_all();
        incprof_obs::recorder().record(incprof_obs::EventKind::Shutdown, drained, 0);
    }
}

/// Answer one data-plane frame. Payload-level problems answer with a
/// typed error and keep the connection.
fn dispatch(shared: &Arc<Shared>, frame: Frame) -> Reply {
    let sid = frame.session_id;
    Reply::Send(match frame.frame_type {
        // session_id 0 asks the daemon to allocate; a nonzero id adopts
        // that id (idempotently, rehydrating shared-store state when it
        // exists) — the shard router's failover handoff path.
        FrameType::Open if sid == 0 => match shared.registry.open() {
            Ok((id, _)) => Frame::empty(FrameType::OpenAck, id),
            Err(e) => error_reply_info(sid, &e),
        },
        FrameType::Open => match shared.registry.open_with_id(sid) {
            Ok(_) => Frame::empty(FrameType::OpenAck, sid),
            Err(e) => error_reply_info(sid, &e),
        },
        FrameType::Snapshot => return handle_snapshot(shared, &frame),
        FrameType::Query => handle_query(shared, &frame),
        FrameType::Close => match shared.registry.close(sid) {
            Some(session) => {
                let _ = lock(&session).drain();
                Frame::empty(FrameType::CloseAck, sid)
            }
            // Not live — but a store may still hold it (evicted or
            // recovered-but-untouched): closing deletes the durable
            // state without paying for a rehydration first.
            None if shared.registry.purge(sid) => Frame::empty(FrameType::CloseAck, sid),
            None => unknown_session(sid),
        },
        FrameType::Ping => Frame::empty(FrameType::Pong, sid),
        FrameType::Shutdown => {
            shared.stop.request();
            return Reply::Last(Frame::empty(FrameType::ShutdownAck, 0));
        }
        // Admin requests are only answered on the admin socket: the
        // data plane stays write-shaped and the read-only surface can
        // be firewalled separately.
        FrameType::Scrape | FrameType::TraceGet | FrameType::RecorderDump | FrameType::Health => {
            error_reply(
                sid,
                ErrorCode::BadType,
                &format!("{:?} is admin-only; use the admin socket", frame.frame_type),
            )
        }
        // Checkpoint frames exist only inside session stores on disk.
        FrameType::Checkpoint => error_reply(
            sid,
            ErrorCode::BadType,
            "Checkpoint is an on-disk record type, not a wire request",
        ),
        // A reply type arriving as a request is a confused peer.
        FrameType::OpenAck
        | FrameType::SnapshotAck
        | FrameType::Report
        | FrameType::CloseAck
        | FrameType::Pong
        | FrameType::ShutdownAck
        | FrameType::Busy
        | FrameType::Error
        | FrameType::ScrapeReply
        | FrameType::TraceReply
        | FrameType::RecorderReply
        | FrameType::HealthReply => error_reply(
            sid,
            ErrorCode::BadType,
            &format!("{:?} is a reply type", frame.frame_type),
        ),
    })
}

fn unknown_session(sid: u64) -> Frame {
    error_reply(sid, ErrorCode::UnknownSession, &format!("no session {sid}"))
}

fn snapshot_ack(sid: u64, ack: &crate::session::IngestAck) -> Frame {
    let payload = SnapshotAck {
        interval: ack.sample_index,
        phase: ack.observation.phase as u32,
        new_phase: ack.observation.new_phase,
        transition: ack.observation.transition,
        capped: ack.observation.capped,
    }
    .encode();
    Frame::with_payload(FrameType::SnapshotAck, sid, payload)
}

fn handle_snapshot(shared: &Arc<Shared>, frame: &Frame) -> Reply {
    let sid = frame.session_id;
    let received_at = Instant::now();
    // A traced frame opens a wire-linked root span; every span opened
    // below on this thread (the online observation, core's pipeline
    // spans) auto-inherits into the same trace tree. Untraced frames
    // open nothing — the hot path records zero spans — and the traced
    // path is deliberately held to two server-side spans per push
    // (root + observe): decode, enqueue, and drain all happen right
    // here on one thread under one session lock, so separate spans for
    // them would triple the tracing tax to say "same place, same time".
    let traced = frame.trace.is_some();
    let _root = frame.trace.map(|tw| {
        incprof_obs::global().spans().enter_traced(
            incprof_obs::names::SERVE_TRACE_SNAPSHOT,
            tw.trace_id,
            tw.parent_span,
        )
    });
    let gmon = match GmonData::decode(&frame.payload) {
        Ok(g) => g,
        Err(e) => {
            incprof_obs::counter(incprof_obs::names::SERVE_DECODE_ERRORS).inc();
            incprof_obs::recorder().record(
                incprof_obs::EventKind::DecodeError,
                sid,
                ErrorCode::BadPayload as u64,
            );
            let msg = format!("gmon decode: {e}");
            return Reply::Send(error_reply(sid, ErrorCode::BadPayload, &msg));
        }
    };
    let sample_index = gmon.sample_index;
    let mut gmon = Some(gmon);
    // Enqueue and drain under one lock hold: the queue bound gives
    // overflow a BUSY answer, and atomicity guarantees this worker
    // drains (and can ack) the frame it just enqueued.
    let handled = with_session(shared, sid, |session| {
        let reply = match session.enqueue(
            // lint: allow(P01, with_session invokes its closure at most once, so the Option is always populated here)
            gmon.take().expect("with_session runs its closure once"),
            received_at,
        ) {
            Err(e) => error_reply_info(sid, &e),
            Ok(Enqueue::Busy) => {
                incprof_obs::counter(incprof_obs::names::SERVE_BUSY_REPLIES).inc();
                incprof_obs::recorder().record(
                    incprof_obs::EventKind::BusyReply,
                    sid,
                    BUSY_SESSION_QUEUE,
                );
                Frame::empty(FrameType::Busy, sid)
            }
            // A retransmission of the most recently acked snapshot
            // (client reconnect or router failover): replay the
            // remembered ack so at-least-once delivery is invisible.
            Ok(Enqueue::Duplicate) => match session.last_ack() {
                Some(ack) => snapshot_ack(sid, &ack),
                None => error_reply(
                    sid,
                    ErrorCode::Internal,
                    "duplicate verdict without a remembered ack",
                ),
            },
            Ok(Enqueue::Accepted) => match session.drain_traced(traced) {
                Err(e) => error_reply_info(sid, &e),
                Ok(acks) => match acks.iter().find(|a| a.sample_index == sample_index) {
                    Some(ack) => snapshot_ack(sid, ack),
                    None => error_reply(
                        sid,
                        ErrorCode::Internal,
                        "drained batch missed the enqueued frame",
                    ),
                },
            },
        };
        (reply, session.checkpoint_due())
    });
    let Some((reply, checkpoint_due)) = handled else {
        return Reply::Send(unknown_session(sid));
    };
    if !checkpoint_due && shared.config.max_live == 0 {
        return Reply::Send(reply);
    }
    // The ack does not wait for housekeeping: the snapshot is already in
    // the log, a checkpoint is advisory. Pushes grow the live set
    // (transparent rehydration included), so this is also where the LRU
    // bound is re-established.
    let shared = Arc::clone(shared);
    Reply::SendThen(
        reply,
        Box::new(move || {
            with_session(&shared, sid, Session::maybe_checkpoint);
            shared.registry.maybe_evict(Instant::now());
        }),
    )
}

fn handle_query(shared: &Shared, frame: &Frame) -> Frame {
    let sid = frame.session_id;
    let received_at = Instant::now();
    // Same inheritance contract as `handle_snapshot`: the analysis
    // cache's `core.cache.analyze` span (and the whole pipeline under
    // it) joins this trace automatically via the thread-local stack.
    let _root = frame.trace.map(|tw| {
        incprof_obs::global().spans().enter_traced(
            incprof_obs::names::SERVE_TRACE_QUERY,
            tw.trace_id,
            tw.parent_span,
        )
    });
    let mode = match frame.payload.first() {
        None | Some(0) => ReportMode::Full,
        Some(1) => ReportMode::AnalysisOnly,
        Some(other) => {
            return error_reply(
                sid,
                ErrorCode::BadPayload,
                &format!("unknown query mode {other}"),
            );
        }
    };
    let json = with_session(shared, sid, |session| {
        session.touch(received_at);
        let json = session.report_json(&shared.config.detector, mode);
        // The cache is freshest right after a report; a due checkpoint
        // written here rehydrates warm.
        session.maybe_checkpoint();
        json
    });
    match json {
        Some(json) => Frame::with_payload(FrameType::Report, sid, json.into_bytes()),
        None => unknown_session(sid),
    }
}

/// Fetch session `id` and run `f` on it under its lock, transparently
/// rehydrating from the store when needed. The evicted check happens
/// under the same lock `f` runs under — eviction marks a session while
/// holding that lock — so `f` can never mutate an object the registry
/// has already handed over to disk; a stale `Arc` is dropped and the
/// lookup retried. Returns `None` when the session exists nowhere.
fn with_session<R>(shared: &Shared, id: u64, f: impl FnOnce(&mut Session) -> R) -> Option<R> {
    let mut f = Some(f);
    // Two iterations suffice in practice (fetch, lose the eviction race
    // at most once, rehydrate); the bound is paranoia against a pathological
    // evict/touch interleave, after which the client simply retries.
    for _ in 0..4 {
        let session = shared.registry.get(id)?;
        let mut session = lock(&session);
        if session.is_evicted() {
            continue;
        }
        // lint: allow(P01, the loop returns on the same iteration it takes the closure, so it is taken at most once)
        return Some(f.take().expect("closure consumed once")(&mut session));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{read_frame, write_frame, ReadOutcome, DEFAULT_MAX_PAYLOAD};
    use std::net::TcpStream;

    #[test]
    fn bind_ephemeral_tcp_reports_real_port() {
        let server = Server::bind(ServeConfig::default()).unwrap();
        let addr = server.local_addr().to_string();
        assert!(addr.starts_with("127.0.0.1:"), "{addr}");
        assert!(!addr.ends_with(":0"), "ephemeral port must be resolved");
        let handle = server.start().unwrap();
        assert_eq!(handle.active_sessions(), 0);
        handle.shutdown();
    }

    #[test]
    fn bind_unix_socket_and_shutdown_removes_file() {
        let path = std::env::temp_dir().join(format!("incprof_serve_{}.sock", std::process::id()));
        let config = ServeConfig {
            addr: BindAddr::Unix(path.clone()),
            ..ServeConfig::default()
        };
        let handle = Server::bind(config).unwrap().start().unwrap();
        assert!(path.exists());
        handle.shutdown();
        assert!(!path.exists(), "socket file must be cleaned up");
    }

    #[test]
    fn wire_shutdown_frame_stops_the_daemon() {
        let handle = Server::bind(ServeConfig::default())
            .unwrap()
            .start()
            .unwrap();
        let mut conn = TcpStream::connect(handle.addr()).unwrap();
        write_frame(&mut conn, &Frame::empty(FrameType::Shutdown, 0)).unwrap();
        match read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).unwrap() {
            ReadOutcome::Frame(f) => assert_eq!(f.frame_type, FrameType::ShutdownAck),
            other => panic!("expected ShutdownAck, got {other:?}"),
        }
        handle.wait(None);
        assert!(handle.shutdown_requested());
        handle.shutdown();
    }
}

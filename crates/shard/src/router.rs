//! The session router.
//!
//! ```text
//!                      ┌──────────────────┐      ring(session_id)
//!  IPRF clients ──────▶│  incprof-shard   │──┬──▶ backend 0 (incprof-serve)
//!  (TCP/Unix)          │  a handler on a  │  ├──▶ backend 1
//!                      │  serve `Plane`   │  └──▶ backend N-1
//!                      └──────────────────┘
//! ```
//!
//! The router owns no socket loop of its own: its front socket and its
//! merged admin socket are two handlers over `incprof_serve::plane`,
//! the same accept/frame/drain mechanism the daemon runs on. It speaks
//! the ordinary IPRF/1–v2 codec on its front socket and forwards every data-plane frame to the backend the
//! [`Ring`] assigns its `session_id` — *unmodified*,
//! including the v2 trace extension, so a traced push resolves
//! client→router→backend as one tree. The single rewrite in the whole
//! protocol: an `Open` with session id 0 (allocate-for-me) gets a
//! router-allocated cluster-wide id before routing, because each
//! backend's local allocator cannot hand out cluster-unique ids.
//!
//! Failover: a broken pipe, reply timeout, or `ShuttingDown` error from
//! a backend marks it down (permanently, for this router's life) and
//! the in-flight frame retransmits to the ring's next healthy backend,
//! which adopts the session id and replays its state from the shared
//! `--store-dir` log. The serve layer's duplicate-ack recognition makes
//! the retransmission invisible to the client. `Busy` replies pass
//! through untouched — per-backend backpressure reaches the client that
//! caused it.

use crate::ring::Ring;
use incprof_serve::admin::{answer_local, render_metrics};
use incprof_serve::frame::{ErrorCode, ErrorInfo, Frame, FrameType};
use incprof_serve::plane::{error_reply, Plane, PlaneHandle, PlaneSpec, Reply, Stop, IDLE_TIMEOUT};
use incprof_serve::session::lock;
use incprof_serve::{BindAddr, Client, ClientError, RetentionPolicy, Store};
use std::collections::{BTreeSet, HashMap};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// How long to wait for a backend's reply to a forwarded frame before
/// declaring it dead.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the admin fan-out and the shutdown drain wait on a backend.
const ADMIN_REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One backend as the router dials it.
#[derive(Debug, Clone)]
pub struct BackendSpec {
    /// Data-plane address (`host:port`, or a Unix socket path when it
    /// contains `/`).
    pub data: String,
    /// Admin-plane address, when the backend exposes one; backends
    /// without it are skipped by the merged scrape and health fan-out.
    pub admin: Option<String>,
}

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Front listen address for client traffic.
    pub addr: BindAddr,
    /// The backends, in ring order (index = shard number).
    pub backends: Vec<BackendSpec>,
    /// Optional merged admin listener (scrape fan-out, health).
    pub admin: Option<BindAddr>,
    /// The shared store root the backends persist into. Scanned once at
    /// bind time to seed the cluster-wide session id allocator past any
    /// ids a previous cluster persisted.
    pub store_dir: Option<PathBuf>,
    /// Socket read poll interval; also the shutdown-observation latency.
    pub read_timeout: Duration,
    /// Cap on concurrently served client connections (the front plane's
    /// thread count); excess accepts queue up to the plane's
    /// `ACCEPT_BACKLOG`, then get a `Busy` reply and are dropped.
    pub max_conns: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: BindAddr::Tcp("127.0.0.1:0".to_string()),
            backends: Vec::new(),
            admin: None,
            store_dir: None,
            read_timeout: Duration::from_millis(100),
            max_conns: 64,
        }
    }
}

struct RouterShared {
    config: RouterConfig,
    ring: Ring,
    stop: Arc<Stop>,
    /// Per-backend health; a false value is permanent for the router's
    /// life (no flapping, no half-open probes — restart to rejoin).
    up: Vec<AtomicBool>,
    /// Cluster-wide session id allocator (seeded past the store).
    next_id: AtomicU64,
    /// Last known backend per session, for the replay counters.
    placement: Mutex<HashMap<u64, usize>>,
    /// Frames forwarded per backend (bench reads this per shard).
    routed: Vec<AtomicU64>,
}

impl RouterShared {
    fn backend_up(&self, b: usize) -> bool {
        self.up.get(b).is_some_and(|f| f.load(Ordering::Acquire))
    }

    fn backends_up(&self) -> usize {
        self.up.iter().filter(|f| f.load(Ordering::Acquire)).count()
    }

    /// Mark a backend dead (idempotent; counts the death once).
    fn mark_down(&self, b: usize) {
        let Some(flag) = self.up.get(b) else { return };
        if flag.swap(false, Ordering::AcqRel) {
            incprof_obs::counter(incprof_obs::names::SHARD_BACKEND_DEATHS).inc();
            incprof_obs::gauge(incprof_obs::names::SHARD_BACKENDS_UP)
                .set(self.backends_up() as u64);
            incprof_obs::warn!(
                "backend {b} ({}) marked down; its sessions fail over on next touch",
                self.config.backends[b].data
            );
        }
    }

    /// Record where a session routed; counts a replay when it moved.
    fn note_placement(&self, session_id: u64, backend: usize) {
        let mut map = lock(&self.placement);
        match map.insert(session_id, backend) {
            Some(prev) if prev != backend => {
                incprof_obs::counter(incprof_obs::names::SHARD_SESSIONS_REPLAYED).inc();
            }
            _ => {}
        }
    }
}

/// A bound (but not yet running) router.
pub struct Router {
    front: Plane,
    admin: Option<Plane>,
    shared: Arc<RouterShared>,
}

impl Router {
    /// Bind the front (and admin) plane and seed the id allocator
    /// from the shared store. Requires at least one backend.
    pub fn bind(config: RouterConfig) -> io::Result<Router> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a shard router needs at least one backend",
            ));
        }
        let spec = |name, threads, conns_counter| PlaneSpec {
            name,
            threads,
            read_timeout: config.read_timeout,
            idle_timeout: IDLE_TIMEOUT,
            conns_counter,
        };
        let front = Plane::bind(
            &config.addr,
            spec(
                "incprof-shard",
                config.max_conns,
                incprof_obs::names::SHARD_CONNS_ACCEPTED,
            ),
        )?;
        let admin_spec = spec(
            "incprof-shard-admin",
            1,
            incprof_obs::names::SHARD_ADMIN_CONNS,
        );
        let admin = config.admin.as_ref();
        let admin = admin.map(|a| Plane::bind(a, admin_spec)).transpose()?;
        // Seed cluster-wide allocation past anything a previous cluster
        // persisted, exactly as a backend's recover() does locally.
        let mut next_id = 1u64;
        if let Some(dir) = &config.store_dir {
            let store = Store::open(dir, RetentionPolicy::keep_all(), 1)?;
            if let Ok(ids) = store.scan() {
                if let Some(&max) = ids.iter().max() {
                    next_id = max + 1;
                }
            }
        }
        let n = config.backends.len();
        let shared = Arc::new(RouterShared {
            ring: Ring::new(n),
            stop: Arc::default(),
            up: (0..n).map(|_| AtomicBool::new(true)).collect(),
            next_id: AtomicU64::new(next_id),
            placement: Mutex::new(HashMap::new()),
            routed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            config,
        });
        incprof_obs::gauge(incprof_obs::names::SHARD_BACKENDS_UP).set(n as u64);
        Ok(Router {
            front,
            admin,
            shared,
        })
    }

    /// The bound front address (`ip:port` or Unix path).
    pub fn local_addr(&self) -> &str {
        self.front.addr()
    }

    /// Start the front (and admin) plane and return a handle. Each
    /// client connection owns one lazily-dialed link per backend, so
    /// request/reply ordering per backend is trivial and `Busy`
    /// propagates naturally.
    pub fn start(self) -> io::Result<RouterHandle> {
        let mut planes = PlaneHandle::new(Arc::clone(&self.shared.stop));
        let shared = Arc::clone(&self.shared);
        let n = shared.config.backends.len();
        planes.start(
            self.front,
            move || (0..n).map(|_| None).collect::<Vec<Option<Client>>>(),
            move |links, frame| dispatch(&shared, frame, links),
        )?;
        if let Some(admin) = self.admin {
            let shared = Arc::clone(&self.shared);
            planes.start(
                admin,
                || (),
                move |(), frame| dispatch_admin(&shared, &frame),
            )?;
        }
        Ok(RouterHandle {
            shared: self.shared,
            planes,
        })
    }
}

/// Handle to a running router. Derefs to its [`PlaneHandle`] for the
/// addresses and the request/wait half of the shutdown sequence.
pub struct RouterHandle {
    shared: Arc<RouterShared>,
    planes: PlaneHandle,
}

impl std::ops::Deref for RouterHandle {
    type Target = PlaneHandle;

    fn deref(&self) -> &PlaneHandle {
        &self.planes
    }
}

impl RouterHandle {
    /// Frames forwarded to each backend since start (index = shard).
    pub fn routed_per_backend(&self) -> Vec<u64> {
        self.shared
            .routed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }

    /// Which backends the router still considers healthy.
    pub fn backends_up(&self) -> Vec<bool> {
        self.shared
            .up
            .iter()
            .map(|f| f.load(Ordering::Acquire))
            .collect()
    }

    /// Gracefully stop: stop the router's planes, then forward
    /// `Shutdown` to every still-healthy backend and await its ack —
    /// the drain ordering `docs/CLUSTER.md` documents. Backends
    /// already marked down are skipped (their drain happened when they
    /// died, or never will).
    pub fn shutdown(mut self) {
        self.planes.join();
        drain_backends(&self.shared);
    }
}

/// Forward `Shutdown` to every healthy backend and wait (bounded) for
/// each `ShutdownAck`. Errors are logged, not fatal: a backend that
/// died mid-drain is already durable up to its last ack.
fn drain_backends(shared: &RouterShared) {
    for (b, spec) in shared.config.backends.iter().enumerate() {
        if !shared.backend_up(b) {
            continue;
        }
        let outcome =
            dial(&spec.data, ADMIN_REPLY_TIMEOUT).and_then(|mut link| link.shutdown_server());
        if let Err(e) = outcome {
            incprof_obs::warn!("backend {b} ({}) drain failed: {e}", spec.data);
        }
    }
}

/// Dial one backend address. A reply later than `reply_deadline` is an
/// error, and so is a broken link: the client's transparent reconnect is
/// off, because to the router a lost backend is the failover signal.
fn dial(addr: &str, reply_deadline: Duration) -> Result<Client, ClientError> {
    let mut link = Client::connect_with_deadline(addr, reply_deadline)?;
    link.set_reconnect_attempts(0);
    Ok(link)
}

/// Answer one client frame on the front plane.
fn dispatch(shared: &RouterShared, mut frame: Frame, links: &mut [Option<Client>]) -> Reply {
    Reply::Send(match frame.frame_type {
        // The router is the liveness endpoint the client is talking to.
        FrameType::Ping => Frame::empty(FrameType::Pong, frame.session_id),
        // Cluster-wide shutdown: drain every backend first, then ack —
        // when the client sees ShutdownAck the whole cluster is durable.
        FrameType::Shutdown => {
            shared.stop.request();
            drain_backends(shared);
            return Reply::Last(Frame::empty(FrameType::ShutdownAck, 0));
        }
        FrameType::Scrape | FrameType::TraceGet | FrameType::RecorderDump | FrameType::Health => {
            error_reply(
                frame.session_id,
                ErrorCode::BadType,
                &format!("{:?} is admin-only; use the admin socket", frame.frame_type),
            )
        }
        FrameType::Open | FrameType::Snapshot | FrameType::Query | FrameType::Close => {
            // The one frame the router rewrites: an allocate-for-me Open
            // gets a cluster-wide id so backends never collide. Every
            // other frame forwards byte-identical (PROTOCOL.md §router).
            if frame.frame_type == FrameType::Open && frame.session_id == 0 {
                frame.session_id = shared.next_id.fetch_add(1, Ordering::AcqRel);
            }
            forward(shared, &frame, links)
        }
        other => error_reply(
            frame.session_id,
            ErrorCode::BadType,
            &format!("{other:?} is not a routable request"),
        ),
    })
}

/// Route `frame` to its session's backend and relay the reply. On
/// backend death: mark it down, walk the ring to the next healthy
/// backend, and retransmit — the in-flight request is answered after
/// recovery, never errored, as long as any backend survives.
fn forward(shared: &RouterShared, frame: &Frame, backends: &mut [Option<Client>]) -> Frame {
    let sid = frame.session_id;
    let mut rerouted = false;
    loop {
        let Some(b) = shared.ring.route(sid, |i| shared.backend_up(i)) else {
            return error_reply(sid, ErrorCode::ShuttingDown, "no healthy backends remain");
        };
        if rerouted {
            incprof_obs::counter(incprof_obs::names::SHARD_FAILOVER_REROUTES).inc();
        }
        match forward_once(shared, frame, backends, b) {
            Ok(reply) => {
                shared.note_placement(sid, b);
                incprof_obs::counter(incprof_obs::names::SHARD_FRAMES_ROUTED).inc();
                if let Some(c) = shared.routed.get(b) {
                    c.fetch_add(1, Ordering::Relaxed);
                }
                return reply;
            }
            Err(why) => {
                incprof_obs::warn!("backend {b} failed ({why}); rerouting session {sid}");
                shared.mark_down(b);
                if let Some(slot) = backends.get_mut(b) {
                    *slot = None;
                }
                rerouted = true;
            }
        }
    }
}

/// One request/reply exchange with backend `b` on this connection's
/// cached link (dialing it if needed). Any error means "treat the
/// backend as dead": dial failure, broken pipe, reply timeout, torn
/// reply, or an explicit `ShuttingDown` error frame (a draining backend
/// has stopped accepting work; its durable state is what failover
/// replays).
fn forward_once(
    shared: &RouterShared,
    frame: &Frame,
    backends: &mut [Option<Client>],
    b: usize,
) -> Result<Frame, String> {
    let Some(slot) = backends.get_mut(b) else {
        return Err("backend index out of range".to_string());
    };
    let link = match slot {
        Some(link) => link,
        None => slot.insert(
            dial(&shared.config.backends[b].data, REPLY_TIMEOUT).map_err(|e| e.to_string())?,
        ),
    };
    let reply = link.request(frame).map_err(|e| e.to_string())?;
    if reply.frame_type == FrameType::Error {
        if let Ok(info) = ErrorInfo::decode(&reply.payload) {
            if info.code == ErrorCode::ShuttingDown {
                return Err("backend is draining".to_string());
            }
        }
    }
    Ok(reply)
}

// --- merged admin plane ---

/// Answer one frame on the merged admin plane: `Scrape` fans out to
/// every backend and merges the expositions under a `shard` label,
/// `Health` aggregates per-backend status, and trace/recorder dumps
/// answer from the router's own observability state.
fn dispatch_admin(shared: &RouterShared, frame: &Frame) -> Reply {
    Reply::Send(match frame.frame_type {
        FrameType::Scrape => {
            incprof_obs::counter(incprof_obs::names::SHARD_ADMIN_SCRAPES).inc();
            let text = merged_scrape(shared);
            Frame::with_payload(FrameType::ScrapeReply, 0, text.into_bytes())
        }
        FrameType::Health => {
            let json = merged_health(shared);
            Frame::with_payload(FrameType::HealthReply, 0, json.into_bytes())
        }
        _ => answer_local(frame, "the router admin socket"),
    })
}

/// Fan `Scrape` out to every up backend with an admin address and merge
/// the expositions into one cluster view: every sample line gains a
/// `shard="<index>"` label (appended to existing labels), `# TYPE`
/// lines are emitted once (first shard wins), and the router's own
/// `shard.*` counters are appended unlabelled at the end.
fn merged_scrape(shared: &RouterShared) -> String {
    let mut out = String::with_capacity(4096);
    let mut seen_types: BTreeSet<String> = BTreeSet::new();
    for (b, spec) in shared.config.backends.iter().enumerate() {
        let Some(admin) = &spec.admin else { continue };
        if !shared.backend_up(b) {
            continue;
        }
        match dial(admin, ADMIN_REPLY_TIMEOUT).and_then(|mut link| link.scrape()) {
            Ok(text) => merge_exposition(&mut out, &text, b, &mut seen_types),
            Err(e) => {
                incprof_obs::warn!("backend {b} scrape failed: {e}");
            }
        }
    }
    // Router-local state: only the shard.* family, so an in-process
    // cluster (tests, bench) never double-counts backend metrics that
    // happen to share this process's global registry.
    render_metrics(&mut out, |name| name.starts_with("shard."));
    out
}

/// Merge one backend's exposition into `out` under `shard="<b>"`.
fn merge_exposition(out: &mut String, text: &str, b: usize, seen_types: &mut BTreeSet<String>) {
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(decl) = line.strip_prefix("# TYPE ") {
            if seen_types.insert(decl.to_string()) {
                out.push_str(line);
                out.push('\n');
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let Some((name_part, value)) = line.rsplit_once(' ') else {
            continue;
        };
        match name_part.split_once('{') {
            Some((name, labels)) => {
                let labels = labels.trim_end_matches('}');
                out.push_str(&format!("{name}{{{labels},shard=\"{b}\"}} {value}\n"));
            }
            None => {
                out.push_str(&format!("{name_part}{{shard=\"{b}\"}} {value}\n"));
            }
        }
    }
}

/// Aggregate per-backend health into one JSON document. Status is `ok`
/// only while every backend is up and answering; otherwise `degraded`.
fn merged_health(shared: &RouterShared) -> String {
    let mut entries = Vec::with_capacity(shared.config.backends.len());
    let mut all_ok = true;
    for (b, spec) in shared.config.backends.iter().enumerate() {
        let health = if !shared.backend_up(b) {
            all_ok = false;
            None
        } else {
            match &spec.admin {
                Some(admin) => {
                    match dial(admin, ADMIN_REPLY_TIMEOUT).and_then(|mut link| link.health()) {
                        Ok(json) => Some(json),
                        Err(_) => {
                            all_ok = false;
                            None
                        }
                    }
                }
                None => Some("null".to_string()),
            }
        };
        entries.push(format!(
            "{{\"shard\":{b},\"up\":{},\"health\":{}}}",
            shared.backend_up(b),
            health.unwrap_or_else(|| "null".to_string())
        ));
    }
    format!(
        "{{\"status\":\"{}\",\"backends\":[{}],\"draining\":{}}}",
        if all_ok { "ok" } else { "degraded" },
        entries.join(","),
        shared.stop.requested()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared_for_test(n: usize) -> RouterShared {
        RouterShared {
            ring: Ring::new(n),
            stop: Arc::default(),
            up: (0..n).map(|_| AtomicBool::new(true)).collect(),
            next_id: AtomicU64::new(1),
            placement: Mutex::new(HashMap::new()),
            routed: (0..n).map(|_| AtomicU64::new(0)).collect(),
            config: RouterConfig {
                backends: (0..n)
                    .map(|i| BackendSpec {
                        data: format!("127.0.0.1:{}", 20000 + i),
                        admin: None,
                    })
                    .collect(),
                ..RouterConfig::default()
            },
        }
    }

    #[test]
    fn merge_labels_every_sample_and_dedupes_types() {
        let text = "# TYPE incprof_serve_frames_received counter\n\
                    incprof_serve_frames_received 7\n\
                    # TYPE incprof_session_snapshots gauge\n\
                    incprof_session_snapshots{session=\"3\"} 12\n";
        let mut out = String::new();
        let mut seen = BTreeSet::new();
        merge_exposition(&mut out, text, 0, &mut seen);
        merge_exposition(&mut out, text, 1, &mut seen);
        assert_eq!(
            out.matches("# TYPE incprof_serve_frames_received counter")
                .count(),
            1,
            "{out}"
        );
        assert!(
            out.contains("incprof_serve_frames_received{shard=\"0\"} 7"),
            "{out}"
        );
        assert!(
            out.contains("incprof_serve_frames_received{shard=\"1\"} 7"),
            "{out}"
        );
        assert!(
            out.contains("incprof_session_snapshots{session=\"3\",shard=\"1\"} 12"),
            "{out}"
        );
    }

    #[test]
    fn mark_down_is_idempotent_and_updates_gauge() {
        let shared = shared_for_test(3);
        assert_eq!(shared.backends_up(), 3);
        shared.mark_down(1);
        shared.mark_down(1);
        assert_eq!(shared.backends_up(), 2);
        assert!(!shared.backend_up(1));
        assert!(shared.backend_up(0) && shared.backend_up(2));
    }

    #[test]
    fn health_reports_degraded_after_a_death() {
        let shared = shared_for_test(2);
        assert!(merged_health(&shared).contains("\"status\":\"ok\""));
        shared.mark_down(0);
        let json = merged_health(&shared);
        assert!(json.contains("\"status\":\"degraded\""), "{json}");
        assert!(json.contains("{\"shard\":0,\"up\":false,"), "{json}");
        assert!(json.contains("{\"shard\":1,\"up\":true,"), "{json}");
    }

    #[test]
    fn bind_rejects_zero_backends() {
        assert!(Router::bind(RouterConfig::default()).is_err());
    }
}

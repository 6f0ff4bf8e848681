//! The connection plane: everything a listening socket does, once.
//!
//! ```text
//!             ┌────────────┐  bounded conn queue   ┌───────────────────┐
//!  accept ───▶│  acceptor  │ ─────────────────────▶│ connection threads│──▶ handler
//!  (TCP/Unix) │   thread   │  (BUSY reply + drop   │ (fixed set,       │   (state, Frame)
//!             └────────────┘   when full)          │  blocking IO)     │    -> Reply
//!                                                  └───────────────────┘
//! ```
//!
//! A [`Plane`] is a bound listener plus its [`PlaneSpec`]; started under
//! a [`PlaneHandle`] it owns the accept loop, the bounded hand-off to a
//! fixed set of connection threads, the per-connection frame loop and
//! the shutdown path. The daemon's data and admin sockets and the shard
//! router's front and merged-admin sockets are four handlers over this
//! one mechanism, so every plane polls, idles out, rejects malformed
//! frames, answers `Busy`, counts traffic and drains the same way.
//!
//! One connection thread owns one connection at a time and speaks the
//! frame protocol over a blocking socket with a short read timeout, so
//! every thread observes the shared [`Stop`] flag within one poll
//! interval. Shutdown flips the flag and dials each plane's *bound*
//! address once, so an acceptor parked in `accept()` wakes and closes
//! its listener; connection threads finish their in-flight request,
//! tell their peer `ShuttingDown`, and exit.

use crate::frame::{
    read_frame, write_frame, ErrorCode, ErrorInfo, Frame, FrameType, ReadOutcome,
    DEFAULT_MAX_PAYLOAD,
};
use crate::session::lock;
use incprof_obs::Counter;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Bound on accepted-but-unclaimed connections per plane; a connection
/// arriving while the queue is full is answered `Busy` and dropped.
pub const ACCEPT_BACKLOG: usize = 32;
/// Default for how long a connection may sit without a frame before it
/// is dropped.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
/// Flight-recorder `b` tag on [`incprof_obs::EventKind::BusyReply`]:
/// a plane's bounded connection queue was full.
pub const BUSY_CONN_BACKLOG: u64 = 1;

/// A socket address: where a plane listens, or where a peer dials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindAddr {
    /// A TCP address like `127.0.0.1:7077` (`:0` picks an ephemeral
    /// port; read the bound address back from [`PlaneHandle::addr`]).
    Tcp(String),
    /// A Unix-domain socket path (taken over: a stale file is removed).
    Unix(PathBuf),
}

impl BindAddr {
    /// Anything containing `/` is a Unix socket path, everything else
    /// is `host:port`.
    pub fn parse(addr: &str) -> BindAddr {
        if addr.contains('/') {
            BindAddr::Unix(PathBuf::from(addr))
        } else {
            BindAddr::Tcp(addr.to_string())
        }
    }
}

/// One connection (TCP or Unix), accepted or dialed.
pub enum Conn {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain socket connection.
    Unix(UnixStream),
}

impl Conn {
    /// Connect to `addr` with the read poll interval set.
    pub fn dial(addr: &BindAddr, read_timeout: Duration) -> io::Result<Conn> {
        let conn = match addr {
            BindAddr::Tcp(spec) => Conn::Tcp(TcpStream::connect(spec.as_str())?),
            BindAddr::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
        };
        conn.set_read_timeout(read_timeout)?;
        Ok(conn)
    }

    /// Set the read poll interval.
    pub fn set_read_timeout(&self, t: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(t)),
            Conn::Unix(s) => s.set_read_timeout(Some(t)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// What distinguishes one plane from another.
#[derive(Debug, Clone)]
pub struct PlaneSpec {
    /// Thread-name stem (`<name>-accept`, `<name>-conn-<i>`) and the
    /// subject of the drain message.
    pub name: &'static str,
    /// Connection threads: how many connections are served at once.
    pub threads: usize,
    /// Socket read poll interval; also the shutdown-observation latency.
    pub read_timeout: Duration,
    /// A connection idle this long without a frame is dropped.
    pub idle_timeout: Duration,
    /// The `incprof_obs::names` counter bumped per accepted connection.
    pub conns_counter: &'static str,
}

/// What a handler answers one request frame with.
pub enum Reply {
    /// Write the frame and keep serving the connection.
    Send(Frame),
    /// [`Reply::Send`], then run housekeeping the peer should not wait
    /// for — on this connection's thread, before its next frame is read.
    SendThen(Frame, Box<dyn FnOnce()>),
    /// Write the frame, then close the connection.
    Last(Frame),
}

/// Build a typed error reply, recording it in the flight recorder.
pub fn error_reply(session_id: u64, code: ErrorCode, message: &str) -> Frame {
    error_reply_info(session_id, &ErrorInfo::new(code, message))
}

/// [`error_reply`] for an already-built [`ErrorInfo`].
pub fn error_reply_info(session_id: u64, info: &ErrorInfo) -> Frame {
    incprof_obs::recorder().record(
        incprof_obs::EventKind::ErrorReply,
        session_id,
        info.code as u64,
    );
    // The postmortem hook: every typed error reply dumps the recorder
    // tail at debug level, so `INCPROF_LOG=debug` shows the events
    // leading up to the failure without an admin round trip. Gated so
    // the disabled path pays one atomic load, not a ring scan.
    if incprof_obs::logger::enabled(incprof_obs::Level::Debug, module_path!()) {
        incprof_obs::debug!(
            "error reply {:?} (session {session_id}): {}",
            info.code,
            info.message
        );
        for e in incprof_obs::recorder().snapshot().iter().rev().take(16) {
            incprof_obs::debug!(
                "  recorder[{}] t={}ns {:?} a={} b={}",
                e.seq,
                e.t_ns,
                e.kind,
                e.a,
                e.b
            );
        }
    }
    Frame::with_payload(FrameType::Error, session_id, info.encode())
}

/// The wire-traffic counters, looked up once per plane so the per-frame
/// path touches no registry lock.
struct Wire {
    frames_in: Arc<Counter>,
    bytes_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    bytes_out: Arc<Counter>,
}

impl Wire {
    /// Write a frame, counting it; returns false when the peer is gone.
    fn send(&self, conn: &mut Conn, frame: &Frame) -> bool {
        match write_frame(conn, frame) {
            Ok(n) => {
                self.frames_out.inc();
                self.bytes_out.add(n as u64);
                true
            }
            Err(_) => false,
        }
    }
}

/// What the acceptor, the connection threads and [`Stop`] share about
/// one running plane.
struct Inner {
    spec: PlaneSpec,
    wire: Wire,
    /// The resolved address, dialed to wake a parked `accept()`.
    bound: BindAddr,
    queue: Mutex<VecDeque<Conn>>,
    ready: Condvar,
}

/// The shutdown flag shared by every plane of one server, and the one
/// way to raise it.
#[derive(Default)]
pub struct Stop {
    flag: AtomicBool,
    planes: Mutex<Vec<Arc<Inner>>>,
}

impl Stop {
    /// Whether shutdown has been requested.
    pub fn requested(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// Flip the flag and wake every plane's threads (idempotent): idle
    /// connection threads through the queue condvar, a parked acceptor
    /// by dialing its bound address.
    pub fn request(&self) {
        self.flag.store(true, Ordering::Release);
        for plane in lock(&self.planes).iter() {
            // Passing through the queue lock orders this after any
            // thread that read the flag as clear and is about to wait,
            // so the notification cannot be lost.
            drop(lock(&plane.queue));
            plane.ready.notify_all();
            let _ = Conn::dial(&plane.bound, plane.spec.read_timeout);
        }
    }
}

/// A bound (but not yet running) plane.
pub struct Plane {
    listener: Listener,
    addr: String,
    inner: Arc<Inner>,
}

impl Plane {
    /// Bind `addr`. A TCP port 0 resolves to the ephemeral port the
    /// kernel picked; a Unix path is taken over (a stale socket file
    /// from a dead process would otherwise fail the bind forever).
    pub fn bind(addr: &BindAddr, spec: PlaneSpec) -> io::Result<Plane> {
        let (listener, addr, bound) = match addr {
            BindAddr::Tcp(given) => {
                let l = TcpListener::bind(given.as_str())?;
                let addr = l.local_addr()?.to_string();
                (Listener::Tcp(l), addr.clone(), BindAddr::Tcp(addr))
            }
            BindAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                (
                    Listener::Unix(l),
                    path.display().to_string(),
                    BindAddr::Unix(path.clone()),
                )
            }
        };
        Ok(Plane {
            listener,
            addr,
            inner: Arc::new(Inner {
                spec,
                wire: Wire {
                    frames_in: incprof_obs::counter(incprof_obs::names::SERVE_FRAMES_IN),
                    bytes_in: incprof_obs::counter(incprof_obs::names::SERVE_BYTES_IN),
                    frames_out: incprof_obs::counter(incprof_obs::names::SERVE_FRAMES_OUT),
                    bytes_out: incprof_obs::counter(incprof_obs::names::SERVE_BYTES_OUT),
                },
                bound,
                queue: Mutex::new(VecDeque::new()),
                ready: Condvar::new(),
            }),
        })
    }

    /// The bound address: `ip:port` for TCP, the path for Unix.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

/// Handle to a server's running planes (the data plane first, then an
/// optional admin plane), all under one [`Stop`].
pub struct PlaneHandle {
    stop: Arc<Stop>,
    threads: Vec<JoinHandle<()>>,
    addrs: Vec<String>,
}

impl PlaneHandle {
    /// An empty group whose planes will stop on `stop`.
    pub fn new(stop: Arc<Stop>) -> PlaneHandle {
        PlaneHandle {
            stop,
            threads: Vec::new(),
            addrs: Vec::new(),
        }
    }

    /// Spawn `plane`'s acceptor and connection threads. Each accepted
    /// connection gets a fresh state from `open`; `handle` answers every
    /// well-formed frame on it.
    pub fn start<S, O, H>(&mut self, plane: Plane, open: O, handle: H) -> io::Result<()>
    where
        O: Fn() -> S + Send + Sync + 'static,
        H: Fn(&mut S, Frame) -> Reply + Send + Sync + 'static,
    {
        let Plane {
            listener,
            addr,
            inner,
        } = plane;
        lock(&self.stop.planes).push(Arc::clone(&inner));
        self.addrs.push(addr);
        let handler = Arc::new((open, handle));
        for i in 0..inner.spec.threads.max(1) {
            let (inner, stop, handler) = (
                Arc::clone(&inner),
                Arc::clone(&self.stop),
                Arc::clone(&handler),
            );
            let t = std::thread::Builder::new()
                .name(format!("{}-conn-{i}", inner.spec.name))
                .spawn(move || {
                    while let Some(conn) = next_conn(&inner, &stop) {
                        serve_conn(conn, &inner, &stop, &mut (handler.0)(), &handler.1);
                    }
                })?;
            self.threads.push(t);
        }
        let stop = Arc::clone(&self.stop);
        let t = std::thread::Builder::new()
            .name(format!("{}-accept", inner.spec.name))
            .spawn(move || accept_loop(&listener, &inner, &stop))?;
        self.threads.push(t);
        Ok(())
    }

    /// The data plane's bound address (`ip:port` or Unix path).
    pub fn addr(&self) -> &str {
        self.addrs.first().map_or("", String::as_str)
    }

    /// The admin plane's bound address, when one was started.
    pub fn admin_addr(&self) -> Option<&str> {
        self.addrs.get(1).map(String::as_str)
    }

    /// Flip the shutdown flag without joining (idempotent; a `Shutdown`
    /// frame does the same from the wire).
    pub fn request_shutdown(&self) {
        self.stop.request();
    }

    /// Whether shutdown has been requested (by flag or by frame).
    pub fn shutdown_requested(&self) -> bool {
        self.stop.requested()
    }

    /// Block until shutdown is requested — by a `Shutdown` frame from
    /// the wire or by `external` flipping true (e.g. a SIGINT flag).
    pub fn wait(&self, external: Option<&AtomicBool>) {
        while !self.stop.requested() && !external.is_some_and(|f| f.load(Ordering::Acquire)) {
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Stop every plane: flag, wake, join every thread, and release the
    /// Unix socket files (idempotent).
    pub fn join(&mut self) {
        self.stop.request();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        for plane in lock(&self.stop.planes).drain(..) {
            if let BindAddr::Unix(path) = &plane.bound {
                let _ = std::fs::remove_file(path);
            }
        }
    }
}

impl Drop for PlaneHandle {
    fn drop(&mut self) {
        self.join();
    }
}

fn accept_loop(listener: &Listener, inner: &Inner, stop: &Stop) {
    loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                if stop.requested() {
                    return;
                }
                incprof_obs::warn!("{}: accept failed: {e}", inner.spec.name);
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
        };
        if stop.requested() {
            return;
        }
        incprof_obs::counter(inner.spec.conns_counter).inc();
        let mut q = lock(&inner.queue);
        if q.len() >= ACCEPT_BACKLOG {
            drop(q);
            // Explicit backpressure instead of unbounded queueing.
            incprof_obs::counter(incprof_obs::names::SERVE_BUSY_REPLIES).inc();
            incprof_obs::recorder().record(incprof_obs::EventKind::BusyReply, 0, BUSY_CONN_BACKLOG);
            let mut conn = conn;
            inner
                .wire
                .send(&mut conn, &Frame::empty(FrameType::Busy, 0));
            continue;
        }
        q.push_back(conn);
        drop(q);
        inner.ready.notify_one();
    }
}

/// Claim the next queued connection; `None` once the plane is stopping
/// and the queue is empty.
fn next_conn(inner: &Inner, stop: &Stop) -> Option<Conn> {
    let mut q = lock(&inner.queue);
    loop {
        if let Some(conn) = q.pop_front() {
            return Some(conn);
        }
        if stop.requested() {
            return None;
        }
        q = inner
            .ready
            .wait(q)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
    }
}

/// Serve one connection until it closes, errors, idles out, or the
/// plane drains. Framing violations answer with a typed error and then
/// drop the connection (the stream is no longer frame-aligned);
/// payload-level problems are the handler's to answer, and keep going.
fn serve_conn<S>(
    mut conn: Conn,
    inner: &Inner,
    stop: &Stop,
    state: &mut S,
    handle: &impl Fn(&mut S, Frame) -> Reply,
) {
    let Inner { spec, wire, .. } = inner;
    if conn.set_read_timeout(spec.read_timeout).is_err() {
        return;
    }
    let idle_limit = spec.idle_timeout.as_nanos();
    let mut idle_polls: u128 = 0;
    loop {
        if stop.requested() {
            let msg = format!("{} draining", spec.name);
            wire.send(&mut conn, &error_reply(0, ErrorCode::ShuttingDown, &msg));
            return;
        }
        let outcome = match read_frame(&mut conn, DEFAULT_MAX_PAYLOAD) {
            Ok(outcome) => outcome,
            Err(_) => return,
        };
        let frame = match outcome {
            ReadOutcome::Frame(f) => f,
            ReadOutcome::Closed => return,
            ReadOutcome::TimedOut => {
                idle_polls += 1;
                if idle_polls * spec.read_timeout.as_nanos() >= idle_limit {
                    return;
                }
                continue;
            }
            ReadOutcome::Malformed(e) => {
                incprof_obs::counter(incprof_obs::names::SERVE_DECODE_ERRORS).inc();
                let code = ErrorCode::of_frame_error(&e);
                incprof_obs::recorder().record(incprof_obs::EventKind::DecodeError, 0, code as u64);
                wire.send(&mut conn, &error_reply(0, code, &e.to_string()));
                return;
            }
        };
        idle_polls = 0;
        wire.frames_in.inc();
        wire.bytes_in.add(frame.encoded_len() as u64);
        match handle(state, frame) {
            Reply::Send(reply) if wire.send(&mut conn, &reply) => {}
            Reply::Send(_) => return,
            Reply::SendThen(reply, then) => {
                let sent = wire.send(&mut conn, &reply);
                then();
                if !sent {
                    return;
                }
            }
            Reply::Last(reply) => {
                wire.send(&mut conn, &reply);
                return;
            }
        }
    }
}

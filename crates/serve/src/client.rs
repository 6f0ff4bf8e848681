//! Blocking client for the incprof-serve wire protocol.
//!
//! One [`Client`] owns one connection and any number of logical
//! sessions on it. Every call is a synchronous request/reply exchange,
//! so the natural usage is one client per pushing thread. Backpressure
//! is surfaced as [`Push::Busy`] — the caller decides whether to retry,
//! and [`Client::push_retry`] implements the obvious bounded-retry
//! loop for convenience.

use crate::backoff::retry_backoff;
use crate::frame::{
    read_frame, write_frame, ErrorInfo, Frame, FrameError, FrameType, ReadOutcome, SnapshotAck,
    TraceWire, DEFAULT_MAX_PAYLOAD,
};
use crate::plane::{BindAddr, Conn};
use incprof_profile::GmonData;
use std::io;
use std::path::Path;
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server replied with a typed error frame.
    Server(ErrorInfo),
    /// The reply frame was malformed or of an unexpected type.
    Protocol(String),
    /// The server closed the connection.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// Outcome of a snapshot push.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Push {
    /// Ingested and observed by the incremental detector.
    Ack(SnapshotAck),
    /// The session's ingest queue (or the accept queue) is full.
    Busy,
}

/// How long a client without a reply deadline waits on a silent server
/// before polling again.
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Default bound on transparent reconnect attempts per request.
const DEFAULT_RECONNECT_ATTEMPTS: usize = 3;

/// A blocking protocol client over TCP or a Unix socket.
///
/// A connection that breaks mid-request (reset, broken pipe, peer
/// close) is transparently re-dialed — bounded attempts on the
/// [`retry_backoff`] jitter schedule — and the request retransmitted.
/// Retransmission is safe because the protocol is at-least-once by
/// design: the server recognizes a re-pushed snapshot it already acked
/// and replays the identical ack, and every query is read-only.
pub struct Client {
    stream: Conn,
    /// Where to re-dial when the connection breaks.
    target: BindAddr,
    reconnect_attempts: usize,
    /// Longest wait for a reply; `None` waits forever. It is the
    /// socket's read timeout, so enforcing it reads no clock.
    reply_deadline: Option<Duration>,
}

impl Client {
    fn from_target(
        target: BindAddr,
        reply_deadline: Option<Duration>,
    ) -> Result<Client, ClientError> {
        Ok(Client {
            stream: Conn::dial(&target, reply_deadline.unwrap_or(READ_TIMEOUT))?,
            target,
            reconnect_attempts: DEFAULT_RECONNECT_ATTEMPTS,
            reply_deadline,
        })
    }

    /// Connect over TCP (`host:port`).
    pub fn connect_tcp(addr: &str) -> Result<Client, ClientError> {
        Client::from_target(BindAddr::Tcp(addr.to_string()), None)
    }

    /// Connect over a Unix-domain socket.
    pub fn connect_unix(path: &Path) -> Result<Client, ClientError> {
        Client::from_target(BindAddr::Unix(path.to_path_buf()), None)
    }

    /// Connect to `addr`, treating anything containing `/` as a Unix
    /// socket path and everything else as `host:port`.
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        Client::from_target(BindAddr::parse(addr), None)
    }

    /// [`Client::connect`] with a reply deadline: a server that stays
    /// silent for `reply_deadline` after a request fails the call with
    /// a timed-out [`ClientError::Io`] instead of blocking it forever.
    /// A timeout counts as a lost connection, so with reconnects on the
    /// request is re-dialed and each attempt waits the deadline again.
    pub fn connect_with_deadline(
        addr: &str,
        reply_deadline: Duration,
    ) -> Result<Client, ClientError> {
        Client::from_target(BindAddr::parse(addr), Some(reply_deadline))
    }

    /// Bound the transparent reconnect loop (0 disables it; a broken
    /// connection then surfaces as a hard error, the pre-reconnect
    /// behavior).
    pub fn set_reconnect_attempts(&mut self, attempts: usize) {
        self.reconnect_attempts = attempts;
    }

    /// One request/reply exchange on the current connection; connection
    /// loss surfaces as `Io` or `Disconnected`.
    fn exchange(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        write_frame(&mut self.stream, request)?;
        loop {
            match read_frame(&mut self.stream, DEFAULT_MAX_PAYLOAD)? {
                ReadOutcome::Frame(f) => return Ok(f),
                ReadOutcome::TimedOut if self.reply_deadline.is_some() => {
                    return Err(io::Error::from(io::ErrorKind::TimedOut).into())
                }
                ReadOutcome::TimedOut => continue,
                ReadOutcome::Closed => return Err(ClientError::Disconnected),
                ReadOutcome::Malformed(e) => return Err(e.into()),
            }
        }
    }

    /// Whether a failure means the connection is gone (worth re-dialing)
    /// rather than a server-side or protocol-level verdict.
    fn connection_lost(e: &ClientError) -> bool {
        matches!(e, ClientError::Io(_) | ClientError::Disconnected)
    }

    /// Send `request` and return whatever frame answers it, typed error
    /// frames included — the raw exchange under every typed call, for
    /// callers that relay frames rather than interpret them.
    pub fn request(&mut self, request: &Frame) -> Result<Frame, ClientError> {
        let mut last = match self.exchange(request) {
            Ok(f) => return Ok(f),
            Err(e) if Self::connection_lost(&e) => e,
            Err(e) => return Err(e),
        };
        // Jitter seeded per (session, request type): concurrent clients
        // re-dialing a restarted daemon spread out, while any given
        // request's schedule stays reproducible.
        let seed = request.session_id ^ (request.frame_type as u64);
        for attempt in 0..self.reconnect_attempts {
            std::thread::sleep(retry_backoff(attempt, seed));
            match Conn::dial(&self.target, self.reply_deadline.unwrap_or(READ_TIMEOUT)) {
                Ok(stream) => {
                    self.stream = stream;
                    incprof_obs::counter(incprof_obs::names::SERVE_CLIENT_RECONNECTS).inc();
                    match self.exchange(request) {
                        Ok(f) => return Ok(f),
                        Err(e) if Self::connection_lost(&e) => last = e,
                        Err(e) => return Err(e),
                    }
                }
                Err(e) => last = e.into(),
            }
        }
        Err(last)
    }

    fn expect_reply(&mut self, request: &Frame, want: FrameType) -> Result<Frame, ClientError> {
        let reply = self.request(request)?;
        match reply.frame_type {
            t if t == want => Ok(reply),
            FrameType::Error => Err(ClientError::Server(ErrorInfo::decode(&reply.payload)?)),
            other => Err(ClientError::Protocol(format!(
                "expected {want:?}, got {other:?}"
            ))),
        }
    }

    /// Open a new session; returns its server-assigned id.
    pub fn open(&mut self) -> Result<u64, ClientError> {
        let reply = self.expect_reply(&Frame::empty(FrameType::Open, 0), FrameType::OpenAck)?;
        Ok(reply.session_id)
    }

    /// Push one cumulative snapshot (as gmon wire bytes) into a session.
    pub fn push(&mut self, session_id: u64, gmon: &GmonData) -> Result<Push, ClientError> {
        self.push_inner(session_id, gmon, None)
    }

    /// [`Client::push`] carrying a trace id: the request frame gets the
    /// version-2 trace extension, a client-side root span
    /// (`serve.client.push`) is recorded, and the server links every
    /// span it opens for this frame under the same trace id — so a
    /// [`Client::trace_get`] on the admin socket (or, in-process, the
    /// span store itself) replays the push end to end.
    pub fn push_traced(
        &mut self,
        session_id: u64,
        gmon: &GmonData,
        trace_id: u64,
    ) -> Result<Push, ClientError> {
        self.push_inner(session_id, gmon, Some(trace_id))
    }

    fn push_inner(
        &mut self,
        session_id: u64,
        gmon: &GmonData,
        trace_id: Option<u64>,
    ) -> Result<Push, ClientError> {
        let root = trace_id.map(|tid| {
            incprof_obs::global().spans().enter_traced(
                incprof_obs::names::SERVE_CLIENT_PUSH,
                tid,
                0,
            )
        });
        let trace = trace_id.map(|tid| TraceWire {
            trace_id: tid,
            parent_span: root.as_ref().map(|r| r.wire_span()).unwrap_or(0),
        });
        let frame = Frame::with_payload(FrameType::Snapshot, session_id, gmon.encode().to_vec())
            .traced(trace);
        let reply = self.request(&frame)?;
        match reply.frame_type {
            FrameType::SnapshotAck => Ok(Push::Ack(SnapshotAck::decode(&reply.payload)?)),
            FrameType::Busy => Ok(Push::Busy),
            FrameType::Error => Err(ClientError::Server(ErrorInfo::decode(&reply.payload)?)),
            other => Err(ClientError::Protocol(format!(
                "expected SnapshotAck, got {other:?}"
            ))),
        }
    }

    /// Push with a bounded busy-retry loop (exponential backoff with
    /// deterministic jitter; see [`retry_backoff`]). Each retry after a
    /// `BUSY` reply increments `serve.client.retries`.
    pub fn push_retry(
        &mut self,
        session_id: u64,
        gmon: &GmonData,
        max_attempts: usize,
    ) -> Result<SnapshotAck, ClientError> {
        // Jitter is seeded per (session, sample) so concurrent pushers
        // retrying the same contended queue spread out instead of
        // thundering back in lockstep — yet any given push's schedule
        // is reproducible.
        let seed = session_id ^ gmon.sample_index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for attempt in 0..max_attempts.max(1) {
            match self.push(session_id, gmon)? {
                Push::Ack(ack) => return Ok(ack),
                Push::Busy => {
                    incprof_obs::counter(incprof_obs::names::SERVE_CLIENT_RETRIES).inc();
                    std::thread::sleep(retry_backoff(attempt, seed));
                }
            }
        }
        Err(ClientError::Protocol(format!(
            "session {session_id} still busy after {max_attempts} attempts"
        )))
    }

    /// Fetch the full JSON phase report for a session.
    pub fn query_report(&mut self, session_id: u64) -> Result<String, ClientError> {
        self.query(session_id, 0, None)
    }

    /// Fetch only the offline `PhaseAnalysis` JSON (the determinism
    /// bridge: byte-identical to the offline pipeline on this series).
    pub fn query_analysis(&mut self, session_id: u64) -> Result<String, ClientError> {
        self.query(session_id, 1, None)
    }

    /// [`Client::query_analysis`] carrying a trace id, linking the
    /// server's whole analysis pipeline (cache, features, clustering)
    /// into one queryable trace tree.
    pub fn query_analysis_traced(
        &mut self,
        session_id: u64,
        trace_id: u64,
    ) -> Result<String, ClientError> {
        self.query(session_id, 1, Some(trace_id))
    }

    fn query(
        &mut self,
        session_id: u64,
        mode: u8,
        trace_id: Option<u64>,
    ) -> Result<String, ClientError> {
        let trace = trace_id.map(|tid| TraceWire {
            trace_id: tid,
            parent_span: 0,
        });
        let frame = Frame::with_payload(FrameType::Query, session_id, vec![mode]).traced(trace);
        let reply = self.expect_reply(&frame, FrameType::Report)?;
        String::from_utf8(reply.payload)
            .map_err(|_| ClientError::Protocol("report payload is not UTF-8".to_string()))
    }

    /// Admin: fetch the Prometheus-style text exposition. Only works on
    /// a connection to the daemon's *admin* socket.
    pub fn scrape(&mut self) -> Result<String, ClientError> {
        self.admin_text(FrameType::Scrape, Vec::new(), FrameType::ScrapeReply)
    }

    /// Admin: resolve `trace_id` to its JSON span tree.
    pub fn trace_get(&mut self, trace_id: u64) -> Result<String, ClientError> {
        self.admin_text(
            FrameType::TraceGet,
            trace_id.to_le_bytes().to_vec(),
            FrameType::TraceReply,
        )
    }

    /// Admin: dump the flight recorder's recent-event tail as JSON.
    pub fn recorder_dump(&mut self) -> Result<String, ClientError> {
        self.admin_text(
            FrameType::RecorderDump,
            Vec::new(),
            FrameType::RecorderReply,
        )
    }

    /// Admin: one-line JSON liveness document.
    pub fn health(&mut self) -> Result<String, ClientError> {
        self.admin_text(FrameType::Health, Vec::new(), FrameType::HealthReply)
    }

    fn admin_text(
        &mut self,
        request: FrameType,
        payload: Vec<u8>,
        want: FrameType,
    ) -> Result<String, ClientError> {
        let frame = Frame::with_payload(request, 0, payload);
        let reply = self.expect_reply(&frame, want)?;
        String::from_utf8(reply.payload)
            .map_err(|_| ClientError::Protocol("admin payload is not UTF-8".to_string()))
    }

    /// Close a session, draining anything still pending server-side.
    pub fn close(&mut self, session_id: u64) -> Result<(), ClientError> {
        self.expect_reply(
            &Frame::empty(FrameType::Close, session_id),
            FrameType::CloseAck,
        )?;
        Ok(())
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.expect_reply(&Frame::empty(FrameType::Ping, 0), FrameType::Pong)?;
        Ok(())
    }

    /// Ask the daemon to shut down gracefully.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.expect_reply(
            &Frame::empty(FrameType::Shutdown, 0),
            FrameType::ShutdownAck,
        )?;
        Ok(())
    }
}

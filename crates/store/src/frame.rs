//! The length-prefixed binary frame codec shared by the wire protocol
//! and the on-disk snapshot log.
//!
//! Every message on an `incprof-serve` connection — and every record in
//! a session's append-only log file (see [`crate::log`]) — is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"IPRF"
//! 4       1     protocol version (1 = plain, 2 = trace extension)
//! 5       1     frame type (see [`FrameType`])
//! 6       8     session id, little-endian u64 (0 when not applicable)
//! 14      4     payload length, little-endian u32
//! [18     12    trace extension, only when version = 2:
//!               u64 trace id + u32 parent span id, little-endian]
//! ..      len   payload bytes
//! ..+len  4     CRC-32 (IEEE), little-endian, over everything before it
//! ```
//!
//! Untraced frames are encoded exactly as version 1 — byte-identical
//! to the original protocol — so tracing costs nothing on the wire
//! unless a frame actually carries a [`TraceWire`].
//!
//! The codec is pure and clock-free: encoding and decoding are plain
//! functions over byte slices, reused verbatim by the server, the
//! client library, the load generator, the corruption test-suite, and
//! the durable session store (which appends the same frames to disk,
//! getting a CRC and a version field on every record for free).
//! Blocking-I/O helpers ([`read_frame`] / [`write_frame`]) sit on top
//! and keep I/O failures distinct from framing violations so the server
//! can answer a malformed frame with a typed [`ErrorCode`] instead of
//! tearing the connection down silently.

use std::fmt;
use std::io::{self, Read, Write};

/// Magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"IPRF";
/// Protocol version of a traceless frame (the original wire format,
/// still emitted whenever a frame carries no trace context).
pub const VERSION: u8 = 1;
/// Protocol version of a frame carrying a [`TraceWire`] extension
/// between the fixed header and the payload.
pub const VERSION_TRACED: u8 = 2;
/// Fixed byte length of the frame header (magic through payload length).
pub const HEADER_LEN: usize = 18;
/// Byte length of the optional trace extension (u64 trace id + u32
/// parent span id), present exactly when the version byte is
/// [`VERSION_TRACED`].
pub const TRACE_EXT_LEN: usize = 12;
/// Byte length of the trailing CRC.
pub const CRC_LEN: usize = 4;
/// Default cap on payload length; frames claiming more are rejected
/// before any allocation happens.
pub const DEFAULT_MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Frame types. Requests (client → server) sit below `0x40`; replies
/// (server → client) mirror them at `0x80 | request`; `0x7E`/`0x7F` are
/// the out-of-band backpressure and error replies. The `0x20`–`0x3F`
/// band is reserved for on-disk-only record types (currently just
/// [`FrameType::Checkpoint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Open a new session (session id in the header is ignored; the
    /// server assigns one and returns it in [`FrameType::OpenAck`]).
    Open = 0x01,
    /// One cumulative profile snapshot; payload is a gmon-encoded
    /// `GmonData` record.
    Snapshot = 0x02,
    /// Ask for the session's phase report. Payload: empty or one mode
    /// byte — `0x00` full JSON report, `0x01` analysis JSON only.
    Query = 0x03,
    /// Close the session and drop it from the registry.
    Close = 0x04,
    /// Liveness probe.
    Ping = 0x05,
    /// Ask the daemon to drain every session and exit.
    Shutdown = 0x06,
    /// Admin: Prometheus-style text scrape of the metrics registry and
    /// per-session gauges. Only answered on the admin socket.
    Scrape = 0x10,
    /// Admin: resolve a trace id to its span tree. Payload: u64 trace
    /// id, little-endian.
    TraceGet = 0x11,
    /// Admin: dump the flight recorder's retained events.
    RecorderDump = 0x12,
    /// Admin: liveness + daemon vitals.
    Health = 0x13,
    /// On-disk only: a compacted analysis checkpoint in a session's
    /// snapshot log; payload is an `incprof_core::AnalysisCache` state
    /// blob. Never valid on the wire — the server rejects it with
    /// [`ErrorCode::BadType`].
    Checkpoint = 0x20,
    /// Reply to [`FrameType::Open`]; the header carries the new id.
    OpenAck = 0x81,
    /// Reply to [`FrameType::Snapshot`]; payload is a [`SnapshotAck`].
    SnapshotAck = 0x82,
    /// Reply to [`FrameType::Query`]; payload is UTF-8 JSON.
    Report = 0x83,
    /// Reply to [`FrameType::Close`].
    CloseAck = 0x84,
    /// Reply to [`FrameType::Ping`].
    Pong = 0x85,
    /// Reply to [`FrameType::Shutdown`].
    ShutdownAck = 0x86,
    /// Reply to [`FrameType::Scrape`]; payload is UTF-8 exposition text.
    ScrapeReply = 0x90,
    /// Reply to [`FrameType::TraceGet`]; payload is UTF-8 JSON (an
    /// `incprof_obs::TraceTree`).
    TraceReply = 0x91,
    /// Reply to [`FrameType::RecorderDump`]; payload is UTF-8 JSON (an
    /// array of `incprof_obs::EventRecord`s).
    RecorderReply = 0x92,
    /// Reply to [`FrameType::Health`]; payload is UTF-8 JSON.
    HealthReply = 0x93,
    /// Backpressure: the ingest queue is full, retry later.
    Busy = 0x7E,
    /// Typed failure; payload is an [`ErrorInfo`].
    Error = 0x7F,
}

impl FrameType {
    /// Decode a wire byte.
    pub fn from_u8(b: u8) -> Option<FrameType> {
        Some(match b {
            0x01 => FrameType::Open,
            0x02 => FrameType::Snapshot,
            0x03 => FrameType::Query,
            0x04 => FrameType::Close,
            0x05 => FrameType::Ping,
            0x06 => FrameType::Shutdown,
            0x10 => FrameType::Scrape,
            0x11 => FrameType::TraceGet,
            0x12 => FrameType::RecorderDump,
            0x13 => FrameType::Health,
            0x20 => FrameType::Checkpoint,
            0x81 => FrameType::OpenAck,
            0x82 => FrameType::SnapshotAck,
            0x83 => FrameType::Report,
            0x84 => FrameType::CloseAck,
            0x85 => FrameType::Pong,
            0x86 => FrameType::ShutdownAck,
            0x90 => FrameType::ScrapeReply,
            0x91 => FrameType::TraceReply,
            0x92 => FrameType::RecorderReply,
            0x93 => FrameType::HealthReply,
            0x7E => FrameType::Busy,
            0x7F => FrameType::Error,
            _ => return None,
        })
    }
}

/// Ways a byte sequence can fail to be a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a complete frame requires.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// The first four bytes were not [`MAGIC`].
    BadMagic {
        /// The bytes found instead.
        found: [u8; 4],
    },
    /// Unknown protocol version.
    BadVersion {
        /// The version byte found.
        found: u8,
    },
    /// Unknown frame-type byte.
    UnknownType {
        /// The type byte found.
        found: u8,
    },
    /// The payload length exceeds the negotiated cap. On decode, the
    /// claimed length came off the wire; on [`Frame::try_encode`], it is
    /// the actual payload size (which is why `len` is `u64` — a 64-bit
    /// process can hold a payload bigger than the u32 wire field can
    /// describe, and that must be reported, not truncated).
    Oversize {
        /// Claimed (decode) or actual (encode) payload length.
        len: u64,
        /// Configured maximum.
        max: u32,
    },
    /// The trailing CRC does not match the frame bytes.
    CrcMismatch {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried by the frame.
        carried: u32,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { context } => write!(f, "frame truncated reading {context}"),
            FrameError::BadMagic { found } => write!(f, "bad magic {found:02x?}"),
            FrameError::BadVersion { found } => write!(f, "unsupported protocol version {found}"),
            FrameError::UnknownType { found } => write!(f, "unknown frame type 0x{found:02x}"),
            FrameError::Oversize { len, max } => {
                write!(f, "payload length {len} exceeds maximum {max}")
            }
            FrameError::CrcMismatch { computed, carried } => {
                write!(
                    f,
                    "CRC mismatch: computed {computed:08x}, frame carried {carried:08x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// The optional trace extension a frame can carry: which trace the
/// request belongs to and the sender-side parent span's wire id.
///
/// Encoded as 12 bytes — u64 trace id then u32 parent span id, both
/// little-endian — between the fixed header and the payload, signalled
/// by the version byte being [`VERSION_TRACED`]. A receiver that only
/// speaks version 1 rejects the frame as `BadVersion`; version-2 peers
/// still emit version-1 bytes for untraced frames, so tracing is pay-
/// for-what-you-use on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceWire {
    /// Trace id (never 0 for a live trace).
    pub trace_id: u64,
    /// Wire id of the sender-side parent span (0 = trace root).
    pub parent_span: u32,
}

impl TraceWire {
    /// Serialize to the 12-byte wire extension.
    pub fn encode(&self) -> [u8; TRACE_EXT_LEN] {
        let mut buf = [0u8; TRACE_EXT_LEN];
        buf[0..8].copy_from_slice(&self.trace_id.to_le_bytes());
        buf[8..12].copy_from_slice(&self.parent_span.to_le_bytes());
        buf
    }

    /// Deserialize the 12-byte wire extension.
    pub fn decode(bytes: &[u8; TRACE_EXT_LEN]) -> TraceWire {
        let mut tid = [0u8; 8];
        tid.copy_from_slice(&bytes[0..8]);
        let mut span = [0u8; 4];
        span.copy_from_slice(&bytes[8..12]);
        TraceWire {
            trace_id: u64::from_le_bytes(tid),
            parent_span: u32::from_le_bytes(span),
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The frame type.
    pub frame_type: FrameType,
    /// Session the frame belongs to (0 when not applicable).
    pub session_id: u64,
    /// Trace context the frame carries (None ⇒ version-1 wire bytes).
    pub trace: Option<TraceWire>,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A payload-free frame.
    pub fn empty(frame_type: FrameType, session_id: u64) -> Frame {
        Frame {
            frame_type,
            session_id,
            trace: None,
            payload: Vec::new(),
        }
    }

    /// A frame carrying `payload`.
    pub fn with_payload(frame_type: FrameType, session_id: u64, payload: Vec<u8>) -> Frame {
        Frame {
            frame_type,
            session_id,
            trace: None,
            payload,
        }
    }

    /// The same frame stamped with a trace context (builder-style).
    pub fn traced(mut self, trace: Option<TraceWire>) -> Frame {
        self.trace = trace;
        self
    }

    /// Total encoded length in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN
            + if self.trace.is_some() {
                TRACE_EXT_LEN
            } else {
                0
            }
            + self.payload.len()
            + CRC_LEN
    }

    /// Serialize to wire bytes, refusing payloads over `max_payload`.
    ///
    /// The header's length field is a u32; a payload larger than the cap
    /// (or than `u32::MAX` outright) cannot be represented and would
    /// silently truncate the length under a bare cast, producing a
    /// corrupt-but-CRC-valid frame the peer misparses. Production write
    /// paths ([`write_frame`] / [`write_frame_capped`]) all route
    /// through here.
    pub fn try_encode(&self, max_payload: u32) -> Result<Vec<u8>, FrameError> {
        if self.payload.len() as u64 > u64::from(max_payload) {
            return Err(FrameError::Oversize {
                len: self.payload.len() as u64,
                max: max_payload,
            });
        }
        Ok(self.encode())
    }

    /// Serialize to wire bytes without a payload-size check — only valid
    /// for payloads that fit the u32 length field. Tests and tools craft
    /// frames with this; I/O paths use [`Frame::try_encode`] via
    /// [`write_frame`].
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        buf.extend_from_slice(&MAGIC);
        buf.push(if self.trace.is_some() {
            VERSION_TRACED
        } else {
            VERSION
        });
        buf.push(self.frame_type as u8);
        buf.extend_from_slice(&self.session_id.to_le_bytes());
        buf.extend_from_slice(&(self.payload.len() as u32).to_le_bytes());
        if let Some(trace) = &self.trace {
            buf.extend_from_slice(&trace.encode());
        }
        buf.extend_from_slice(&self.payload);
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Decode one frame from the front of `buf`, returning it together
    /// with the number of bytes consumed: [`read_frame`] over the slice.
    pub fn decode(buf: &[u8], max_payload: u32) -> Result<(Frame, usize), FrameError> {
        let mut rest = buf;
        match read_frame(&mut rest, max_payload) {
            Ok(ReadOutcome::Frame(frame)) => Ok((frame, buf.len() - rest.len())),
            Ok(ReadOutcome::Malformed(e)) => Err(e),
            // A slice never blocks or fails to read; what is left is an
            // empty one, which holds no header.
            Ok(ReadOutcome::Closed | ReadOutcome::TimedOut) | Err(_) => {
                Err(FrameError::Truncated { context: "header" })
            }
        }
    }
}

/// Validate a fixed-size header, returning (type, session id, payload
/// length, trace extension follows) for [`read_frame`]. Both protocol
/// versions are accepted; the returned flag says whether
/// [`TRACE_EXT_LEN`] extension bytes sit between this header and the
/// payload.
fn parse_header(
    header: &[u8; HEADER_LEN],
    max_payload: u32,
) -> Result<(FrameType, u64, u32, bool), FrameError> {
    if header[0..4] != MAGIC {
        let mut found = [0u8; 4];
        found.copy_from_slice(&header[0..4]);
        return Err(FrameError::BadMagic { found });
    }
    if header[4] != VERSION && header[4] != VERSION_TRACED {
        return Err(FrameError::BadVersion { found: header[4] });
    }
    let frame_type =
        FrameType::from_u8(header[5]).ok_or(FrameError::UnknownType { found: header[5] })?;
    let mut id_bytes = [0u8; 8];
    id_bytes.copy_from_slice(&header[6..14]);
    let session_id = u64::from_le_bytes(id_bytes);
    let mut len_bytes = [0u8; 4];
    len_bytes.copy_from_slice(&header[14..18]);
    let len = u32::from_le_bytes(len_bytes);
    if len > max_payload {
        return Err(FrameError::Oversize {
            len: u64::from(len),
            max: max_payload,
        });
    }
    Ok((frame_type, session_id, len, header[4] == VERSION_TRACED))
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320)
// ---------------------------------------------------------------------

/// Slice-by-16 lookup tables: `tables[0]` is the classic byte-at-a-time
/// table; `tables[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes. Sixteen tables let the hot loop fold sixteen input bytes per
/// iteration, which matters once multi-megabyte analysis checkpoints
/// started flowing through this codec (a bytewise CRC was the single
/// largest cost of a warm session rehydration).
fn crc32_tables() -> &'static [[u32; 256]; 16] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 16];
        for (i, slot) in tables[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        for i in 0..256usize {
            let mut c = tables[0][i];
            for k in 1..16 {
                c = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
                tables[k][i] = c;
            }
        }
        tables
    })
}

/// IEEE CRC-32 of `data` (the checksum gzip and Ethernet use).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_finish(crc32_begin(data))
}

// ---------------------------------------------------------------------
// Typed error payloads
// ---------------------------------------------------------------------

/// Error codes carried by [`FrameType::Error`] payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame's magic bytes were wrong.
    BadMagic = 1,
    /// Unsupported protocol version.
    BadVersion = 2,
    /// CRC check failed.
    BadCrc = 3,
    /// Payload length over the negotiated cap.
    Oversize = 4,
    /// Frame-type byte not understood, or a reply type sent as a request.
    BadType = 5,
    /// The session id is not (or no longer) registered.
    UnknownSession = 6,
    /// Snapshot arrived with a non-consecutive sample index.
    OutOfOrder = 7,
    /// The server's session table is full.
    SessionLimit = 8,
    /// The payload failed to decode (bad gmon bytes, regressing
    /// counters, bad UTF-8, ...).
    BadPayload = 9,
    /// The daemon is draining and no longer accepts work.
    ShuttingDown = 10,
    /// Anything else; see the message.
    Internal = 11,
}

impl ErrorCode {
    /// Decode a wire code.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadMagic,
            2 => ErrorCode::BadVersion,
            3 => ErrorCode::BadCrc,
            4 => ErrorCode::Oversize,
            5 => ErrorCode::BadType,
            6 => ErrorCode::UnknownSession,
            7 => ErrorCode::OutOfOrder,
            8 => ErrorCode::SessionLimit,
            9 => ErrorCode::BadPayload,
            10 => ErrorCode::ShuttingDown,
            11 => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// The code a framing violation maps to.
    pub fn of_frame_error(e: &FrameError) -> ErrorCode {
        match e {
            FrameError::Truncated { .. } => ErrorCode::BadPayload,
            FrameError::BadMagic { .. } => ErrorCode::BadMagic,
            FrameError::BadVersion { .. } => ErrorCode::BadVersion,
            FrameError::UnknownType { .. } => ErrorCode::BadType,
            FrameError::Oversize { .. } => ErrorCode::Oversize,
            FrameError::CrcMismatch { .. } => ErrorCode::BadCrc,
        }
    }
}

/// Decoded payload of an [`FrameType::Error`] frame: a code plus a
/// human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorInfo {
    /// Machine-readable failure class.
    pub code: ErrorCode,
    /// Diagnostic text.
    pub message: String,
}

impl ErrorInfo {
    /// Build an error payload.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ErrorInfo {
        ErrorInfo {
            code,
            message: message.into(),
        }
    }

    /// Serialize: u16 code, then the UTF-8 message.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(2 + self.message.len());
        buf.extend_from_slice(&(self.code as u16).to_le_bytes());
        buf.extend_from_slice(self.message.as_bytes());
        buf
    }

    /// Deserialize an error payload.
    pub fn decode(payload: &[u8]) -> Result<ErrorInfo, FrameError> {
        if payload.len() < 2 {
            return Err(FrameError::Truncated {
                context: "error code",
            });
        }
        let code = u16::from_le_bytes([payload[0], payload[1]]);
        let code = ErrorCode::from_u16(code).unwrap_or(ErrorCode::Internal);
        let message = String::from_utf8_lossy(&payload[2..]).into_owned();
        Ok(ErrorInfo { code, message })
    }
}

impl fmt::Display for ErrorInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

/// Decoded payload of a [`FrameType::SnapshotAck`]: the online
/// detector's verdict on the interval the snapshot completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotAck {
    /// Interval index the snapshot completed (0-based).
    pub interval: u64,
    /// Phase the interval was assigned to by the online detector.
    pub phase: u32,
    /// The interval opened a new phase.
    pub new_phase: bool,
    /// The phase differs from the previous interval's (a transition).
    pub transition: bool,
    /// The interval was beyond the distance threshold of every phase but
    /// was absorbed anyway because the online detector is saturated at
    /// its phase cap (see `OnlineObservation::capped` in `incprof-core`).
    pub capped: bool,
}

impl SnapshotAck {
    const FLAG_NEW_PHASE: u8 = 1;
    const FLAG_TRANSITION: u8 = 2;
    const FLAG_CAPPED: u8 = 4;

    /// Serialize: u64 interval, u32 phase, u8 flags.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(13);
        buf.extend_from_slice(&self.interval.to_le_bytes());
        buf.extend_from_slice(&self.phase.to_le_bytes());
        let mut flags = 0u8;
        if self.new_phase {
            flags |= Self::FLAG_NEW_PHASE;
        }
        if self.transition {
            flags |= Self::FLAG_TRANSITION;
        }
        if self.capped {
            flags |= Self::FLAG_CAPPED;
        }
        buf.push(flags);
        buf
    }

    /// Deserialize a snapshot-ack payload.
    pub fn decode(payload: &[u8]) -> Result<SnapshotAck, FrameError> {
        if payload.len() < 13 {
            return Err(FrameError::Truncated {
                context: "snapshot ack",
            });
        }
        let mut interval = [0u8; 8];
        interval.copy_from_slice(&payload[0..8]);
        let mut phase = [0u8; 4];
        phase.copy_from_slice(&payload[8..12]);
        let flags = payload[12];
        Ok(SnapshotAck {
            interval: u64::from_le_bytes(interval),
            phase: u32::from_le_bytes(phase),
            new_phase: flags & Self::FLAG_NEW_PHASE != 0,
            transition: flags & Self::FLAG_TRANSITION != 0,
            capped: flags & Self::FLAG_CAPPED != 0,
        })
    }
}

// ---------------------------------------------------------------------
// Blocking I/O helpers
// ---------------------------------------------------------------------

/// What [`read_frame`] can yield besides a frame.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete, CRC-verified frame.
    Frame(Frame),
    /// The peer closed the connection cleanly at a frame boundary.
    Closed,
    /// The read blocked past the socket timeout with no bytes consumed
    /// (the caller can poll a shutdown flag and retry).
    TimedOut,
    /// The bytes on the wire were not a valid frame.
    Malformed(FrameError),
}

/// Read one frame from `r`. Distinguishes a clean close (EOF at a frame
/// boundary) from a mid-frame disconnect, and a full-idle timeout from
/// one that struck mid-frame (mid-frame stalls and disconnects both
/// surface as `Err(io)` — the stream is no longer frame-aligned, so the
/// connection must be dropped).
pub fn read_frame(r: &mut impl Read, max_payload: u32) -> io::Result<ReadOutcome> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(ReadOutcome::Closed),
            Ok(0) => {
                return Ok(ReadOutcome::Malformed(FrameError::Truncated {
                    context: "header",
                }))
            }
            Ok(n) => got += n,
            Err(e) if is_timeout(&e) && got == 0 => return Ok(ReadOutcome::TimedOut),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let (frame_type, session_id, len, has_trace) = match parse_header(&header, max_payload) {
        Ok(parts) => parts,
        Err(e) => return Ok(ReadOutcome::Malformed(e)),
    };
    let trace = if has_trace {
        let mut ext = [0u8; TRACE_EXT_LEN];
        if let Err(e) = read_fully(r, &mut ext) {
            return if e.kind() == io::ErrorKind::UnexpectedEof {
                Ok(ReadOutcome::Malformed(FrameError::Truncated {
                    context: "trace",
                }))
            } else {
                Err(e)
            };
        }
        Some(ext)
    } else {
        None
    };
    let mut rest = vec![0u8; len as usize + CRC_LEN];
    if let Err(e) = read_fully(r, &mut rest) {
        return if e.kind() == io::ErrorKind::UnexpectedEof {
            Ok(ReadOutcome::Malformed(FrameError::Truncated {
                context: "payload",
            }))
        } else {
            Err(e)
        };
    }
    let payload_len = len as usize;
    let mut crc_bytes = [0u8; 4];
    crc_bytes.copy_from_slice(&rest[payload_len..]);
    let carried = u32::from_le_bytes(crc_bytes);
    let mut crc = crc32_begin(&header);
    if let Some(ext) = &trace {
        crc = crc32_update(crc, ext);
    }
    crc = crc32_update(crc, &rest[..payload_len]);
    let computed = crc32_finish(crc);
    if computed != carried {
        return Ok(ReadOutcome::Malformed(FrameError::CrcMismatch {
            computed,
            carried,
        }));
    }
    rest.truncate(payload_len);
    Ok(ReadOutcome::Frame(Frame {
        frame_type,
        session_id,
        trace: trace.map(|ext| TraceWire::decode(&ext)),
        payload: rest,
    }))
}

/// Write one frame to `w` and flush it, enforcing the default protocol
/// payload cap ([`DEFAULT_MAX_PAYLOAD`]). Both the server reply path and
/// the client request path go through here, so an oversize payload is
/// rejected as [`io::ErrorKind::InvalidInput`] before any bytes hit the
/// wire instead of being emitted with a truncated length field.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<usize> {
    write_frame_capped(w, frame, DEFAULT_MAX_PAYLOAD)
}

/// [`write_frame`] with an explicit payload cap.
pub fn write_frame_capped(
    w: &mut impl Write,
    frame: &Frame,
    max_payload: u32,
) -> io::Result<usize> {
    let bytes = frame
        .try_encode(max_payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

fn read_fully(r: &mut impl Read, buf: &mut [u8]) -> io::Result<()> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn crc32_begin(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data)
}

fn crc32_update(mut state: u32, data: &[u8]) -> u32 {
    let tables = crc32_tables();
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        // lint: allow(P01, chunks_exact(16) yields exactly sixteen bytes; the array conversions cannot fail)
        let a = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ state;
        // lint: allow(P01, chunks_exact(16) yields exactly sixteen bytes; the array conversions cannot fail)
        let b = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        // lint: allow(P01, chunks_exact(16) yields exactly sixteen bytes; the array conversions cannot fail)
        let c = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
        // lint: allow(P01, chunks_exact(16) yields exactly sixteen bytes; the array conversions cannot fail)
        let d = u32::from_le_bytes(chunk[12..16].try_into().unwrap());
        state = tables[15][(a & 0xFF) as usize]
            ^ tables[14][((a >> 8) & 0xFF) as usize]
            ^ tables[13][((a >> 16) & 0xFF) as usize]
            ^ tables[12][(a >> 24) as usize]
            ^ tables[11][(b & 0xFF) as usize]
            ^ tables[10][((b >> 8) & 0xFF) as usize]
            ^ tables[9][((b >> 16) & 0xFF) as usize]
            ^ tables[8][(b >> 24) as usize]
            ^ tables[7][(c & 0xFF) as usize]
            ^ tables[6][((c >> 8) & 0xFF) as usize]
            ^ tables[5][((c >> 16) & 0xFF) as usize]
            ^ tables[4][(c >> 24) as usize]
            ^ tables[3][(d & 0xFF) as usize]
            ^ tables[2][((d >> 8) & 0xFF) as usize]
            ^ tables[1][((d >> 16) & 0xFF) as usize]
            ^ tables[0][(d >> 24) as usize];
    }
    for &b in chunks.remainder() {
        state = tables[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

fn crc32_finish(state: u32) -> u32 {
    state ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Streaming form agrees with the one-shot form.
        let mut s = crc32_begin(b"1234");
        s = crc32_update(s, b"56789");
        assert_eq!(crc32_finish(s), 0xCBF4_3926);
    }

    #[test]
    fn frame_roundtrip() {
        let f = Frame::with_payload(FrameType::Snapshot, 7, vec![1, 2, 3, 250]);
        let bytes = f.encode();
        assert_eq!(bytes.len(), f.encoded_len());
        let (back, used) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let f = Frame::empty(FrameType::Ping, 0);
        let (back, _) = Frame::decode(&f.encode(), DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn traced_frame_roundtrip() {
        let tw = TraceWire {
            trace_id: 0xDEAD_BEEF_CAFE_0001,
            parent_span: 42,
        };
        let f = Frame::with_payload(FrameType::Snapshot, 9, vec![5; 40]).traced(Some(tw));
        let bytes = f.encode();
        assert_eq!(bytes[4], VERSION_TRACED);
        assert_eq!(bytes.len(), f.encoded_len());
        assert_eq!(bytes.len(), HEADER_LEN + TRACE_EXT_LEN + 40 + CRC_LEN);
        let (back, used) = Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, f);
        assert_eq!(back.trace, Some(tw));
        // Streaming reader agrees with the slice decoder.
        let mut cursor = io::Cursor::new(bytes.clone());
        match read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).unwrap() {
            ReadOutcome::Frame(got) => assert_eq!(got, f),
            other => panic!("expected frame, got {other:?}"),
        }
        // A flipped bit inside the extension is caught by the CRC.
        let mut corrupt = bytes;
        corrupt[HEADER_LEN + 3] ^= 0x10;
        assert!(matches!(
            Frame::decode(&corrupt, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn untraced_frames_keep_version1_bytes() {
        // The v2 codec must emit byte-identical frames to the original
        // protocol whenever no trace context is attached.
        let f = Frame::with_payload(FrameType::Snapshot, 7, vec![1, 2, 3]);
        let bytes = f.encode();
        assert_eq!(bytes[4], VERSION);
        assert_eq!(bytes.len(), HEADER_LEN + 3 + CRC_LEN);
        assert_eq!(f.traced(None).encode(), bytes);
    }

    #[test]
    fn truncated_trace_extension_is_malformed() {
        let tw = TraceWire {
            trace_id: 1,
            parent_span: 0,
        };
        let bytes = Frame::empty(FrameType::Ping, 0).traced(Some(tw)).encode();
        // Slice decoder: not enough bytes for the extension.
        assert!(matches!(
            Frame::decode(&bytes[..HEADER_LEN + 4], DEFAULT_MAX_PAYLOAD),
            Err(FrameError::Truncated { .. })
        ));
        // Streaming reader: EOF inside the extension.
        let mut c = io::Cursor::new(bytes[..HEADER_LEN + 4].to_vec());
        assert!(matches!(
            read_frame(&mut c, DEFAULT_MAX_PAYLOAD).unwrap(),
            ReadOutcome::Malformed(FrameError::Truncated { context: "trace" })
        ));
    }

    #[test]
    fn decode_rejects_corruption() {
        let good = Frame::with_payload(FrameType::Query, 1, vec![9; 32]).encode();

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            Frame::decode(&bad_magic, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::BadMagic { .. })
        ));

        let mut bad_version = good.clone();
        bad_version[4] = 99;
        assert!(matches!(
            Frame::decode(&bad_version, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::BadVersion { found: 99 })
        ));

        let mut bad_type = good.clone();
        bad_type[5] = 0x55;
        assert!(matches!(
            Frame::decode(&bad_type, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::UnknownType { found: 0x55 })
        ));

        let mut bad_crc = good.clone();
        let last = bad_crc.len() - 1;
        bad_crc[last] ^= 0xFF;
        assert!(matches!(
            Frame::decode(&bad_crc, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::CrcMismatch { .. })
        ));

        assert!(matches!(
            Frame::decode(&good[..10], DEFAULT_MAX_PAYLOAD),
            Err(FrameError::Truncated { context: "header" })
        ));
        assert!(matches!(
            Frame::decode(&good[..good.len() - 1], DEFAULT_MAX_PAYLOAD),
            Err(FrameError::Truncated { context: "payload" })
        ));

        // A frame claiming more payload than the cap is refused from the
        // header alone.
        assert!(matches!(
            Frame::decode(&good, 8),
            Err(FrameError::Oversize { len: 32, max: 8 })
        ));
    }

    #[test]
    fn corrupted_payload_byte_fails_crc() {
        let mut bytes = Frame::with_payload(FrameType::Report, 3, vec![7; 100]).encode();
        bytes[HEADER_LEN + 50] ^= 0x01;
        assert!(matches!(
            Frame::decode(&bytes, DEFAULT_MAX_PAYLOAD),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn error_info_roundtrip() {
        let e = ErrorInfo::new(ErrorCode::OutOfOrder, "expected sample 4, got 9");
        let back = ErrorInfo::decode(&e.encode()).unwrap();
        assert_eq!(back, e);
        assert!(ErrorInfo::decode(&[1]).is_err());
        // Unknown codes degrade to Internal rather than failing.
        let mut weird = e.encode();
        weird[0] = 0xFF;
        weird[1] = 0xFF;
        assert_eq!(ErrorInfo::decode(&weird).unwrap().code, ErrorCode::Internal);
    }

    #[test]
    fn snapshot_ack_roundtrip() {
        for flags in 0u8..8 {
            let ack = SnapshotAck {
                interval: 41,
                phase: 3,
                new_phase: flags & 1 != 0,
                transition: flags & 2 != 0,
                capped: flags & 4 != 0,
            };
            assert_eq!(SnapshotAck::decode(&ack.encode()).unwrap(), ack);
        }
        assert!(SnapshotAck::decode(&[0; 12]).is_err());
    }

    #[test]
    fn try_encode_enforces_cap_exactly() {
        // At the cap: succeeds and round-trips.
        let at = Frame::with_payload(FrameType::Report, 1, vec![0xAB; 64]);
        let bytes = at.try_encode(64).unwrap();
        let (back, _) = Frame::decode(&bytes, 64).unwrap();
        assert_eq!(back, at);
        // One over: refused with the real length, nothing truncated.
        let over = Frame::with_payload(FrameType::Report, 1, vec![0xAB; 65]);
        assert_eq!(
            over.try_encode(64),
            Err(FrameError::Oversize { len: 65, max: 64 })
        );
    }

    #[test]
    fn try_encode_at_default_cap_boundary() {
        let at = Frame::with_payload(FrameType::Report, 9, vec![7; DEFAULT_MAX_PAYLOAD as usize]);
        let bytes = at.try_encode(DEFAULT_MAX_PAYLOAD).unwrap();
        assert_eq!(bytes.len(), at.encoded_len());
        let over = Frame::with_payload(
            FrameType::Report,
            9,
            vec![7; DEFAULT_MAX_PAYLOAD as usize + 1],
        );
        assert_eq!(
            over.try_encode(DEFAULT_MAX_PAYLOAD),
            Err(FrameError::Oversize {
                len: u64::from(DEFAULT_MAX_PAYLOAD) + 1,
                max: DEFAULT_MAX_PAYLOAD,
            })
        );
    }

    #[test]
    fn write_frame_capped_rejects_oversize_before_writing() {
        let frame = Frame::with_payload(FrameType::Report, 2, vec![1; 100]);
        let mut sink = Vec::new();
        let err = write_frame_capped(&mut sink, &frame, 99).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(sink.is_empty(), "no bytes may reach the wire");
        assert_eq!(
            write_frame_capped(&mut sink, &frame, 100).unwrap(),
            sink.len()
        );
    }

    #[test]
    fn streaming_reader_matches_slice_decoder() {
        let frames = vec![
            Frame::empty(FrameType::Open, 0),
            Frame::with_payload(FrameType::Snapshot, 5, vec![1; 300]),
            Frame::empty(FrameType::Close, 5),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let mut cursor = io::Cursor::new(wire);
        for f in &frames {
            match read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).unwrap() {
                ReadOutcome::Frame(got) => assert_eq!(&got, f),
                other => panic!("expected frame, got {other:?}"),
            }
        }
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_PAYLOAD).unwrap(),
            ReadOutcome::Closed
        ));
    }

    #[test]
    fn streaming_reader_reports_midframe_eof() {
        let bytes = Frame::with_payload(FrameType::Snapshot, 1, vec![4; 64]).encode();
        // EOF inside the header (after the first byte).
        let mut c = io::Cursor::new(bytes[..5].to_vec());
        assert!(matches!(
            read_frame(&mut c, DEFAULT_MAX_PAYLOAD).unwrap(),
            ReadOutcome::Malformed(FrameError::Truncated { context: "header" })
        ));
        // EOF inside the payload.
        let mut c = io::Cursor::new(bytes[..HEADER_LEN + 10].to_vec());
        assert!(matches!(
            read_frame(&mut c, DEFAULT_MAX_PAYLOAD).unwrap(),
            ReadOutcome::Malformed(FrameError::Truncated { context: "payload" })
        ));
    }

    #[test]
    fn frame_error_code_mapping_is_total() {
        let cases = [
            (
                FrameError::Truncated { context: "x" },
                ErrorCode::BadPayload,
            ),
            (FrameError::BadMagic { found: [0; 4] }, ErrorCode::BadMagic),
            (FrameError::BadVersion { found: 9 }, ErrorCode::BadVersion),
            (FrameError::UnknownType { found: 9 }, ErrorCode::BadType),
            (FrameError::Oversize { len: 9, max: 1 }, ErrorCode::Oversize),
            (
                FrameError::CrcMismatch {
                    computed: 1,
                    carried: 2,
                },
                ErrorCode::BadCrc,
            ),
        ];
        for (e, code) in cases {
            assert_eq!(ErrorCode::of_frame_error(&e), code);
        }
    }
}

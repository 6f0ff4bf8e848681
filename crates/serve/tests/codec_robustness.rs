//! Corrupted-frame robustness and backpressure, as one table over the
//! four planes: the daemon's data and admin sockets and the shard
//! router's front and merged-admin sockets all run on
//! `incprof_serve::plane`, so each of them, fed garbage over a raw
//! socket, must answer with a typed error frame or drop the connection
//! — never panic, never leak a session, never poison state for
//! well-behaved clients on other connections — and count and
//! flight-record the event the same way. Below the table: the
//! daemon-only payload-level cases, the pure codec edge cases, and the
//! plane's own contracts (accept-queue `Busy`, `ShuttingDown` on drain,
//! idle timeout, a wire `Shutdown` that really closes the listener).

use incprof_serve::frame::{
    crc32, read_frame, write_frame, ErrorCode, ErrorInfo, Frame, FrameType, ReadOutcome,
    DEFAULT_MAX_PAYLOAD, HEADER_LEN, MAGIC, VERSION_TRACED,
};
use incprof_serve::plane::{Plane, PlaneHandle, PlaneSpec, Reply, ACCEPT_BACKLOG};
use incprof_serve::{BindAddr, Client, ClientError, ServeConfig, Server, ServerHandle};
use incprof_shard::{BackendSpec, Router, RouterConfig, RouterHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

fn ephemeral() -> BindAddr {
    BindAddr::Tcp("127.0.0.1:0".to_string())
}

fn live_server() -> ServerHandle {
    Server::bind(ServeConfig {
        workers: 2,
        admin: Some(ephemeral()),
        read_timeout: Duration::from_millis(25),
        idle_timeout: Duration::from_secs(2),
        ..ServeConfig::default()
    })
    .expect("bind")
    .start()
    .expect("start")
}

/// A daemon with an admin socket, fronted by a router with a merged
/// admin socket: all four planes, live.
struct Rig {
    daemon: ServerHandle,
    router: RouterHandle,
}

/// One row of the table: a plane's name and address, and whether it is
/// an admin plane (probed with `Health`) or a data plane (probed with a
/// full session).
type PlaneRow = (&'static str, String, bool);

impl Rig {
    fn start() -> Rig {
        let daemon = live_server();
        let router = Router::bind(RouterConfig {
            backends: vec![BackendSpec {
                data: daemon.addr().to_string(),
                admin: daemon.admin_addr().map(str::to_string),
            }],
            admin: Some(ephemeral()),
            read_timeout: Duration::from_millis(25),
            ..RouterConfig::default()
        })
        .expect("bind router")
        .start()
        .expect("start router");
        Rig { daemon, router }
    }

    fn planes(&self) -> [PlaneRow; 4] {
        let admin = |a: Option<&str>| a.expect("admin bound").to_string();
        [
            ("daemon data", self.daemon.addr().to_string(), false),
            ("daemon admin", admin(self.daemon.admin_addr()), true),
            ("router data", self.router.addr().to_string(), false),
            ("router admin", admin(self.router.admin_addr()), true),
        ]
    }

    /// Run `case` against every plane, then check the plane still
    /// serves a well-behaved client and nothing leaked.
    fn for_each_plane(case: impl Fn(&str, &mut TcpStream)) {
        let rig = Rig::start();
        for (name, addr, is_admin) in rig.planes() {
            case(name, &mut connect(&addr));
            assert_still_serving(name, &addr, is_admin);
        }
        assert_eq!(rig.daemon.active_sessions(), 0);
        rig.router.shutdown();
        rig.daemon.shutdown();
    }
}

fn connect(addr: &str) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    s
}

/// Read reply frames until the server answers or hangs up.
fn read_reply(conn: &mut TcpStream) -> Option<Frame> {
    loop {
        match read_frame(conn, DEFAULT_MAX_PAYLOAD).expect("client read") {
            ReadOutcome::Frame(f) => return Some(f),
            ReadOutcome::TimedOut => continue,
            ReadOutcome::Closed => return None,
            ReadOutcome::Malformed(e) => panic!("server sent malformed reply: {e}"),
        }
    }
}

fn expect_error(plane: &str, conn: &mut TcpStream, code: ErrorCode) {
    let f = read_reply(conn).unwrap_or_else(|| panic!("{plane}: expected an error frame, got EOF"));
    assert_eq!(f.frame_type, FrameType::Error, "{plane}");
    let info = ErrorInfo::decode(&f.payload).expect("decode error payload");
    assert_eq!(info.code, code, "{plane}: {}", info.message);
}

/// No further frames: a clean EOF or a reset, depending on how much of
/// the bad input the server had consumed before closing.
fn expect_hangup(plane: &str, conn: &mut TcpStream) {
    match read_frame(conn, DEFAULT_MAX_PAYLOAD) {
        Ok(ReadOutcome::Closed) | Err(_) => {}
        other => panic!("{plane}: connection must drop, got {other:?}"),
    }
}

/// The plane stays alive and correct after an abusive connection: a
/// fresh client gets real answers.
fn assert_still_serving(plane: &str, addr: &str, is_admin: bool) {
    let mut client = Client::connect_tcp(addr).expect("fresh connect");
    if is_admin {
        let health = client.health().expect("health after abuse");
        assert!(health.contains("\"status\":\"ok\""), "{plane}: {health}");
    } else {
        client.ping().expect("ping after abuse");
        let id = client.open().expect("open after abuse");
        client.close(id).expect("close after abuse");
    }
}

fn decode_errors() -> u64 {
    incprof_obs::counter(incprof_obs::names::SERVE_DECODE_ERRORS).get()
}

/// Whether the flight recorder holds a `kind` event newer than `since`
/// (a [`incprof_obs::FlightRecorder::total`] reading).
fn recorded_since(since: u64, kind: incprof_obs::EventKind) -> bool {
    let events = incprof_obs::recorder().snapshot();
    events.iter().any(|e| e.seq >= since && e.kind == kind)
}

#[test]
fn bad_magic_gets_typed_error_then_disconnect() {
    Rig::for_each_plane(|plane, conn| {
        let (counted, since) = (decode_errors(), incprof_obs::recorder().total());
        let mut bytes = Frame::empty(FrameType::Ping, 0).encode();
        bytes[0] = b'X';
        conn.write_all(&bytes).expect("write");
        expect_error(plane, conn, ErrorCode::BadMagic);
        // Framing is unrecoverable: the server hangs up.
        expect_hangup(plane, conn);
        // Every plane counts and flight-records the drop (other tests
        // in this process only ever add to both).
        assert!(decode_errors() > counted, "{plane}: decode error uncounted");
        assert!(
            recorded_since(since, incprof_obs::EventKind::DecodeError),
            "{plane}: decode error not flight-recorded"
        );
    });
}

#[test]
fn wrong_version_gets_typed_error() {
    Rig::for_each_plane(|plane, conn| {
        let mut bytes = Frame::empty(FrameType::Ping, 0).encode();
        // Version 2 is the (valid) traced layout, so the first genuinely
        // unsupported version is VERSION_TRACED + 1.
        bytes[4] = VERSION_TRACED + 1;
        // Re-stamp the CRC so only the version is wrong.
        let crc_at = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        conn.write_all(&bytes).expect("write");
        expect_error(plane, conn, ErrorCode::BadVersion);
    });
}

#[test]
fn crc_mismatch_gets_typed_error() {
    Rig::for_each_plane(|plane, conn| {
        let mut bytes = Frame::with_payload(FrameType::Query, 1, vec![0]).encode();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        conn.write_all(&bytes).expect("write");
        expect_error(plane, conn, ErrorCode::BadCrc);
    });
}

#[test]
fn oversized_length_gets_typed_error() {
    Rig::for_each_plane(|plane, conn| {
        let mut bytes = Frame::empty(FrameType::Snapshot, 1).encode();
        // Claim a payload far beyond the server's cap; only the header is
        // ever sent, so the server must reject on the declared length alone.
        bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
        conn.write_all(&bytes[..HEADER_LEN]).expect("write header");
        expect_error(plane, conn, ErrorCode::Oversize);
    });
}

#[test]
fn truncated_payload_mid_frame_disconnect_is_quiet() {
    // The server treats a mid-frame EOF as a dead peer: no panic, no
    // leaked session, and the next client is served normally.
    Rig::for_each_plane(|_, conn| {
        let bytes = Frame::with_payload(FrameType::Snapshot, 1, vec![0u8; 256]).encode();
        // Send the header plus half the payload, then hang up.
        conn.write_all(&bytes[..HEADER_LEN + 128])
            .expect("write partial");
        conn.shutdown(std::net::Shutdown::Both).expect("shutdown");
    });
}

#[test]
fn raw_garbage_stream_never_panics_any_plane() {
    for chunk in [
        &b"\x00\x00\x00\x00"[..],
        &b"GET / HTTP/1.1\r\n\r\n"[..],
        &[0xFFu8; 64][..],
        &MAGIC[..],
    ] {
        Rig::for_each_plane(|_, conn| {
            conn.write_all(chunk).expect("write garbage");
            // Drain whatever the server says (error frame or EOF) without
            // asserting a specific code — only that nothing panics and
            // the plane keeps serving.
            let mut sink = Vec::new();
            let _ = conn.read_to_end(&mut sink);
        });
    }
}

#[test]
fn snapshot_garbage_payload_keeps_connection_and_session() {
    let handle = live_server();
    let mut client = Client::connect_tcp(handle.addr()).expect("connect");
    let session = client.open().expect("open");

    // A well-framed Snapshot whose payload is not gmon data: payload
    // errors are recoverable, so the same connection keeps working.
    let mut conn = connect(handle.addr());
    let frame = Frame::with_payload(FrameType::Snapshot, session, b"not gmon".to_vec());
    write_frame(&mut conn, &frame).expect("write");
    expect_error("daemon data", &mut conn, ErrorCode::BadPayload);
    write_frame(&mut conn, &Frame::empty(FrameType::Ping, 0)).expect("ping same conn");
    let pong = read_reply(&mut conn).expect("pong");
    assert_eq!(pong.frame_type, FrameType::Pong);

    // The session survived the garbage.
    assert_eq!(handle.active_sessions(), 1);
    client.close(session).expect("close");
    assert_eq!(handle.active_sessions(), 0);
    handle.shutdown();
}

#[test]
fn snapshot_garbage_payload_for_unknown_session_is_unknown_session() {
    let handle = live_server();
    // The payload is decoded by its session, so a session that does not
    // exist is the first thing wrong with this frame; the connection
    // stays, as for any typed error.
    let mut conn = connect(handle.addr());
    let frame = Frame::with_payload(FrameType::Snapshot, 999, b"not gmon".to_vec());
    write_frame(&mut conn, &frame).expect("write");
    expect_error("daemon data", &mut conn, ErrorCode::UnknownSession);
    write_frame(&mut conn, &Frame::empty(FrameType::Ping, 0)).expect("ping same conn");
    let pong = read_reply(&mut conn).expect("pong");
    assert_eq!(pong.frame_type, FrameType::Pong);
    assert_eq!(handle.active_sessions(), 0);
    handle.shutdown();
}

#[test]
fn unknown_session_and_bad_type_are_typed_errors() {
    let handle = live_server();
    let mut conn = connect(handle.addr());
    write_frame(
        &mut conn,
        &Frame::with_payload(FrameType::Query, 999, vec![0]),
    )
    .expect("write query");
    expect_error("daemon data", &mut conn, ErrorCode::UnknownSession);
    // A reply type used as a request is a protocol violation but not a
    // framing one: typed error, connection stays.
    write_frame(&mut conn, &Frame::empty(FrameType::Pong, 0)).expect("write pong");
    expect_error("daemon data", &mut conn, ErrorCode::BadType);
    write_frame(&mut conn, &Frame::empty(FrameType::Ping, 0)).expect("write ping");
    assert_eq!(
        read_reply(&mut conn).expect("pong").frame_type,
        FrameType::Pong
    );
    handle.shutdown();
}

#[test]
fn codec_roundtrips_boundary_payload_sizes() {
    // 0, 1, cap−1, and cap exactly — the off-by-one edges of the length
    // field and the cap check. Encode → decode must be the identity, and
    // try_encode must agree with what decode will accept.
    let cap: u32 = 4096;
    for size in [0usize, 1, cap as usize - 1, cap as usize] {
        let f = Frame::with_payload(FrameType::Report, 3, vec![0x5A; size]);
        let bytes = f
            .try_encode(cap)
            .unwrap_or_else(|e| panic!("size {size}: {e}"));
        let (back, used) =
            Frame::decode(&bytes, cap).unwrap_or_else(|e| panic!("size {size}: {e}"));
        assert_eq!(used, bytes.len(), "size {size}");
        assert_eq!(back, f, "size {size}");
    }
    // cap+1 is refused symmetrically on both sides.
    let over = Frame::with_payload(FrameType::Report, 3, vec![0x5A; cap as usize + 1]);
    assert!(over.try_encode(cap).is_err());
    let bytes = over.encode();
    assert!(Frame::decode(&bytes, cap).is_err());
}

#[test]
fn codec_roundtrips_u64_max_session_id() {
    for id in [u64::MAX, u64::MAX - 1, 1u64 << 63] {
        let f = Frame::with_payload(FrameType::Query, id, vec![1]);
        let (back, _) = Frame::decode(&f.encode(), DEFAULT_MAX_PAYLOAD).expect("decode");
        assert_eq!(back.session_id, id);
        assert_eq!(back, f);
    }
}

#[test]
fn u64_max_session_id_on_the_wire_is_unknown_not_mangled() {
    // The extreme id must travel the full stack intact: the daemon
    // should answer "no session 18446744073709551615", proving the id
    // was neither truncated nor sign-mangled en route.
    let handle = live_server();
    let mut conn = connect(handle.addr());
    write_frame(
        &mut conn,
        &Frame::with_payload(FrameType::Query, u64::MAX, vec![0]),
    )
    .expect("write query");
    let f = read_reply(&mut conn).expect("reply");
    assert_eq!(f.frame_type, FrameType::Error);
    let info = ErrorInfo::decode(&f.payload).expect("decode error payload");
    assert_eq!(info.code, ErrorCode::UnknownSession);
    assert!(
        info.message.contains(&u64::MAX.to_string()),
        "message should echo the full id: {}",
        info.message
    );
    assert_still_serving("daemon data", handle.addr(), false);
    handle.shutdown();
}

// --- the plane's own contracts ---

/// Session id that makes the test handler block until released.
const BLOCK: u64 = 1;

#[test]
fn full_accept_queue_answers_busy_and_the_plane_keeps_serving() {
    // One connection thread, parked inside the handler on a channel, so
    // every further connection stays in the accept queue.
    let (entered_tx, entered_rx) = mpsc::channel::<()>();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let (entered_tx, release_rx) = (Mutex::new(entered_tx), Mutex::new(release_rx));
    let plane = Plane::bind(
        &ephemeral(),
        PlaneSpec {
            name: "test-plane",
            threads: 1,
            read_timeout: Duration::from_millis(25),
            idle_timeout: Duration::from_secs(30),
            conns_counter: incprof_obs::names::SERVE_CONNS_ACCEPTED,
        },
    )
    .expect("bind");
    let addr = plane.addr().to_string();
    let mut planes = PlaneHandle::new(Arc::default());
    planes
        .start(
            plane,
            || (),
            move |(), frame| {
                if frame.session_id == BLOCK {
                    entered_tx.lock().unwrap().send(()).unwrap();
                    release_rx.lock().unwrap().recv().unwrap();
                }
                Reply::Send(Frame::empty(FrameType::Pong, frame.session_id))
            },
        )
        .expect("start");

    let mut blocker = connect(&addr);
    write_frame(&mut blocker, &Frame::empty(FrameType::Ping, BLOCK)).expect("write");
    entered_rx.recv().expect("handler entered");

    // The acceptor takes connections in arrival order, so once the
    // queue holds ACCEPT_BACKLOG of them the next one overflows.
    let busy_before = incprof_obs::counter(incprof_obs::names::SERVE_BUSY_REPLIES).get();
    let since = incprof_obs::recorder().total();
    let mut queued: Vec<TcpStream> = (0..ACCEPT_BACKLOG).map(|_| connect(&addr)).collect();
    let mut overflow = connect(&addr);
    let busy = read_reply(&mut overflow).expect("overflow connection gets a reply");
    assert_eq!(busy.frame_type, FrameType::Busy);
    expect_hangup("test plane", &mut overflow);
    assert!(incprof_obs::counter(incprof_obs::names::SERVE_BUSY_REPLIES).get() > busy_before);
    assert!(recorded_since(since, incprof_obs::EventKind::BusyReply));

    // Released, the plane answers the parked request and then every
    // queued connection in turn: Busy shed load, it broke nothing.
    release_tx.send(()).expect("release");
    let pong = read_reply(&mut blocker).expect("parked request answered");
    assert_eq!((pong.frame_type, pong.session_id), (FrameType::Pong, BLOCK));
    drop(blocker);
    for (i, conn) in queued.iter_mut().enumerate() {
        let id = 100 + i as u64;
        write_frame(conn, &Frame::empty(FrameType::Ping, id)).expect("write queued");
        let pong = read_reply(conn).expect("queued connection served");
        assert_eq!((pong.frame_type, pong.session_id), (FrameType::Pong, id));
        // One thread: hang up so it moves on to the next queued one.
        conn.shutdown(std::net::Shutdown::Both).expect("shutdown");
    }
    planes.join();
}

#[test]
fn draining_planes_answer_shutting_down_outside_in() {
    let rig = Rig::start();
    // One claimed connection per plane: a first exchange proves a
    // connection thread owns it before the drain starts. Router planes
    // first — the merged `Health` fans out to the daemon's one admin
    // thread, which must not yet be held by this test's own connection.
    let mut conns: Vec<(&str, TcpStream)> = rig
        .planes()
        .into_iter()
        .rev()
        .map(|(name, addr, is_admin)| {
            let mut conn = connect(&addr);
            let (ask, want) = if is_admin {
                (FrameType::Health, FrameType::HealthReply)
            } else {
                (FrameType::Ping, FrameType::Pong)
            };
            write_frame(&mut conn, &Frame::empty(ask, 0)).expect("write");
            assert_eq!(read_reply(&mut conn).expect("reply").frame_type, want);
            (name, conn)
        })
        .collect();
    let (router_conns, daemon_conns) = conns.split_at_mut(2);

    // The router drains first and tells its peers so — the typed reply
    // a client (or an outer router) fails over on — then hangs up …
    rig.router.request_shutdown();
    for (name, conn) in router_conns.iter_mut() {
        expect_error(name, conn, ErrorCode::ShuttingDown);
        expect_hangup(name, conn);
    }
    // … and only `shutdown` reaches inward: it forwards `Shutdown` to
    // the backend, whose planes then say the same to their peers.
    rig.router.shutdown();
    for (name, conn) in daemon_conns.iter_mut() {
        expect_error(name, conn, ErrorCode::ShuttingDown);
        expect_hangup(name, conn);
    }
    rig.daemon.shutdown();
}

#[test]
fn idle_connections_are_closed_after_idle_timeout() {
    let idle = Duration::from_millis(200);
    let handle = Server::bind(ServeConfig {
        admin: Some(ephemeral()),
        read_timeout: Duration::from_millis(25),
        idle_timeout: idle,
        ..ServeConfig::default()
    })
    .expect("bind")
    .start()
    .expect("start");
    for addr in [handle.addr(), handle.admin_addr().expect("admin bound")] {
        let mut conn = connect(addr);
        let opened = Instant::now();
        // Say nothing: the plane hangs up on its own, without a frame.
        assert!(
            read_reply(&mut conn).is_none(),
            "{addr}: idle close is silent"
        );
        assert!(
            opened.elapsed() >= idle,
            "{addr}: closed before idle_timeout"
        );
    }
    handle.shutdown();
}

/// The stalled peer, seen from the client: a listener whose kernel
/// queue completes every handshake while nobody ever reads or writes.
/// A client with a reply deadline gives up with a timed-out `Io` (after
/// its bounded re-dials, each met by the same silence); without the
/// deadline the same call would poll forever.
#[test]
fn reply_deadline_fails_a_request_to_a_peer_that_never_answers() {
    let silent = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = silent.local_addr().expect("local addr").to_string();
    let mut client =
        Client::connect_with_deadline(&addr, Duration::from_millis(50)).expect("connect");
    let asked = Instant::now();
    match client.ping() {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::TimedOut),
        other => panic!("expected an Io timeout, got {other:?}"),
    }
    assert!(
        asked.elapsed() < Duration::from_secs(1),
        "gave up only after {:?}",
        asked.elapsed()
    );
}

/// Whether any socket is listening on TCP `port` (IPv4), read from the
/// kernel's table so the check itself never touches the listener.
fn listening(port: u16) -> bool {
    let table = std::fs::read_to_string("/proc/net/tcp").expect("read /proc/net/tcp");
    let suffix = format!(":{port:04X}");
    table.lines().skip(1).any(|line| {
        let mut cols = line.split_whitespace().skip(1);
        let (local, state) = (cols.next(), cols.nth(1));
        local.is_some_and(|l| l.ends_with(&suffix)) && state == Some("0A")
    })
}

/// After a wire `Shutdown` is acked — and with nobody calling
/// `request_shutdown` — the listener on `addr` must close on its own.
/// Polling the kernel table (not connecting) matters: a fresh connect
/// would itself wake an acceptor still parked in `accept()`, hiding the
/// bug where the wake-up dial went to the configured port 0.
fn assert_wire_shutdown_closes_listener(addr: &str) {
    let port: u16 = addr.rsplit(':').next().unwrap().parse().expect("port");
    assert!(
        listening(port),
        "{addr} should be listening before shutdown"
    );
    let mut client = Client::connect_tcp(addr).expect("connect");
    client.shutdown_server().expect("ShutdownAck");
    let deadline = Instant::now() + Duration::from_secs(5);
    while listening(port) {
        assert!(
            Instant::now() < deadline,
            "{addr}: acceptor still parked in accept() 5 s after ShutdownAck"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        TcpStream::connect(addr).is_err(),
        "{addr}: a fresh connect must be refused, not accepted-then-dropped"
    );
}

#[test]
fn wire_shutdown_closes_the_listener_without_request_shutdown() {
    let daemon = live_server();
    assert_wire_shutdown_closes_listener(daemon.addr());
    daemon.shutdown();

    let rig = Rig::start();
    assert_wire_shutdown_closes_listener(rig.router.addr());
    rig.router.shutdown();
    rig.daemon.shutdown();
}

//! The exact byte ledger of one gmon stream.
//!
//! * **The log.** A fixed 8-snapshot session at d = 24 whose function
//!   table grows at snapshot 4: each record's size on disk, read from
//!   the session's `SnapshotLog`. Records 0 and 4 hold the whole
//!   snapshot, table included; the others are deltas against the record
//!   before them, where every row and arc moved.
//! * **The wire.** Each frame the client sends, measured by a scripted
//!   server: a delta after an ack, and the whole snapshot in the first
//!   push, after a table change, after any push that was not acked (a
//!   `Busy`, an `Error` or a lost connection), and after `close`.
//! * **A lost ack.** A daemon that applies a delta and hangs up before
//!   its reply: the client's retransmission is answered with the
//!   replayed ack, and a delta against any other base is refused.
//! * **The benchmark's shape.** A d = 24 session in 4 phases where six
//!   rows move per interval, as the serve workloads push it.
//!
//! Every number here is a count, not a timing: it repeats exactly, and a
//! change that moves one edits it in the same diff.

use incprof_suite::core::OnlineConfig;
use incprof_suite::profile::{ArcStats, FunctionId, FunctionStats, FunctionTable, GmonData};
use incprof_suite::serve::frame::{read_frame, write_frame, ReadOutcome, DEFAULT_MAX_PAYLOAD};
use incprof_suite::serve::{Client, ClientError, Push, Registry, RetentionPolicy, Store};
use incprof_suite::serve::{ErrorCode, ErrorInfo, Frame, FrameType, SnapshotAck};
use incprof_suite::serve::{ServeConfig, Server};
use incprof_suite::store::SnapshotLog;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Instant;

/// Functions before and after the growth at snapshot [`GROWS_AT`].
const D_BEFORE: usize = 20;
const D: usize = 24;
const GROWS_AT: u64 = 4;
const SNAPSHOTS: u64 = 8;

/// The session's snapshots: `fn_000..` as perfbench names them, every
/// counter growing, and a chain of arcs over the first four functions.
fn series() -> Vec<GmonData> {
    let mut table = FunctionTable::new();
    (0..SNAPSHOTS)
        .map(|i| {
            let d = if i < GROWS_AT { D_BEFORE } else { D };
            for f in table.len()..d {
                table.register(format!("fn_{f:03}"));
            }
            let mut g = GmonData {
                sample_index: i,
                timestamp_ns: (i + 1) * 1_000_000_000,
                functions: table.clone(),
                ..Default::default()
            };
            for f in 0..d as u32 {
                let stats = FunctionStats {
                    self_time: (i + 1) * (u64::from(f) + 1) * 1_000,
                    calls: i + 1,
                    child_time: 0,
                };
                g.flat.set(FunctionId(f), stats);
            }
            for f in 0..3 {
                let arc = ArcStats {
                    count: i + 1,
                    child_time: 10 * (i + 1),
                };
                g.callgraph.set(FunctionId(f), FunctionId(f + 1), arc);
            }
            g
        })
        .collect()
}

/// A fresh store directory for the test `name`.
fn store_root(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("incprof_ledger_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

/// Ingest `snapshots` into one durable session and read back its log:
/// each record's size, and what it replays.
fn logged(name: &str, snapshots: &[GmonData]) -> (Vec<u64>, Vec<GmonData>) {
    let root = store_root(name);
    let store = Store::open(&root, RetentionPolicy::keep_all(), 16).expect("open store");
    let registry = Registry::new(OnlineConfig::default(), 4, 4, true).with_store(store, 0);
    let (id, session) = registry.open().expect("open session");
    {
        let mut session = session.lock().expect("session lock");
        for g in snapshots {
            session.enqueue(g.clone(), Instant::now()).expect("enqueue");
            session.drain().expect("drain");
        }
    }
    drop((session, registry));
    let (log, replay) =
        SnapshotLog::open(&root.join(id.to_string()).join("log.iprf"), id).expect("reopen the log");
    let sizes = log.records().iter().map(|r| r.bytes).collect();
    let _ = std::fs::remove_dir_all(&root);
    (sizes, replay.snapshots)
}

/// The framed size of `g`'s counters without a table: what a record
/// took before deltas.
fn counters_record(g: &GmonData) -> u64 {
    let frame = Frame::with_payload(FrameType::Snapshot, 1, g.encode_counters().to_vec());
    frame.encode().len() as u64
}

#[test]
fn log_records_hold_the_table_only_where_it_changes() {
    let (sizes, replayed) = logged("growth", &series());
    assert_eq!(sizes, [1155, 168, 168, 168, 1359, 192, 192, 192]);
    // What the same records took before deltas: counters without the
    // table (at least 3x each delta), and each with its table.
    let before: Vec<u64> = series().iter().map(counters_record).collect();
    assert_eq!(before, [690, 690, 690, 690, 802, 802, 802, 802]);
    let full: Vec<u64> = series().iter().map(|g| g.encode().len() as u64).collect();
    assert_eq!(full, [1133, 1133, 1133, 1133, 1337, 1337, 1337, 1337]);
    assert_eq!(sizes.iter().sum::<u64>(), 3594);
    assert_eq!(full.iter().sum::<u64>(), 9880);
    assert_eq!(replayed, series(), "the log replays the session");
}

/// The serve workloads' session shape at a small fixed size: d = 24 in
/// 4 phases of 4 intervals each; in every interval the phase's six
/// functions (`j % 4 == phase`) move, and a function enters the profile
/// the first time it runs.
fn perfbench_shaped(n: u64) -> Vec<GmonData> {
    let mut table = FunctionTable::new();
    for j in 0..24 {
        table.register(format!("fn_{j:03}"));
    }
    let (mut self_ns, mut calls) = ([0u64; 24], [0u64; 24]);
    (0..n)
        .map(|s| {
            let phase = (s / 4) % 4;
            let mut g = GmonData {
                sample_index: s,
                timestamp_ns: 100_000_000 * (s + 1),
                functions: table.clone(),
                ..Default::default()
            };
            for j in 0..24u64 {
                if j % 4 == phase {
                    self_ns[j as usize] += 800_000 + 50_000 * j + 1_000 * ((s * j) % 7);
                    calls[j as usize] += 1 + (s + j) % 3;
                }
                if self_ns[j as usize] > 0 {
                    let stats = FunctionStats {
                        self_time: self_ns[j as usize],
                        calls: calls[j as usize],
                        child_time: 0,
                    };
                    g.flat.set(FunctionId(j as u32), stats);
                }
            }
            g
        })
        .collect()
}

#[test]
fn a_benchmark_shaped_session_logs_six_moving_rows_per_record() {
    let snapshots = perfbench_shaped(20);
    let (sizes, replayed) = logged("bench_shape", &snapshots);
    // Record 0 is whole, with its six rows; every later record is a
    // delta of six rows: headers, base, six rows of six bytes, end.
    let mut want = vec![88u64; 20];
    want[0] = 783;
    assert_eq!(sizes, want);
    assert_eq!(replayed, snapshots);
    // Before deltas, a record with every row held the 24 rows' counters.
    let counters = counters_record(&snapshots[19]);
    assert_eq!(counters, 730);
    assert!(5 * sizes[19] <= counters, "{} vs {counters}", sizes[19]);
}

/// A scripted server's answer to one frame.
#[derive(Clone, Copy)]
enum Answer {
    Ack,
    Busy,
    Error,
    /// Drop the connection without a reply.
    Hangup,
    CloseAck,
}

/// Serve `script` to one client, one answer per frame read, and return
/// the size on the wire of every frame read.
fn scripted(script: Vec<Answer>) -> (String, std::thread::JoinHandle<Vec<usize>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let server = std::thread::spawn(move || {
        let (mut seen, mut answers) = (Vec::new(), script.into_iter());
        'connections: for conn in listener.incoming() {
            let mut conn = conn.expect("accept");
            loop {
                let frame = match read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).expect("read") {
                    ReadOutcome::Frame(frame) => frame,
                    _ => continue 'connections,
                };
                seen.push(frame.encode().len());
                let sid = frame.session_id;
                let reply = match answers.next().expect("a frame past the script") {
                    Answer::Ack => {
                        let ack = SnapshotAck {
                            interval: 0,
                            phase: 0,
                            new_phase: false,
                            transition: false,
                            capped: false,
                        };
                        Frame::with_payload(FrameType::SnapshotAck, sid, ack.encode())
                    }
                    Answer::Busy => Frame::empty(FrameType::Busy, sid),
                    Answer::Error => {
                        let info = ErrorInfo::new(ErrorCode::OutOfOrder, "scripted");
                        Frame::with_payload(FrameType::Error, sid, info.encode())
                    }
                    Answer::Hangup => continue 'connections,
                    Answer::CloseAck => Frame::empty(FrameType::CloseAck, sid),
                };
                write_frame(&mut conn, &reply).expect("write");
                if answers.len() == 0 {
                    return seen;
                }
            }
        }
        seen
    });
    (addr, server)
}

#[test]
fn client_frames_carry_the_table_until_an_ack_and_after_a_change() {
    use Answer::*;
    let script = vec![
        Ack, Ack, Busy, Ack, Error, Ack, Ack, Hangup, Hangup, Ack, Ack, CloseAck, Ack,
    ];
    let (addr, server) = scripted(script);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    client.set_reconnect_attempts(1);
    let (s, sid) = (series(), 7);
    let acked = |r: Result<Push, ClientError>| assert!(matches!(r, Ok(Push::Ack(_))), "{r:?}");
    acked(client.push(sid, &s[0]));
    acked(client.push(sid, &s[1]));
    assert!(matches!(client.push(sid, &s[2]), Ok(Push::Busy)));
    acked(client.push(sid, &s[2]));
    assert!(matches!(
        client.push(sid, &s[3]),
        Err(ClientError::Server(_))
    ));
    acked(client.push(sid, &s[3]));
    acked(client.push(sid, &s[4]));
    assert!(
        client.push(sid, &s[5]).is_err(),
        "the connection was dropped twice"
    );
    acked(client.push(sid, &s[5]));
    acked(client.push(sid, &s[6]));
    client.close(sid).expect("close");
    acked(client.push(sid, &s[7]));
    let frames = server.join().expect("scripted server");
    // Frame bytes per push, in order:
    //   s0 whole; s1 delta; s2 delta, Busy; s2 whole again;
    //   s3 delta, Error; s3 whole again; s4 whole, the grown table;
    //   s5 delta, twice, both hung up; s5 whole again; s6 delta;
    //   close; s7 whole, the stream gone with the close.
    assert_eq!(
        frames,
        [1155, 168, 168, 1155, 168, 1155, 1359, 192, 192, 1359, 192, 22, 1359]
    );
}

/// A proxy between one client and `daemon` that forwards every frame
/// and every reply, except that it hangs up instead of relaying the
/// replies to the frames numbered in `hang_up_after` (counting from 0).
/// Returns its address and, on join, the size of every frame forwarded.
fn lossy_proxy(
    daemon: String,
    hang_up_after: Vec<usize>,
    frames: usize,
) -> (String, std::thread::JoinHandle<Vec<usize>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    let proxy = std::thread::spawn(move || {
        let mut upstream = TcpStream::connect(daemon).expect("dial the daemon");
        let mut seen = Vec::new();
        'connections: for conn in listener.incoming() {
            let mut conn = conn.expect("accept");
            while seen.len() < frames {
                let frame = match read_frame(&mut conn, DEFAULT_MAX_PAYLOAD).expect("read") {
                    ReadOutcome::Frame(frame) => frame,
                    _ => continue 'connections,
                };
                write_frame(&mut upstream, &frame).expect("forward");
                let reply = match read_frame(&mut upstream, DEFAULT_MAX_PAYLOAD).expect("reply") {
                    ReadOutcome::Frame(reply) => reply,
                    other => panic!("the daemon answered {other:?}"),
                };
                seen.push(frame.encode().len());
                if hang_up_after.contains(&(seen.len() - 1)) {
                    continue 'connections;
                }
                write_frame(&mut conn, &reply).expect("relay");
            }
            break;
        }
        seen
    });
    (addr, proxy)
}

#[test]
fn a_retransmitted_delta_gets_the_replayed_ack() {
    let daemon = Server::bind(ServeConfig::default())
        .and_then(|s| s.start())
        .expect("start the daemon");
    // Frames: open, s0, s1 (applied, then the line drops), s1 again, s2.
    let (addr, proxy) = lossy_proxy(daemon.addr().to_string(), vec![2], 5);
    let mut client = Client::connect_tcp(&addr).expect("connect");
    let s = series();
    let sid = client.open().expect("open");
    let interval = |r: Result<Push, ClientError>| match r {
        Ok(Push::Ack(ack)) => ack.interval,
        other => panic!("not an ack: {other:?}"),
    };
    assert_eq!(interval(client.push(sid, &s[0])), 0);
    assert_eq!(interval(client.push(sid, &s[1])), 1, "the replayed ack");
    assert_eq!(interval(client.push(sid, &s[2])), 2);
    // The retransmission is the same delta, read by its sample index
    // before its base: the daemon's stream already holds snapshot 1.
    assert_eq!(proxy.join().expect("proxy"), [22, 1155, 168, 168, 168]);
    let mut direct = Client::connect_tcp(daemon.addr()).expect("connect");
    let report = direct.query_report(sid).expect("report");
    assert!(report.contains("\"snapshots\":3"), "{report}");
    direct.close(sid).expect("close");
    daemon.shutdown();
}

#[test]
fn a_delta_against_another_base_is_refused_and_leaves_the_session() {
    let daemon = Server::bind(ServeConfig::default())
        .and_then(|s| s.start())
        .expect("start the daemon");
    let mut client = Client::connect_tcp(daemon.addr()).expect("connect");
    let s = series();
    let sid = client.open().expect("open");
    for g in &s[..2] {
        assert!(matches!(client.push(sid, g), Ok(Push::Ack(_))));
    }
    let before = client.query_report(sid).expect("report");
    // Snapshot 3 as a delta against 2, which the daemon never held: its
    // tail is snapshot 1.
    let mut writer = incprof_suite::profile::gmon::Stream::new();
    writer.advance(s[2].clone());
    let stray = Frame::with_payload(FrameType::Snapshot, sid, writer.encode(&s[3]).to_vec());
    let reply = client.request(&stray).expect("a reply");
    assert_eq!(reply.frame_type, FrameType::Error);
    let info = ErrorInfo::decode(&reply.payload).expect("error payload");
    assert_eq!(info.code, ErrorCode::BadPayload, "{info}");
    assert_eq!(client.query_report(sid).expect("report"), before);
    // The session's newest snapshot is still snapshot 1: the client's next
    // delta, written against it, is acked.
    assert!(matches!(client.push(sid, &s[2]), Ok(Push::Ack(_))));
    client.close(sid).expect("close");
    daemon.shutdown();
}

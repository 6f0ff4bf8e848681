//! The exact byte ledger of one table-once stream: a fixed 8-snapshot
//! session at d = 24 whose function table grows at snapshot 4.
//!
//! * **The log.** Each record's size on disk, read from the session's
//!   `SnapshotLog`: records 0 and 4 hold the full table, the others only
//!   counters.
//! * **The wire.** Each frame the client sends, measured by a scripted
//!   server: the table goes in the first push, after a table change, and
//!   again after any push that was not acked (a `Busy`, an `Error` or a
//!   lost connection), and after `close`.
//!
//! Every number here is a count, not a timing: it repeats exactly, and a
//! change that moves one edits it in the same diff.

use incprof_suite::core::OnlineConfig;
use incprof_suite::profile::{ArcStats, FunctionId, FunctionStats, FunctionTable, GmonData};
use incprof_suite::serve::frame::{read_frame, write_frame, ReadOutcome, DEFAULT_MAX_PAYLOAD};
use incprof_suite::serve::{Client, ClientError, Push, Registry, RetentionPolicy, Store};
use incprof_suite::serve::{ErrorCode, ErrorInfo, Frame, FrameType, SnapshotAck};
use incprof_suite::store::SnapshotLog;
use std::net::TcpListener;
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

#[test]
fn log_records_hold_the_table_only_where_it_changes() {
    let root = std::env::temp_dir().join(format!("incprof_ledger_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = Store::open(&root, RetentionPolicy::keep_all(), 16).expect("open store");
    let registry = Registry::new(OnlineConfig::default(), 4, 4, true).with_store(store, 0);
    let (id, session) = registry.open().expect("open session");
    {
        let mut session = session.lock().expect("session lock");
        for g in series() {
            session.enqueue(g, Instant::now()).expect("enqueue");
            session.drain().expect("drain");
        }
    }
    drop((session, registry));
    let (log, replay) =
        SnapshotLog::open(&root.join(id.to_string()).join("log.iprf"), id).expect("reopen the log");
    let sizes: Vec<u64> = log.records().iter().map(|r| r.bytes).collect();
    assert_eq!(sizes, [1155, 690, 690, 690, 1359, 802, 802, 802]);
    // What the same records would take with the table in each one.
    let full: Vec<u64> = series().iter().map(|g| g.encode().len() as u64).collect();
    assert_eq!(full, [1133, 1133, 1133, 1133, 1337, 1337, 1337, 1337]);
    assert_eq!(sizes.iter().sum::<u64>(), 6990);
    assert_eq!(full.iter().sum::<u64>(), 9880);
    assert_eq!(replay.snapshots, series(), "the log replays the session");
    let _ = std::fs::remove_dir_all(&root);
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
    //   s0 table; s1 counters; s2 counters, Busy; s2 table again;
    //   s3 counters, Error; s3 table again; s4 the grown table;
    //   s5 counters, twice, both hung up; s5 table again; s6 counters;
    //   close; s7 table, the entry gone with the close.
    assert_eq!(
        frames,
        [1155, 690, 690, 1155, 690, 1155, 1359, 802, 802, 1359, 802, 22, 1359]
    );
}

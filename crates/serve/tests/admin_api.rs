//! End-to-end coverage of the live-telemetry surface: a daemon with an
//! admin socket, traced pushes linking client and server spans into one
//! tree, the Prometheus scrape, the flight-recorder dump, and the
//! plane separation (admin requests bounce off the data socket and
//! vice versa).
//!
//! These tests run in one process, so the client and the daemon share
//! the global span store — which is exactly what lets `TraceGet`
//! resolve a tree containing both sides of the wire.

use incprof_obs::{TraceIdGen, TraceNode, TraceTree};
use incprof_profile::{FlatProfile, FunctionStats, FunctionTable, GmonData};
use incprof_serve::{BindAddr, Client, ClientError, ErrorCode, Push, ServeConfig, Server};
use std::time::Duration;

fn gmon(idx: u64) -> GmonData {
    let mut table = FunctionTable::new();
    let a = table.register("alpha");
    let b = table.register("beta");
    let mut flat = FlatProfile::new();
    flat.set(
        a,
        FunctionStats {
            self_time: (idx + 1) * 1_000_000_000,
            calls: idx + 1,
            child_time: 0,
        },
    );
    flat.set(
        b,
        FunctionStats {
            self_time: (idx + 1) * 500_000_000,
            calls: (idx + 1) * 2,
            child_time: 0,
        },
    );
    GmonData {
        sample_index: idx,
        timestamp_ns: idx * 1_000_000_000,
        functions: table,
        flat,
        callgraph: Default::default(),
    }
}

fn admin_server() -> incprof_serve::ServerHandle {
    Server::bind(ServeConfig {
        admin: Some(BindAddr::Tcp("127.0.0.1:0".to_string())),
        workers: 2,
        read_timeout: Duration::from_millis(25),
        ..ServeConfig::default()
    })
    .expect("bind")
    .start()
    .expect("start")
}

fn subtree_names(node: &TraceNode, out: &mut Vec<String>) {
    out.push(node.name.clone());
    for c in &node.children {
        subtree_names(c, out);
    }
}

#[test]
fn traced_push_resolves_to_one_span_tree_over_admin() {
    let handle = admin_server();
    let admin_addr = handle.admin_addr().expect("admin bound").to_string();
    let mut client = Client::connect_tcp(handle.addr()).expect("connect data");
    let session = client.open().expect("open");

    let ids = TraceIdGen::new(0x5EED);
    let tid = ids.next_id();
    for i in 0..3 {
        match client.push_traced(session, &gmon(i), tid).expect("push") {
            Push::Ack(ack) => assert_eq!(ack.interval, i),
            Push::Busy => panic!("unloaded daemon must not be busy"),
        }
    }

    let mut admin = Client::connect_tcp(&admin_addr).expect("connect admin");
    let json = admin.trace_get(tid).expect("trace_get");
    let tree: TraceTree = serde_json::from_str(&json).expect("trace json");
    assert_eq!(tree.trace_id, tid);
    // Three pushes → three client-side roots, each owning the server's
    // dispatch and detector-observation spans through the wire link.
    let roots: Vec<&TraceNode> = tree
        .roots
        .iter()
        .filter(|r| r.name == incprof_obs::names::SERVE_CLIENT_PUSH)
        .collect();
    assert_eq!(roots.len(), 3, "{json}");
    for root in roots {
        let mut names = Vec::new();
        subtree_names(root, &mut names);
        for expected in [
            incprof_obs::names::SERVE_TRACE_SNAPSHOT,
            incprof_obs::names::SERVE_TRACE_OBSERVE,
        ] {
            assert!(
                names.contains(&expected.to_string()),
                "missing {expected} in {names:?}"
            );
        }
    }

    // An unknown trace id resolves to an empty tree, not an error.
    let empty: TraceTree =
        serde_json::from_str(&admin.trace_get(0xDEAD_BEEF).expect("empty trace")).expect("json");
    assert_eq!(empty.spans, 0);
    assert!(empty.roots.is_empty());

    client.close(session).expect("close");
    handle.shutdown();
}

#[test]
fn traced_query_joins_the_analysis_pipeline_and_stays_byte_identical() {
    let handle = admin_server();
    let admin_addr = handle.admin_addr().expect("admin bound").to_string();
    let mut client = Client::connect_tcp(handle.addr()).expect("connect data");
    let session = client.open().expect("open");
    for i in 0..6 {
        client.push(session, &gmon(i)).expect("push");
    }

    // Telemetry must not perturb the analysis: traced and untraced
    // queries over the same series return byte-identical JSON.
    let untraced = client.query_analysis(session).expect("query");
    let ids = TraceIdGen::new(0xA11CE);
    let tid = ids.next_id();
    let traced = client
        .query_analysis_traced(session, tid)
        .expect("traced query");
    assert_eq!(untraced, traced);

    let mut admin = Client::connect_tcp(&admin_addr).expect("connect admin");
    let tree: TraceTree =
        serde_json::from_str(&admin.trace_get(tid).expect("trace_get")).expect("json");
    let mut names = Vec::new();
    for r in &tree.roots {
        subtree_names(r, &mut names);
    }
    assert!(
        names.contains(&incprof_obs::names::SERVE_TRACE_QUERY.to_string()),
        "{names:?}"
    );
    assert!(
        names.contains(&incprof_obs::names::CORE_CACHE_ANALYZE.to_string()),
        "core pipeline must inherit into the trace: {names:?}"
    );

    client.close(session).expect("close");
    handle.shutdown();
}

#[test]
fn scrape_health_and_recorder_dump_answer_on_the_admin_socket() {
    let handle = admin_server();
    let admin_addr = handle.admin_addr().expect("admin bound").to_string();
    let mut client = Client::connect_tcp(handle.addr()).expect("connect data");
    let session = client.open().expect("open");
    for i in 0..2 {
        client.push(session, &gmon(i)).expect("push");
    }
    client.query_report(session).expect("query");

    let mut admin = Client::connect_tcp(&admin_addr).expect("connect admin");
    let health = admin.health().expect("health");
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("\"sessions\":1"), "{health}");

    let scrape = admin.scrape().expect("scrape");
    assert!(
        scrape.contains(&format!(
            "incprof_session_snapshots{{session=\"{session}\"}} 2"
        )),
        "{scrape}"
    );
    assert!(
        scrape.contains("# TYPE incprof_serve_frames_received counter"),
        "{scrape}"
    );
    for line in scrape.lines() {
        assert!(
            line.starts_with("# TYPE ")
                || line
                    .rsplit_once(' ')
                    .is_some_and(|(_, v)| v.parse::<f64>().is_ok()),
            "malformed exposition line: {line}"
        );
    }

    let dump = admin.recorder_dump().expect("dump");
    assert!(dump.starts_with("{\"total\":"), "{dump}");
    assert!(dump.contains("\"events\":["), "{dump}");

    client.close(session).expect("close");
    handle.shutdown();
}

#[test]
fn health_document_is_pinned() {
    let handle = admin_server();
    let admin_addr = handle.admin_addr().expect("admin bound").to_string();
    let mut client = Client::connect_tcp(handle.addr()).expect("connect data");
    let session = client.open().expect("open");
    let mut admin = Client::connect_tcp(&admin_addr).expect("connect admin");
    assert_eq!(
        admin.health().expect("health"),
        r#"{"status":"ok","sessions":1,"draining":false}"#
    );
    client.close(session).expect("close");
    handle.shutdown();
}

#[test]
fn planes_reject_each_others_requests() {
    let handle = admin_server();
    let admin_addr = handle.admin_addr().expect("admin bound").to_string();

    // Admin request on the data socket → BadType.
    let mut data = Client::connect_tcp(handle.addr()).expect("connect data");
    match data.scrape() {
        Err(ClientError::Server(info)) => assert_eq!(info.code, ErrorCode::BadType),
        other => panic!("scrape on data socket must be rejected, got {other:?}"),
    }

    // Write request on the admin socket → BadType; the connection (and
    // daemon) keep serving admin traffic afterwards.
    let mut admin = Client::connect_tcp(&admin_addr).expect("connect admin");
    match admin.open() {
        Err(ClientError::Server(info)) => assert_eq!(info.code, ErrorCode::BadType),
        other => panic!("open on admin socket must be rejected, got {other:?}"),
    }
    assert!(admin.health().expect("health still served").contains("ok"));

    handle.shutdown();
}

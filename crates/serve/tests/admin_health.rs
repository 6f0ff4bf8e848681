//! `Health` on the daemon's admin plane reports lost durability.
//!
//! Alone in its own test binary: the status reads process-global store
//! counters, and a failed checkpoint here must not turn a sibling test's
//! `"status":"ok"` assertion into `degraded`.

use incprof_profile::{FlatProfile, FunctionStats, FunctionTable, GmonData};
use incprof_serve::{BindAddr, Client, ServeConfig, Server};
use std::time::{Duration, Instant};

fn gmon(idx: u64) -> GmonData {
    let mut table = FunctionTable::new();
    let id = table.register("f");
    let mut flat = FlatProfile::new();
    flat.set(
        id,
        FunctionStats {
            self_time: (idx + 1) * 1_000_000_000,
            calls: idx + 1,
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

#[test]
fn health_turns_degraded_when_a_checkpoint_cannot_be_written() {
    let root = std::env::temp_dir().join(format!("incprof_admin_health_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let handle = Server::bind(ServeConfig {
        admin: Some(BindAddr::Tcp("127.0.0.1:0".to_string())),
        workers: 2,
        read_timeout: Duration::from_millis(25),
        store_dir: Some(root.clone()),
        checkpoint_every: 1,
        ..ServeConfig::default()
    })
    .expect("bind")
    .start()
    .expect("start");
    let admin_addr = handle.admin_addr().expect("admin bound").to_string();
    let mut admin = Client::connect_tcp(&admin_addr).expect("connect admin");
    let mut client = Client::connect_tcp(handle.addr()).expect("connect data");
    let session = client.open().expect("open");

    client.push(session, &gmon(0)).expect("push");
    client.query_report(session).expect("query");
    let health = admin.health().expect("health");
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    // Pull the session directory out from under the daemon: the open log
    // handle keeps accepting appends, but the checkpoint's temp file can
    // no longer be created.
    std::fs::remove_dir_all(root.join(session.to_string())).expect("remove session dir");
    client.push(session, &gmon(1)).expect("push");

    // The checkpoint is written after the ack, so poll.
    let deadline = Instant::now() + Duration::from_secs(10);
    let health = loop {
        let health = admin.health().expect("health");
        if health.contains("\"status\":\"degraded\"") || Instant::now() > deadline {
            break health;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(health.contains("\"status\":\"degraded\""), "{health}");
    assert!(health.contains("\"sessions\":1"), "{health}");
    assert!(
        incprof_obs::counter(incprof_obs::names::STORE_CHECKPOINT_WRITE_ERRORS).get() >= 1,
        "the failure must be the counted checkpoint write"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

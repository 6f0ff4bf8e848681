//! The router serves every connection it ever accepts on the plane's
//! fixed thread set: a long-lived router fronting short-lived
//! `incprof push` connections holds no per-connection thread (or
//! `JoinHandle`) behind. Alone in its test binary on purpose — the
//! process-wide thread count is only stable with no sibling tests.

use incprof_serve::{Client, ServeConfig, Server};
use incprof_shard::{BackendSpec, Router, RouterConfig};

/// The kernel's count of this process's threads.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.expect("Threads: line")
        .trim()
        .parse()
        .expect("thread count")
}

#[test]
fn sequential_connections_leave_the_thread_count_unchanged() {
    let max_conns = 4;
    let backend = Server::bind(ServeConfig::default())
        .expect("bind backend")
        .start()
        .expect("start backend");
    let router = Router::bind(RouterConfig {
        backends: vec![BackendSpec {
            data: backend.addr().to_string(),
            admin: None,
        }],
        max_conns,
        ..RouterConfig::default()
    })
    .expect("bind router")
    .start()
    .expect("start router");

    let before = process_threads();
    for _ in 0..4 * max_conns + 1 {
        let mut client = Client::connect_tcp(router.addr()).expect("connect");
        let id = client.open().expect("open via router");
        client.close(id).expect("close via router");
    }
    assert_eq!(
        process_threads(),
        before,
        "connections must be served by the pre-spawned threads only"
    );

    router.shutdown();
    backend.shutdown();
}

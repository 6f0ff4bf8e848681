//! The process-wide span store holds `SpanStore::DEFAULT_CAP` records
//! and is never cleared, so a long-lived daemon stops keeping spans —
//! traced ones included — once it is full. This pins how fast report
//! queries fill it and that the admin scrape then shows the drops.
//!
//! Alone in its own test binary: it fills the process-wide store.

use incprof_core::online::OnlineConfig;
use incprof_core::PhaseDetector;
use incprof_obs::SpanStore;
use incprof_profile::{FlatProfile, FunctionStats, FunctionTable, GmonData};
use incprof_serve::session::lock;
use incprof_serve::{BindAddr, Client, Registry, ReportMode, ServeConfig, Server};
use std::time::Instant;

/// Cumulative snapshot `idx` of a stream that moves through four
/// functions, eight intervals each.
fn gmon(idx: u64) -> GmonData {
    let mut table = FunctionTable::new();
    let mut flat = FlatProfile::new();
    for f in 0..4u64 {
        let id = table.register(format!("f{f}"));
        let secs = idx.saturating_sub(8 * f).min(8);
        flat.set(
            id,
            FunctionStats {
                self_time: secs * 1_000_000_000,
                calls: secs,
                child_time: 0,
            },
        );
    }
    GmonData {
        sample_index: idx,
        timestamp_ns: idx * 1_000_000_000,
        functions: table,
        flat,
        callgraph: Default::default(),
    }
}

fn spans_kept() -> usize {
    incprof_obs::global().spans().records().len()
}

#[test]
fn query_traffic_fills_the_span_store_and_the_scrape_counts_the_drops() {
    let registry = Registry::new(OnlineConfig::default(), 4, 64, true);
    let (_, session) = registry.open().expect("open");
    let mut session = lock(&session);
    let detector = PhaseDetector::default();
    for idx in 0..32 {
        session.enqueue(gmon(idx), Instant::now()).expect("enqueue");
        session.drain().expect("drain");
        session.report_json(&detector, ReportMode::AnalysisOnly);
    }

    // One push as `serve_query` sends it: one memo miss, three hits.
    session.enqueue(gmon(32), Instant::now()).expect("enqueue");
    session.drain().expect("drain");
    let before = spans_kept();
    session.report_json(&detector, ReportMode::AnalysisOnly);
    let miss = spans_kept() - before;
    let before = spans_kept();
    for _ in 0..3 {
        session.report_json(&detector, ReportMode::AnalysisOnly);
    }
    let hits = spans_kept() - before;
    // core.cache.analyze, the features, cluster and algorithm1 spans, the
    // sweep span and one span per k = 1..=8.
    assert_eq!(miss, 13, "spans a memo miss records");
    assert_eq!(hits, 3, "a memo hit records the analyze span only");
    assert_eq!(
        SpanStore::DEFAULT_CAP / (miss + hits),
        4096,
        "pushes until the store is full"
    );

    // Fill what is left, then one more query: its span is dropped.
    for _ in spans_kept()..SpanStore::DEFAULT_CAP {
        let _span = incprof_obs::span(incprof_obs::names::CORE_CACHE_ANALYZE);
    }
    assert_eq!(incprof_obs::global().spans().dropped(), 0);
    session.report_json(&detector, ReportMode::AnalysisOnly);
    assert_eq!(spans_kept(), SpanStore::DEFAULT_CAP);
    let dropped = incprof_obs::global().spans().dropped();
    assert_eq!(dropped, 1);
    drop(session);

    let handle = Server::bind(ServeConfig {
        admin: Some(BindAddr::Tcp("127.0.0.1:0".to_string())),
        ..ServeConfig::default()
    })
    .expect("bind")
    .start()
    .expect("start");
    let admin_addr = handle.admin_addr().expect("admin bound").to_string();
    let mut admin = Client::connect_tcp(&admin_addr).expect("connect admin");
    let scrape = admin.scrape().expect("scrape");
    assert!(
        scrape.contains(&format!(
            "# TYPE incprof_serve_trace_spans_dropped gauge\nincprof_serve_trace_spans_dropped {dropped}\n"
        )),
        "{scrape}"
    );
    handle.shutdown();
}

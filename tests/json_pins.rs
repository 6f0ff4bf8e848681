//! Byte pins for the hand-built JSON documents no other golden covers:
//! the daemon's Full report (committed as `tests/golden/full_report.json`
//! and quoted by docs/PROTOCOL.md), a faulted session's Full report, the
//! `source_context` join on its own, and the run report's JSONL lines.
//! Each expected string is the exact output; a change to any emitter
//! that moves a byte fails here.

use incprof_suite::collect::SampleSeries;
use incprof_suite::core::online::OnlineConfig;
use incprof_suite::core::{source_context_json, PhaseDetector};
use incprof_suite::obs::{EventKind, Obs, RunReport, SpanStore, TimeSource, VirtualClock};
use incprof_suite::profile::{FlatProfile, FunctionStats, FunctionTable, GmonData};
use incprof_suite::serve::session::lock;
use incprof_suite::serve::{Registry, ReportMode};
use std::time::Instant;

const FULL_REPORT: &str = include_str!("golden/full_report.json");

/// Three functions, three planted phases of three 1-second intervals
/// each: `setup`, then `solve`, then `io_flush`. Cumulative snapshot
/// `idx` of the stream.
fn snapshot(idx: u64) -> GmonData {
    let mut table = FunctionTable::new();
    let ids = ["setup", "solve", "io_flush"].map(|name| table.register(name));
    let mut flat = FlatProfile::new();
    for (phase, &id) in ids.iter().enumerate() {
        // Intervals 3·phase+1 ..= 3·phase+3 belong to `phase`.
        let start = 3 * phase as u64;
        let secs = idx.saturating_sub(start).min(3);
        flat.set(
            id,
            FunctionStats {
                self_time: secs * 1_000_000_000,
                calls: secs * (phase as u64 + 2),
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

/// `snapshot(idx)` with the measured arcs the pinned session carries:
/// `main` calls `setup` and `solve`, `solve` and `halo` recurse into
/// each other, and `io_flush` is in no arc. `main` and `halo` are in
/// the table but never in the flat profile.
fn with_arcs(idx: u64) -> GmonData {
    let mut gmon = snapshot(idx);
    let [setup, solve] = ["setup", "solve"].map(|name| gmon.functions.id_of(name).expect("id"));
    let [main, halo] = ["main", "halo"].map(|name| gmon.functions.register(name));
    for (caller, callee) in [(main, setup), (main, solve), (solve, halo), (halo, solve)] {
        gmon.callgraph.record_arcs(caller, callee, idx + 1);
    }
    gmon
}

fn full_report(snapshots: u64) -> String {
    let registry = Registry::new(OnlineConfig::default(), 4, 2, true);
    let (_, session) = registry.open().expect("open");
    let mut session = lock(&session);
    for idx in 0..snapshots {
        session
            .enqueue(with_arcs(idx), Instant::now())
            .expect("enqueue");
        session.drain().expect("drain");
    }
    session.report_json(&PhaseDetector::default(), ReportMode::Full)
}

#[test]
fn full_report_matches_golden() {
    assert_eq!(
        full_report(10),
        FULL_REPORT.trim_end(),
        "the Full report drifted from tests/golden/full_report.json \
         (docs/PROTOCOL.md quotes that file)"
    );
}

#[test]
fn unanalysable_full_reports_are_pinned() {
    assert_eq!(full_report(0), EMPTY);
    assert_eq!(full_report(1), ONE_SNAPSHOT);
}

const EMPTY: &str = r#"{"session_id":1,"snapshots":0,"online":{"phases":0,"assignments":[],"transitions":[],"phase_sizes":[],"capped":[]},"source_context":[],"analysis":null}"#;

const ONE_SNAPSHOT: &str = r#"{"session_id":1,"snapshots":1,"online":{"phases":1,"assignments":[0],"transitions":[],"phase_sizes":[1],"capped":[]},"source_context":[],"analysis":{"analysis_error":"analysis failed: no functions observed in any interval"}}"#;

#[test]
fn faulted_full_report_is_pinned() {
    let registry = Registry::new(OnlineConfig::default(), 4, 2, true);
    let (_, session) = registry.open().expect("open");
    let mut session = lock(&session);
    for idx in 0..3 {
        session
            .enqueue(snapshot(idx), Instant::now())
            .expect("enqueue");
        session.drain().expect("drain");
    }
    // Cumulative self time goes down: the delta fails and the tail faults.
    let mut regressed = snapshot(3);
    regressed.flat = FlatProfile::new();
    session.enqueue(regressed, Instant::now()).expect("enqueue");
    assert!(session.drain().is_err());
    assert_eq!(
        session.report_json(&PhaseDetector::default(), ReportMode::Full),
        FAULTED
    );
}

const FAULTED: &str = r#"{"session_id":1,"snapshots":3,"online":{"phases":2,"assignments":[0,1,1],"transitions":[1],"phase_sizes":[1,2],"capped":[]},"fault":"non-monotonic cumulative profile: function id 0 counter presence decreased","source_context":[{"phase":0,"functions":[{"id":0,"name":"setup","callers":[],"depth":null,"cycle":null}]},{"phase":1,"functions":[]}],"analysis":{"k":2,"assignments":[1,0,0],"phases":[{"id":0,"intervals":[1,2],"sites":[{"function":0,"inst_type":"Body","hb_id":1,"covered_intervals":[1,2],"phase_pct":100,"app_pct":66.66666666666667}]},{"id":1,"intervals":[0],"sites":[]}],"wcss_sweep":[0.6666666666666667,0,0],"silhouette_sweep":[]}}"#;

#[test]
fn source_context_is_pinned() {
    let mut series = SampleSeries::new();
    for idx in 0..10 {
        series.append_monotonic(with_arcs(idx)).expect("monotonic");
    }
    let analysis = PhaseDetector::default()
        .detect_series(&series)
        .expect("detect");
    let last = with_arcs(9);
    assert_eq!(
        source_context_json(&analysis, |f| last.functions.name(f), &last.callgraph),
        SOURCE_CONTEXT
    );
}

const SOURCE_CONTEXT: &str = r#"[{"phase":0,"functions":[{"id":0,"name":"setup","callers":["main"],"depth":1,"cycle":null}]},{"phase":1,"functions":[{"id":2,"name":"io_flush","callers":[],"depth":null,"cycle":null}]},{"phase":2,"functions":[{"id":1,"name":"solve","callers":["halo","main"],"depth":1,"cycle":0}]}]"#;

#[test]
fn run_report_jsonl_is_pinned() {
    let clock = VirtualClock::new();
    let obs = Obs::with_spans(SpanStore::new(TimeSource::Virtual(clock.clone())));
    obs.metrics().counter("pin.events").add(3);
    obs.metrics().counter("pin.\"quoted\"").inc();
    obs.metrics().gauge("pin.depth").set(7);
    obs.metrics().histogram("pin.latency_ns").record(250);
    obs.metrics().histogram("pin.latency_ns").record(1250);
    {
        let _outer = obs.span("pin.outer");
        clock.advance(10);
        {
            let _inner = obs.span("pin.inner");
            clock.advance(5);
        }
    }
    obs.recorder().record(EventKind::DrainStep, 4, 2);
    clock.advance(3);
    obs.recorder().record(EventKind::BusyReply, 1, 0);
    assert_eq!(RunReport::capture(&obs).to_jsonl(), JSONL);
}

const JSONL: &str = r#"{"kind":"counter","name":"pin.\"quoted\"","value":1}
{"kind":"counter","name":"pin.events","value":3}
{"kind":"gauge","name":"pin.depth","value":7}
{"kind":"histogram","name":"pin.latency_ns","count":2,"sum":1500,"min":250,"max":1250}
{"kind":"span","name":"pin.outer","depth":0,"start_ns":0,"dur_ns":15}
{"kind":"span","name":"pin.inner","depth":1,"start_ns":10,"dur_ns":5}
{"kind":"event","event":"DrainStep","seq":0,"t_ns":15,"a":4,"b":2}
{"kind":"event","event":"BusyReply","seq":1,"t_ns":18,"a":1,"b":0}
"#;

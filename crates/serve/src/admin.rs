//! The read-only admin surface.
//!
//! A daemon started with [`crate::ServeConfig::admin`] set binds a
//! second listener that speaks the same IPRF/1 frame codec but answers
//! only the four read-only request types:
//!
//! | request                      | reply payload                                  |
//! |------------------------------|------------------------------------------------|
//! | [`FrameType::Scrape`]        | Prometheus-style text exposition               |
//! | [`FrameType::TraceGet`]      | JSON [`incprof_obs::TraceTree`] for a trace id |
//! | [`FrameType::RecorderDump`]  | JSON flight-recorder tail                      |
//! | [`FrameType::Health`]        | one-line JSON liveness document                |
//!
//! Write-shaped traffic (snapshots, session control, shutdown) is
//! rejected with [`ErrorCode::BadType`]; symmetrically the data socket
//! rejects admin requests. Keeping the planes on separate sockets means
//! the admin port can be firewalled (or bound to a Unix socket with
//! tighter permissions) independently of ingest, and a misbehaving
//! scraper can never occupy an ingest worker.
//!
//! The exposition maps every registered metric name (dots become
//! underscores, `incprof_` prefixed) plus per-session gauges labelled
//! `{session="<id>"}` from [`Registry::stats`]. `incprof top` renders
//! the same text client-side.

use crate::frame::{ErrorCode, Frame, FrameType};
use crate::plane::{error_reply, Reply};
use crate::server::Shared;
use crate::session::Registry;
use incprof_obs::{JsonWriter, Raw};
use std::time::Instant;

/// Answer one admin frame on the daemon's admin plane.
pub(crate) fn dispatch_admin(shared: &Shared, frame: Frame) -> Reply {
    incprof_obs::counter(incprof_obs::names::SERVE_ADMIN_REQUESTS).inc();
    Reply::Send(match frame.frame_type {
        FrameType::Scrape => {
            incprof_obs::counter(incprof_obs::names::SERVE_ADMIN_SCRAPES).inc();
            let text = render_exposition(&shared.registry, Instant::now());
            Frame::with_payload(FrameType::ScrapeReply, 0, text.into_bytes())
        }
        FrameType::Health => {
            let json = health_json(shared.registry.active(), shared.stop.requested());
            Frame::with_payload(FrameType::HealthReply, 0, json.into_bytes())
        }
        _ => answer_local(&frame, "the read-only admin socket"),
    })
}

/// The `Health` document. `degraded` (the router's `merged_health`
/// vocabulary) once durability has been lost anywhere in this process: a
/// log append or a checkpoint write has failed since start-up.
fn health_json(sessions: usize, draining: bool) -> String {
    let lost = [
        incprof_obs::names::STORE_APPEND_ERRORS,
        incprof_obs::names::STORE_CHECKPOINT_WRITE_ERRORS,
    ]
    .iter()
    .any(|name| incprof_obs::counter(name).get() != 0);
    JsonWriter::object(|w| {
        w.field("status", if lost { "degraded" } else { "ok" })
            .field("sessions", sessions)
            .field("draining", draining)
    })
}

/// Answer the admin requests that read only this process's own
/// observability state — `TraceGet` and `RecorderDump` — and reject
/// every other type as not served on `socket`. Shared by the daemon's
/// and the shard router's admin planes.
pub fn answer_local(frame: &Frame, socket: &str) -> Frame {
    match frame.frame_type {
        FrameType::TraceGet => {
            let Ok(bytes) = <[u8; 8]>::try_from(frame.payload.as_slice()) else {
                return error_reply(
                    0,
                    ErrorCode::BadPayload,
                    &format!(
                        "TraceGet payload must be 8 bytes, got {}",
                        frame.payload.len()
                    ),
                );
            };
            let trace_id = u64::from_le_bytes(bytes);
            let tree =
                incprof_obs::trace::store_trace_tree(incprof_obs::global().spans(), trace_id);
            let json = serde_json::to_string(&tree).unwrap_or_else(|e| {
                JsonWriter::object(|w| w.field("error", format!("serialize failed: {e}")))
            });
            Frame::with_payload(FrameType::TraceReply, 0, json.into_bytes())
        }
        FrameType::RecorderDump => {
            let recorder = incprof_obs::recorder();
            let events = recorder.snapshot();
            let events = serde_json::to_string(&events).unwrap_or_else(|_| "[]".to_string());
            let json = JsonWriter::object(|w| {
                w.field("total", recorder.total())
                    .field("events", Raw(&events))
            });
            Frame::with_payload(FrameType::RecorderReply, 0, json.into_bytes())
        }
        other => error_reply(
            frame.session_id,
            ErrorCode::BadType,
            &format!("{other:?} is not served on {socket}"),
        ),
    }
}

/// `serve.frames.received` → `incprof_serve_frames_received`.
fn prom_name(name: &str) -> String {
    format!("incprof_{}", name.replace('.', "_"))
}

/// Render the global metrics registry's counters, gauges and histograms
/// whose dotted name passes `keep`, as Prometheus-style text exposition.
/// Deterministic ordering: the metric maps iterate sorted (BTreeMap).
pub fn render_metrics(out: &mut String, keep: impl Fn(&str) -> bool) {
    let metrics = incprof_obs::global().metrics();
    for (name, value) in metrics.counter_values() {
        if keep(&name) {
            let n = prom_name(&name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
        }
    }
    for (name, value) in metrics.gauge_values() {
        if keep(&name) {
            let n = prom_name(&name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
        }
    }
    for (name, h) in metrics.histogram_snapshots() {
        if keep(&name) {
            let n = prom_name(&name);
            out.push_str(&format!(
                "# TYPE {n} summary\n{n}_count {}\n{n}_sum {}\n",
                h.count, h.sum
            ));
            out.push_str(&format!(
                "# TYPE {n}_min gauge\n{n}_min {}\n# TYPE {n}_max gauge\n{n}_max {}\n",
                h.min, h.max
            ));
        }
    }
}

/// Render the whole global metrics registry plus per-session vitals as
/// Prometheus-style text exposition; sessions come back in id order.
pub(crate) fn render_exposition(registry: &Registry, now: Instant) -> String {
    incprof_obs::gauge(incprof_obs::names::SERVE_TRACE_SPANS_DROPPED)
        .set(incprof_obs::global().spans().dropped());
    let mut out = String::with_capacity(4096);
    render_metrics(&mut out, |_| true);
    let stats = registry.stats(now);
    type StatGetter = fn(&crate::session::SessionStats) -> u64;
    let gauges: &[(&str, StatGetter)] = &[
        ("incprof_session_snapshots", |s| s.snapshots),
        ("incprof_session_pending", |s| s.pending),
        ("incprof_session_phases", |s| s.phases),
        ("incprof_session_cache_hits", |s| s.cache_hits),
        ("incprof_session_cache_misses", |s| s.cache_misses),
        ("incprof_session_faulted", |s| s.faulted as u64),
    ];
    for (name, get) in gauges {
        out.push_str(&format!("# TYPE {name} gauge\n"));
        for s in &stats {
            out.push_str(&format!("{name}{{session=\"{}\"}} {}\n", s.id, get(s)));
        }
    }
    out.push_str("# TYPE incprof_session_idle_seconds gauge\n");
    for s in &stats {
        if let Some(idle_ns) = s.idle_ns {
            out.push_str(&format!(
                "incprof_session_idle_seconds{{session=\"{}\"}} {}\n",
                s.id,
                idle_ns as f64 / 1e9
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use incprof_core::online::OnlineConfig;
    use incprof_profile::{FlatProfile, FunctionStats, FunctionTable, GmonData};

    fn gmon(idx: u64) -> GmonData {
        let mut table = FunctionTable::new();
        let id = table.register("f");
        let mut flat = FlatProfile::new();
        flat.set(
            id,
            FunctionStats {
                self_time: (idx + 1) * 100,
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

    /// Every exposition line must be a comment or `name[{labels}] value`.
    fn assert_valid_exposition(text: &str) {
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "bad comment: {line}");
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').expect("name value split");
            assert!(value.parse::<f64>().is_ok(), "bad value in: {line}");
            let name = name_part.split('{').next().unwrap_or(name_part);
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name in: {line}"
            );
            assert!(name.starts_with("incprof_"), "unprefixed name: {line}");
        }
    }

    #[test]
    fn prom_name_mangles_dots() {
        assert_eq!(
            prom_name(incprof_obs::names::SERVE_FRAMES_IN),
            "incprof_serve_frames_received"
        );
    }

    #[test]
    fn exposition_is_well_formed_and_has_session_gauges() {
        // Touch a counter so the global registry is non-empty even when
        // this test runs alone.
        incprof_obs::counter(incprof_obs::names::SERVE_ADMIN_SCRAPES).inc();
        let registry = Registry::new(OnlineConfig::default(), 4, 4, true);
        let (id, s) = registry.open().unwrap();
        {
            let mut s = crate::session::lock(&s);
            s.enqueue(gmon(0), Instant::now()).unwrap();
            s.drain().unwrap();
        }
        let text = render_exposition(&registry, Instant::now());
        assert_valid_exposition(&text);
        assert!(
            text.contains(&format!("incprof_session_snapshots{{session=\"{id}\"}} 1")),
            "{text}"
        );
        assert!(
            text.contains("# TYPE incprof_session_pending gauge"),
            "{text}"
        );
        assert!(
            text.contains(&format!("incprof_session_idle_seconds{{session=\"{id}\"}}")),
            "{text}"
        );
        assert!(
            text.contains("# TYPE incprof_serve_trace_spans_dropped gauge\nincprof_serve_trace_spans_dropped "),
            "{text}"
        );
    }
}

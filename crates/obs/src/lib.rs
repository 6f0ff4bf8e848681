//! # incprof-obs — self-observability for the IncProf stack
//!
//! A zero-new-dependency observability layer shared by every IncProf
//! crate:
//!
//! * [`metrics`] — lock-free [`Counter`]s, [`Gauge`]s, and fixed-bucket
//!   latency [`Histogram`]s in a named [`MetricsRegistry`];
//! * [`mod@span`] — RAII [`SpanGuard`]s recording nested stage durations
//!   against wall or virtual time;
//! * [`mod@trace`] — wire-propagated [`TraceContext`]s linking spans
//!   across process boundaries into one tree per trace id;
//! * [`mod@recorder`] — the [`FlightRecorder`], a lock-free ring of
//!   recent operational events for live postmortems;
//! * [`json`] — [`JsonWriter`], the one compact JSON writer (and
//!   string escaper) every hand-built document in the workspace goes
//!   through;
//! * [`logger`] — leveled stderr logging gated by `INCPROF_LOG`
//!   (macros [`error!`], [`warn!`], [`info!`], [`debug!`], [`trace!`]);
//! * [`mod@report`] — a serializable [`RunReport`] snapshotting everything
//!   above, for `incprof --metrics <path>` and the bench harness;
//! * [`names`] — the workspace-wide registry of metric/span name
//!   constants. Production call sites must use these constants rather
//!   than string literals (enforced by `incprof-lint` rule O01).
//!
//! Metric names follow `<crate>.<subsystem>.<name>`, e.g.
//! `collect.snapshot.latency_ns` or `cluster.kmeans.iterations.k3`.
//!
//! ## Entry points
//!
//! Library code records into the process-wide instance via the
//! free functions:
//!
//! ```
//! incprof_obs::counter("demo.events.total").inc();
//! incprof_obs::histogram("demo.step.latency_ns").record(1250);
//! {
//!     let _stage = incprof_obs::span("demo.stage.outer");
//!     // ... work ...
//! }
//! let report = incprof_obs::report();
//! assert_eq!(report.counters["demo.events.total"], 1);
//! ```
//!
//! Tests that need isolation or deterministic time construct their own
//! [`Obs`] over a [`VirtualClock`] instead of using the global.

pub mod json;
pub mod logger;
pub mod metrics;
pub mod names;
pub mod recorder;
pub mod report;
pub mod span;
pub mod trace;

pub use json::{JsonWriter, Raw};
pub use logger::Level;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry};
pub use recorder::{EventKind, EventRecord, FlightRecorder};
pub use report::{RunReport, SpanNode};
pub use span::{SpanGuard, SpanStore, TimeSource, VirtualClock};
pub use trace::{TraceContext, TraceIdGen, TraceNode, TraceTree};

use std::sync::Arc;
use std::sync::OnceLock;

/// One observability context: a metrics registry plus a span store.
///
/// Cheap to clone; clones share state. Most code uses the process-wide
/// instance through [`global`] / the root free functions, but an `Obs`
/// can be built locally (typically over a [`VirtualClock`]) for
/// deterministic tests.
#[derive(Debug, Clone)]
pub struct Obs {
    metrics: Arc<MetricsRegistry>,
    spans: SpanStore,
    recorder: Arc<FlightRecorder>,
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::with_spans(SpanStore::new(TimeSource::wall()))
    }
}

impl Obs {
    /// New context over wall time.
    pub fn new() -> Obs {
        Obs::default()
    }

    /// New context recording spans into `spans` (e.g. a store over a
    /// [`VirtualClock`]). The flight recorder shares the store's time
    /// source, so virtual-time tests get virtual-time events.
    pub fn with_spans(spans: SpanStore) -> Obs {
        let recorder = Arc::new(FlightRecorder::new(spans.time().clone()));
        Obs {
            metrics: Arc::new(MetricsRegistry::new()),
            spans,
            recorder,
        }
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The span store.
    pub fn spans(&self) -> &SpanStore {
        &self.spans
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// Open a span on this context (closes when the guard drops).
    pub fn span(&self, name: impl Into<std::borrow::Cow<'static, str>>) -> SpanGuard {
        self.spans.enter(name)
    }

    /// Snapshot everything recorded so far into a [`RunReport`].
    pub fn report(&self) -> RunReport {
        RunReport::capture(self)
    }
}

static GLOBAL: OnceLock<Obs> = OnceLock::new();

/// The process-wide observability context (created on first use, lives
/// for the process lifetime).
pub fn global() -> &'static Obs {
    GLOBAL.get_or_init(Obs::new)
}

/// The global counter named `name` (see [`MetricsRegistry::counter`]).
pub fn counter(name: &str) -> Arc<Counter> {
    global().metrics().counter(name)
}

/// The global gauge named `name` (see [`MetricsRegistry::gauge`]).
pub fn gauge(name: &str) -> Arc<Gauge> {
    global().metrics().gauge(name)
}

/// The global histogram named `name` (see [`MetricsRegistry::histogram`]).
pub fn histogram(name: &str) -> Arc<Histogram> {
    global().metrics().histogram(name)
}

/// Open a span on the global context.
pub fn span(name: impl Into<std::borrow::Cow<'static, str>>) -> SpanGuard {
    global().span(name)
}

/// The global flight recorder (see [`FlightRecorder`]).
pub fn recorder() -> &'static FlightRecorder {
    global().recorder()
}

/// Snapshot the global context into a [`RunReport`].
pub fn report() -> RunReport {
    global().report()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_free_functions_share_one_context() {
        counter("lib.test.events").add(2);
        counter("lib.test.events").inc();
        assert_eq!(global().metrics().counter("lib.test.events").get(), 3);
        let r = report();
        assert_eq!(r.counters["lib.test.events"], 3);
    }

    #[test]
    fn local_obs_is_isolated_from_global() {
        let local = Obs::new();
        local.metrics().counter("lib.test.isolated").add(7);
        assert_eq!(global().metrics().counter("lib.test.isolated").get(), 0);
        assert_eq!(local.metrics().counter("lib.test.isolated").get(), 7);
    }
}

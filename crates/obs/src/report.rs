//! The serializable run report: one document capturing everything the
//! observability layer saw — counters, gauges, histograms, and the span
//! tree — for `incprof --metrics <path>` and the bench harness.

use crate::json::json_string;
use crate::metrics::HistogramSnapshot;
use crate::recorder::EventRecord;
use crate::span::SpanRecord;
use crate::Obs;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Report format version (bump on breaking shape changes).
/// Version 2 added the flight-recorder `events` fields.
pub const REPORT_VERSION: u32 = 2;

/// One span in the reconstructed stage tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanNode {
    /// Dotted stage name.
    pub name: String,
    /// Start reading of the span store's time source.
    pub start_ns: u64,
    /// Wall (or virtual) duration.
    pub dur_ns: u64,
    /// Child spans in start order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Sum of the direct children's durations.
    pub fn children_dur_ns(&self) -> u64 {
        self.children.iter().map(|c| c.dur_ns).sum()
    }

    /// Depth-first search for the first node named `name` (self
    /// included).
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// A full observability snapshot of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Format version ([`REPORT_VERSION`]).
    pub version: u32,
    /// Counter name → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram name → snapshot.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Root spans with their subtrees, in start order.
    pub spans: Vec<SpanNode>,
    /// Spans lost to the store's capacity bound.
    pub spans_dropped: u64,
    /// Flight-recorder tail: the most recent operational events.
    pub events: Vec<EventRecord>,
    /// Events ever recorded (including ones the ring overwrote).
    pub events_total: u64,
}

impl RunReport {
    /// Snapshot everything `obs` has recorded.
    pub fn capture(obs: &Obs) -> RunReport {
        RunReport {
            version: REPORT_VERSION,
            counters: obs.metrics().counter_values(),
            gauges: obs.metrics().gauge_values(),
            histograms: obs.metrics().histogram_snapshots(),
            spans: build_tree(&obs.spans().records()),
            spans_dropped: obs.spans().dropped(),
            events: obs.recorder().snapshot(),
            events_total: obs.recorder().total(),
        }
    }

    /// Pretty-printed JSON document.
    pub fn to_json(&self) -> String {
        // lint: allow(P01, RunReport is a closed tree of strings and integers; serialization is infallible)
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }

    /// Parse a report back from JSON.
    pub fn from_json(text: &str) -> Result<RunReport, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// One JSON object per line: every counter, gauge, and histogram as
    /// its own record, spans flattened depth-first with their depth —
    /// the grep-friendly alternative to [`RunReport::to_json`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!(
                "{{\"kind\":\"counter\",\"name\":{},\"value\":{value}}}\n",
                json_string(name)
            ));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!(
                "{{\"kind\":\"gauge\",\"name\":{},\"value\":{value}}}\n",
                json_string(name)
            ));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "{{\"kind\":\"histogram\",\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}\n",
                json_string(name),
                h.count,
                h.sum,
                h.min,
                h.max
            ));
        }
        fn walk(nodes: &[SpanNode], depth: u64, out: &mut String) {
            for n in nodes {
                out.push_str(&format!(
                    "{{\"kind\":\"span\",\"name\":{},\"depth\":{depth},\"start_ns\":{},\"dur_ns\":{}}}\n",
                    json_string(&n.name),
                    n.start_ns,
                    n.dur_ns
                ));
                walk(&n.children, depth + 1, out);
            }
        }
        walk(&self.spans, 0, &mut out);
        for e in &self.events {
            out.push_str(&format!(
                "{{\"kind\":\"event\",\"event\":{},\"seq\":{},\"t_ns\":{},\"a\":{},\"b\":{}}}\n",
                json_string(&format!("{:?}", e.kind)),
                e.seq,
                e.t_ns,
                e.a,
                e.b
            ));
        }
        out
    }

    /// Write the JSON document to `path` (`.jsonl` extension selects the
    /// line-oriented format).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let text = if path.extension().is_some_and(|e| e == "jsonl") {
            self.to_jsonl()
        } else {
            self.to_json()
        };
        std::fs::write(path, text)
    }

    /// Depth-first search across all root spans.
    pub fn find_span(&self, name: &str) -> Option<&SpanNode> {
        self.spans.iter().find_map(|s| s.find(name))
    }
}

/// Reconstruct the span forest from flat records (records arrive in
/// enter order; children therefore follow their parents).
fn build_tree(records: &[SpanRecord]) -> Vec<SpanNode> {
    // Span ids are allocated densely but the store can drop records
    // (capacity, concurrent clear), so ids are mapped to positions
    // rather than used as indices; a child whose parent record is gone
    // is promoted to a root instead of being lost.
    let pos: std::collections::HashMap<usize, usize> =
        records.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); records.len()];
    let mut roots = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        match rec.parent.and_then(|p| pos.get(&p)) {
            Some(&p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    fn assemble(idx: usize, records: &[SpanRecord], children: &[Vec<usize>]) -> SpanNode {
        SpanNode {
            name: records[idx].name.clone().into_owned(),
            start_ns: records[idx].start_ns,
            dur_ns: records[idx].dur_ns,
            children: children[idx]
                .iter()
                .map(|&c| assemble(c, records, children))
                .collect(),
        }
    }
    roots
        .into_iter()
        .map(|r| assemble(r, records, &children))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanStore, TimeSource, VirtualClock};

    fn virtual_obs() -> (Obs, VirtualClock) {
        let clock = VirtualClock::new();
        let obs = Obs::with_spans(SpanStore::new(TimeSource::Virtual(clock.clone())));
        (obs, clock)
    }

    #[test]
    fn capture_builds_span_tree() {
        let (obs, clock) = virtual_obs();
        obs.metrics().counter("a.b.events").add(3);
        {
            let _outer = obs.span("outer");
            clock.advance(10);
            {
                let _inner = obs.span("inner");
                clock.advance(5);
            }
        }
        let report = RunReport::capture(&obs);
        assert_eq!(report.counters["a.b.events"], 3);
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].name, "outer");
        assert_eq!(report.spans[0].children[0].name, "inner");
        assert_eq!(report.spans[0].dur_ns, 15);
        assert_eq!(report.spans[0].children_dur_ns(), 5);
        assert_eq!(report.find_span("inner").unwrap().dur_ns, 5);
    }

    #[test]
    fn capture_includes_flight_recorder_events() {
        let (obs, clock) = virtual_obs();
        obs.recorder().record(crate::EventKind::BusyReply, 4, 0);
        clock.advance(9);
        obs.recorder().record(crate::EventKind::DrainStep, 4, 2);
        let report = RunReport::capture(&obs);
        assert_eq!(report.version, REPORT_VERSION);
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events_total, 2);
        assert_eq!(report.events[1].kind, crate::EventKind::DrainStep);
        assert_eq!(report.events[1].t_ns, 9);
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        let jsonl = report.to_jsonl();
        assert!(jsonl.contains("\"kind\":\"event\""));
        assert!(jsonl.contains("\"event\":\"DrainStep\""));
    }

    #[test]
    fn jsonl_has_one_record_per_line() {
        let (obs, clock) = virtual_obs();
        obs.metrics().counter("c").inc();
        obs.metrics().gauge("g").set(2);
        obs.metrics().histogram("h").record(7);
        {
            let _s = obs.span("root");
            clock.advance(1);
        }
        let jsonl = RunReport::capture(&obs).to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(lines[3].contains("\"kind\":\"span\""));
    }
}

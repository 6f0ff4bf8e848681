//! The harness-owned span recorder of the traced run.
//!
//! Spans wrap the harness's own calls into layer functions; nothing in
//! the product crates is touched. Each operation (app run, analysis,
//! push, query, rehydration) is a root span, its children carry the
//! layer they call into. A disabled recorder reads no clock and stores
//! nothing, so the untraced run pays one branch per would-be span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle of an open span; 0 is "no span" (recorder disabled, or the
/// parent of a root).
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    /// The operation the span belongs to (shared by a root and its descendants).
    pub op: &'static str,
    /// The layer (workspace crate) called into; `"op"` for a root.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's spans. Threads record privately and are merged with
/// [`Recorder::absorb`] after they join.
#[derive(Debug)]
pub struct Recorder {
    epoch: Option<Instant>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder {
            epoch: None,
            spans: Vec::new(),
        }
    }

    /// A recording recorder; all recorders of a run share `epoch`.
    pub fn on(epoch: Instant) -> Recorder {
        Recorder {
            epoch: Some(epoch),
            spans: Vec::new(),
        }
    }

    /// A recorder of the same kind (and epoch) for another thread.
    pub fn sibling(&self) -> Recorder {
        Recorder {
            epoch: self.epoch,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.epoch.is_some()
    }

    fn now_ns(epoch: Instant) -> u64 {
        epoch.elapsed().as_nanos() as u64
    }

    /// Open a root span for operation `op`.
    pub fn root(&mut self, op: &'static str) -> SpanId {
        self.begin(0, op, "op", op)
    }

    /// Open a child of `parent` calling into `layer`.
    pub fn child(&mut self, parent: SpanId, layer: &'static str, name: &'static str) -> SpanId {
        if parent == 0 {
            return 0;
        }
        let op = self.spans[parent as usize - 1].op;
        self.begin(parent, op, layer, name)
    }

    fn begin(
        &mut self,
        parent: SpanId,
        op: &'static str,
        layer: &'static str,
        name: &'static str,
    ) -> SpanId {
        let Some(epoch) = self.epoch else {
            return 0;
        };
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            op,
            layer,
            name,
            start_ns: Self::now_ns(epoch),
            end_ns: 0,
        });
        id
    }

    /// Close a span opened by [`Recorder::root`] or [`Recorder::child`].
    pub fn end(&mut self, id: SpanId) {
        if let (Some(epoch), true) = (self.epoch, id != 0) {
            self.spans[id as usize - 1].end_ns = Self::now_ns(epoch);
        }
    }

    /// Time `f` as a child span of `parent`.
    pub fn within<T>(
        &mut self,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.child(parent, layer, name);
        let out = f();
        self.end(id);
        out
    }

    /// Take over another thread's spans, renumbering them past ours.
    pub fn absorb(&mut self, other: Recorder) {
        let shift = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += shift;
            if s.parent != 0 {
                s.parent += shift;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines (`id, parent, op, layer, name,
    /// start_ns, end_ns`).
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":\"{}\",\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Where one operation's time went.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct OpSummary {
    /// Root spans seen.
    pub count: u64,
    /// Σ root span durations.
    pub total_ns: u64,
    /// Σ self time (span minus its direct children) per layer.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Root time not covered by any child span.
    pub unaccounted_ns: u64,
}

impl OpSummary {
    /// Share of the operation's time no layer span accounts for.
    pub fn unaccounted_share(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        self.unaccounted_ns as f64 / self.total_ns as f64
    }
}

/// Per-operation, per-layer self time over a merged span list.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, OpSummary> {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            children_ns[s.parent as usize - 1] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, OpSummary> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children_ns) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let self_ns = dur.saturating_sub(kids);
        let op = out.entry(s.op).or_default();
        if s.parent == 0 {
            op.count += 1;
            op.total_ns += dur;
            op.unaccounted_ns += self_ns;
        } else {
            *op.self_ns.entry(s.layer).or_default() += self_ns;
        }
    }
    out
}

/// Σ duration and count of the spans called `name`.
pub fn total_of(spans: &[Span], name: &str) -> (u64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(ns, n), s| {
            (ns + s.end_ns.saturating_sub(s.start_ns), n + 1)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: SpanId,
        parent: SpanId,
        layer: &'static str,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            op: "push",
            layer,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        // push [0,100): encode [0,10), round trip [10,90) with a nested
        // decode [80,90); 10 ns of the root is covered by no child.
        let spans = vec![
            span(1, 0, "op", "push", 0, 100),
            span(2, 1, "profile", "gmon_encode", 0, 10),
            span(3, 1, "serve", "round_trip", 10, 90),
            span(4, 3, "store", "ack_decode", 80, 90),
        ];
        let sum = summarize(&spans);
        let push = &sum["push"];
        assert_eq!(push.count, 1);
        assert_eq!(push.total_ns, 100);
        assert_eq!(push.self_ns["profile"], 10);
        assert_eq!(push.self_ns["serve"], 70);
        assert_eq!(push.self_ns["store"], 10);
        assert_eq!(push.unaccounted_ns, 10);
        assert!((push.unaccounted_share() - 0.1).abs() < 1e-12);
        let layers: u64 = push.self_ns.values().sum();
        assert_eq!(layers + push.unaccounted_ns, push.total_ns);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut r = Recorder::off();
        let op = r.root("push");
        let got = r.within(op, "serve", "round_trip", || 7);
        r.end(op);
        assert_eq!((op, got), (0, 7));
        assert!(r.spans().is_empty());
    }

    #[test]
    fn absorb_renumbers_ids_and_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::on(epoch);
        let op = a.root("push");
        a.end(op);
        let mut b = a.sibling();
        let op = b.root("query");
        b.within(op, "serve", "round_trip", || ());
        b.end(op);
        a.absorb(b);
        let ids: Vec<(SpanId, SpanId)> = a.spans().iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(1, 0), (2, 0), (3, 2)]);
        assert_eq!(a.spans()[2].op, "query");
        assert_eq!(total_of(a.spans(), "round_trip").1, 1);
    }
}

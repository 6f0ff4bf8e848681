//! The concurrent session registry.
//!
//! One [`Session`] is one logical profiled application run: the server
//! accumulates its cumulative snapshot series exactly as the offline
//! pipeline would read it from disk, feeds each interval delta through
//! the incremental [`OnlinePhaseDetector`] as frames arrive, and
//! answers report queries by running the *same* offline
//! [`PhaseDetector`] over the accumulated series — which is what makes
//! the streamed result byte-identical to the batch pipeline.
//!
//! Ingest is explicitly bounded: every session owns a fixed-capacity
//! pending queue, and a frame that would overflow it gets a `BUSY`
//! reply instead of being buffered. (The daemon enqueues and drains
//! under one lock hold, so its sessions never hold more than the frame
//! in hand; only a caller that enqueues without draining can fill the
//! queue.) Snapshots must arrive in sample-index order; anything else
//! is a typed protocol error, never a panic.

use crate::frame::{ErrorCode, ErrorInfo};
use incprof_collect::SampleSeries;
use incprof_core::online::{OnlineConfig, OnlineObservation, OnlinePhaseDetector};
use incprof_core::{source_context_json, AnalysisCache, PhaseDetector, SourceGraph};
use incprof_obs::json_string;
use incprof_profile::{FlatProfile, FunctionTable, GmonData, ProfileError, ProfileSnapshot};
use incprof_store::{LogReplay, SessionStore, Store};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Lock a mutex, continuing through poisoning: registry, plane and
/// router state is plain data and every mutation is small and
/// panic-free, so a poisoned lock only means a *peer* thread died
/// mid-request.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Result of offering a snapshot to a session's ingest queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueue {
    /// The snapshot was queued.
    Accepted,
    /// The bounded queue is full; the client must retry later.
    Busy,
    /// The snapshot is a retransmission of the most recently acked
    /// sample (a client or router retrying after a lost reply): the
    /// caller should answer with [`Session::last_ack`] instead of
    /// ingesting it again.
    Duplicate,
}

/// One processed snapshot: its sample index plus the online detector's
/// observation for the interval it completed.
#[derive(Debug, Clone, Copy)]
pub struct IngestAck {
    /// Sample index of the snapshot.
    pub sample_index: u64,
    /// The incremental detector's verdict.
    pub observation: OnlineObservation,
}

/// What a report query should return.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportMode {
    /// Session metadata + online timeline + offline analysis.
    Full,
    /// Exactly the offline `PhaseAnalysis` JSON, nothing wrapped around
    /// it — the payload the determinism bridge compares bitwise.
    AnalysisOnly,
}

/// A pending, not-yet-detected snapshot.
struct Pending {
    gmon: GmonData,
    enqueued_at: Instant,
}

/// One logical profiled run streaming into the server.
pub struct Session {
    id: u64,
    series: SampleSeries,
    prev_flat: FlatProfile,
    table: FunctionTable,
    online: OnlinePhaseDetector,
    pending: VecDeque<Pending>,
    max_pending: usize,
    /// A snapshot whose delta failed (regressing counters) poisons the
    /// tail of the stream; the prefix stays queryable.
    fault: Option<String>,
    /// Incremental analysis state, reused across report queries. `None`
    /// only in a registry built without the cache — the recompute-per-query
    /// reference the byte-identity tests compare against.
    cache: Option<AnalysisCache>,
    /// When the session last saw a frame (`None` until the first one).
    /// Stamped from caller-provided instants so this module stays free
    /// of direct clock reads.
    last_activity: Option<Instant>,
    /// The ack produced for the most recently drained snapshot. Kept so
    /// an at-least-once retransmission (client reconnect, router
    /// failover) of that snapshot can be answered with the identical
    /// ack instead of an `OutOfOrder` error. Rebuilt deterministically
    /// on rehydration because replay runs the same detector over the
    /// same log.
    last_ack: Option<IngestAck>,
    /// The next expected `sample_index`. Tracked explicitly rather than
    /// derived from `series.len()` because tiered retention can trim old
    /// snapshots out of the series without resetting the stream's index
    /// space.
    next_index: u64,
    /// Durable backing for this session's snapshot log and checkpoint.
    /// `None` when the daemon runs memory-only, or after an append error
    /// dropped persistence for this session (the stream continues in
    /// memory; the divergent log must not accept further records).
    persist: Option<SessionStore>,
    /// Set when the registry evicts this object to disk while a worker
    /// still holds its `Arc`: the worker must re-fetch (and rehydrate)
    /// instead of mutating a session the registry no longer owns.
    evicted: bool,
    /// The workspace's static call graph (from `incprof-lint`'s source
    /// analysis), joined against phases in Full reports. Empty when the
    /// daemon starts without one — reports then carry empty contexts.
    source_graph: Arc<SourceGraph>,
}

/// One session's vitals, snapshotted for the admin scrape and
/// `incprof top`.
#[derive(Debug, Clone, Copy)]
pub struct SessionStats {
    /// Session id.
    pub id: u64,
    /// Snapshots fully ingested.
    pub snapshots: u64,
    /// Frames waiting in the pending queue.
    pub pending: u64,
    /// Phases the online detector has discovered so far.
    pub phases: u64,
    /// Analysis-cache memo hits (0 when the cache is disabled).
    pub cache_hits: u64,
    /// Analysis-cache memo misses (0 when the cache is disabled).
    pub cache_misses: u64,
    /// Whether a bad delta has faulted the stream's tail.
    pub faulted: bool,
    /// Nanoseconds since the last frame (`None` before any activity).
    pub idle_ns: Option<u64>,
}

impl Session {
    fn new(
        id: u64,
        online: OnlineConfig,
        max_pending: usize,
        analysis_cache: bool,
        source_graph: Arc<SourceGraph>,
    ) -> Session {
        Session {
            id,
            series: SampleSeries::new(),
            prev_flat: FlatProfile::new(),
            table: FunctionTable::new(),
            online: OnlinePhaseDetector::new(online),
            pending: VecDeque::new(),
            max_pending,
            fault: None,
            cache: analysis_cache.then(AnalysisCache::new),
            last_activity: None,
            last_ack: None,
            next_index: 0,
            persist: None,
            evicted: false,
            source_graph,
        }
    }

    /// Turn one snapshot into session state: its delta against the
    /// previous cumulative profile goes through the online detector,
    /// then `prev_flat`, `table`, `next_index`, the series and
    /// `last_ack` advance. Live ingest ([`Session::drain_traced`]) and
    /// log replay ([`Session::rehydrate`]) both come through here and
    /// nothing else writes those fields, which is what makes a replayed
    /// session's ack bitwise the one its previous owner sent. A delta
    /// error leaves the session untouched.
    fn apply(&mut self, gmon: &GmonData, traced: bool) -> Result<IngestAck, ProfileError> {
        let interval = gmon.flat.delta(&self.prev_flat)?;
        let observation = {
            let _obs_span =
                traced.then(|| incprof_obs::span(incprof_obs::names::SERVE_TRACE_OBSERVE));
            self.online.observe(&interval)
        };
        self.prev_flat = gmon.flat.clone();
        self.table = gmon.functions.clone();
        self.next_index = gmon.sample_index + 1;
        self.series
            .append_monotonic(ProfileSnapshot::from_gmon(gmon))
            // lint: allow(P01, enqueue rejects any index at or below next_index-1 and SnapshotLog::open validated the same of a replayed log, so applied indices strictly increase; a regression is log-layer corruption and must abort loudly)
            .expect("applied sample indices strictly increase");
        let ack = IngestAck {
            sample_index: gmon.sample_index,
            observation,
        };
        self.last_ack = Some(ack);
        Ok(ack)
    }

    /// Rebuild this (blank) session from its durable state: replay every
    /// retained snapshot through [`Session::apply`] (exactly the drain
    /// path, so the rebuilt timeline and final ack match the live ones),
    /// then adopt the analysis checkpoint *iff* it provably covers a
    /// prefix of the rebuilt series — otherwise the checkpoint is
    /// discarded and the first query recomputes cold, which yields the
    /// same bytes.
    fn rehydrate(
        mut self,
        store: SessionStore,
        replay: LogReplay,
        checkpoint: Option<Vec<u8>>,
    ) -> Session {
        for gmon in &replay.snapshots {
            // The log only ever holds snapshots that delta'd cleanly
            // when appended, so an error means on-disk corruption past
            // the frame CRC; keep the good prefix and fault the tail, as
            // live ingest would.
            if let Err(e) = self.apply(gmon, false) {
                self.fault = Some(format!("log replay: {e}"));
                break;
            }
        }
        if let (Some(blob), Some(slot)) = (checkpoint, self.cache.as_mut()) {
            match AnalysisCache::decode_state(&blob) {
                Some(cache) if checkpoint_covers(&cache, &self.series) => *slot = cache,
                _ => {
                    incprof_obs::counter(incprof_obs::names::STORE_CHECKPOINTS_REJECTED).inc();
                    incprof_obs::warn!(
                        "session {}: discarding analysis checkpoint (stale or undecodable); first query replays cold",
                        self.id
                    );
                }
            }
        }
        self.persist = Some(store);
        self
    }

    /// The session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Snapshots fully ingested (excludes queued ones).
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when nothing has been ingested or queued.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty() && self.pending.is_empty()
    }

    /// Offer a decoded snapshot. Enforces sample-index ordering and the
    /// queue bound; never grows memory past `max_pending` frames.
    pub fn enqueue(&mut self, gmon: GmonData, enqueued_at: Instant) -> Result<Enqueue, ErrorInfo> {
        if let Some(why) = &self.fault {
            return Err(ErrorInfo::new(
                ErrorCode::BadPayload,
                format!("session {} is faulted: {why}", self.id),
            ));
        }
        let expected = self.next_index + self.pending.len() as u64;
        if gmon.sample_index != expected {
            // At-least-once delivery: a client whose connection died
            // between our ack and its read retransmits the same
            // snapshot. Recognize exactly the most recently acked index
            // (nothing queued behind it) and let the caller replay the
            // remembered ack instead of erroring the stream.
            if self.pending.is_empty()
                && self
                    .last_ack
                    .is_some_and(|a| a.sample_index == gmon.sample_index)
            {
                self.last_activity = Some(enqueued_at);
                return Ok(Enqueue::Duplicate);
            }
            return Err(ErrorInfo::new(
                ErrorCode::OutOfOrder,
                format!(
                    "expected sample index {expected}, got {}",
                    gmon.sample_index
                ),
            ));
        }
        if self.pending.len() >= self.max_pending {
            return Ok(Enqueue::Busy);
        }
        self.last_activity = Some(enqueued_at);
        self.pending.push_back(Pending { gmon, enqueued_at });
        Ok(Enqueue::Accepted)
    }

    /// The ack produced for the most recently drained snapshot, if any.
    /// This is what answers an [`Enqueue::Duplicate`] retransmission.
    pub fn last_ack(&self) -> Option<IngestAck> {
        self.last_ack
    }

    /// Record non-ingest activity (e.g. a report query) at `now`, for
    /// the idle-age gauge.
    pub fn touch(&mut self, now: Instant) {
        self.last_activity = Some(now);
    }

    /// Drain the pending queue through the incremental detector,
    /// returning one ack per processed snapshot. Records the
    /// ingest-to-detect latency of every drained frame.
    pub fn drain(&mut self) -> Result<Vec<IngestAck>, ErrorInfo> {
        self.drain_traced(false)
    }

    /// [`Session::drain`], optionally wrapping each detector step in a
    /// trace-inherited span. `traced` is only true while the worker
    /// holds a traced root span open, so untraced ingest records no
    /// spans at all.
    pub fn drain_traced(&mut self, traced: bool) -> Result<Vec<IngestAck>, ErrorInfo> {
        // lint: allow(A01, one ack buffer per drain, sized by the bounded pending queue; acks are returned to the caller so the buffer cannot be reused)
        let mut acks = Vec::with_capacity(self.pending.len());
        while let Some(p) = self.pending.pop_front() {
            let sample_index = p.gmon.sample_index;
            let ack = match self.apply(&p.gmon, traced) {
                Ok(ack) => ack,
                Err(e) => {
                    let why = e.to_string();
                    // Poison the tail: later snapshots would delta
                    // against state the stream no longer has.
                    self.pending.clear();
                    self.fault = Some(why.clone());
                    incprof_obs::recorder().record(
                        incprof_obs::EventKind::SessionFault,
                        self.id,
                        sample_index,
                    );
                    return Err(ErrorInfo::new(
                        ErrorCode::BadPayload,
                        format!("snapshot {sample_index}: {why}"),
                    ));
                }
            };
            self.persist_snapshot(sample_index, &p.gmon);
            incprof_obs::histogram(incprof_obs::names::SERVE_INGEST_DETECT_LATENCY_NS)
                .record(p.enqueued_at.elapsed().as_nanos() as u64);
            acks.push(ack);
        }
        if !acks.is_empty() {
            incprof_obs::recorder().record(
                incprof_obs::EventKind::DrainStep,
                self.id,
                acks.len() as u64,
            );
        }
        Ok(acks)
    }

    /// Snapshot this session's vitals; ages are measured against `now`.
    pub fn stats(&self, now: Instant) -> SessionStats {
        let (cache_hits, cache_misses) = self.cache.as_ref().map(|c| c.stats()).unwrap_or((0, 0));
        SessionStats {
            id: self.id,
            snapshots: self.series.len() as u64,
            pending: self.pending.len() as u64,
            phases: self.online.n_phases() as u64,
            cache_hits,
            cache_misses,
            faulted: self.fault.is_some(),
            idle_ns: self
                .last_activity
                .map(|t| now.saturating_duration_since(t).as_nanos() as u64),
        }
    }

    /// Render the session's phase report. Drains any queued snapshots
    /// first so the report reflects everything acknowledged so far.
    pub fn report_json(&mut self, detector: &PhaseDetector, mode: ReportMode) -> String {
        // A drain failure leaves the fault recorded; report the prefix.
        let _ = self.drain();
        let (analysis_json, source_context) = if self.series.is_empty() {
            ("null".to_string(), "[]".to_string())
        } else {
            // The cache path returns byte-identical analyses (pinned by
            // tests/cache_determinism.rs) while doing O(new data) work
            // per query instead of O(n²) for the whole series.
            let analysis = match self.cache.as_mut() {
                Some(cache) => cache.analyze(detector, &self.series),
                None => detector.detect_series(&self.series),
            };
            match analysis {
                Ok(analysis) => {
                    let context =
                        source_context_json(&analysis, |f| self.table.name(f), &self.source_graph);
                    let json = serde_json::to_string(&analysis)
                        .unwrap_or_else(|e| json_error_object("serialize failed", &e.to_string()));
                    (json, context)
                }
                Err(e) => (
                    json_error_object("analysis failed", &e.to_string()),
                    "[]".to_string(),
                ),
            }
        };
        match mode {
            ReportMode::AnalysisOnly => analysis_json,
            ReportMode::Full => {
                let mut out = String::with_capacity(analysis_json.len() + 256);
                out.push_str(&format!(
                    "{{\"session_id\":{},\"snapshots\":{},",
                    self.id,
                    self.series.len()
                ));
                out.push_str(&format!(
                    "\"online\":{{\"phases\":{},\"assignments\":{},\"transitions\":{},\"phase_sizes\":{},\"capped\":{}}},",
                    self.online.n_phases(),
                    json_usize_array(self.online.assignments()),
                    json_usize_array(self.online.transitions()),
                    json_usize_array(self.online.phase_sizes()),
                    json_usize_array(self.online.capped_intervals()),
                ));
                if let Some(why) = &self.fault {
                    out.push_str(&format!("\"fault\":{},", json_string(why)));
                }
                out.push_str(&format!("\"source_context\":{source_context},"));
                out.push_str(&format!("\"analysis\":{analysis_json}}}"));
                out
            }
        }
    }

    /// The latest function table streamed into the session.
    pub fn table(&self) -> &FunctionTable {
        &self.table
    }

    /// The accumulated cumulative series (mainly for tests).
    pub fn series(&self) -> &SampleSeries {
        &self.series
    }

    /// Whether the registry evicted this object while a worker still
    /// held its `Arc`. A true value means: drop this handle and re-fetch
    /// from the registry, which rehydrates the durable state.
    pub fn is_evicted(&self) -> bool {
        self.evicted
    }

    /// True when nothing is waiting in the ingest queue (an eviction
    /// precondition: queued frames exist only in memory).
    pub(crate) fn pending_is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Whether this session still has healthy durable backing.
    pub(crate) fn persist_healthy(&self) -> bool {
        self.persist.is_some()
    }

    /// Append one drained snapshot to the durable log, mirroring any
    /// retention drops onto the in-memory series so a later rehydration
    /// (which only sees retained records) rebuilds exactly this state.
    /// An I/O error drops persistence for the session — the divergent
    /// log must not accept further records — but ingest continues in
    /// memory.
    fn persist_snapshot(&mut self, sample_index: u64, gmon: &GmonData) {
        let Some(store) = self.persist.as_mut() else {
            return;
        };
        match store.append_snapshot(sample_index, &gmon.encode()) {
            Ok(outcome) => {
                if !outcome.dropped.is_empty() {
                    self.series.remove_sample_indices(&outcome.dropped);
                }
            }
            Err(e) => {
                incprof_obs::counter(incprof_obs::names::STORE_APPEND_ERRORS).inc();
                incprof_obs::warn!(
                    "session {}: snapshot log append failed ({e}); continuing memory-only",
                    self.id
                );
                self.persist = None;
            }
        }
    }

    /// Write an analysis checkpoint if the append cadence says one is
    /// due. Called after drains and queries; cheap no-op otherwise.
    pub fn maybe_checkpoint(&mut self) {
        if self.checkpoint_due() {
            self.force_checkpoint();
        }
    }

    /// Whether [`Session::maybe_checkpoint`] would write one now.
    pub fn checkpoint_due(&self) -> bool {
        self.persist.as_ref().is_some_and(|p| p.checkpoint_due())
    }

    /// Write an analysis checkpoint now (eviction / graceful shutdown).
    /// Checkpoints are advisory, so a write failure only warns: the
    /// snapshot log remains the source of truth.
    pub fn force_checkpoint(&mut self) {
        let (Some(store), Some(cache)) = (self.persist.as_mut(), self.cache.as_ref()) else {
            return;
        };
        if let Err(e) = store.write_checkpoint(cache.encode_state()) {
            incprof_obs::warn!("session {}: checkpoint write failed: {e}", self.id);
        }
    }

    /// Mark this object as evicted and release its durable handles so
    /// the rehydrated successor owns the log exclusively.
    fn evict(&mut self) {
        self.evicted = true;
        self.persist = None;
    }
}

/// Whether a decoded checkpoint provably covers a prefix of `series`.
///
/// The cached deltas span positions `0..covered_len()`; the snapshot at
/// the frontier must match the checkpoint's recorded identity. Because
/// sample indices are strictly increasing and order-preserving, any
/// retention trim inside the covered prefix after the checkpoint was
/// written shifts a *different* snapshot into the frontier position, so
/// this single comparison detects every misalignment.
fn checkpoint_covers(cache: &AnalysisCache, series: &SampleSeries) -> bool {
    match cache.covered_len() {
        0 => true,
        c => series
            .snapshots()
            .get(c - 1)
            .is_some_and(|s| cache.covered() == Some((s.sample_index, s.timestamp_ns))),
    }
}

fn json_usize_array(values: &[usize]) -> String {
    let mut out = String::with_capacity(values.len() * 3 + 2);
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
    out
}

fn json_error_object(what: &str, detail: &str) -> String {
    format!(
        "{{\"analysis_error\":{}}}",
        json_string(&format!("{what}: {detail}"))
    )
}

/// Shared, concurrency-safe session table.
pub struct Registry {
    inner: Mutex<Inner>,
    online: OnlineConfig,
    max_sessions: usize,
    max_pending: usize,
    analysis_cache: bool,
    /// Durable session storage; `None` runs memory-only (the pre-store
    /// behavior, and still the default).
    store: Option<Store>,
    /// Evict idle sessions to disk once more than this many are live
    /// (0 = never evict). Only meaningful with a store.
    max_live: usize,
    /// Static call graph handed to every session for Full-report
    /// source-context joins. Empty unless [`Registry::with_source_graph`]
    /// installed one at startup.
    source_graph: Arc<SourceGraph>,
}

struct Inner {
    sessions: BTreeMap<u64, Arc<Mutex<Session>>>,
    next_id: u64,
}

impl Registry {
    /// New registry with the given limits. `analysis_cache` gives every
    /// session an incremental [`AnalysisCache`] for report queries, as
    /// the daemon always does; `false` recomputes per query and exists
    /// as the reference for the cached/uncached byte-identity tests.
    pub fn new(
        online: OnlineConfig,
        max_sessions: usize,
        max_pending: usize,
        analysis_cache: bool,
    ) -> Registry {
        Registry {
            inner: Mutex::new(Inner {
                sessions: BTreeMap::new(),
                next_id: 1,
            }),
            online,
            max_sessions,
            max_pending,
            analysis_cache,
            store: None,
            max_live: 0,
            source_graph: Arc::new(SourceGraph::default()),
        }
    }

    /// Install the workspace's static call graph (built once at daemon
    /// startup from `incprof-lint`'s source analysis). Every session —
    /// new, recovered, or rehydrated — joins it against detected phases
    /// in Full reports' `source_context` section.
    pub fn with_source_graph(mut self, graph: SourceGraph) -> Registry {
        self.source_graph = Arc::new(graph);
        self
    }

    /// Attach durable session storage: every new session gets an
    /// append-only snapshot log under the store's root, closed-but-not-
    /// deleted sessions rehydrate transparently on their next frame, and
    /// (when `max_live > 0`) idle sessions are evicted to disk once more
    /// than `max_live` are live.
    pub fn with_store(mut self, store: Store, max_live: usize) -> Registry {
        self.store = Some(store);
        self.max_live = max_live;
        self
    }

    /// Scan the store for sessions persisted by a previous run and move
    /// the id allocator past them, so new opens never collide with a
    /// recoverable log. Sessions stay on disk until their first touch
    /// (lazy rehydration). Returns the recovered ids.
    pub fn recover(&self) -> Vec<u64> {
        let Some(store) = &self.store else {
            return Vec::new();
        };
        let ids = match store.scan() {
            Ok(ids) => ids,
            Err(e) => {
                incprof_obs::warn!("store scan failed during recovery: {e}");
                return Vec::new();
            }
        };
        if let Some(&max) = ids.iter().max() {
            let mut inner = lock(&self.inner);
            inner.next_id = inner.next_id.max(max + 1);
        }
        ids
    }

    /// An empty, unpublished session object under `id`.
    fn blank(&self, id: u64) -> Session {
        Session::new(
            id,
            self.online.clone(),
            self.max_pending,
            self.analysis_cache,
            Arc::clone(&self.source_graph),
        )
    }

    /// A fresh session under `id` with its snapshot log created in the
    /// store — memory-only, with a warning, when the store refuses.
    fn fresh(&self, id: u64) -> Arc<Mutex<Session>> {
        let mut session = self.blank(id);
        if let Some(store) = &self.store {
            match store.create_session(id) {
                Ok(persist) => session.persist = Some(persist),
                Err(e) => {
                    incprof_obs::counter(incprof_obs::names::STORE_APPEND_ERRORS).inc();
                    incprof_obs::warn!(
                        "session {id}: could not create snapshot log ({e}); memory-only"
                    );
                }
            }
        }
        Arc::new(Mutex::new(session))
    }

    /// Open a new session, enforcing the session cap.
    pub fn open(&self) -> Result<(u64, Arc<Mutex<Session>>), ErrorInfo> {
        let mut inner = lock(&self.inner);
        if inner.sessions.len() >= self.max_sessions {
            return Err(ErrorInfo::new(
                ErrorCode::SessionLimit,
                format!("session table full ({} sessions)", self.max_sessions),
            ));
        }
        let id = inner.next_id;
        inner.next_id += 1;
        let session = self.fresh(id);
        inner.sessions.insert(id, Arc::clone(&session));
        incprof_obs::counter(incprof_obs::names::SERVE_SESSIONS_OPENED).inc();
        incprof_obs::gauge(incprof_obs::names::SERVE_SESSIONS_ACTIVE)
            .set(inner.sessions.len() as u64);
        Ok((id, session))
    }

    /// Open (or adopt) a session under a caller-chosen id. This is the
    /// router handoff path: a shard router allocates cluster-wide ids
    /// and every backend must accept "open session N" idempotently —
    /// if `id` is already live the existing session is returned, if its
    /// durable state exists in the shared store it is rehydrated, and
    /// otherwise a fresh session is created under exactly that id. The
    /// local allocator always advances past `id` so plain opens never
    /// collide with adopted ones.
    pub fn open_with_id(&self, id: u64) -> Result<Arc<Mutex<Session>>, ErrorInfo> {
        if id == 0 {
            return Err(ErrorInfo::new(
                ErrorCode::BadPayload,
                "session id 0 is reserved for allocation".to_string(),
            ));
        }
        {
            let mut inner = lock(&self.inner);
            inner.next_id = inner.next_id.max(id + 1);
            if let Some(s) = inner.sessions.get(&id) {
                return Ok(Arc::clone(s));
            }
            if inner.sessions.len() >= self.max_sessions {
                return Err(ErrorInfo::new(
                    ErrorCode::SessionLimit,
                    format!("session table full ({} sessions)", self.max_sessions),
                ));
            }
        }
        // A failover re-open finds the previous owner's log in the
        // shared store and replays it (outside the registry lock).
        if self.store.as_ref().is_some_and(|s| s.has_session(id)) {
            if let Some(s) = self.get(id) {
                return Ok(s);
            }
        }
        let session = self.fresh(id);
        let mut inner = lock(&self.inner);
        if let Some(existing) = inner.sessions.get(&id) {
            // Another connection adopted the id first; its instance wins.
            return Ok(Arc::clone(existing));
        }
        inner.sessions.insert(id, Arc::clone(&session));
        incprof_obs::counter(incprof_obs::names::SERVE_SESSIONS_OPENED).inc();
        incprof_obs::gauge(incprof_obs::names::SERVE_SESSIONS_ACTIVE)
            .set(inner.sessions.len() as u64);
        Ok(session)
    }

    /// Look up a session: live ones come straight from the table, and
    /// evicted or recovered ones are rehydrated from the store
    /// transparently.
    pub fn get(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        if let Some(s) = lock(&self.inner).sessions.get(&id).map(Arc::clone) {
            return Some(s);
        }
        self.rehydrate(id)
    }

    /// Load a session from its on-disk log (and checkpoint, if valid)
    /// and publish it in the table. Disk I/O and replay run outside the
    /// registry lock; if another thread won the race to publish the same
    /// id, its instance wins and ours is discarded.
    fn rehydrate(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        let store = self.store.as_ref()?;
        let (persist, replay, checkpoint) = match store.open_session(id) {
            Ok(found) => found?,
            Err(e) => {
                incprof_obs::warn!("session {id}: rehydration failed ({e})");
                return None;
            }
        };
        let rebuilt = self.blank(id).rehydrate(persist, replay, checkpoint);
        let session = Arc::new(Mutex::new(rebuilt));
        let mut inner = lock(&self.inner);
        if let Some(existing) = inner.sessions.get(&id) {
            return Some(Arc::clone(existing));
        }
        // Rehydration may transiently exceed `max_sessions`; the cap
        // guards new opens, and eviction (when enabled) restores the
        // live bound on the next sweep.
        inner.sessions.insert(id, Arc::clone(&session));
        incprof_obs::gauge(incprof_obs::names::SERVE_SESSIONS_ACTIVE)
            .set(inner.sessions.len() as u64);
        Some(session)
    }

    /// Remove a session, returning it for a final drain. With a store
    /// attached this is a *destructive* close: the session's durable
    /// state is deleted too (its persistence handle is dropped first, so
    /// the final drain stays memory-only).
    pub fn close(&self, id: u64) -> Option<Arc<Mutex<Session>>> {
        let removed = {
            let mut inner = lock(&self.inner);
            let removed = inner.sessions.remove(&id);
            if removed.is_some() {
                incprof_obs::counter(incprof_obs::names::SERVE_SESSIONS_CLOSED).inc();
                incprof_obs::gauge(incprof_obs::names::SERVE_SESSIONS_ACTIVE)
                    .set(inner.sessions.len() as u64);
            }
            removed
        };
        if let Some(s) = &removed {
            lock(s).persist = None;
            if let Some(store) = &self.store {
                if let Err(e) = store.remove_session(id) {
                    incprof_obs::warn!("session {id}: could not delete session dir: {e}");
                }
            }
        }
        removed
    }

    /// Delete a session that exists only on disk (not live). Returns
    /// whether anything was removed. The live path goes through
    /// [`Registry::close`].
    pub fn purge(&self, id: u64) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        if lock(&self.inner).sessions.contains_key(&id) {
            return false;
        }
        match store.remove_session(id) {
            Ok(removed) => {
                if removed {
                    incprof_obs::counter(incprof_obs::names::SERVE_SESSIONS_CLOSED).inc();
                }
                removed
            }
            Err(e) => {
                incprof_obs::warn!("session {id}: could not delete session dir: {e}");
                false
            }
        }
    }

    /// Evict the most idle live sessions to disk until at most
    /// `max_live` remain. Only quiescent sessions qualify: the session
    /// lock must be free, the pending queue empty, and durable backing
    /// healthy (evicting an unpersisted session would lose data). Each
    /// eviction writes a final checkpoint, marks the object evicted (a
    /// worker still holding its `Arc` re-fetches and rehydrates), and
    /// drops it from the table. Returns how many sessions were evicted.
    pub fn maybe_evict(&self, now: Instant) -> usize {
        if self.store.is_none() || self.max_live == 0 {
            return 0;
        }
        let candidates: Vec<(u64, Arc<Mutex<Session>>)> = {
            let inner = lock(&self.inner);
            if inner.sessions.len() <= self.max_live {
                return 0;
            }
            inner
                .sessions
                .iter()
                .map(|(&id, s)| (id, Arc::clone(s)))
                .collect()
        };
        let excess = candidates.len() - self.max_live;
        // Rank by idleness without blocking on busy sessions.
        let mut idle: Vec<(u64, u64)> = Vec::new();
        for (id, s) in &candidates {
            if let Ok(sess) = s.try_lock() {
                if sess.pending_is_empty() && sess.persist_healthy() && !sess.is_evicted() {
                    idle.push((sess.stats(now).idle_ns.unwrap_or(u64::MAX), *id));
                }
            }
        }
        idle.sort_unstable_by_key(|&(idle_ns, _)| std::cmp::Reverse(idle_ns));
        let mut evicted = 0;
        for &(_, id) in idle.iter().take(excess) {
            let Some(s) = lock(&self.inner).sessions.get(&id).map(Arc::clone) else {
                continue;
            };
            // Re-check quiescence under the lock; skip if a worker got in.
            let Ok(mut sess) = s.try_lock() else { continue };
            if !sess.pending_is_empty() || !sess.persist_healthy() {
                continue;
            }
            sess.force_checkpoint();
            sess.evict();
            drop(sess);
            let mut inner = lock(&self.inner);
            inner.sessions.remove(&id);
            incprof_obs::gauge(incprof_obs::names::SERVE_SESSIONS_ACTIVE)
                .set(inner.sessions.len() as u64);
            incprof_obs::counter(incprof_obs::names::STORE_EVICTIONS).inc();
            evicted += 1;
        }
        evicted
    }

    /// Number of live sessions.
    pub fn active(&self) -> usize {
        lock(&self.inner).sessions.len()
    }

    /// Snapshot every live session's vitals (admin scrape), in id
    /// order. Each session is locked briefly; the registry lock is not
    /// held while session locks are taken.
    pub fn stats(&self, now: Instant) -> Vec<SessionStats> {
        let sessions: Vec<Arc<Mutex<Session>>> = lock(&self.inner)
            .sessions
            .values()
            .map(Arc::clone)
            .collect();
        sessions.iter().map(|s| lock(s).stats(now)).collect()
    }

    /// Drain every session's pending queue (graceful shutdown), then
    /// write a final analysis checkpoint for each persisted session so
    /// the next run rehydrates warm.
    pub fn drain_all(&self) {
        let sessions: Vec<Arc<Mutex<Session>>> = lock(&self.inner)
            .sessions
            .values()
            .map(Arc::clone)
            .collect();
        for s in sessions {
            let mut s = lock(&s);
            let _ = s.drain();
            s.force_checkpoint();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incprof_profile::FunctionStats;

    fn gmon(idx: u64, self_ns: u64) -> GmonData {
        let mut table = FunctionTable::new();
        let id = table.register("f");
        let mut flat = FlatProfile::new();
        flat.set(
            id,
            FunctionStats {
                self_time: self_ns,
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

    fn registry() -> Registry {
        Registry::new(OnlineConfig::default(), 4, 2, true)
    }

    #[test]
    fn ordered_ingest_accumulates_and_acks() {
        let r = registry();
        let (id, s) = r.open().unwrap();
        let mut s = lock(&s);
        assert_eq!(
            s.enqueue(gmon(0, 10), Instant::now()),
            Ok(Enqueue::Accepted)
        );
        let acks = s.drain().unwrap();
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].sample_index, 0);
        assert_eq!(acks[0].observation.phase, 0);
        assert!(acks[0].observation.new_phase);
        assert_eq!(s.len(), 1);
        assert_eq!(s.id(), id);
    }

    #[test]
    fn out_of_order_is_typed_error_not_panic() {
        let r = registry();
        let (_, s) = r.open().unwrap();
        let mut s = lock(&s);
        let err = s.enqueue(gmon(3, 10), Instant::now()).unwrap_err();
        assert_eq!(err.code, ErrorCode::OutOfOrder);
        assert!(s.is_empty());
    }

    #[test]
    fn queue_bound_reports_busy() {
        let r = registry();
        let (_, s) = r.open().unwrap();
        let mut s = lock(&s);
        assert_eq!(
            s.enqueue(gmon(0, 10), Instant::now()),
            Ok(Enqueue::Accepted)
        );
        assert_eq!(
            s.enqueue(gmon(1, 20), Instant::now()),
            Ok(Enqueue::Accepted)
        );
        // max_pending = 2: the third offer must not buffer.
        assert_eq!(s.enqueue(gmon(2, 30), Instant::now()), Ok(Enqueue::Busy));
        s.drain().unwrap();
        assert_eq!(
            s.enqueue(gmon(2, 30), Instant::now()),
            Ok(Enqueue::Accepted)
        );
    }

    #[test]
    fn regressing_counters_fault_the_session() {
        let r = registry();
        let (_, s) = r.open().unwrap();
        let mut s = lock(&s);
        s.enqueue(gmon(0, 100), Instant::now()).unwrap();
        s.drain().unwrap();
        // Cumulative self-time goes *down*: delta must fail.
        s.enqueue(gmon(1, 50), Instant::now()).unwrap();
        let err = s.drain().unwrap_err();
        assert_eq!(err.code, ErrorCode::BadPayload);
        // The fault sticks; the ingested prefix remains reportable.
        let err = s.enqueue(gmon(2, 500), Instant::now()).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadPayload);
        let report = s.report_json(&PhaseDetector::default(), ReportMode::Full);
        assert!(report.contains("\"fault\":"), "{report}");
        assert!(report.contains("\"snapshots\":1"), "{report}");
    }

    #[test]
    fn retransmitted_last_snapshot_is_acked_as_duplicate() {
        let r = registry();
        let (_, s) = r.open().unwrap();
        let mut s = lock(&s);
        s.enqueue(gmon(0, 10), Instant::now()).unwrap();
        let acks = s.drain().unwrap();
        // The same snapshot again (lost-reply retransmission) is not an
        // error and does not re-ingest.
        assert_eq!(
            s.enqueue(gmon(0, 10), Instant::now()),
            Ok(Enqueue::Duplicate)
        );
        assert_eq!(s.len(), 1);
        assert_eq!(s.last_ack().unwrap().sample_index, acks[0].sample_index);
        // Anything older than the most recent ack is still a protocol
        // error.
        s.enqueue(gmon(1, 20), Instant::now()).unwrap();
        s.drain().unwrap();
        let err = s.enqueue(gmon(0, 10), Instant::now()).unwrap_err();
        assert_eq!(err.code, ErrorCode::OutOfOrder);
    }

    #[test]
    fn open_with_id_is_idempotent_and_advances_allocator() {
        let r = registry();
        let s = r.open_with_id(7).unwrap();
        {
            let mut s = lock(&s);
            s.enqueue(gmon(0, 10), Instant::now()).unwrap();
            s.drain().unwrap();
        }
        // Adopting a live id returns the existing session, data intact.
        let again = r.open_with_id(7).unwrap();
        assert_eq!(lock(&again).len(), 1);
        // Plain opens never reissue an adopted id.
        let (next, _) = r.open().unwrap();
        assert!(next > 7, "allocator must advance past adopted id 7");
        // Id 0 is the allocation sentinel and cannot be adopted.
        assert!(r.open_with_id(0).is_err());
    }

    #[test]
    fn session_cap_is_enforced() {
        let r = registry();
        let mut held = Vec::new();
        for _ in 0..4 {
            held.push(r.open().unwrap());
        }
        let err = match r.open() {
            Ok(_) => panic!("cap should reject a fifth session"),
            Err(e) => e,
        };
        assert_eq!(err.code, ErrorCode::SessionLimit);
        // Closing frees a slot.
        r.close(held[0].0);
        assert!(r.open().is_ok());
    }

    #[test]
    fn close_removes_and_active_tracks() {
        let r = registry();
        let (a, _) = r.open().unwrap();
        let (b, _) = r.open().unwrap();
        assert_eq!(r.active(), 2);
        assert!(r.close(a).is_some());
        assert!(r.close(a).is_none(), "double close is a no-op");
        assert_eq!(r.active(), 1);
        assert!(r.get(a).is_none());
        assert!(r.get(b).is_some());
    }

    #[test]
    fn analysis_only_report_matches_offline_detector() {
        let r = registry();
        let (_, s) = r.open().unwrap();
        let mut s = lock(&s);
        for i in 0..6u64 {
            s.enqueue(gmon(i, (i + 1) * 1_000_000_000), Instant::now())
                .unwrap();
            s.drain().unwrap();
        }
        let detector = PhaseDetector::default();
        let offline = serde_json::to_string(&detector.detect_series(s.series()).unwrap()).unwrap();
        assert_eq!(s.report_json(&detector, ReportMode::AnalysisOnly), offline);
    }

    #[test]
    fn cached_and_uncached_reports_are_byte_identical() {
        let cached = registry();
        let uncached = Registry::new(OnlineConfig::default(), 4, 2, false);
        let (_, a) = cached.open().unwrap();
        let (_, b) = uncached.open().unwrap();
        let mut a = lock(&a);
        let mut b = lock(&b);
        let detector = PhaseDetector::default();
        for i in 0..6u64 {
            a.enqueue(gmon(i, (i + 1) * 1_000_000_000), Instant::now())
                .unwrap();
            b.enqueue(gmon(i, (i + 1) * 1_000_000_000), Instant::now())
                .unwrap();
            // Query after every push, and twice at the end, so the memo
            // path is exercised too.
            assert_eq!(
                a.report_json(&detector, ReportMode::AnalysisOnly),
                b.report_json(&detector, ReportMode::AnalysisOnly),
                "push {i}"
            );
        }
        assert_eq!(
            a.report_json(&detector, ReportMode::Full),
            b.report_json(&detector, ReportMode::Full)
        );
    }

    #[test]
    fn full_report_exposes_capped_intervals() {
        let r = registry();
        let (_, s) = r.open().unwrap();
        let mut s = lock(&s);
        s.enqueue(gmon(0, 1_000_000_000), Instant::now()).unwrap();
        s.drain().unwrap();
        let report = s.report_json(&PhaseDetector::default(), ReportMode::Full);
        assert!(report.contains("\"capped\":[]"), "{report}");
    }

    #[test]
    fn stats_track_queue_ingest_and_cache() {
        let r = registry();
        let (id, s) = r.open().unwrap();
        let mut s = lock(&s);
        let t0 = Instant::now();
        assert_eq!(s.stats(t0).idle_ns, None, "no activity yet");
        s.enqueue(gmon(0, 10), t0).unwrap();
        s.enqueue(gmon(1, 20), t0).unwrap();
        let st = s.stats(t0);
        assert_eq!((st.id, st.snapshots, st.pending), (id, 0, 2));
        assert_eq!(st.idle_ns, Some(0));
        s.drain().unwrap();
        s.report_json(&PhaseDetector::default(), ReportMode::AnalysisOnly);
        s.report_json(&PhaseDetector::default(), ReportMode::AnalysisOnly);
        let st = s.stats(t0);
        assert_eq!((st.snapshots, st.pending), (2, 0));
        assert_eq!(st.cache_misses, 1, "first query computes");
        assert_eq!(st.cache_hits, 1, "second query memo-hits");
        assert!(!st.faulted);
        drop(s);
        assert_eq!(r.stats(t0).len(), 1);
        assert_eq!(r.stats(t0)[0].id, id);
    }

    #[test]
    fn empty_session_reports_null_analysis() {
        let r = registry();
        let (_, s) = r.open().unwrap();
        let mut s = lock(&s);
        let detector = PhaseDetector::default();
        assert_eq!(s.report_json(&detector, ReportMode::AnalysisOnly), "null");
        let full = s.report_json(&detector, ReportMode::Full);
        assert!(full.contains("\"analysis\":null"), "{full}");
        assert!(full.contains("\"source_context\":[]"), "{full}");
    }

    #[test]
    fn full_report_joins_installed_source_graph() {
        let r = registry().with_source_graph(SourceGraph::new(vec![
            ("main".to_string(), "f".to_string(), true),
            ("main".to_string(), "other".to_string(), false),
        ]));
        let (_, s) = r.open().unwrap();
        let mut s = lock(&s);
        for i in 0..4 {
            s.enqueue(gmon(i, (i + 1) * 1_000_000_000), Instant::now())
                .unwrap();
            s.drain().unwrap();
        }
        let full = s.report_json(&PhaseDetector::default(), ReportMode::Full);
        // The streamed function "f" resolves against the static graph:
        // called by main, one confident arc deep, not on a cycle.
        assert!(
            full.contains("\"name\":\"f\",\"callers\":[\"main\"],\"depth\":1,\"cycle\":null"),
            "{full}"
        );
        // Without an installed graph the same session reports an empty
        // caller set for the same function.
        let bare = registry();
        let (_, s2) = bare.open().unwrap();
        let mut s2 = lock(&s2);
        for i in 0..4 {
            s2.enqueue(gmon(i, (i + 1) * 1_000_000_000), Instant::now())
                .unwrap();
            s2.drain().unwrap();
        }
        let plain = s2.report_json(&PhaseDetector::default(), ReportMode::Full);
        assert!(
            plain.contains("\"callers\":[],\"depth\":null,\"cycle\":null"),
            "{plain}"
        );
    }

    // --- durability ---

    use incprof_store::RetentionPolicy;

    fn durable(name: &str, policy: RetentionPolicy) -> (std::path::PathBuf, Store) {
        let root = std::env::temp_dir().join(format!("incprof_sess_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = Store::open(&root, policy, 4).unwrap();
        (root, store)
    }

    #[test]
    fn rehydrated_session_report_is_byte_identical() {
        let (root, store) = durable("rehydrate", RetentionPolicy::keep_all());
        let r = registry().with_store(store, 0);
        let (id, s) = r.open().unwrap();
        let detector = PhaseDetector::default();
        let baseline = {
            let mut s = lock(&s);
            for i in 0..6u64 {
                s.enqueue(gmon(i, (i + 1) * 1_000_000_000), Instant::now())
                    .unwrap();
                s.drain().unwrap();
            }
            s.report_json(&detector, ReportMode::Full)
        };
        drop(s);
        drop(r);
        // "Restart": a fresh registry over the same directory.
        let store = Store::open(&root, RetentionPolicy::keep_all(), 4).unwrap();
        let r2 = registry().with_store(store, 0);
        assert_eq!(r2.recover(), vec![id]);
        let s2 = r2.get(id).expect("recovered session is queryable");
        let mut s2 = lock(&s2);
        assert_eq!(s2.report_json(&detector, ReportMode::Full), baseline);
        drop(s2);
        // Recovered ids are not reissued to new sessions.
        let (next, _) = r2.open().unwrap();
        assert!(next > id, "next id {next} must advance past recovered {id}");
    }

    #[test]
    fn long_session_checkpoints_and_rehydrates_warm() {
        // 2048 snapshots: with the pairwise triangle in the blob this
        // state was 16.9 MB, over the 16 MiB frame cap, and could not be
        // checkpointed at all. `k_max: 2` keeps the cold fold short.
        const N: u64 = 2048;
        // Interval j takes 900 ms (even) or 40 ms (odd), plus j µs.
        let push = |s: &mut Session, i: u64| {
            let cumulative_ns =
                (900 * (i / 2 + 1) + 40 * i.div_ceil(2)) * 1_000_000 + i * (i + 1) / 2 * 1_000;
            s.enqueue(gmon(i, cumulative_ns), Instant::now()).unwrap();
            s.drain().unwrap();
        };
        let detector = PhaseDetector {
            clustering: incprof_core::ClusteringMethod::KMeans {
                k_max: 2,
                selection: Default::default(),
            },
            ..PhaseDetector::default()
        };
        let (root, store) = durable("long", RetentionPolicy::keep_all());
        let r = registry().with_store(store, 0);
        let (id, s) = r.open().unwrap();
        let baseline = {
            let mut s = lock(&s);
            for i in 0..N {
                push(&mut s, i);
            }
            let report = s.report_json(&detector, ReportMode::Full);
            s.force_checkpoint();
            report
        };
        assert!(root
            .join(id.to_string())
            .join(incprof_store::store::CHECKPOINT_FILE)
            .exists());
        drop(s);
        drop(r);

        let store = Store::open(&root, RetentionPolicy::keep_all(), 4).unwrap();
        let r2 = registry().with_store(store, 0);
        assert_eq!(r2.recover(), vec![id]);
        let s2 = r2.get(id).expect("recovered session is queryable");
        let mut s2 = lock(&s2);
        assert_eq!(s2.report_json(&detector, ReportMode::Full), baseline);
        // A rejected checkpoint leaves a fresh cache, whose first query
        // misses; a hit with no miss is the adopted blob's memo.
        let st = s2.stats(Instant::now());
        assert_eq!((st.cache_hits, st.cache_misses), (1, 0), "warm rehydrate");

        push(&mut s2, N);
        let cold = serde_json::to_string(&detector.detect_series(s2.series()).unwrap()).unwrap();
        assert_eq!(s2.report_json(&detector, ReportMode::AnalysisOnly), cold);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn evicted_sessions_rehydrate_transparently() {
        // (idle durable sessions, max_live): a pair over a cap of one,
        // then bounded residency at scale.
        for (sessions, max_live) in [(2usize, 1usize), (32, 4)] {
            let (_root, store) = durable(&format!("evict{sessions}"), RetentionPolicy::keep_all());
            let r = Registry::new(OnlineConfig::default(), sessions, 2, true)
                .with_store(store, max_live);
            let detector = PhaseDetector::default();
            let baselines: Vec<(u64, String)> = (0..sessions)
                .map(|n| {
                    let (id, session) = r.open().unwrap();
                    let mut s = lock(&session);
                    let snapshots = if n % 2 == 0 { 4u64 } else { 1 };
                    for i in 0..snapshots {
                        s.enqueue(gmon(i, (i + 1) * 1_000_000_000), Instant::now())
                            .unwrap();
                        s.drain().unwrap();
                    }
                    (id, s.report_json(&detector, ReportMode::Full))
                })
                .collect();
            assert_eq!(r.maybe_evict(Instant::now()), sessions - max_live);
            assert_eq!(r.active(), max_live);
            // Every session, evicted or not, comes back on demand,
            // byte-identical to its pre-eviction report.
            for (id, baseline) in &baselines {
                let s = r.get(*id).expect("session reachable after eviction");
                assert_eq!(&lock(&s).report_json(&detector, ReportMode::Full), baseline);
            }
        }
    }

    #[test]
    fn failover_adopt_replays_log_and_answers_duplicate() {
        let (root, store) = durable("handoff", RetentionPolicy::keep_all());
        let r = registry().with_store(store, 0);
        let s = r.open_with_id(42).unwrap();
        let last_ack = {
            let mut s = lock(&s);
            for i in 0..3u64 {
                s.enqueue(gmon(i, (i + 1) * 1_000_000_000), Instant::now())
                    .unwrap();
                s.drain().unwrap();
            }
            s.last_ack().unwrap()
        };
        drop(s);
        drop(r);
        // "Failover": a different backend over the same store adopts
        // the id and replays the previous owner's log.
        let store = Store::open(&root, RetentionPolicy::keep_all(), 4).unwrap();
        let r2 = registry().with_store(store, 0);
        let s2 = r2.open_with_id(42).unwrap();
        let mut s2 = lock(&s2);
        assert_eq!(s2.len(), 3, "log replayed on adopt");
        // The router's retransmission of the in-flight snapshot gets
        // the same ack the dead backend would have sent.
        assert_eq!(
            s2.enqueue(gmon(2, 3_000_000_000), Instant::now()),
            Ok(Enqueue::Duplicate)
        );
        let replayed = s2.last_ack().unwrap();
        assert_eq!(replayed.sample_index, last_ack.sample_index);
        assert_eq!(replayed.observation.phase, last_ack.observation.phase);
        assert_eq!(
            replayed.observation.new_phase,
            last_ack.observation.new_phase
        );
    }

    #[test]
    fn sessions_with_pending_work_are_not_evicted() {
        let (_root, store) = durable("quiesce", RetentionPolicy::keep_all());
        let r = registry().with_store(store, 1);
        let (_a, sa) = r.open().unwrap();
        let (_b, sb) = r.open().unwrap();
        lock(&sa).enqueue(gmon(0, 10), Instant::now()).unwrap();
        lock(&sb).enqueue(gmon(0, 10), Instant::now()).unwrap();
        // Both sessions hold undrained pushes: neither may evict.
        assert_eq!(r.maybe_evict(Instant::now()), 0);
        assert_eq!(r.active(), 2);
        lock(&sa).drain().unwrap();
        lock(&sb).drain().unwrap();
        assert_eq!(r.maybe_evict(Instant::now()), 1);
        assert_eq!(r.active(), 1);
    }

    #[test]
    fn close_deletes_durable_state_and_purge_handles_disk_only() {
        let (root, store) = durable("close", RetentionPolicy::keep_all());
        let r = registry().with_store(store.clone(), 0);
        let (a, sa) = r.open().unwrap();
        {
            let mut s = lock(&sa);
            s.enqueue(gmon(0, 10), Instant::now()).unwrap();
            s.drain().unwrap();
        }
        drop(sa);
        let (b, _sb) = r.open().unwrap();
        assert!(r.close(a).is_some());
        assert!(!store.has_session(a), "close deletes the session dir");
        assert!(r.get(a).is_none(), "closed sessions do not rehydrate");
        // Restart with session b still on disk: purge removes it without
        // ever rehydrating.
        drop(r);
        let store2 = Store::open(&root, RetentionPolicy::keep_all(), 4).unwrap();
        let r2 = registry().with_store(store2.clone(), 0);
        assert_eq!(r2.recover(), vec![b]);
        assert!(!r2.purge(999), "unknown ids purge to false");
        assert!(r2.purge(b));
        assert!(!store2.has_session(b));
        assert!(r2.get(b).is_none());
    }

    #[test]
    fn downsampling_retention_trims_live_series_in_lockstep_with_the_log() {
        let policy = RetentionPolicy::parse("hot=2,stride=4").unwrap();
        let (root, store) = durable("retention", policy);
        let r = registry().with_store(store, 0);
        let (id, s) = r.open().unwrap();
        let detector = PhaseDetector::default();
        let live = {
            let mut s = lock(&s);
            for i in 0..10u64 {
                s.enqueue(gmon(i, (i + 1) * 1_000_000_000), Instant::now())
                    .unwrap();
                s.drain().unwrap();
            }
            // The live series was trimmed in lockstep with the log:
            // stride multiples plus the hot tail survive.
            let kept: Vec<u64> = s
                .series()
                .snapshots()
                .iter()
                .map(|x| x.sample_index)
                .collect();
            assert_eq!(kept, vec![0, 4, 8, 9]);
            s.report_json(&detector, ReportMode::AnalysisOnly)
        };
        drop(s);
        drop(r);
        let store = Store::open(&root, policy, 4).unwrap();
        let r2 = registry().with_store(store, 0);
        assert_eq!(r2.recover(), vec![id]);
        let s2 = r2.get(id).unwrap();
        assert_eq!(
            lock(&s2).report_json(&detector, ReportMode::AnalysisOnly),
            live
        );
    }
}

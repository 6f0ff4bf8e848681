//! Incremental analysis cache for streamed series.
//!
//! `PhaseDetector::detect_series` is stateless: every call re-deltas the
//! whole cumulative series, rebuilds features, and refolds the full k
//! sweep from row one. A streaming consumer (the serve daemon answering
//! report queries between snapshot pushes) would therefore pay for the
//! whole session *per query* — exactly the repeated analysis the paper's
//! incremental design is meant to avoid.
//!
//! [`AnalysisCache`] removes the redundancy in three layers, each gated
//! on a check that preserves **bit-identical** output versus a cold
//! [`PhaseDetector::detect_series`] call. All three describe one prefix
//! of the series, the cache's *frontier*: its length and the identity
//! of its last snapshot, checked by [`AnalysisCache::covers`].
//!
//! 1. **Whole-report memoization.** The memoized [`PhaseAnalysis`] is
//!    the answer for exactly the frontier's prefix under the config
//!    fingerprint; a query with no new snapshot returns it in O(1).
//!    Moving the frontier clears it.
//! 2. **Incremental deltas.** Interval profiles are the per-snapshot
//!    deltas of a cumulative series; the cache keeps the deltas already
//!    computed and only subtracts each new snapshot from the one before
//!    it in the series. A decoded checkpoint holds no deltas — the
//!    snapshot log gives them back — so its first memo miss rebuilds
//!    them from the replayed series with the same loop.
//! 3. **Incremental k-means chains.** The clustering itself is a
//!    canonical per-row fold ([`incprof_cluster::incremental`]): cold
//!    runs fold from row one, warm runs resume the cached
//!    [`SweepChains`] — the same pure function of the prefix either way,
//!    so the bits match by construction. The fold runs on the raw
//!    feature rows (the paper's self-time tuples), a pure function of
//!    the cached intervals, which never change in place (a shrink, trim
//!    or config change resets them): an old row reappears bit for bit in
//!    every later analysis. Only its columns move, when a newly observed
//!    function inserts one; chains re-align to the new columns through
//!    [`FunctionId`]s (`centroid_remaps` — the new column is `+0.0` in
//!    every covered row, which makes the re-alignment bit-preserving).
//!    Chains that do not fit the feature columns, which only a decoded
//!    checkpoint can hold, are dropped (`centroid_resets`, counted as a
//!    `core.cache.invalidations`). `centroid_continues` counts analyses
//!    that actually resumed cached chains. Chains survive checkpoints;
//!    the rows they fold over, and their columns, are rebuilt from the
//!    intervals.
//!
//! Nothing of size n² is kept: the elbow needs no pairwise distances,
//! and silhouette selection builds its matrix inside the sweep on every
//! call. Whatever the path, clustering and Algorithm 1 run on exactly
//! the same feature rows (always rebuilt — O(n·d)), so warm output is
//! byte-identical to cold output. The `Cache*` arms of
//! `tests/equivalence.rs` at the workspace root pin this across all five
//! mini-apps under a streaming push/query interleave.

use crate::pipeline::{FeatureSet, PhaseAnalysis, PhaseDetector, PipelineError};
use incprof_cluster::{Dataset, KChain, KMeansResult, SweepChains};
use incprof_collect::{IntervalMatrix, SampleSeries};
use incprof_profile::{FlatProfile, FunctionId};
use std::sync::Arc;

/// Flight-recorder `b` tag: detector config fingerprint changed.
pub const INVALIDATE_FINGERPRINT: u64 = 1;
/// Flight-recorder `b` tag: the sample series shrank (session restart).
pub const INVALIDATE_SHRINK: u64 = 2;
/// Flight-recorder `b` tag: cached chains do not fit the feature columns
/// (a decoded checkpoint); they are reset.
pub const INVALIDATE_PREFIX: u64 = 3;
/// Flight-recorder `b` tag: the snapshot at the cache's coverage frontier
/// changed identity (retention trimmed the series and it regrew past the
/// old length — a shift the length-only shrink check cannot see).
pub const INVALIDATE_TRIM: u64 = 4;

/// Version byte of the [`AnalysisCache::encode_state`] blob format.
/// Version 2 added the k-means chain section; version 3 dropped the
/// pairwise-distance section, which is a pure function of the feature rows
/// stored before it. Version 4 has version 3's layout, but its memo holds
/// no silhouettes under elbow selection; a version 3 memo does, and would
/// answer differently from a cold replay of the same log. Version 5 drops
/// the feature-row section (and its flag, `2`): the rows are a pure
/// function of the intervals. Version 6 drops the intervals, the previous
/// cumulative profile and the feature-function ids: the snapshot log
/// gives all three back. Any other version is rejected cleanly by
/// [`AnalysisCache::decode_state`] and the caller replays the snapshot
/// log cold.
const STATE_VERSION: u8 = 6;

/// The series prefix an [`AnalysisCache`] covers: its length and the
/// identity of its last snapshot. Sample indices strictly increase and
/// keep their order, so a retention trim inside the prefix shifts a
/// *different* snapshot into the last position, and comparing this one
/// identity detects every misalignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Frontier {
    /// Snapshots covered; 0 for an empty cache.
    len: usize,
    /// `sample_index` of snapshot `len − 1`.
    sample_index: u64,
    /// `timestamp_ns` of snapshot `len − 1`.
    timestamp_ns: u64,
}

impl Frontier {
    /// The frontier at the end of `series`.
    fn end_of(series: &SampleSeries) -> Frontier {
        series.last().map_or(Frontier::default(), |s| Frontier {
            len: series.len(),
            sample_index: s.sample_index,
            timestamp_ns: s.timestamp_ns,
        })
    }
}

/// Per-session incremental analysis state. See the module docs.
///
/// One cache serves one growing [`SampleSeries`]; if the series shrinks
/// or its detector configuration changes, the cache detects it and
/// recomputes from scratch (counted as an invalidation) rather than
/// serving stale results.
#[derive(Debug, Default)]
pub struct AnalysisCache {
    /// Fingerprint of the detector config the cached state was built by.
    fingerprint: Option<u64>,
    /// The series prefix everything below describes.
    frontier: Frontier,
    /// The analysis of exactly the frontier's prefix, reused verbatim
    /// for no-new-data queries; cleared whenever the frontier moves.
    memo: Option<PhaseAnalysis>,
    /// Interval (delta) profiles of the frontier's first
    /// `intervals.len()` snapshots: all of them on a live cache, none on
    /// a decoded one until its first memo miss rebuilds them.
    intervals: Vec<FlatProfile>,
    /// Feature-column function ids the chains were folded on, aligned
    /// with `chains`' centroid columns (per feature block): the previous
    /// analysis's, or on a decoded cache the functions of the frontier's
    /// rows once they are rebuilt.
    feature_fns: Vec<FunctionId>,
    /// Converged k-means chain state per k, resumed by warm analyses
    /// (layer 3 of the module docs).
    chains: SweepChains,
    /// The blob [`AnalysisCache::state_blob`] last encoded, while it
    /// still describes the state: dropped on every memo miss, the one
    /// path that changes what the blob encodes.
    blob: Option<Arc<[u8]>>,
    /// This instance's memo hits (the global `core.cache.memo_hits`
    /// counter aggregates across sessions; per-session gauges need the
    /// split). Survives cache resets.
    memo_hits: u64,
    /// This instance's memo misses. Survives cache resets.
    memo_misses: u64,
}

impl AnalysisCache {
    /// Fresh, empty cache.
    pub fn new() -> AnalysisCache {
        AnalysisCache::default()
    }

    /// Analyze `series` with `detector`, reusing cached work from
    /// previous calls where bit-identity is proven.
    ///
    /// Returns exactly what `detector.detect_series(series)` would —
    /// same values, same bits — or the same error for an empty series.
    pub fn analyze(
        &mut self,
        detector: &PhaseDetector,
        series: &SampleSeries,
    ) -> Result<PhaseAnalysis, PipelineError> {
        let _span = incprof_obs::span(incprof_obs::names::CORE_CACHE_ANALYZE);

        let fp = detector.fingerprint();
        if self.fingerprint != Some(fp) {
            if self.fingerprint.is_some() {
                incprof_obs::counter(incprof_obs::names::CORE_CACHE_INVALIDATIONS).inc();
                incprof_obs::recorder().record(
                    incprof_obs::EventKind::CacheInvalidation,
                    self.frontier.len as u64,
                    INVALIDATE_FINGERPRINT,
                );
            }
            self.reset();
            self.fingerprint = Some(fp);
        }

        if self.frontier.len == series.len() && self.covers(series) {
            if let Some(memo) = &self.memo {
                incprof_obs::counter(incprof_obs::names::CORE_CACHE_HITS).inc();
                self.memo_hits += 1;
                return Ok(memo.clone());
            }
        }
        incprof_obs::counter(incprof_obs::names::CORE_CACHE_MISSES).inc();
        self.memo_misses += 1;
        self.blob = None;

        if series.is_empty() {
            return Err(PipelineError::NoIntervals);
        }

        self.extend_intervals(series)?;

        let matrix = IntervalMatrix::from_interval_profiles(&self.intervals);
        self.align_chains(detector, &matrix);
        if !self.chains.is_empty() {
            incprof_obs::counter(incprof_obs::names::CORE_CACHE_CENTROID_CONTINUES).inc();
        }
        let analysis = detector.detect_resuming(&matrix, &mut self.chains)?;

        self.feature_fns = matrix.functions().to_vec();
        self.memo = Some(analysis.clone());
        Ok(analysis)
    }

    /// Per-instance memo statistics, `(hits, misses)`, for per-session
    /// cache-hit-ratio gauges. Survives a cache reset.
    pub fn stats(&self) -> (u64, u64) {
        (self.memo_hits, self.memo_misses)
    }

    /// Whether the cache covers a prefix of `series`: the snapshot at
    /// the position of the cache's last covered one is that snapshot.
    /// An empty cache covers every series. A rehydrating session adopts
    /// a decoded checkpoint only when this holds for the series rebuilt
    /// from its snapshot log; a live cache that finds it false rebuilds
    /// cold.
    pub fn covers(&self, series: &SampleSeries) -> bool {
        let Some(last) = self.frontier.len.checked_sub(1) else {
            return true;
        };
        series.snapshots().get(last).is_some_and(|s| {
            (s.sample_index, s.timestamp_ns)
                == (self.frontier.sample_index, self.frontier.timestamp_ns)
        })
    }

    /// Serialize the cache into a self-contained checkpoint blob
    /// (little-endian, versioned; layout in `docs/PERSISTENCE.md`).
    ///
    /// The blob is advisory: [`AnalysisCache::decode_state`] refuses
    /// anything it cannot validate, and the caller falls back to a cold
    /// replay of the snapshot log — so the format can evolve by bumping
    /// the version byte without migration code. It holds only what the
    /// log cannot give back: the intervals and the feature columns are
    /// rebuilt from the replayed series. A checkpoint writer takes
    /// [`AnalysisCache::state_blob`] instead, which encodes once per
    /// state.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(STATE_VERSION);
        // Memo analyses are stored as their JSON serialization; decode
        // re-parses and byte-compares the round trip, dropping the memo
        // (only) if the text does not survive identically.
        let memo_json = self
            .memo
            .as_ref()
            .and_then(|m| serde_json::to_string(m).ok());
        let mut flags = 0u8;
        if self.fingerprint.is_some() {
            flags |= 1;
        }
        if memo_json.is_some() {
            flags |= 8;
        }
        out.push(flags);
        if let Some(fp) = self.fingerprint {
            put_u64(&mut out, fp);
        }
        put_u32(&mut out, self.frontier.len as u32);
        put_u64(&mut out, self.frontier.sample_index);
        put_u64(&mut out, self.frontier.timestamp_ns);
        // Chain section: chains are stored in k order, so k itself is
        // implied by position (`chains[i].k == i + 1`).
        put_u32(&mut out, self.chains.chains.len() as u32);
        for chain in &self.chains.chains {
            put_u32(&mut out, chain.covered as u32);
            put_u32(&mut out, chain.last.iterations as u32);
            put_u64(&mut out, chain.last.total_iterations);
            put_u64(&mut out, chain.last.wcss.to_bits());
            put_u32(&mut out, chain.last.centroids.ncols() as u32);
            for c in 0..chain.k {
                for &v in chain.last.centroids.row(c) {
                    put_u64(&mut out, v.to_bits());
                }
            }
            for &a in &chain.last.assignments {
                put_u32(&mut out, a as u32);
            }
        }
        if let Some(json) = memo_json {
            put_u32(&mut out, json.len() as u32);
            out.extend_from_slice(json.as_bytes());
        }
        out
    }

    /// [`AnalysisCache::encode_state`]'s bytes as one shared immutable
    /// blob, encoded at most once per state: until the next memo miss
    /// every call returns the same allocation, so a checkpoint writer can
    /// tell an unchanged state by identity (`Arc::ptr_eq`) without
    /// comparing bytes. A memo hit changes nothing the blob encodes.
    pub fn state_blob(&mut self) -> Arc<[u8]> {
        if let Some(blob) = &self.blob {
            return Arc::clone(blob);
        }
        let blob: Arc<[u8]> = self.encode_state().into();
        self.blob = Some(Arc::clone(&blob));
        blob
    }

    /// Rebuild a cache from an [`AnalysisCache::encode_state`] blob.
    ///
    /// Returns `None` on any structural problem — unknown version, short
    /// or trailing bytes, inconsistent dimensions — so a torn or corrupt
    /// checkpoint degrades to a cold replay instead of a panic or, worse,
    /// silently wrong incremental state. A memo whose JSON does not
    /// round-trip byte-identically is dropped alone (it is a pure
    /// optimization); the rest of the blob still loads. Memo statistics
    /// restart at zero: they describe an instance's history, and the
    /// decoded instance is new. The decoded cache holds no intervals;
    /// its first memo miss rebuilds them.
    pub fn decode_state(bytes: &[u8]) -> Option<AnalysisCache> {
        let mut r = Reader { b: bytes, pos: 0 };
        if r.u8()? != STATE_VERSION {
            return None;
        }
        let flags = r.u8()?;
        if flags & !0b1001 != 0 {
            return None;
        }
        let fingerprint = if flags & 1 != 0 { Some(r.u64()?) } else { None };
        let frontier = Frontier {
            len: r.u32()? as usize,
            sample_index: r.u64()?,
            timestamp_ns: r.u64()?,
        };
        let n_chains = r.u32()? as usize;
        let mut chains: Vec<KChain> = Vec::with_capacity(n_chains.min(64));
        for i in 0..n_chains {
            let k = i + 1;
            let covered = r.u32()? as usize;
            // A chain's base case covers exactly k rows and the fold only
            // ever extends it over the frontier's prefix.
            if covered < k || covered > frontier.len {
                return None;
            }
            let iterations = r.u32()? as usize;
            let total_iterations = r.u64()?;
            let wcss = f64::from_bits(r.u64()?);
            let ncols = r.u32()? as usize;
            // Every chain clusters the same feature rows.
            if chains
                .first()
                .is_some_and(|c| c.last.centroids.ncols() != ncols)
            {
                return None;
            }
            let vals = r.f64_vec(k.checked_mul(ncols)?)?;
            let mut centroids = Dataset::zeros(k, ncols);
            for c in 0..k {
                centroids
                    .row_mut(c)
                    .copy_from_slice(&vals[c * ncols..(c + 1) * ncols]);
            }
            if r.remaining() < covered.checked_mul(4)? {
                return None;
            }
            let mut assignments = Vec::with_capacity(covered);
            for _ in 0..covered {
                let a = r.u32()? as usize;
                if a >= k {
                    return None;
                }
                assignments.push(a);
            }
            let last = KMeansResult {
                assignments,
                centroids,
                wcss,
                iterations,
                total_iterations,
            };
            chains.push(KChain::resume(k, covered, last));
        }
        let memo = if flags & 8 != 0 {
            // A memo answers the frontier's prefix, which is never empty.
            if frontier.len == 0 {
                return None;
            }
            let len = r.u32()? as usize;
            let raw = r.bytes(len)?;
            std::str::from_utf8(raw)
                .ok()
                .and_then(|text| serde_json::from_str::<PhaseAnalysis>(text).ok())
                .filter(|a| {
                    serde_json::to_string(a)
                        .map(|again| again.as_bytes() == raw)
                        .unwrap_or(false)
                })
        } else {
            None
        };
        if r.remaining() != 0 {
            return None;
        }
        Some(AnalysisCache {
            fingerprint,
            frontier,
            memo,
            chains: SweepChains { chains },
            ..AnalysisCache::new()
        })
    }

    /// Drop all cached state (fingerprint included). Memo statistics
    /// survive: they describe the instance's history, not its contents.
    fn reset(&mut self) {
        let (hits, misses) = (self.memo_hits, self.memo_misses);
        *self = AnalysisCache::new();
        self.memo_hits = hits;
        self.memo_misses = misses;
    }

    /// Move the frontier to the end of `series` and bring
    /// `self.intervals` up to date with it, computing deltas only for
    /// the snapshots not yet covered — the new suffix on a live cache,
    /// the whole series on a decoded one. Replicates
    /// `SampleSeries::interval_profiles` exactly: interval `i` is
    /// `snapshot[i] − snapshot[i−1]`, interval 0 measured from empty.
    fn extend_intervals(&mut self, series: &SampleSeries) -> Result<(), PipelineError> {
        if !self.covers(series) {
            // The series shrank (session restart), or a retention trim
            // that regrew past the old length shifted positions without
            // ever shrinking it — cold restart.
            let tag = if series.len() < self.frontier.len {
                INVALIDATE_SHRINK
            } else {
                INVALIDATE_TRIM
            };
            incprof_obs::counter(incprof_obs::names::CORE_CACHE_INVALIDATIONS).inc();
            incprof_obs::recorder().record(
                incprof_obs::EventKind::CacheInvalidation,
                self.frontier.len as u64,
                tag,
            );
            let fp = self.fingerprint;
            self.reset();
            self.fingerprint = fp;
        }
        // Intervals short of the frontier: a decoded cache, whose chains
        // were folded over the first `covered` rows.
        let covered = self.frontier.len;
        let rebuild = self.intervals.len() < covered;
        self.frontier = Frontier::end_of(series);
        self.memo = None;
        let snaps = series.snapshots();
        let empty = FlatProfile::new();
        for (i, snap) in snaps.iter().enumerate().skip(self.intervals.len()) {
            let prev = i.checked_sub(1).map_or(&empty, |p| &snaps[p].flat);
            // On a delta error (non-monotonic counters) the already-pushed
            // prefix stays consistent; a retry recomputes only from here.
            self.intervals.push(snap.flat.delta(prev)?);
        }
        if rebuild {
            self.feature_fns = IntervalMatrix::from_interval_profiles(&self.intervals[..covered])
                .functions()
                .to_vec();
        }
        Ok(())
    }

    /// Carry the cached chains over to `matrix`: keep them, re-aligned
    /// to any new feature columns, when [`AnalysisCache::prefix_col_map`]
    /// finds they fit, drop them when it does not. A decoded checkpoint
    /// meets the same check as a live session.
    fn align_chains(&mut self, detector: &PhaseDetector, matrix: &IntervalMatrix) {
        if self.chains.is_empty() {
            return;
        }
        let Some(map) = self.prefix_col_map(detector, matrix) else {
            incprof_obs::counter(incprof_obs::names::CORE_CACHE_INVALIDATIONS).inc();
            let covered = self.chains.chains.iter().map(|c| c.covered).max();
            incprof_obs::recorder().record(
                incprof_obs::EventKind::CacheInvalidation,
                covered.unwrap_or(0) as u64,
                INVALIDATE_PREFIX,
            );
            self.chains.clear();
            incprof_obs::counter(incprof_obs::names::CORE_CACHE_CENTROID_RESETS).inc();
            return;
        };
        let d_old = self.feature_fns.len();
        let d_new = matrix.n_functions();
        if d_new > d_old {
            // A function outside `feature_fns` has no entry in any
            // covered interval, so its inserted columns are exactly +0.0
            // over the covered rows and re-aligning the cached centroids
            // is bit-preserving (see `SweepChains::remap_columns`).
            // Expand the per-function map over the feature blocks.
            let blocks = feature_blocks(detector);
            let full: Vec<usize> = (0..blocks)
                .flat_map(|b| map.iter().map(move |&c| b * d_new + c))
                .collect();
            self.chains.remap_columns(&full, d_new * blocks);
            incprof_obs::counter(incprof_obs::names::CORE_CACHE_CENTROID_REMAPS).inc();
        }
    }

    /// Map each cached feature column's [`FunctionId`] to its column in
    /// `matrix` (new functions insert columns; old ones keep their
    /// order). `None` when the chains do not fit: a cached function is
    /// missing, or the centroid width is not the cached column count
    /// times the detector's feature blocks.
    fn prefix_col_map(
        &self,
        detector: &PhaseDetector,
        matrix: &IntervalMatrix,
    ) -> Option<Vec<usize>> {
        let width = self.feature_fns.len() * feature_blocks(detector);
        if self
            .chains
            .chains
            .iter()
            .any(|c| c.last.centroids.ncols() != width)
        {
            return None;
        }
        self.feature_fns
            .iter()
            .map(|&id| matrix.col_of(id))
            .collect()
    }
}

/// Feature blocks the detector's [`FeatureSet`] lays out per function
/// (self time alone, or self time plus one companion quantity).
fn feature_blocks(detector: &PhaseDetector) -> usize {
    match detector.features {
        FeatureSet::SelfTime => 1,
        FeatureSet::SelfTimeAndCalls | FeatureSet::SelfTimeAndChildTime => 2,
    }
}

// --- checkpoint blob primitives -------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian cursor over a checkpoint blob. Every
/// accessor returns `None` past the end, so `decode_state` can use `?`
/// throughout and reject truncation uniformly.
struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.b.len() {
            return None;
        }
        let s = &self.b[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            // lint: allow(P01, bytes(4) returned exactly four bytes; the array conversion cannot fail)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            // lint: allow(P01, bytes(8) returned exactly eight bytes; the array conversion cannot fail)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// Read `n` little-endian f64 bit patterns with a single bounds
    /// check, instead of a checked slice per value (a chain's
    /// centroids).
    fn f64_vec(&mut self, n: usize) -> Option<Vec<f64>> {
        let raw = self.bytes(n.checked_mul(8)?)?;
        Some(
            raw.chunks_exact(8)
                .map(|c| {
                    // lint: allow(P01, chunks_exact(8) yields exactly eight bytes; the array conversion cannot fail)
                    f64::from_bits(u64::from_le_bytes(c.try_into().unwrap()))
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incprof_profile::{FunctionStats, GmonData};

    /// A deterministic cumulative series with a couple of alternating
    /// hot functions, enough structure for a non-trivial clustering.
    fn series(n: usize) -> SampleSeries {
        let mut s = SampleSeries::new();
        let mut f1 = FunctionStats::default();
        let mut f2 = FunctionStats::default();
        for i in 0..n as u64 {
            if i % 2 == 0 {
                f1.self_time += 900 + i * 13;
                f1.calls += 3;
                f2.self_time += 50;
            } else {
                f2.self_time += 800 + i * 7;
                f2.calls += 5;
                f2.child_time += 100;
                f1.self_time += 40;
            }
            let mut flat = FlatProfile::new();
            flat.set(FunctionId(1), f1);
            flat.set(FunctionId(2), f2);
            s.push(GmonData {
                sample_index: i,
                timestamp_ns: 1_000 + i * 500,
                flat,
                ..Default::default()
            });
        }
        s
    }

    #[test]
    fn empty_cache_state_roundtrip() {
        let cache = AnalysisCache::new();
        let blob = cache.encode_state();
        let back = AnalysisCache::decode_state(&blob).expect("decodes");
        assert_eq!(back.frontier, Frontier::default());
        assert!(back.covers(&series(3)), "an empty cache covers any series");
        assert!(back.memo.is_none());
    }

    #[test]
    fn the_state_blob_is_encoded_once_per_state() {
        let detector = PhaseDetector::default();
        let mut cache = AnalysisCache::new();
        let empty = cache.state_blob();
        assert_eq!(*empty, *cache.encode_state());
        cache.analyze(&detector, &series(6)).unwrap();
        let first = cache.state_blob();
        assert!(!Arc::ptr_eq(&empty, &first), "a miss re-encodes");
        assert_eq!(*first, *cache.encode_state());
        // A memo hit changes nothing the blob encodes.
        cache.analyze(&detector, &series(6)).unwrap();
        assert!(Arc::ptr_eq(&first, &cache.state_blob()));
        // A miss, and a fingerprint change (a reset), drop it.
        cache.analyze(&detector, &series(7)).unwrap();
        let grown = cache.state_blob();
        assert!(!Arc::ptr_eq(&first, &grown));
        assert_eq!(*grown, *cache.encode_state());
        let other = PhaseDetector {
            features: FeatureSet::SelfTimeAndCalls,
            ..PhaseDetector::default()
        };
        cache.analyze(&other, &series(7)).unwrap();
        let reset = cache.state_blob();
        assert!(!Arc::ptr_eq(&grown, &reset));
        assert_eq!(*reset, *cache.encode_state());
        // A decoded cache encodes its own.
        let mut decoded = AnalysisCache::decode_state(&reset).expect("decodes");
        assert_eq!(*decoded.state_blob(), *reset);
    }

    #[test]
    fn warm_state_roundtrip_is_byte_identical_going_forward() {
        let detector = PhaseDetector::default();
        let s6 = series(6);
        let mut live = AnalysisCache::new();
        live.analyze(&detector, &s6).unwrap();

        let blob = cache_after(&detector, 6).encode_state();
        let mut rehydrated = AnalysisCache::decode_state(&blob).expect("decodes");
        assert_eq!(rehydrated.frontier, live.frontier);
        assert!(rehydrated.covers(&s6));
        assert!(rehydrated.intervals.is_empty(), "the log gives them back");

        // A query at the frontier is the decoded memo, and rebuilds nothing.
        let (hits, _) = rehydrated.stats();
        rehydrated.analyze(&detector, &s6).unwrap();
        assert_eq!(
            rehydrated.stats().0,
            hits + 1,
            "query at the frontier must memo-hit"
        );
        assert!(rehydrated.intervals.is_empty(), "a memo hit rebuilt rows");

        // Continue both caches over the same grown series: analyses must
        // match byte-for-byte through the JSON report serialization, over
        // the same rebuilt intervals and feature columns.
        let s9 = series(9);
        let a = live.analyze(&detector, &s9).unwrap();
        let b = rehydrated.analyze(&detector, &s9).unwrap();
        assert_eq!(json(&a), json(&b));
        assert_eq!(rehydrated.intervals, live.intervals);
        assert_eq!(rehydrated.feature_fns, live.feature_fns);
        // The rehydrated memo serves a repeat query without recompute.
        let before = rehydrated.stats();
        rehydrated.analyze(&detector, &s9).unwrap();
        let after = rehydrated.stats();
        assert_eq!(after.0, before.0 + 1, "repeat query must memo-hit");
    }

    fn cache_after(detector: &PhaseDetector, n: usize) -> AnalysisCache {
        let mut c = AnalysisCache::new();
        c.analyze(detector, &series(n)).unwrap();
        c
    }

    /// `series(n)` plus `extra` functions (ids 10, 11, …) that run in
    /// every interval.
    fn series_wide(n: usize, extra: u32) -> SampleSeries {
        let mut fs = vec![FunctionStats::default(); extra as usize];
        let grow = |mut snap: GmonData| {
            for (j, f) in fs.iter_mut().enumerate() {
                f.self_time += 300 + snap.sample_index * (j as u64 + 3);
                f.calls += 1;
                snap.flat.set(FunctionId(10 + j as u32), *f);
            }
            snap
        };
        series(n).snapshots().iter().cloned().map(grow).collect()
    }

    #[test]
    fn blob_growth_is_linear_in_the_interval_count() {
        // The blob is a fixed header, the frontier, the chains and the
        // memo: nothing the snapshot log gives back. The exact sizes pin
        // the layout: a change to it edits these numbers.
        let detector = PhaseDetector::default();
        let blob = |s: &SampleSeries| {
            let mut c = AnalysisCache::new();
            c.analyze(&detector, s).unwrap();
            let memo = json(c.memo.as_ref().unwrap()).len() as i64;
            (c.encode_state().len() as i64, memo, c.chains.chains.len())
        };
        let (small, small_memo, chains) = blob(&series(128));
        let (large, large_memo, large_chains) = blob(&series(256));
        let (wide, wide_memo, wide_chains) = blob(&series_wide(128, 4));
        assert_eq!(
            (small, large, wide),
            (6_543, 11_924, 7_691),
            "blob bytes for (n, d) = (128, 2), (256, 2) and (128, 6)"
        );
        assert_eq!((chains, large_chains, wide_chains), (8, 8, 8));
        // Doubling n adds one u32 assignment per chain per new row, and
        // what the memo's JSON grew by.
        assert_eq!(large - small, 8 * 4 * 128 + large_memo - small_memo);
        // Four more active functions per interval add four f64 columns to
        // every centroid of every chain (1 + 2 + … + 8 = 36 centroids),
        // and what the memo's JSON grew by.
        assert_eq!(wide - small, 36 * 4 * 8 + wide_memo - small_memo);
    }

    fn json(analysis: &PhaseAnalysis) -> String {
        serde_json::to_string(analysis).unwrap()
    }

    #[test]
    fn decoded_chains_that_do_not_fit_are_reset() {
        // Chains whose centroid width is not the feature columns times
        // the feature blocks, or that name a function the matrix lacks,
        // cannot resume; only a decoded checkpoint can hold such chains.
        // The columns are derived from the rebuilt rows, so each edit
        // lands after the first rebuild.
        let detector = PhaseDetector::default();
        let blob = cache_after(&detector, 8).encode_state();
        let s9 = series(9);
        let cold = json(&detector.detect_series(&s9).unwrap());
        let edits: [fn(&mut AnalysisCache); 3] = [
            |c| c.feature_fns.truncate(1),
            |c| c.feature_fns[0] = FunctionId(99),
            |c| {
                for chain in &mut c.chains.chains {
                    chain.last.centroids = Dataset::zeros(chain.k, 3);
                }
            },
        ];
        for edit in edits {
            let decoded = || {
                let mut c = AnalysisCache::decode_state(&blob).expect("decodes");
                c.extend_intervals(&s9).unwrap();
                assert_eq!(c.feature_fns, [FunctionId(1), FunctionId(2)]);
                edit(&mut c);
                c
            };
            let mut probe = decoded();
            let matrix = IntervalMatrix::from_interval_profiles(&probe.intervals);
            assert!(!probe.chains.is_empty());
            probe.align_chains(&detector, &matrix);
            assert!(
                probe.chains.is_empty(),
                "chains that do not fit must be reset"
            );
            assert_eq!(json(&decoded().analyze(&detector, &s9).unwrap()), cold);
        }
    }

    /// `series(n)` in which function 0, below every other id, first runs
    /// at snapshot 6, so its feature column is inserted at index 0.
    fn series_with_newcomer(n: usize) -> SampleSeries {
        let mut f0 = FunctionStats::default();
        let grow = |mut snap: GmonData| {
            if snap.sample_index >= 6 {
                f0.self_time += 700 + snap.sample_index * 11;
                f0.calls += 2;
                snap.flat.set(FunctionId(0), f0);
            }
            snap
        };
        series(n).snapshots().iter().cloned().map(grow).collect()
    }

    #[test]
    fn a_newcomer_column_at_index_0_is_remapped_live_and_after_decode() {
        let (before, after) = (series_with_newcomer(6), series_with_newcomer(12));
        for features in [FeatureSet::SelfTime, FeatureSet::SelfTimeAndCalls] {
            let detector = PhaseDetector {
                features,
                ..PhaseDetector::default()
            };
            let cold = json(&detector.detect_series(&after).unwrap());
            let live = || {
                let mut c = AnalysisCache::new();
                c.analyze(&detector, &before).unwrap();
                c
            };
            let blob = live().encode_state();
            let decoded = || AnalysisCache::decode_state(&blob).expect("decodes");
            let lives: [(&str, &dyn Fn() -> AnalysisCache); 2] =
                [("live", &live), ("decoded", &decoded)];
            for (life, make) in lives {
                let mut probe = make();
                probe.extend_intervals(&after).unwrap();
                let matrix = IntervalMatrix::from_interval_profiles(&probe.intervals);
                assert_eq!(matrix.col_of(FunctionId(0)), Some(0));
                probe.align_chains(&detector, &matrix);
                assert!(
                    !probe.chains.is_empty(),
                    "{features:?} {life}: chains reset"
                );
                let width = matrix.n_functions() * feature_blocks(&detector);
                assert_eq!(probe.chains.chains[0].last.centroids.ncols(), width);
                let warm = make().analyze(&detector, &after).unwrap();
                assert_eq!(json(&warm), cold, "{features:?} {life}: not the cold bytes");
            }
        }
    }

    #[test]
    fn inconsistent_blobs_are_rejected() {
        let detector = PhaseDetector::default();
        let encoded = |edit: fn(&mut AnalysisCache)| {
            let mut c = cache_after(&detector, 8);
            edit(&mut c);
            c.encode_state()
        };
        // Flag 2 marked version 4's feature-row section and flag 4 version
        // 5's optional frontier; version 6 always stores the frontier.
        let blob = encoded(|_| {});
        assert!(AnalysisCache::decode_state(&blob).is_some());
        for flag in [2, 4] {
            let mut bad = blob.clone();
            bad[1] |= flag;
            assert!(AnalysisCache::decode_state(&bad).is_none(), "flag {flag}");
        }
        let rejected = |edit| AnalysisCache::decode_state(&encoded(edit)).is_none();
        assert!(
            rejected(|c| c.chains.chains[1].last.centroids = Dataset::zeros(2, 3)),
            "centroid widths disagree"
        );
        assert!(
            rejected(|c| c.frontier.len = 7),
            "a chain covers rows past the frontier"
        );
        assert!(
            rejected(|c| c.chains.chains[1].last.assignments[0] = 2),
            "an assignment names no centroid"
        );
        assert!(
            rejected(|c| {
                c.chains.clear();
                c.frontier = Frontier::default();
            }),
            "a memo at an empty frontier"
        );
    }

    #[test]
    fn truncated_blob_is_rejected() {
        let blob = cache_after(&PhaseDetector::default(), 5).encode_state();
        for cut in [0, 1, 2, blob.len() / 2, blob.len() - 1] {
            assert!(
                AnalysisCache::decode_state(&blob[..cut]).is_none(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut blob = cache_after(&PhaseDetector::default(), 5).encode_state();
        blob.push(0);
        assert!(AnalysisCache::decode_state(&blob).is_none());
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut blob = cache_after(&PhaseDetector::default(), 5).encode_state();
        blob[0] = 99;
        assert!(AnalysisCache::decode_state(&blob).is_none());
    }

    #[test]
    fn corrupt_memo_json_drops_memo_but_keeps_state() {
        let detector = PhaseDetector::default();
        let blob = cache_after(&detector, 6).encode_state();
        // The memo JSON is the blob's final section; flip a byte inside it
        // without disturbing the length prefix.
        let mut bad = blob.clone();
        let last = bad.len() - 2;
        bad[last] = bad[last].wrapping_add(1);
        // Flipping a byte can also break UTF-8/JSON framing, in which
        // case rejecting the whole blob (decode_state -> None) is an
        // acceptable fail-closed outcome.
        if let Some(c) = AnalysisCache::decode_state(&bad) {
            assert!(c.memo.is_none(), "tampered memo must not survive");
            assert_eq!(c.frontier.len, 6, "non-memo state must survive");
        }
    }

    #[test]
    fn trim_then_regrow_invalidates_instead_of_aliasing() {
        let detector = PhaseDetector::default();
        // Simulate a retention trim: rebuild the series without its first
        // two snapshots (indices preserved via append_monotonic semantics
        // -- here we just renumber, which changes frontier identity), then
        // grow past the old length.
        let full = series(9);
        let mut trimmed = SampleSeries::new();
        for (pos, snap) in full.snapshots().iter().skip(2).enumerate() {
            let mut s = snap.clone();
            s.sample_index = pos as u64;
            trimmed.push(s);
        }
        // A session restart: the series shrinks below the frontier.
        let shrunk = series(4);

        // The decoded cache meets the shift before it has rebuilt a
        // single interval.
        let blob = cache_after(&detector, 6).encode_state();
        let live = || cache_after(&detector, 6);
        let decoded = || AnalysisCache::decode_state(&blob).expect("decodes");
        let lives: [(&str, &dyn Fn() -> AnalysisCache); 2] =
            [("live", &live), ("decoded", &decoded)];
        for (life, make) in lives {
            for (shift, shifted) in [("trim", &trimmed), ("shrink", &shrunk)] {
                let mut cache = make();
                assert!(!cache.covers(shifted), "{life} {shift}");
                let warm = cache.analyze(&detector, shifted).unwrap();
                let cold = detector.detect_series(shifted).unwrap();
                assert_eq!(
                    json(&warm),
                    json(&cold),
                    "{life} {shift}: a shifted series must produce the cold answer, not stale reuse"
                );
            }
        }
    }

    #[test]
    fn a_failed_extension_leaves_no_stale_memo() {
        // Snapshot 6 drops every function a cumulative profile must keep,
        // so its delta fails after the frontier has moved past the
        // memoized prefix; the old memo must not answer the new one.
        let detector = PhaseDetector::default();
        let mut bad = series(6);
        bad.push(GmonData {
            sample_index: 6,
            timestamp_ns: 9_000,
            ..Default::default()
        });
        assert!(detector.detect_series(&bad).is_err());
        let mut cache = cache_after(&detector, 6);
        for attempt in 0..2 {
            assert!(
                cache.analyze(&detector, &bad).is_err(),
                "attempt {attempt} answered a series whose delta fails"
            );
        }
    }
}

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
//! [`PhaseDetector::detect_series`] call:
//!
//! 1. **Whole-report memoization.** Results are keyed on (sample count,
//!    last sample identity, config fingerprint); a query with no new
//!    snapshot returns the memoized [`PhaseAnalysis`] in O(1).
//! 2. **Incremental deltas.** Interval profiles are the per-snapshot
//!    deltas of a cumulative series; the cache keeps the deltas already
//!    computed and only subtracts the new suffix.
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
//!    the rows they fold over are rebuilt from the intervals.
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
/// function of the intervals. Any other version is rejected cleanly by
/// [`AnalysisCache::decode_state`] and the caller replays the snapshot
/// log cold.
const STATE_VERSION: u8 = 5;

/// Memoized result of the last completed analysis.
#[derive(Debug, Clone)]
struct Memo {
    /// Series length the analysis covered.
    samples: usize,
    /// `sample_index` of the last snapshot covered (identity check).
    last_sample_index: u64,
    /// `timestamp_ns` of the last snapshot covered (identity check).
    last_timestamp_ns: u64,
    /// The analysis itself.
    analysis: PhaseAnalysis,
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
    /// Last full result, reused verbatim for no-new-data queries.
    memo: Option<Memo>,
    /// Interval (delta) profiles computed so far, one per snapshot.
    intervals: Vec<FlatProfile>,
    /// The cumulative profile the next delta subtracts from.
    prev_cumulative: FlatProfile,
    /// Feature-column function ids of the previous analysis, aligned
    /// with `chains`' centroid columns (per feature block).
    feature_fns: Vec<FunctionId>,
    /// Converged k-means chain state per k, resumed by warm analyses
    /// (layer 3 of the module docs).
    chains: SweepChains,
    /// This instance's memo hits (the global `core.cache.memo_hits`
    /// counter aggregates across sessions; per-session gauges need the
    /// split). Survives cache resets.
    memo_hits: u64,
    /// This instance's memo misses. Survives cache resets.
    memo_misses: u64,
    /// Identity (`sample_index`, `timestamp_ns`) of the snapshot at
    /// position `intervals.len() − 1` of the series the cache last
    /// covered. Checked before every incremental extension: if the
    /// series was trimmed (retention) and regrew past the old length,
    /// positions have shifted even though the length never shrank, and
    /// the cache must rebuild cold instead of extending stale deltas.
    last_covered: Option<(u64, u64)>,
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
                    self.intervals.len() as u64,
                    INVALIDATE_FINGERPRINT,
                );
            }
            self.reset();
            self.fingerprint = Some(fp);
        }

        if let Some(memo) = &self.memo {
            if let Some(last) = series.last() {
                if memo.samples == series.len()
                    && memo.last_sample_index == last.sample_index
                    && memo.last_timestamp_ns == last.timestamp_ns
                {
                    incprof_obs::counter(incprof_obs::names::CORE_CACHE_HITS).inc();
                    self.memo_hits += 1;
                    return Ok(memo.analysis.clone());
                }
            }
        }
        incprof_obs::counter(incprof_obs::names::CORE_CACHE_MISSES).inc();
        self.memo_misses += 1;

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
        let last = series.last().ok_or(PipelineError::NoIntervals)?;
        self.memo = Some(Memo {
            samples: series.len(),
            last_sample_index: last.sample_index,
            last_timestamp_ns: last.timestamp_ns,
            analysis: analysis.clone(),
        });
        Ok(analysis)
    }

    /// Per-instance memo statistics, `(hits, misses)`, for per-session
    /// cache-hit-ratio gauges. Survives a cache reset.
    pub fn stats(&self) -> (u64, u64) {
        (self.memo_hits, self.memo_misses)
    }

    /// Identity (`sample_index`, `timestamp_ns`) of the last snapshot the
    /// cached deltas cover, or `None` for an empty cache. Together with
    /// [`AnalysisCache::covered_len`] this lets a rehydrating session
    /// validate a decoded checkpoint against the series rebuilt from its
    /// snapshot log before trusting it.
    pub fn covered(&self) -> Option<(u64, u64)> {
        self.last_covered
    }

    /// Number of interval deltas the cache currently covers.
    pub fn covered_len(&self) -> usize {
        self.intervals.len()
    }

    /// Serialize the cache into a self-contained checkpoint blob
    /// (little-endian, versioned; layout in `docs/PERSISTENCE.md`).
    ///
    /// The blob is advisory: [`AnalysisCache::decode_state`] refuses
    /// anything it cannot validate, and the caller falls back to a cold
    /// replay of the snapshot log — so the format can evolve by bumping
    /// the version byte without migration code.
    pub fn encode_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(STATE_VERSION);
        // Memo analyses are stored as their JSON serialization; decode
        // re-parses and byte-compares the round trip, dropping the memo
        // (only) if the text does not survive identically.
        let memo_json = self.memo.as_ref().and_then(|m| {
            serde_json::to_string(&m.analysis)
                .ok()
                .map(|j| (m, j.into_bytes()))
        });
        let mut flags = 0u8;
        if self.fingerprint.is_some() {
            flags |= 1;
        }
        if self.last_covered.is_some() {
            flags |= 4;
        }
        if memo_json.is_some() {
            flags |= 8;
        }
        out.push(flags);
        if let Some(fp) = self.fingerprint {
            put_u64(&mut out, fp);
        }
        put_u32(&mut out, self.intervals.len() as u32);
        for flat in &self.intervals {
            put_flat(&mut out, flat);
        }
        put_flat(&mut out, &self.prev_cumulative);
        put_u32(&mut out, self.feature_fns.len() as u32);
        for id in &self.feature_fns {
            put_u32(&mut out, id.0);
        }
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
        if let Some((idx, ts)) = self.last_covered {
            put_u64(&mut out, idx);
            put_u64(&mut out, ts);
        }
        if let Some((m, json)) = memo_json {
            put_u64(&mut out, m.samples as u64);
            put_u64(&mut out, m.last_sample_index);
            put_u64(&mut out, m.last_timestamp_ns);
            put_u32(&mut out, json.len() as u32);
            out.extend_from_slice(&json);
        }
        out
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
    /// decoded instance is new.
    pub fn decode_state(bytes: &[u8]) -> Option<AnalysisCache> {
        let mut r = Reader { b: bytes, pos: 0 };
        if r.u8()? != STATE_VERSION {
            return None;
        }
        let flags = r.u8()?;
        if flags & !0b1101 != 0 {
            return None;
        }
        let fingerprint = if flags & 1 != 0 { Some(r.u64()?) } else { None };
        let n_intervals = r.u32()? as usize;
        if r.remaining() < n_intervals.checked_mul(4)? {
            return None;
        }
        let mut intervals = Vec::with_capacity(n_intervals);
        for _ in 0..n_intervals {
            intervals.push(read_flat(&mut r)?);
        }
        let prev_cumulative = read_flat(&mut r)?;
        let n_fns = r.u32()? as usize;
        if r.remaining() < n_fns.checked_mul(4)? {
            return None;
        }
        let mut feature_fns = Vec::with_capacity(n_fns);
        for _ in 0..n_fns {
            feature_fns.push(FunctionId(r.u32()?));
        }
        // Matrix columns are in strictly increasing id order.
        if feature_fns.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        let n_chains = r.u32()? as usize;
        let mut chains: Vec<KChain> = Vec::with_capacity(n_chains.min(64));
        for i in 0..n_chains {
            let k = i + 1;
            let covered = r.u32()? as usize;
            // A chain's base case covers exactly k rows and the fold only
            // ever extends it over the covered interval prefix.
            if covered < k || covered > n_intervals {
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
        // Every function the chains' rows name has a feature column, or
        // a re-alignment would treat its nonzero entries as `+0.0`.
        let covered = chains.iter().map(|c| c.covered).max().unwrap_or(0);
        for flat in &intervals[..covered] {
            if flat
                .iter()
                .any(|(id, _)| feature_fns.binary_search(&id).is_err())
            {
                return None;
            }
        }
        let last_covered = if flags & 4 != 0 {
            Some((r.u64()?, r.u64()?))
        } else {
            None
        };
        let memo = if flags & 8 != 0 {
            let samples = r.u64()? as usize;
            let last_sample_index = r.u64()?;
            let last_timestamp_ns = r.u64()?;
            let len = r.u32()? as usize;
            let raw = r.bytes(len)?;
            let analysis = std::str::from_utf8(raw)
                .ok()
                .and_then(|text| serde_json::from_str::<PhaseAnalysis>(text).ok())
                .filter(|a| {
                    serde_json::to_string(a)
                        .map(|again| again.as_bytes() == raw)
                        .unwrap_or(false)
                });
            analysis.map(|analysis| Memo {
                samples,
                last_sample_index,
                last_timestamp_ns,
                analysis,
            })
        } else {
            None
        };
        if r.remaining() != 0 {
            return None;
        }
        Some(AnalysisCache {
            fingerprint,
            memo,
            intervals,
            prev_cumulative,
            feature_fns,
            chains: SweepChains { chains },
            memo_hits: 0,
            memo_misses: 0,
            last_covered,
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

    /// Bring `self.intervals` up to date with `series`, computing deltas
    /// only for the new snapshot suffix. Replicates
    /// `SampleSeries::interval_profiles` exactly: interval `i` is
    /// `snapshot[i] − snapshot[i−1]`, interval 0 measured from empty.
    fn extend_intervals(&mut self, series: &SampleSeries) -> Result<(), PipelineError> {
        let snaps = series.snapshots();
        let stale = if snaps.len() < self.intervals.len() {
            // Series shrank (session restart) — cold restart.
            Some(INVALIDATE_SHRINK)
        } else if let Some(pos) = self.intervals.len().checked_sub(1) {
            // The snapshot at the coverage frontier must still be the one
            // the cached deltas were computed from; a retention trim that
            // regrew past the old length shifts positions without ever
            // shrinking the series.
            let s = &snaps[pos];
            (self.last_covered != Some((s.sample_index, s.timestamp_ns))).then_some(INVALIDATE_TRIM)
        } else {
            None
        };
        if let Some(tag) = stale {
            incprof_obs::counter(incprof_obs::names::CORE_CACHE_INVALIDATIONS).inc();
            incprof_obs::recorder().record(
                incprof_obs::EventKind::CacheInvalidation,
                self.intervals.len() as u64,
                tag,
            );
            let fp = self.fingerprint;
            self.reset();
            self.fingerprint = fp;
        }
        for snap in &snaps[self.intervals.len()..] {
            // On a delta error (non-monotonic counters) the already-pushed
            // prefix stays consistent; a retry recomputes only from here.
            self.intervals.push(snap.flat.delta(&self.prev_cumulative)?);
            self.prev_cumulative = snap.flat.clone();
            self.last_covered = Some((snap.sample_index, snap.timestamp_ns));
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

/// Append a [`FlatProfile`] as `u32 count` then per function
/// `u32 id, u64 self_time, u64 calls, u64 child_time` in id order
/// (the profile's map iteration order, which is already sorted).
fn put_flat(out: &mut Vec<u8>, flat: &FlatProfile) {
    put_u32(out, flat.len() as u32);
    for (id, s) in flat.iter() {
        put_u32(out, id.0);
        put_u64(out, s.self_time);
        put_u64(out, s.calls);
        put_u64(out, s.child_time);
    }
}

fn read_flat(r: &mut Reader<'_>) -> Option<FlatProfile> {
    let count = r.u32()? as usize;
    // 28 bytes per entry: id + three u64 counters.
    if r.remaining() < count.checked_mul(28)? {
        return None;
    }
    let mut flat = FlatProfile::new();
    for _ in 0..count {
        let id = FunctionId(r.u32()?);
        let stats = incprof_profile::FunctionStats {
            self_time: r.u64()?,
            calls: r.u64()?,
            child_time: r.u64()?,
        };
        flat.set(id, stats);
    }
    Some(flat)
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
    /// check, instead of a checked slice per value (scaled rows and
    /// chain centroids are the blob's bulk).
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
    use incprof_profile::{CallGraphProfile, FunctionStats, ProfileSnapshot};

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
            s.push(ProfileSnapshot {
                sample_index: i,
                timestamp_ns: 1_000 + i * 500,
                flat,
                callgraph: CallGraphProfile::default(),
            });
        }
        s
    }

    #[test]
    fn empty_cache_state_roundtrip() {
        let cache = AnalysisCache::new();
        let blob = cache.encode_state();
        let back = AnalysisCache::decode_state(&blob).expect("decodes");
        assert_eq!(back.covered(), None);
        assert_eq!(back.covered_len(), 0);
        assert!(back.memo.is_none());
    }

    #[test]
    fn warm_state_roundtrip_is_byte_identical_going_forward() {
        let detector = PhaseDetector::default();
        let s6 = series(6);
        let mut live = AnalysisCache::new();
        live.analyze(&detector, &s6).unwrap();

        let blob = cache_after(&detector, 6).encode_state();
        let mut rehydrated = AnalysisCache::decode_state(&blob).expect("decodes");
        assert_eq!(rehydrated.covered_len(), 6);
        assert_eq!(rehydrated.covered(), live.covered());

        // Continue both caches over the same grown series: analyses must
        // match byte-for-byte through the JSON report serialization.
        let s9 = series(9);
        let a = live.analyze(&detector, &s9).unwrap();
        let b = rehydrated.analyze(&detector, &s9).unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
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

    #[test]
    fn blob_growth_is_linear_in_the_interval_count() {
        // Intervals, chain assignments, memo: every section is O(n), and
        // nothing the intervals determine is stored. The exact sizes pin
        // the layout: a change to it edits these numbers.
        let detector = PhaseDetector::default();
        let small = cache_after(&detector, 128).encode_state().len();
        let large = cache_after(&detector, 256).encode_state().len();
        assert_eq!(
            (small, large),
            (14_319, 27_380),
            "blob bytes for n = 128 and 256"
        );
    }

    fn json(analysis: &PhaseAnalysis) -> String {
        serde_json::to_string(analysis).unwrap()
    }

    #[test]
    fn decoded_chains_that_do_not_fit_are_reset() {
        // Chains whose centroid width is not the feature columns times
        // the feature blocks, or that name a function the matrix lacks,
        // cannot resume; only a decoded checkpoint can hold such chains.
        let detector = PhaseDetector::default();
        let blob = cache_after(&detector, 8).encode_state();
        let s9 = series(9);
        let cold = json(&detector.detect_series(&s9).unwrap());
        let edits: [fn(&mut Vec<FunctionId>); 2] =
            [|fns| fns.truncate(1), |fns| fns[0] = FunctionId(99)];
        for edit in edits {
            let decoded = || {
                let mut c = AnalysisCache::decode_state(&blob).expect("decodes");
                edit(&mut c.feature_fns);
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
        let grow = |mut snap: ProfileSnapshot| {
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
        // Flag 2 marked the feature-row section, which version 5 dropped.
        let mut blob = encoded(|_| {});
        assert!(AnalysisCache::decode_state(&blob).is_some());
        blob[1] |= 2;
        assert!(AnalysisCache::decode_state(&blob).is_none(), "flag 2");
        let rejected = |edit| AnalysisCache::decode_state(&encoded(edit)).is_none();
        assert!(
            rejected(|c| c.chains.chains[1].last.centroids = Dataset::zeros(2, 3)),
            "centroid widths disagree"
        );
        assert!(
            rejected(|c| c.feature_fns.insert(1, c.feature_fns[0])),
            "a repeated id"
        );
        assert!(
            rejected(|c| c.feature_fns.truncate(1)),
            "a covered function has no column"
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
            assert_eq!(c.covered_len(), 6, "non-memo state must survive");
        }
    }

    #[test]
    fn trim_then_regrow_invalidates_instead_of_aliasing() {
        let detector = PhaseDetector::default();
        let mut cache = AnalysisCache::new();
        cache.analyze(&detector, &series(6)).unwrap();

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
        let warm = cache.analyze(&detector, &trimmed).unwrap();

        let mut cold = AnalysisCache::new();
        let fresh = cold.analyze(&detector, &trimmed).unwrap();
        assert_eq!(
            serde_json::to_string(&warm).unwrap(),
            serde_json::to_string(&fresh).unwrap(),
            "a shifted series must produce the cold answer, not stale reuse"
        );
    }
}

//! Incremental analysis cache for streamed series.
//!
//! `PhaseDetector::detect_series` is stateless: every call re-deltas the
//! whole cumulative series, rebuilds features, recomputes the O(n²·d)
//! pairwise-distance matrix, and reruns the full k sweep. A streaming
//! consumer (the serve daemon answering report queries between snapshot
//! pushes) therefore pays O(n²) *per query* — exactly the repeated
//! analysis the paper's incremental design is meant to avoid.
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
//! 3. **Incremental pairwise distances.** The distance matrix grows via
//!    [`PairwiseDistances::extend`], computing only rows/columns for new
//!    intervals — *iff* the previously-scaled rows are bit-identical
//!    under the new scaling. Column-stat scalings
//!    ([`incprof_cluster::Scaling::MinMax`],
//!    [`incprof_cluster::Scaling::ZScore`]) shift old rows when new data moves the column
//!    stats, so the cache verifies the scaled prefix bit-for-bit (with
//!    feature columns re-aligned through [`FunctionId`]s, since newly
//!    observed functions insert columns) and falls back to a cold
//!    rebuild when anything moved. The fallback is counted as a
//!    `core.cache.invalidations` metric, reuse as `core.cache.pair_extends`.
//!    The matrix is never checkpointed: it is a pure function of the
//!    scaled rows, so a cache decoded from a blob rebuilds it from them on
//!    its first memo miss, ahead of the same prefix check.
//!
//! 4. **Incremental k-means chains.** The clustering itself is a
//!    canonical per-row fold ([`incprof_cluster::incremental`]): cold
//!    runs fold from row one, warm runs resume the cached
//!    [`SweepChains`] — the same pure function of the prefix either way,
//!    so the bits match by construction. Chains survive checkpoints,
//!    re-align when new feature columns appear (`centroid_remaps` — the
//!    new columns are verified `+0.0` over the covered prefix as part of
//!    the prefix check, which makes the re-alignment bit-preserving),
//!    and are dropped with the pair matrix whenever the prefix moved
//!    (`centroid_resets`); `centroid_continues` counts analyses that
//!    actually resumed cached chains.
//!
//! Whatever the path, clustering and Algorithm 1 run on exactly the same
//! scaled dataset (always recomputed — O(n·d)) and a distance matrix
//! whose every entry equals `euclidean(row(i), row(j))` bit-for-bit, so
//! warm output is byte-identical to cold output. `tests/cache_determinism.rs`
//! at the workspace root pins this across all five mini-apps under a
//! streaming push/query interleave.

use crate::pipeline::{FeatureSet, PhaseAnalysis, PhaseDetector, PipelineError};
use incprof_cluster::{Dataset, KChain, KMeansResult, PairwiseDistances, SweepChains};
use incprof_collect::{IntervalMatrix, SampleSeries};
use incprof_profile::{FlatProfile, FunctionId};

/// Flight-recorder `b` tag: detector config fingerprint changed.
pub const INVALIDATE_FINGERPRINT: u64 = 1;
/// Flight-recorder `b` tag: the sample series shrank (session restart).
pub const INVALIDATE_SHRINK: u64 = 2;
/// Flight-recorder `b` tag: scaled prefix moved; pairwise matrix rebuilt.
pub const INVALIDATE_PAIR: u64 = 3;
/// Flight-recorder `b` tag: the snapshot at the cache's coverage frontier
/// changed identity (retention trimmed the series and it regrew past the
/// old length — a shift the length-only shrink check cannot see).
pub const INVALIDATE_TRIM: u64 = 4;

/// Version byte of the [`AnalysisCache::encode_state`] blob format.
/// Version 2 added the k-means chain section; version 3 dropped the
/// pairwise-distance section, which is a pure function of the scaled rows
/// stored before it. Any other version is rejected cleanly by
/// [`AnalysisCache::decode_state`] and the caller replays the snapshot
/// log cold.
const STATE_VERSION: u8 = 3;

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
    /// Scaled feature rows from the previous analysis, for prefix
    /// verification before reusing distance entries.
    scaled: Option<Dataset>,
    /// Feature-column function ids of the previous analysis, aligned
    /// with `scaled`'s columns (per feature block).
    feature_fns: Vec<FunctionId>,
    /// The incrementally grown pairwise-distance matrix. Not part of the
    /// checkpoint blob; empty after a decode until the first memo miss.
    pair: PairwiseDistances,
    /// Converged k-means chain state per k, resumed by warm analyses
    /// (layer 4 of the module docs). Reset together with the pair
    /// matrix: both are valid exactly while the scaled prefix is
    /// bit-stable.
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
        AnalysisCache {
            pair: PairwiseDistances::empty(),
            ..Default::default()
        }
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
        if matrix.n_intervals() == 0 {
            return Err(PipelineError::NoIntervals);
        }
        if matrix.n_functions() == 0 {
            return Err(PipelineError::NoFunctions);
        }

        let raw = Dataset::from_rows(detector.build_features(&matrix));
        let data = detector.scaling.apply(&raw);

        self.update_pair(detector, &matrix, &data);

        if !self.chains.is_empty() {
            incprof_obs::counter(incprof_obs::names::CORE_CACHE_CENTROID_CONTINUES).inc();
        }
        let analysis =
            detector.detect_scaled(&matrix, &data, Some(&self.pair), Some(&mut self.chains))?;

        self.scaled = Some(data);
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
        if self.scaled.is_some() {
            flags |= 2;
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
        if let Some(scaled) = &self.scaled {
            put_u32(&mut out, scaled.nrows() as u32);
            put_u32(&mut out, scaled.ncols() as u32);
            for i in 0..scaled.nrows() {
                for &v in scaled.row(i) {
                    put_u64(&mut out, v.to_bits());
                }
            }
        }
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
        if flags & !0b1111 != 0 {
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
        let scaled = if flags & 2 != 0 {
            let rows = r.u32()? as usize;
            let cols = r.u32()? as usize;
            // One scaled row per covered interval at most; this also bounds
            // the matrix `update_pair` rebuilds from these rows.
            if rows > n_intervals {
                return None;
            }
            let vals = r.f64_vec(rows.checked_mul(cols)?)?;
            let mut d = Dataset::zeros(rows, cols);
            for i in 0..rows {
                d.row_mut(i)
                    .copy_from_slice(&vals[i * cols..(i + 1) * cols]);
            }
            Some(d)
        } else {
            None
        };
        let n_fns = r.u32()? as usize;
        if r.remaining() < n_fns.checked_mul(4)? {
            return None;
        }
        let mut feature_fns = Vec::with_capacity(n_fns);
        for _ in 0..n_fns {
            feature_fns.push(FunctionId(r.u32()?));
        }
        let n_chains = r.u32()? as usize;
        let mut chains = Vec::with_capacity(n_chains.min(64));
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
            // Chains cluster the scaled rows; their centroid width must
            // match or the whole blob is inconsistent.
            match &scaled {
                Some(s) if s.ncols() == ncols => {}
                _ => return None,
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
            chains.push(KChain {
                k,
                covered,
                last: KMeansResult {
                    assignments,
                    centroids,
                    wcss,
                    iterations,
                    total_iterations,
                },
            });
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
            scaled,
            feature_fns,
            pair: PairwiseDistances::empty(),
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

    /// Grow (or rebuild) the pairwise matrix to cover `data`'s rows.
    ///
    /// Extension is sound only when the first `pair.n()` rows of `data`
    /// are bit-identical to the rows the matrix was computed from, which
    /// [`AnalysisCache::prefix_rows_unchanged`] verifies through the
    /// feature-column function ids. Otherwise a cold rebuild runs.
    fn update_pair(&mut self, detector: &PhaseDetector, matrix: &IntervalMatrix, data: &Dataset) {
        // An empty matrix beside scaled rows is a decoded checkpoint (the
        // blob carries the rows, not the matrix). Rebuild it first, so the
        // cached chains meet the same prefix check as in a live session.
        if self.pair.n() == 0 {
            if let Some(old) = &self.scaled {
                self.pair = PairwiseDistances::euclidean_of(old);
            }
        }
        let old_n = self.pair.n();
        let col_map = self.prefix_col_map(detector, matrix, data);
        let reusable = old_n == 0 || (old_n <= data.nrows() && col_map.is_some());
        if reusable {
            if old_n > 0 && data.nrows() > old_n {
                incprof_obs::counter(incprof_obs::names::CORE_CACHE_PAIR_EXTENDS).inc();
            }
            self.pair.extend(data);
            if !self.chains.is_empty() {
                if let Some(map) = &col_map {
                    let d_old = self.feature_fns.len();
                    let d_new = matrix.n_functions();
                    if d_new > d_old {
                        // The prefix check proved the old columns kept
                        // their bits and the inserted columns are exactly
                        // +0.0 over the covered prefix, so re-aligning
                        // the cached centroids is bit-preserving (see
                        // `SweepChains::remap_columns`). Expand the
                        // per-function map over the feature blocks.
                        let blocks = feature_blocks(detector);
                        let full: Vec<usize> = (0..blocks)
                            .flat_map(|b| map.iter().map(move |&c| b * d_new + c))
                            .collect();
                        self.chains.remap_columns(&full, d_new * blocks);
                        incprof_obs::counter(incprof_obs::names::CORE_CACHE_CENTROID_REMAPS).inc();
                    }
                }
            }
        } else {
            incprof_obs::counter(incprof_obs::names::CORE_CACHE_INVALIDATIONS).inc();
            incprof_obs::recorder().record(
                incprof_obs::EventKind::CacheInvalidation,
                old_n as u64,
                INVALIDATE_PAIR,
            );
            self.pair = PairwiseDistances::euclidean_of(data);
            if !self.chains.is_empty() {
                self.chains.clear();
                incprof_obs::counter(incprof_obs::names::CORE_CACHE_CENTROID_RESETS).inc();
            }
        }
    }

    /// Check that every previously-scaled row reappears bit-identically
    /// in `data`, after re-aligning feature columns by [`FunctionId`]
    /// (new functions insert columns; an old row's new entries there
    /// must be exactly `+0.0`, which leaves Euclidean sums bit-stable).
    /// Returns the old-to-new per-function column map on success, `None`
    /// when anything moved and the distance/chain state must rebuild
    /// cold.
    fn prefix_col_map(
        &self,
        detector: &PhaseDetector,
        matrix: &IntervalMatrix,
        data: &Dataset,
    ) -> Option<Vec<usize>> {
        let old = self.scaled.as_ref()?;
        if old.nrows() != self.pair.n() || old.nrows() > data.nrows() {
            return None;
        }
        // Old feature column t maps to new column col_map[t].
        let mut col_map: Vec<usize> = Vec::with_capacity(self.feature_fns.len());
        for id in &self.feature_fns {
            // A previously observed function vanishing is only possible
            // after a series reset; rebuild cold.
            col_map.push(matrix.col_of(*id)?);
        }
        let blocks = feature_blocks(detector);
        let d_old = self.feature_fns.len();
        let d_new = matrix.n_functions();
        if old.ncols() != d_old * blocks || data.ncols() != d_new * blocks {
            return None;
        }
        let mut expected = vec![0.0_f64; d_new * blocks];
        for i in 0..old.nrows() {
            for v in expected.iter_mut() {
                *v = 0.0;
            }
            let old_row = old.row(i);
            for b in 0..blocks {
                for (t, &c) in col_map.iter().enumerate() {
                    expected[b * d_new + c] = old_row[b * d_old + t];
                }
            }
            let new_row = data.row(i);
            for (e, n) in expected.iter().zip(new_row) {
                if e.to_bits() != n.to_bits() {
                    return None;
                }
            }
        }
        Some(col_map)
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
        assert_eq!(back.pair.n(), 0);
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
        // Intervals, scaled rows, chain assignments: every section is
        // O(n). A doubling of n may at most double the blob (plus slack
        // for the fixed-size parts), never quadruple it.
        let detector = PhaseDetector::default();
        let small = cache_after(&detector, 128).encode_state().len();
        let large = cache_after(&detector, 256).encode_state().len();
        assert!(
            large * 2 <= small * 5,
            "blob grew {small} -> {large} bytes for n = 128 -> 256"
        );
    }

    #[test]
    fn rebuilt_matrix_goes_through_the_prefix_check() {
        // Under MinMax every snapshot of `series` raises the column
        // maxima, so the scaled prefix moves on each push. A decoded
        // cache has chains but no matrix; the matrix must be rebuilt
        // *before* the prefix check so the moved prefix drops those
        // chains, exactly as in a session that never restarted.
        let detector = PhaseDetector {
            scaling: incprof_cluster::Scaling::MinMax,
            ..PhaseDetector::default()
        };
        let blob = cache_after(&detector, 8).encode_state();
        let mut rehydrated = AnalysisCache::decode_state(&blob).expect("decodes");
        assert_eq!(rehydrated.pair.n(), 0, "the blob carries no matrix");
        assert!(!rehydrated.chains.is_empty());

        let resets = incprof_obs::counter(incprof_obs::names::CORE_CACHE_CENTROID_RESETS);
        let before = resets.get();
        let s9 = series(9);
        let warm = rehydrated.analyze(&detector, &s9).unwrap();
        assert!(resets.get() > before, "stale chains must be reset");
        assert_eq!(
            serde_json::to_string(&warm).unwrap(),
            serde_json::to_string(&detector.detect_series(&s9).unwrap()).unwrap()
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

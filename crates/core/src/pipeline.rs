//! The end-to-end phase-detection pipeline (paper §V, Fig. 1 right side).
//!
//! `SampleSeries` (cumulative) → interval profiles (delta) →
//! [`IntervalMatrix`] → clustering (k-means + elbow by default) →
//! Algorithm 1 → [`PhaseAnalysis`].

use crate::algorithm1::{identify_instrumentation, Algorithm1Config, ClusterIntervals};
use crate::types::Phase;
use incprof_cluster::{
    dbscan, ChainConfig, Dataset, DbscanParams, KMeansConfig, KSelectionMethod, SweepChains,
};
use incprof_collect::{IntervalMatrix, SampleSeries};
use incprof_profile::{FunctionTable, ProfileError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which clustering algorithm drives phase detection.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusteringMethod {
    /// k-means swept over `k = 1..=k_max` with the given k-selection
    /// criterion (the paper's configuration: `k_max = 8`, elbow).
    KMeans {
        /// Maximum k to sweep (paper: 8).
        k_max: usize,
        /// Elbow (paper default) or silhouette.
        selection: KSelectionMethod,
    },
    /// DBSCAN (the paper's negative ablation). Noise intervals are folded
    /// into the nearest discovered cluster; if DBSCAN finds no clusters at
    /// all, every interval becomes one phase.
    Dbscan(DbscanParams),
}

impl Default for ClusteringMethod {
    fn default() -> Self {
        ClusteringMethod::KMeans {
            k_max: 8,
            selection: KSelectionMethod::Elbow,
        }
    }
}

/// Which profile quantities form the clustering feature vectors.
///
/// The paper clusters on self times alone, having "experimented with
/// including or using other profiling data (number of calls, execution
/// time of children, etc.) but have not found these to improve the
/// results, and sometimes to worsen them" (§V-A). The other variants
/// exist to reproduce that ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FeatureSet {
    /// Per-function self time in seconds (the paper's configuration).
    #[default]
    SelfTime,
    /// Self time plus raw per-function call counts (mixed scales — the
    /// configuration the paper found could *worsen* results).
    SelfTimeAndCalls,
    /// Self time plus per-function child (callee) time.
    SelfTimeAndChildTime,
}

/// Errors from the phase-detection pipeline.
#[derive(Debug)]
pub enum PipelineError {
    /// The interval matrix has no intervals (empty collection run).
    NoIntervals,
    /// The interval matrix has intervals but no observed functions.
    NoFunctions,
    /// Profile data was inconsistent (non-monotonic cumulative series).
    Profile(ProfileError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::NoIntervals => write!(f, "no intervals collected"),
            PipelineError::NoFunctions => write!(f, "no functions observed in any interval"),
            PipelineError::Profile(e) => write!(f, "profile data error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ProfileError> for PipelineError {
    fn from(e: ProfileError) -> Self {
        PipelineError::Profile(e)
    }
}

/// Phase-detection configuration. [`PhaseDetector::default`] matches the
/// paper: k-means k = 1..8, elbow selection, raw self-time features, 95%
/// coverage threshold.
#[derive(Debug, Clone)]
pub struct PhaseDetector {
    /// Clustering algorithm and its parameters.
    pub clustering: ClusteringMethod,
    /// Which profile quantities to cluster on.
    pub features: FeatureSet,
    /// Algorithm 1 coverage threshold (paper: 0.95).
    pub coverage_threshold: f64,
    /// Seed for the k-means++ initialization.
    pub seed: u64,
    /// k-means restarts per k.
    pub restarts: usize,
    /// Review cadence of the incremental k-means fold (see
    /// [`incprof_cluster::incremental`]): fresh candidates compete with
    /// the warm-started incumbent whenever the interval count is a
    /// positive multiple of this. `0` disables reviews.
    pub review_every: usize,
    /// Fresh single-restart candidates per review.
    pub review_candidates: usize,
    /// Stop the k sweep once the mean silhouette has strictly decreased
    /// twice in a row. Only applies under
    /// [`KSelectionMethod::Silhouette`]; the elbow method always needs
    /// the full WCSS curve.
    pub sweep_early_exit: bool,
}

impl Default for PhaseDetector {
    fn default() -> Self {
        PhaseDetector {
            clustering: ClusteringMethod::default(),
            features: FeatureSet::SelfTime,
            coverage_threshold: 0.95,
            seed: 42,
            restarts: 8,
            review_every: 16,
            review_candidates: 2,
            sweep_early_exit: true,
        }
    }
}

/// The pipeline's output: phases with selected instrumentation sites,
/// plus the per-k diagnostics used for reporting and ablations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseAnalysis {
    /// Number of phases detected.
    pub k: usize,
    /// Phase index per interval.
    pub assignments: Vec<usize>,
    /// The phases, each with its Algorithm 1 sites.
    pub phases: Vec<Phase>,
    /// WCSS per swept k (k-means only; empty for DBSCAN).
    pub wcss_sweep: Vec<f64>,
    /// Mean silhouette per swept k (k-means with silhouette selection
    /// only; empty for the elbow and for DBSCAN).
    pub silhouette_sweep: Vec<Option<f64>>,
}

impl PhaseAnalysis {
    /// Total distinct ⟨function, type⟩ sites across all phases.
    pub fn total_sites(&self) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for p in &self.phases {
            for s in &p.sites {
                seen.insert((s.function, s.inst_type));
            }
        }
        seen.len()
    }
}

impl PhaseDetector {
    /// Paper-default detector.
    pub fn new() -> PhaseDetector {
        Self::default()
    }

    /// A stable 64-bit fingerprint of this configuration (FNV-1a over
    /// every field, floats by bit pattern). Two detectors with equal
    /// fingerprints are behaviorally identical — the key the incremental
    /// [`crate::cache::AnalysisCache`] memoizes results under, so a
    /// config change is detected as a cache invalidation rather than
    /// silently served stale. The destructuring below names every field
    /// (no `..`), so a field added to [`PhaseDetector`] does not compile
    /// until it is mixed in here.
    pub fn fingerprint(&self) -> u64 {
        let PhaseDetector {
            clustering,
            features,
            coverage_threshold,
            seed,
            restarts,
            review_every,
            review_candidates,
            sweep_early_exit,
        } = self;
        // FNV-1a, 64-bit.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        match clustering {
            ClusteringMethod::KMeans { k_max, selection } => {
                mix(1);
                mix(*k_max as u64);
                mix(match selection {
                    KSelectionMethod::Elbow => 0,
                    KSelectionMethod::Silhouette => 1,
                });
            }
            ClusteringMethod::Dbscan(DbscanParams { eps, min_points }) => {
                mix(2);
                mix(eps.to_bits());
                mix(*min_points as u64);
            }
        }
        mix(match features {
            FeatureSet::SelfTime => 0,
            FeatureSet::SelfTimeAndCalls => 1,
            FeatureSet::SelfTimeAndChildTime => 2,
        });
        mix(coverage_threshold.to_bits());
        mix(*seed);
        mix(*restarts as u64);
        mix(*review_every as u64);
        mix(*review_candidates as u64);
        mix(u64::from(*sweep_early_exit));
        h
    }

    /// The incremental-fold configuration this detector clusters with.
    pub(crate) fn chain_config(&self) -> ChainConfig {
        ChainConfig {
            base: KMeansConfig {
                restarts: self.restarts,
                ..KMeansConfig::new(1).with_seed(self.seed)
            },
            review_every: self.review_every,
            review_candidates: self.review_candidates,
        }
    }

    /// Detect phases from an already-built interval matrix.
    pub fn detect(&self, matrix: &IntervalMatrix) -> Result<PhaseAnalysis, PipelineError> {
        let _detect_span = incprof_obs::span(incprof_obs::names::CORE_PIPELINE_DETECT);
        self.detect_resuming(matrix, &mut SweepChains::new())
    }

    /// Cluster `matrix`'s raw feature rows, resuming the k-means `chains`
    /// (ignored by DBSCAN). This is the entry point
    /// [`crate::cache::AnalysisCache`] uses to reuse clustering work
    /// across streamed queries; with empty chains it is exactly
    /// [`PhaseDetector::detect`] — the clustering is the same canonical
    /// fold either way ([`incprof_cluster::incremental`]), cached chains
    /// merely resume it instead of replaying from row one. Silhouette
    /// selection builds its pairwise-distance matrix inside the sweep on
    /// every call; the elbow builds none.
    pub(crate) fn detect_resuming(
        &self,
        matrix: &IntervalMatrix,
        chains: &mut SweepChains,
    ) -> Result<PhaseAnalysis, PipelineError> {
        if matrix.n_intervals() == 0 {
            return Err(PipelineError::NoIntervals);
        }
        if matrix.n_functions() == 0 {
            return Err(PipelineError::NoFunctions);
        }

        let features_span = incprof_obs::span(incprof_obs::names::CORE_PIPELINE_FEATURES);
        let data = &Dataset::from_rows(self.build_features(matrix));
        drop(features_span);

        let cluster_span = incprof_obs::span(incprof_obs::names::CORE_PIPELINE_CLUSTER);
        let (assignments, centroids, wcss_sweep, silhouette_sweep) = match &self.clustering {
            ClusteringMethod::KMeans { k_max, selection } => {
                let cfg = self.chain_config();
                let sel =
                    chains.evaluate(data, *k_max, *selection, &cfg, None, self.sweep_early_exit);
                (
                    sel.result.assignments.clone(),
                    sel.result.centroids.clone(),
                    sel.sweep.wcss.clone(),
                    sel.sweep.silhouettes.clone(),
                )
            }
            ClusteringMethod::Dbscan(params) => {
                let labels = dbscan(data, *params);
                let assignments = fold_noise(data, &labels);
                let k = assignments.iter().copied().max().unwrap_or(0) + 1;
                let centroids = cluster_means(data, &assignments, k);
                (assignments, centroids, Vec::new(), Vec::new())
            }
        };
        drop(cluster_span);

        let algo1_span = incprof_obs::span(incprof_obs::names::CORE_PIPELINE_ALGORITHM1);
        let k = assignments.iter().copied().max().unwrap_or(0) + 1;
        let clusters: Vec<ClusterIntervals> = (0..k)
            .map(|c| {
                let intervals: Vec<usize> = assignments
                    .iter()
                    .enumerate()
                    .filter(|&(_, &a)| a == c)
                    .map(|(i, _)| i)
                    .collect();
                let centroid_dist = intervals
                    .iter()
                    .map(|&i| incprof_cluster::distance::euclidean(data.row(i), centroids.row(c)))
                    .collect();
                ClusterIntervals {
                    intervals,
                    centroid_dist,
                }
            })
            .collect();

        let phases = identify_instrumentation(
            matrix,
            &clusters,
            Algorithm1Config {
                coverage_threshold: self.coverage_threshold,
            },
        );
        drop(algo1_span);

        incprof_obs::counter(incprof_obs::names::CORE_PIPELINE_DETECT_RUNS).inc();
        incprof_obs::debug!(
            "phase detection: k = {k} over {} intervals × {} functions",
            matrix.n_intervals(),
            matrix.n_functions()
        );
        Ok(PhaseAnalysis {
            k,
            assignments,
            phases,
            wcss_sweep,
            silhouette_sweep,
        })
    }

    /// Assemble clustering feature rows per [`FeatureSet`].
    fn build_features(&self, matrix: &IntervalMatrix) -> Vec<Vec<f64>> {
        let n = matrix.n_intervals();
        let d = matrix.n_functions();
        (0..n)
            .map(|i| {
                let mut row: Vec<f64> = matrix.feature_row(i).to_vec();
                match self.features {
                    FeatureSet::SelfTime => {}
                    FeatureSet::SelfTimeAndCalls => {
                        row.extend((0..d).map(|c| matrix.calls(i, c) as f64));
                    }
                    FeatureSet::SelfTimeAndChildTime => {
                        row.extend((0..d).map(|c| matrix.child_secs(i, c)));
                    }
                }
                row
            })
            .collect()
    }

    /// Detect phases for several independent runs concurrently, one
    /// [`incprof_par`] pool task per matrix.
    ///
    /// Within a task the nested clustering parallelism runs sequentially
    /// (the pool does not nest), so each entry of the result is
    /// bit-identical to calling [`PhaseDetector::detect`] on that matrix
    /// alone — this only buys wall-clock time when analyzing a batch
    /// (e.g. one run per rank, or an experiment sweep).
    pub fn detect_many(
        &self,
        matrices: &[IntervalMatrix],
    ) -> Vec<Result<PhaseAnalysis, PipelineError>> {
        let _span = incprof_obs::span(incprof_obs::names::CORE_PIPELINE_DETECT_MANY);
        incprof_par::Pool::current().map_index(matrices.len(), 1, |i| self.detect(&matrices[i]))
    }

    /// Detect phases from a cumulative sample series (runs the delta step
    /// first).
    pub fn detect_series(&self, series: &SampleSeries) -> Result<PhaseAnalysis, PipelineError> {
        let _series_span = incprof_obs::span(incprof_obs::names::CORE_PIPELINE_DETECT_SERIES);
        let delta_span = incprof_obs::span(incprof_obs::names::CORE_PIPELINE_DELTA);
        let intervals = series.interval_profiles()?;
        drop(delta_span);
        let matrix_span = incprof_obs::span(incprof_obs::names::CORE_PIPELINE_MATRIX);
        let matrix = IntervalMatrix::from_interval_profiles(&intervals);
        drop(matrix_span);
        self.detect(&matrix)
    }

    /// Detect phases through the full paper-fidelity path: render every
    /// cumulative sample to a gprof text report, parse the reports back,
    /// delta, and analyze. Returns the analysis, the matrix it ran on,
    /// and the function table reconstructed from the reports (ids in the
    /// analysis refer to this table).
    pub fn detect_series_via_reports(
        &self,
        series: &SampleSeries,
    ) -> Result<(PhaseAnalysis, IntervalMatrix, FunctionTable), PipelineError> {
        let (intervals, parsed_table) =
            incprof_collect::report_path::intervals_via_reports(series)?;
        let matrix = IntervalMatrix::from_interval_profiles(&intervals);
        let analysis = self.detect(&matrix)?;
        Ok((analysis, matrix, parsed_table))
    }
}

/// Replace DBSCAN noise labels with the nearest cluster, or cluster 0
/// when no clusters exist.
fn fold_noise(data: &Dataset, labels: &[incprof_cluster::DbscanLabel]) -> Vec<usize> {
    let k = labels
        .iter()
        .filter_map(|l| l.cluster())
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    if k == 0 {
        return vec![0; labels.len()];
    }
    let pre: Vec<Option<usize>> = labels.iter().map(|l| l.cluster()).collect();
    labels
        .iter()
        .enumerate()
        .map(|(i, l)| match l.cluster() {
            Some(c) => c,
            None => {
                // Nearest labeled point's cluster.
                let mut best = 0;
                let mut best_d = f64::INFINITY;
                for (j, c) in pre.iter().enumerate() {
                    if let Some(c) = c {
                        let d = incprof_cluster::distance::sq_euclidean(data.row(i), data.row(j));
                        if d < best_d {
                            best_d = d;
                            best = *c;
                        }
                    }
                }
                best
            }
        })
        .collect()
}

/// Mean point per cluster (centroids for DBSCAN-derived assignments).
fn cluster_means(data: &Dataset, assignments: &[usize], k: usize) -> Dataset {
    let d = data.ncols();
    let mut sums = Dataset::zeros(k, d);
    let mut counts = vec![0usize; k];
    for (i, &c) in assignments.iter().enumerate() {
        counts[c] += 1;
        let row = data.row(i);
        let target = sums.row_mut(c);
        for j in 0..d {
            target[j] += row[j];
        }
    }
    for c in 0..k {
        if counts[c] > 0 {
            let inv = 1.0 / counts[c] as f64;
            for v in sums.row_mut(c) {
                *v *= inv;
            }
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::InstrumentationType;
    use incprof_profile::{FlatProfile, FunctionId, FunctionStats};

    fn profile(entries: &[(u32, u64, u64)]) -> FlatProfile {
        let mut p = FlatProfile::new();
        for &(id, self_ns, calls) in entries {
            p.set(
                FunctionId(id),
                FunctionStats {
                    self_time: self_ns,
                    calls,
                    child_time: 0,
                },
            );
        }
        p
    }

    /// A synthetic run with two planted phases: init (function 0, bursty
    /// calls) then solve (function 1, long-lived).
    fn planted_two_phase_matrix() -> IntervalMatrix {
        let mut intervals = Vec::new();
        for _ in 0..10 {
            intervals.push(profile(&[(0, 1_000_000_000, 50)]));
        }
        for _ in 0..20 {
            intervals.push(profile(&[(1, 1_000_000_000, 0)]));
        }
        IntervalMatrix::from_interval_profiles(&intervals)
    }

    #[test]
    fn detects_planted_two_phases() {
        let matrix = planted_two_phase_matrix();
        let analysis = PhaseDetector::new().detect(&matrix).unwrap();
        assert_eq!(analysis.k, 2);
        // The elbow reads WCSS over k = 1..8 and nothing else: no
        // silhouette is scored, so that column stays empty.
        assert_eq!(analysis.wcss_sweep.len(), 8);
        assert!(analysis.silhouette_sweep.is_empty());
        // One phase of 10 intervals, one of 20.
        let mut sizes: Vec<usize> = analysis.phases.iter().map(|p| p.intervals.len()).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![10, 20]);
        // Each phase selects its dominant function with the right type.
        for p in &analysis.phases {
            assert_eq!(p.sites.len(), 1);
            let s = &p.sites[0];
            if p.intervals.len() == 10 {
                assert_eq!(s.function, FunctionId(0));
                assert_eq!(s.inst_type, InstrumentationType::Body);
            } else {
                assert_eq!(s.function, FunctionId(1));
                assert_eq!(s.inst_type, InstrumentationType::Loop);
            }
            assert_eq!(s.phase_pct, 100.0);
        }
    }

    #[test]
    fn uniform_run_is_one_phase() {
        let intervals: Vec<FlatProfile> =
            (0..12).map(|_| profile(&[(0, 1_000_000_000, 3)])).collect();
        let matrix = IntervalMatrix::from_interval_profiles(&intervals);
        let analysis = PhaseDetector::new().detect(&matrix).unwrap();
        assert_eq!(analysis.k, 1);
        assert_eq!(analysis.phases[0].sites.len(), 1);
    }

    #[test]
    fn empty_matrix_errors() {
        let matrix = IntervalMatrix::from_interval_profiles(&[]);
        assert!(matches!(
            PhaseDetector::new().detect(&matrix),
            Err(PipelineError::NoIntervals)
        ));
        let matrix = IntervalMatrix::from_interval_profiles(&[FlatProfile::new()]);
        assert!(matches!(
            PhaseDetector::new().detect(&matrix),
            Err(PipelineError::NoFunctions)
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let matrix = planted_two_phase_matrix();
        let det = PhaseDetector::new();
        let a = det.detect(&matrix).unwrap();
        let b = det.detect(&matrix).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.phases, b.phases);
    }

    #[test]
    fn detect_many_matches_sequential_detects() {
        let matrices = vec![
            planted_two_phase_matrix(),
            IntervalMatrix::from_interval_profiles(
                &(0..12)
                    .map(|_| profile(&[(0, 1_000_000_000, 3)]))
                    .collect::<Vec<_>>(),
            ),
            IntervalMatrix::from_interval_profiles(&[]),
        ];
        let det = PhaseDetector::new();
        let many = det.detect_many(&matrices);
        assert_eq!(many.len(), 3);
        for (matrix, got) in matrices.iter().zip(&many) {
            match (det.detect(matrix), got) {
                (Ok(solo), Ok(batched)) => {
                    assert_eq!(solo.k, batched.k);
                    assert_eq!(solo.assignments, batched.assignments);
                    assert_eq!(solo.phases, batched.phases);
                    assert_eq!(solo.wcss_sweep, batched.wcss_sweep);
                }
                (Err(PipelineError::NoIntervals), Err(PipelineError::NoIntervals)) => {}
                (solo, batched) => panic!("mismatch: {solo:?} vs {batched:?}"),
            }
        }
    }

    #[test]
    fn dbscan_variant_finds_planted_phases() {
        let matrix = planted_two_phase_matrix();
        let det = PhaseDetector {
            clustering: ClusteringMethod::Dbscan(DbscanParams {
                eps: 0.1,
                min_points: 3,
            }),
            ..PhaseDetector::default()
        };
        let analysis = det.detect(&matrix).unwrap();
        assert_eq!(analysis.k, 2);
        assert!(analysis.wcss_sweep.is_empty());
    }

    #[test]
    fn dbscan_all_noise_becomes_one_phase() {
        // Spread intervals far apart with min_points too high for any core.
        let intervals: Vec<FlatProfile> = (0..5)
            .map(|i| profile(&[(0, (i as u64 + 1) * 1_000_000_000, 1)]))
            .collect();
        let matrix = IntervalMatrix::from_interval_profiles(&intervals);
        let det = PhaseDetector {
            clustering: ClusteringMethod::Dbscan(DbscanParams {
                eps: 0.001,
                min_points: 3,
            }),
            ..PhaseDetector::default()
        };
        let analysis = det.detect(&matrix).unwrap();
        assert_eq!(analysis.k, 1);
        assert_eq!(analysis.assignments, vec![0; 5]);
    }

    #[test]
    fn detect_series_runs_delta_first() {
        use incprof_profile::GmonData;
        // Cumulative: function 0 grows for 5 samples, then function 1.
        let mut series = SampleSeries::new();
        let mut f0 = 0u64;
        let mut f1 = 0u64;
        for i in 0..10u64 {
            if i < 5 {
                f0 += 1_000_000_000;
            } else {
                f1 += 1_000_000_000;
            }
            let mut s = GmonData {
                sample_index: i,
                timestamp_ns: i,
                ..Default::default()
            };
            s.flat.set(
                FunctionId(0),
                FunctionStats {
                    self_time: f0,
                    calls: i.min(5),
                    child_time: 0,
                },
            );
            if f1 > 0 {
                s.flat.set(
                    FunctionId(1),
                    FunctionStats {
                        self_time: f1,
                        calls: 0,
                        child_time: 0,
                    },
                );
            }
            series.push(s);
        }
        let analysis = PhaseDetector::new().detect_series(&series).unwrap();
        assert_eq!(analysis.k, 2);
    }

    #[test]
    fn silhouette_selection_variant_works() {
        let matrix = planted_two_phase_matrix();
        let det = PhaseDetector {
            clustering: ClusteringMethod::KMeans {
                k_max: 8,
                selection: KSelectionMethod::Silhouette,
            },
            ..PhaseDetector::default()
        };
        let analysis = det.detect(&matrix).unwrap();
        assert_eq!(analysis.k, 2);
        assert!(analysis.silhouette_sweep.iter().flatten().count() > 0);
        assert_eq!(analysis.silhouette_sweep.len(), analysis.wcss_sweep.len());
    }

    #[test]
    fn total_sites_dedupes_across_phases() {
        let matrix = planted_two_phase_matrix();
        let analysis = PhaseDetector::new().detect(&matrix).unwrap();
        assert_eq!(analysis.total_sites(), 2);
    }

    #[test]
    fn every_field_moves_the_fingerprint() {
        use KSelectionMethod::{Elbow, Silhouette};
        let kmeans = |k_max, selection| ClusteringMethod::KMeans { k_max, selection };
        let dbscan = |eps, min_points| ClusteringMethod::Dbscan(DbscanParams { eps, min_points });
        let vary = |edit: &dyn Fn(&mut PhaseDetector)| {
            let mut d = PhaseDetector::default();
            edit(&mut d);
            d.fingerprint()
        };
        let fps = [
            vary(&|_| {}),
            vary(&|d| d.clustering = kmeans(7, Elbow)),
            vary(&|d| d.clustering = kmeans(8, Silhouette)),
            vary(&|d| d.clustering = dbscan(0.5, 3)),
            vary(&|d| d.clustering = dbscan(0.25, 3)),
            vary(&|d| d.clustering = dbscan(0.5, 4)),
            vary(&|d| d.features = FeatureSet::SelfTimeAndCalls),
            vary(&|d| d.features = FeatureSet::SelfTimeAndChildTime),
            vary(&|d| d.coverage_threshold = 0.9),
            vary(&|d| d.seed += 1),
            vary(&|d| d.restarts += 1),
            vary(&|d| d.review_every += 1),
            vary(&|d| d.review_candidates += 1),
            vary(&|d| d.sweep_early_exit = !d.sweep_early_exit),
        ];
        let distinct: std::collections::BTreeSet<u64> = fps.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            fps.len(),
            "two configurations share a fingerprint"
        );
    }
}

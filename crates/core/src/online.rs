//! Online (streaming) phase detection.
//!
//! The published pipeline is offline: collect the whole run, then
//! cluster. The paper's related work (§VII) highlights Nickolayev et
//! al.'s real-time statistical clustering and "work in online
//! performance monitoring and analysis … processing incremental
//! performance data" as relevant directions. This module provides that
//! capability: a leader–follower (sequential) clusterer that consumes
//! interval profiles *as the collector produces them*, assigning each
//! interval to an existing phase when it is close enough to the phase's
//! running centroid and opening a new phase otherwise.
//!
//! This is the shape a deployed IncProf would take: phase transitions
//! become visible one interval after they happen, instead of after the
//! run ends.

use incprof_profile::{FlatProfile, FunctionId};
use std::collections::BTreeMap;

/// Distance threshold (seconds, Euclidean over interval feature
/// vectors) under which an interval joins the nearest phase. Relative to
/// the 1-second interval: intervals within one phase differ by boundary
/// jitter, across phases by the whole interval length.
const DISTANCE_THRESHOLD_SECS: f64 = 0.35;

/// Configuration for [`OnlinePhaseDetector`].
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Cap on phases; past it, intervals always join the nearest phase
    /// (the paper's k ≤ 8 observation makes 8 a natural cap).
    pub max_phases: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig { max_phases: 8 }
    }
}

/// What [`OnlinePhaseDetector::observe`] reports for one interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlineObservation {
    /// Interval index (0-based, in arrival order).
    pub interval: usize,
    /// Phase the interval was assigned to.
    pub phase: usize,
    /// True when this interval *created* the phase.
    pub new_phase: bool,
    /// True when the phase differs from the previous interval's phase
    /// (a phase transition, the event a deployment would alert on).
    pub transition: bool,
    /// True when the interval was beyond the distance threshold of every
    /// centroid but was absorbed into the nearest phase anyway because
    /// the detector is saturated at [`OnlineConfig::max_phases`]. A run
    /// of capped observations means the cap is hiding real behavior
    /// changes — raise `max_phases` or treat the assignment as low
    /// confidence.
    pub capped: bool,
}

/// Streaming leader–follower phase detector.
#[derive(Debug, Clone)]
pub struct OnlinePhaseDetector {
    config: OnlineConfig,
    /// Column index per function, grown as new functions appear.
    columns: BTreeMap<FunctionId, usize>,
    /// Phase centroids in the growing feature space.
    centroids: Vec<Vec<f64>>,
    /// Members per phase (for running means).
    member_counts: Vec<usize>,
    assignments: Vec<usize>,
    transitions: Vec<usize>,
    /// Interval indices absorbed only because of the phase cap.
    capped: Vec<usize>,
}

impl OnlinePhaseDetector {
    /// Create a detector.
    pub fn new(config: OnlineConfig) -> OnlinePhaseDetector {
        OnlinePhaseDetector {
            config,
            columns: BTreeMap::new(),
            centroids: Vec::new(),
            member_counts: Vec::new(),
            assignments: Vec::new(),
            transitions: Vec::new(),
            capped: Vec::new(),
        }
    }

    /// Feed one interval profile; returns its assignment.
    pub fn observe(&mut self, interval: &FlatProfile) -> OnlineObservation {
        // Grow the feature space for unseen functions (all existing
        // centroids implicitly extend with zeros).
        for (id, _) in interval.iter() {
            let next = self.columns.len();
            self.columns.entry(id).or_insert(next);
        }
        let dim = self.columns.len();
        for c in &mut self.centroids {
            c.resize(dim, 0.0);
        }
        // lint: allow(A01, one feature vector per interval whose dim tracks the live function set; reuse would need a self-field resize on every growth)
        let mut features = vec![0.0; dim];
        for (id, stats) in interval.iter() {
            features[self.columns[&id]] = stats.self_time as f64 / 1e9;
        }

        // Nearest centroid.
        let mut best: Option<(usize, f64)> = None;
        for (p, c) in self.centroids.iter().enumerate() {
            let d = dist(&features, c);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((p, d));
            }
        }

        let idx = self.assignments.len();
        let (phase, new_phase, capped) = match best {
            Some((p, d)) if d <= DISTANCE_THRESHOLD_SECS => {
                self.absorb(p, &features);
                (p, false, false)
            }
            // Saturated: absorb a too-distant interval rather than open
            // a phase past the cap, but mark the assignment as forced.
            Some((p, _)) if self.centroids.len() >= self.config.max_phases => {
                self.absorb(p, &features);
                self.capped.push(idx);
                (p, false, true)
            }
            _ => {
                self.centroids.push(features);
                self.member_counts.push(1);
                (self.centroids.len() - 1, true, false)
            }
        };

        let transition = idx > 0 && self.assignments[idx - 1] != phase;
        if transition {
            self.transitions.push(idx);
        }
        self.assignments.push(phase);
        OnlineObservation {
            interval: idx,
            phase,
            new_phase,
            transition,
            capped,
        }
    }

    fn absorb(&mut self, phase: usize, features: &[f64]) {
        self.member_counts[phase] += 1;
        let n = self.member_counts[phase] as f64;
        for (cv, &fv) in self.centroids[phase].iter_mut().zip(features) {
            *cv += (fv - *cv) / n;
        }
    }

    /// Forget every observation, as [`OnlinePhaseDetector::new`] with
    /// this configuration would, keeping the buffers' capacity.
    pub fn reset(&mut self) {
        let OnlinePhaseDetector {
            config: _,
            columns,
            centroids,
            member_counts,
            assignments,
            transitions,
            capped,
        } = self;
        columns.clear();
        centroids.clear();
        member_counts.clear();
        assignments.clear();
        transitions.clear();
        capped.clear();
    }

    /// Number of phases opened so far.
    pub fn n_phases(&self) -> usize {
        self.centroids.len()
    }

    /// Assignment per observed interval.
    pub fn assignments(&self) -> &[usize] {
        &self.assignments
    }

    /// Interval indices at which the phase changed.
    pub fn transitions(&self) -> &[usize] {
        &self.transitions
    }

    /// Member count per phase.
    pub fn phase_sizes(&self) -> &[usize] {
        &self.member_counts
    }

    /// Interval indices whose assignment was forced by the
    /// [`OnlineConfig::max_phases`] cap (see
    /// [`OnlineObservation::capped`]).
    pub fn capped_intervals(&self) -> &[usize] {
        &self.capped
    }
}

#[inline]
fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use incprof_profile::FunctionStats;

    fn interval(entries: &[(u32, f64)]) -> FlatProfile {
        let mut p = FlatProfile::new();
        for &(id, secs) in entries {
            p.set(
                FunctionId(id),
                FunctionStats {
                    self_time: (secs * 1e9) as u64,
                    calls: 1,
                    child_time: 0,
                },
            );
        }
        p
    }

    #[test]
    fn detects_planted_phases_and_transitions() {
        let mut det = OnlinePhaseDetector::new(OnlineConfig::default());
        let mut observations = Vec::new();
        for _ in 0..10 {
            observations.push(det.observe(&interval(&[(0, 1.0)])));
        }
        for _ in 0..10 {
            observations.push(det.observe(&interval(&[(1, 1.0)])));
        }
        for _ in 0..5 {
            observations.push(det.observe(&interval(&[(0, 1.0)])));
        }
        assert_eq!(det.n_phases(), 2);
        // Returning to phase 0 reuses the old centroid.
        assert_eq!(det.assignments()[20..], [0; 5]);
        assert_eq!(det.transitions(), &[10, 20]);
        // New-phase flags exactly at first sight.
        let new_flags: Vec<usize> = observations
            .iter()
            .filter(|o| o.new_phase)
            .map(|o| o.interval)
            .collect();
        assert_eq!(new_flags, vec![0, 10]);
    }

    /// A reset detector answers every later interval as a fresh one does.
    #[test]
    fn reset_detector_matches_a_fresh_one() {
        let config = OnlineConfig { max_phases: 2 };
        let mut reused = OnlinePhaseDetector::new(config.clone());
        for id in [0, 1, 2, 3] {
            reused.observe(&interval(&[(id, 1.0)]));
        }
        assert!(!reused.capped_intervals().is_empty());
        reused.reset();
        let mut fresh = OnlinePhaseDetector::new(config);
        for id in [3, 3, 1, 0, 2] {
            let one = interval(&[(id, 1.0)]);
            assert_eq!(reused.observe(&one), fresh.observe(&one));
        }
        assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn jitter_within_threshold_stays_in_phase() {
        let mut det = OnlinePhaseDetector::new(OnlineConfig::default());
        for i in 0..20 {
            let wobble = 1.0 + 0.01 * (i % 5) as f64;
            det.observe(&interval(&[(0, wobble)]));
        }
        assert_eq!(det.n_phases(), 1);
        assert!(det.transitions().is_empty());
    }

    #[test]
    fn max_phases_caps_growth() {
        let cfg = OnlineConfig { max_phases: 2 };
        let mut det = OnlinePhaseDetector::new(cfg);
        det.observe(&interval(&[(0, 1.0)]));
        det.observe(&interval(&[(1, 1.0)]));
        det.observe(&interval(&[(2, 1.0)])); // would be phase 3
        assert_eq!(det.n_phases(), 2);
        assert_eq!(det.assignments().len(), 3);
    }

    #[test]
    fn capped_flag_marks_forced_absorption_at_max_phases() {
        let cfg = OnlineConfig { max_phases: 2 };
        let mut det = OnlinePhaseDetector::new(cfg);
        // Two clean phases fill the cap; neither observation is capped.
        assert!(!det.observe(&interval(&[(0, 1.0)])).capped);
        assert!(!det.observe(&interval(&[(1, 1.0)])).capped);
        // A planted outlier, orthogonal to both centroids: far beyond
        // the threshold, absorbed only because the detector is full.
        let outlier = det.observe(&interval(&[(2, 5.0)]));
        assert!(outlier.capped, "distant interval at cap must be flagged");
        assert!(!outlier.new_phase);
        assert_eq!(det.n_phases(), 2);
        // An interval sitting on an existing centroid is a genuine
        // within-threshold match even at the cap — not capped. Phase 1's
        // centroid is unshifted (the outlier joined phase 0 or 1; use
        // whichever the outlier did not join).
        let clean_id = if outlier.phase == 0 { 1 } else { 0 };
        let clean = det.observe(&interval(&[(clean_id as u32, 1.0)]));
        assert!(!clean.capped, "in-threshold match must not be flagged");
        assert_eq!(det.capped_intervals(), &[2]);
    }

    #[test]
    fn running_mean_tracks_centroid() {
        let mut det = OnlinePhaseDetector::new(OnlineConfig::default());
        det.observe(&interval(&[(0, 1.0)]));
        det.observe(&interval(&[(0, 1.2)]));
        // Centroid is the mean 1.1; a 1.1 interval is distance 0.
        let obs = det.observe(&interval(&[(0, 1.1)]));
        assert_eq!(obs.phase, 0);
        assert_eq!(det.phase_sizes()[0], 3);
    }

    #[test]
    fn new_functions_extend_feature_space() {
        let mut det = OnlinePhaseDetector::new(OnlineConfig::default());
        det.observe(&interval(&[(0, 1.0)]));
        // A new function dimension appears mid-run.
        let obs = det.observe(&interval(&[(7, 1.0)]));
        assert!(obs.new_phase, "orthogonal behavior must open a phase");
        assert_eq!(det.n_phases(), 2);
    }

    #[test]
    fn agrees_with_batch_kmeans_on_clean_phases() {
        use incprof_cluster::{kmeans, Dataset, KMeansConfig};
        // Three clean phases; online and batch must produce the same
        // partition (up to label permutation).
        let mut profiles = Vec::new();
        for _ in 0..8 {
            profiles.push(interval(&[(0, 1.0)]));
        }
        for _ in 0..8 {
            profiles.push(interval(&[(1, 1.0)]));
        }
        for _ in 0..8 {
            profiles.push(interval(&[(2, 1.0)]));
        }
        let mut det = OnlinePhaseDetector::new(OnlineConfig::default());
        for p in &profiles {
            det.observe(p);
        }
        let online = det.assignments().to_vec();

        let matrix = incprof_collect::IntervalMatrix::from_interval_profiles(&profiles);
        let data = Dataset::from_rows(matrix.feature_rows());
        let batch = kmeans(&data, &KMeansConfig::new(3)).assignments;

        for i in 0..profiles.len() {
            for j in (i + 1)..profiles.len() {
                assert_eq!(
                    online[i] == online[j],
                    batch[i] == batch[j],
                    "co-membership mismatch at ({i},{j})"
                );
            }
        }
    }
}

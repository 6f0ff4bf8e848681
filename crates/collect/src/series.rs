//! Ordered cumulative snapshot series and the delta step.

use incprof_profile::{FlatProfile, GmonData, ProfileError};

/// The sequence of cumulative snapshots produced by a collection run —
/// the in-memory equivalent of the paper's numbered `gmon.out` samples,
/// each with its own function table. Equality compares the tables too.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SampleSeries {
    snapshots: Vec<GmonData>,
}

/// Rejected [`SampleSeries::append_monotonic`]: the snapshot's
/// `sample_index` did not advance past the last one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfOrder {
    /// The offending snapshot's index.
    pub index: u64,
    /// The series' current last index.
    pub last: u64,
}

impl std::fmt::Display for OutOfOrder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snapshot index {} does not advance past {}",
            self.index, self.last
        )
    }
}

impl std::error::Error for OutOfOrder {}

impl SampleSeries {
    /// Empty series.
    pub fn new() -> SampleSeries {
        Self::default()
    }

    /// Append a snapshot. Snapshots must arrive in sample-index order.
    ///
    /// # Panics
    /// Panics if `snap.sample_index` is not the next expected index.
    pub fn push(&mut self, snap: GmonData) {
        let expected = self.snapshots.len() as u64;
        assert_eq!(
            snap.sample_index, expected,
            "snapshot index {} out of order (expected {expected})",
            snap.sample_index
        );
        self.snapshots.push(snap);
    }

    /// Append a snapshot whose `sample_index` need only be strictly
    /// greater than the last one — the gap-tolerant variant of
    /// [`SampleSeries::push`] for series rebuilt from a retention-trimmed
    /// snapshot log, where original indices survive but positions do not.
    ///
    /// Returns [`OutOfOrder`] when the index does not advance, leaving
    /// the series unchanged.
    pub fn append_monotonic(&mut self, snap: GmonData) -> Result<(), OutOfOrder> {
        if let Some(last) = self.snapshots.last() {
            if snap.sample_index <= last.sample_index {
                return Err(OutOfOrder {
                    index: snap.sample_index,
                    last: last.sample_index,
                });
            }
        }
        self.snapshots.push(snap);
        Ok(())
    }

    /// Remove the snapshots with the given original `sample_index`es (a
    /// retention trim), preserving the order of the survivors. Indices
    /// not present are ignored. Returns how many snapshots were removed.
    ///
    /// Snapshots are cumulative, so dropping interior samples merges the
    /// adjacent intervals rather than losing totals — the surviving
    /// series still deltas cleanly.
    pub fn remove_sample_indices(&mut self, drop: &[u64]) -> usize {
        if drop.is_empty() {
            return 0;
        }
        let before = self.snapshots.len();
        self.snapshots.retain(|s| !drop.contains(&s.sample_index));
        before - self.snapshots.len()
    }

    /// The series a collection at `m` times this one's interval would
    /// have produced: every `m`-th boundary sample plus the final stop
    /// sample, with `sample_index` renumbered from 0. `m` of 0 or 1
    /// returns a copy, as the store's retention stride treats them.
    ///
    /// The identity holds on the virtual clock only, where every
    /// boundary sample is taken exactly at its boundary. A wall-clock
    /// collector samples late by its own jitter, so there the result is
    /// an approximation of a coarse run.
    pub fn coarsen(&self, m: usize) -> SampleSeries {
        let Some((last, boundaries)) = self.snapshots.split_last() else {
            return SampleSeries::new();
        };
        if m <= 1 {
            return self.clone();
        }
        let kept = boundaries.iter().skip(m - 1).step_by(m).chain([last]);
        kept.zip(0..)
            .map(|(s, sample_index)| GmonData {
                sample_index,
                ..s.clone()
            })
            .collect()
    }

    /// Number of cumulative samples collected.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Borrow the cumulative snapshots.
    pub fn snapshots(&self) -> &[GmonData] {
        &self.snapshots
    }

    /// Take the cumulative snapshots out of the series.
    pub fn into_snapshots(self) -> Vec<GmonData> {
        self.snapshots
    }

    /// The last cumulative snapshot, if any (the whole-run profile).
    pub fn last(&self) -> Option<&GmonData> {
        self.snapshots.last()
    }

    /// Compute per-interval flat profiles by subtracting consecutive
    /// cumulative samples (paper §V-A). Interval `i` is
    /// `snapshot[i] - snapshot[i-1]`, with interval 0 measured from the
    /// empty profile (program start). Returns one profile per snapshot.
    pub fn interval_profiles(&self) -> Result<Vec<FlatProfile>, ProfileError> {
        deltas(self.snapshots.iter().map(|s| &s.flat))
    }

    /// Like [`SampleSeries::interval_profiles`] but over externally
    /// supplied cumulative profiles (e.g. ones reconstructed from parsed
    /// gprof reports via [`crate::report_path`]).
    pub fn deltas_of(cumulative: &[FlatProfile]) -> Result<Vec<FlatProfile>, ProfileError> {
        deltas(cumulative.iter())
    }
}

/// Each cumulative profile minus the one before it, the first minus the
/// empty profile.
fn deltas<'a>(
    cumulative: impl ExactSizeIterator<Item = &'a FlatProfile>,
) -> Result<Vec<FlatProfile>, ProfileError> {
    let empty = FlatProfile::new();
    let mut out = Vec::with_capacity(cumulative.len());
    let mut prev = &empty;
    for cur in cumulative {
        out.push(cur.delta(prev)?);
        prev = cur;
    }
    Ok(out)
}

impl FromIterator<GmonData> for SampleSeries {
    fn from_iter<T: IntoIterator<Item = GmonData>>(iter: T) -> Self {
        let mut s = SampleSeries::new();
        for snap in iter {
            s.push(snap);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use incprof_profile::{FunctionId, FunctionStats};

    fn snap(idx: u64, entries: &[(u32, u64, u64)]) -> GmonData {
        let mut s = GmonData {
            sample_index: idx,
            timestamp_ns: idx * 1000,
            ..Default::default()
        };
        for &(id, self_time, calls) in entries {
            s.flat.set(
                FunctionId(id),
                FunctionStats {
                    self_time,
                    calls,
                    child_time: 0,
                },
            );
        }
        s
    }

    #[test]
    fn interval_profiles_subtract_consecutive_samples() {
        let series: SampleSeries = vec![
            snap(0, &[(0, 100, 1)]),
            snap(1, &[(0, 250, 2), (1, 40, 1)]),
            snap(2, &[(0, 250, 2), (1, 90, 1)]),
        ]
        .into_iter()
        .collect();
        let intervals = series.interval_profiles().unwrap();
        assert_eq!(intervals.len(), 3);
        assert_eq!(intervals[0].get(FunctionId(0)).self_time, 100);
        assert_eq!(intervals[1].get(FunctionId(0)).self_time, 150);
        assert_eq!(intervals[1].get(FunctionId(1)).calls, 1);
        assert!(
            !intervals[2].contains(FunctionId(0)),
            "idle function absent from delta"
        );
        assert_eq!(intervals[2].get(FunctionId(1)).self_time, 50);
    }

    #[test]
    fn reconstruction_invariant_sum_of_deltas_is_last_sample() {
        let series: SampleSeries = vec![
            snap(0, &[(0, 10, 1)]),
            snap(1, &[(0, 30, 3), (2, 7, 1)]),
            snap(2, &[(0, 45, 4), (2, 7, 1)]),
        ]
        .into_iter()
        .collect();
        let intervals = series.interval_profiles().unwrap();
        let mut sum = FlatProfile::new();
        for p in &intervals {
            sum.merge(p);
        }
        assert_eq!(sum, series.last().unwrap().flat);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_push_panics() {
        let mut series = SampleSeries::new();
        series.push(snap(1, &[]));
    }

    #[test]
    fn empty_series() {
        let series = SampleSeries::new();
        assert!(series.is_empty());
        assert!(series.last().is_none());
        assert!(series.interval_profiles().unwrap().is_empty());
    }

    #[test]
    fn regression_in_series_is_an_error() {
        let series: SampleSeries = vec![snap(0, &[(0, 100, 1)]), snap(1, &[(0, 50, 1)])]
            .into_iter()
            .collect();
        assert!(series.interval_profiles().is_err());
    }

    #[test]
    fn deltas_of_external_profiles() {
        let mut a = FlatProfile::new();
        a.set(
            FunctionId(0),
            FunctionStats {
                self_time: 5,
                calls: 1,
                child_time: 0,
            },
        );
        let mut b = FlatProfile::new();
        b.set(
            FunctionId(0),
            FunctionStats {
                self_time: 9,
                calls: 2,
                child_time: 0,
            },
        );
        let deltas = SampleSeries::deltas_of(&[a, b]).unwrap();
        assert_eq!(deltas[1].get(FunctionId(0)).self_time, 4);
        assert_eq!(deltas[1].get(FunctionId(0)).calls, 1);
    }
    #[test]
    fn append_monotonic_allows_gaps_but_not_regressions() {
        let mut series = SampleSeries::new();
        series.append_monotonic(snap(0, &[(0, 10, 1)])).unwrap();
        series.append_monotonic(snap(4, &[(0, 20, 2)])).unwrap();
        series.append_monotonic(snap(7, &[(0, 30, 3)])).unwrap();
        assert_eq!(series.len(), 3);
        let err = series.append_monotonic(snap(7, &[])).unwrap_err();
        assert_eq!(err, OutOfOrder { index: 7, last: 7 });
        assert!(series.append_monotonic(snap(2, &[])).is_err());
        assert_eq!(series.len(), 3, "rejected snapshots must not land");
    }

    #[test]
    fn remove_sample_indices_trims_by_original_index() {
        let mut series = SampleSeries::new();
        for i in [0u64, 2, 5, 6, 9] {
            series
                .append_monotonic(snap(i, &[(0, (i + 1) * 10, i + 1)]))
                .unwrap();
        }
        let removed = series.remove_sample_indices(&[2, 6, 42]);
        assert_eq!(removed, 2, "unknown indices are ignored");
        let left: Vec<u64> = series.snapshots().iter().map(|s| s.sample_index).collect();
        assert_eq!(left, vec![0, 5, 9]);
        // The trimmed cumulative series still deltas cleanly.
        assert_eq!(series.interval_profiles().unwrap().len(), 3);
        assert_eq!(series.remove_sample_indices(&[]), 0);
    }

    fn indexed(n: u64) -> SampleSeries {
        (0..n)
            .map(|i| snap(i, &[(0, (i + 1) * 10, i + 1)]))
            .collect()
    }

    fn times(series: &SampleSeries) -> Vec<u64> {
        series.snapshots().iter().map(|s| s.timestamp_ns).collect()
    }

    #[test]
    fn coarsen_keeps_every_mth_boundary_and_the_stop_sample() {
        // Ten samples: nine boundary ticks (indices 0..=8) and a stop.
        let series = indexed(10);
        assert_eq!(
            times(&series.coarsen(2)),
            vec![1000, 3000, 5000, 7000, 9000]
        );
        assert_eq!(times(&series.coarsen(4)), vec![3000, 7000, 9000]);
        // The last boundary lands on the stride: both it and the stop stay.
        assert_eq!(times(&series.coarsen(3)), vec![2000, 5000, 8000, 9000]);
        for m in 2..12 {
            let coarse = series.coarsen(m);
            let indices: Vec<u64> = coarse.snapshots().iter().map(|s| s.sample_index).collect();
            assert_eq!(
                indices,
                (0..coarse.len() as u64).collect::<Vec<_>>(),
                "m = {m}"
            );
            assert_eq!(
                coarse.last(),
                Some(&GmonData {
                    sample_index: coarse.len() as u64 - 1,
                    ..series.last().unwrap().clone()
                })
            );
        }
    }

    #[test]
    fn coarsen_by_zero_or_one_is_the_identity() {
        let series = indexed(5);
        assert_eq!(series.coarsen(0), series);
        assert_eq!(series.coarsen(1), series);
    }

    #[test]
    fn coarsen_past_the_tick_count_keeps_only_the_stop_sample() {
        let series = indexed(5);
        for m in [5, 6, usize::MAX] {
            let coarse = series.coarsen(m);
            assert_eq!(coarse.len(), 1, "m = {m}");
            assert_eq!(coarse.snapshots()[0].sample_index, 0);
            assert_eq!(coarse.snapshots()[0].flat, series.last().unwrap().flat);
        }
    }

    #[test]
    fn coarsen_of_an_empty_series_is_empty() {
        for m in [0, 1, 4] {
            assert!(SampleSeries::new().coarsen(m).is_empty());
        }
    }
}

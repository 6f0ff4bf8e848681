//! The gprof *flat profile*: per-function self time and call counts.
//!
//! This is the data the IncProf paper actually analyzes (§IV: "The analysis
//! presented here only uses the flat profile"). Each profile is *cumulative
//! since program start*, exactly like a `gmon.out` dump; the analysis first
//! subtracts consecutive dumps ([`FlatProfile::delta`]) to obtain
//! per-interval profiles.

use crate::error::ProfileError;
use crate::function::FunctionId;
use crate::Nanos;
use std::collections::BTreeMap;

/// Counters for one function within a [`FlatProfile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunctionStats {
    /// Time spent in the function itself, excluding callees (gprof "self").
    pub self_time: Nanos,
    /// Number of completed calls to the function.
    pub calls: u64,
    /// Time spent in callees on behalf of this function (gprof "children").
    pub child_time: Nanos,
}

impl FunctionStats {
    /// Saturating element-wise subtraction with monotonicity checking.
    fn checked_sub(
        &self,
        earlier: &FunctionStats,
        id: FunctionId,
    ) -> Result<FunctionStats, ProfileError> {
        let sub = |a: u64, b: u64, counter: &'static str| {
            a.checked_sub(b)
                .ok_or(ProfileError::NonMonotonicDelta { id: id.0, counter })
        };
        Ok(FunctionStats {
            self_time: sub(self.self_time, earlier.self_time, "self_time")?,
            calls: sub(self.calls, earlier.calls, "calls")?,
            child_time: sub(self.child_time, earlier.child_time, "child_time")?,
        })
    }

    /// True if every counter is zero (such entries are dropped from deltas).
    pub fn is_zero(&self) -> bool {
        self.self_time == 0 && self.calls == 0 && self.child_time == 0
    }
}

/// One rendered row of a flat profile, in gprof report order.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatRow {
    /// Percent of total self time ("% time" column).
    pub percent_time: f64,
    /// Running sum of self seconds ("cumulative seconds").
    pub cumulative_secs: f64,
    /// Self seconds for this function.
    pub self_secs: f64,
    /// Call count ("calls").
    pub calls: u64,
    /// Self milliseconds per call ("self ms/call"); 0 when calls == 0.
    pub self_ms_per_call: f64,
    /// Total (self+children) milliseconds per call ("total ms/call").
    pub total_ms_per_call: f64,
    /// Function id.
    pub id: FunctionId,
    /// Function name as rendered.
    pub name: String,
}

/// A flat profile: map from function to its counters.
///
/// May represent either a *cumulative* profile (monotonically growing over
/// the run) or an *interval* profile (the delta between two cumulative
/// samples). The two are distinguished only by how they were produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatProfile {
    stats: BTreeMap<FunctionId, FunctionStats>,
}

impl FlatProfile {
    /// Create an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` additional completed calls to `id`.
    pub fn record_calls(&mut self, id: FunctionId, n: u64) {
        self.stats.entry(id).or_default().calls += n;
    }

    /// Attribute `ns` of additional self time to `id`.
    pub fn record_self_time(&mut self, id: FunctionId, ns: Nanos) {
        self.stats.entry(id).or_default().self_time += ns;
    }

    /// Overwrite the stats entry for `id` (used by decoders).
    pub fn set(&mut self, id: FunctionId, stats: FunctionStats) {
        self.stats.insert(id, stats);
    }

    /// Stats for `id`, zero if absent.
    pub fn get(&self, id: FunctionId) -> FunctionStats {
        self.stats.get(&id).copied().unwrap_or_default()
    }

    /// Whether any counter has been recorded for `id`.
    pub fn contains(&self, id: FunctionId) -> bool {
        self.stats.contains_key(&id)
    }

    /// Number of functions with at least one recorded counter.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// True if no counters have been recorded.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Iterate `(FunctionId, &FunctionStats)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (FunctionId, &FunctionStats)> {
        self.stats.iter().map(|(&id, s)| (id, s))
    }

    /// Total self time across all functions.
    pub fn total_self_time(&self) -> Nanos {
        self.stats.values().map(|s| s.self_time).sum()
    }

    /// Total completed calls across all functions.
    pub fn total_calls(&self) -> u64 {
        self.stats.values().map(|s| s.calls).sum()
    }

    /// Merge `other` into `self` by element-wise addition.
    ///
    /// Used to aggregate per-thread profiles into a process profile, and
    /// per-rank profiles into job-level descriptive statistics (paper §VI).
    pub fn merge(&mut self, other: &FlatProfile) {
        for (&id, s) in &other.stats {
            let e = self.stats.entry(id).or_default();
            e.self_time += s.self_time;
            e.calls += s.calls;
            e.child_time += s.child_time;
        }
    }

    /// Compute the interval profile `self - earlier`.
    ///
    /// This is the first analysis step of the paper (§V-A): "the first step
    /// is to subtract the previous interval from each interval to create
    /// interval profile data". Functions whose counters are entirely zero in
    /// the delta are omitted. Errors if any counter regressed, which would
    /// mean the inputs were not successive cumulative samples of one run.
    pub fn delta(&self, earlier: &FlatProfile) -> Result<FlatProfile, ProfileError> {
        let mut out = FlatProfile::new();
        for (&id, s) in &self.stats {
            let prev = earlier.get(id);
            let d = s.checked_sub(&prev, id)?;
            if !d.is_zero() {
                out.stats.insert(id, d);
            }
        }
        // A function present earlier must still be present now (cumulative
        // profiles never lose entries).
        for (&id, s) in &earlier.stats {
            if !self.stats.contains_key(&id) && !s.is_zero() {
                return Err(ProfileError::NonMonotonicDelta {
                    id: id.0,
                    counter: "presence",
                });
            }
        }
        Ok(out)
    }

    /// Render rows in gprof flat-profile order: self time descending, then
    /// call count descending, then id ascending (gprof orders by self time
    /// then alphabetically; id order keeps us deterministic without names).
    pub fn rows<'a>(&self, names: impl Fn(FunctionId) -> &'a str) -> Vec<FlatRow> {
        let total = self.total_self_time();
        let mut entries: Vec<(FunctionId, FunctionStats)> =
            self.stats.iter().map(|(&id, &s)| (id, s)).collect();
        entries.sort_by(|a, b| {
            b.1.self_time
                .cmp(&a.1.self_time)
                .then(b.1.calls.cmp(&a.1.calls))
                .then(a.0.cmp(&b.0))
        });
        let mut cumulative = 0.0;
        entries
            .into_iter()
            .map(|(id, s)| {
                let self_secs = crate::ns_to_secs(s.self_time);
                cumulative += self_secs;
                let (self_ms_per_call, total_ms_per_call) = if s.calls > 0 {
                    (
                        crate::ns_to_millis(s.self_time) / s.calls as f64,
                        crate::ns_to_millis(s.self_time + s.child_time) / s.calls as f64,
                    )
                } else {
                    (0.0, 0.0)
                };
                FlatRow {
                    percent_time: if total > 0 {
                        100.0 * s.self_time as f64 / total as f64
                    } else {
                        0.0
                    },
                    cumulative_secs: cumulative,
                    self_secs,
                    calls: s.calls,
                    self_ms_per_call,
                    total_ms_per_call,
                    id,
                    name: names(id).to_string(),
                }
            })
            .collect()
    }
}

impl FromIterator<(FunctionId, FunctionStats)> for FlatProfile {
    fn from_iter<T: IntoIterator<Item = (FunctionId, FunctionStats)>>(iter: T) -> Self {
        FlatProfile {
            stats: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fid(n: u32) -> FunctionId {
        FunctionId(n)
    }

    #[test]
    fn recording_accumulates() {
        let mut p = FlatProfile::new();
        p.record_calls(fid(0), 2);
        p.record_calls(fid(0), 3);
        p.record_self_time(fid(0), 100);
        p.record_self_time(fid(0), 50);
        let s = p.get(fid(0));
        assert_eq!(s.calls, 5);
        assert_eq!(s.self_time, 150);
    }

    #[test]
    fn totals() {
        let mut p = FlatProfile::new();
        p.record_self_time(fid(0), 100);
        p.record_self_time(fid(1), 250);
        p.record_calls(fid(0), 4);
        p.record_calls(fid(1), 6);
        assert_eq!(p.total_self_time(), 350);
        assert_eq!(p.total_calls(), 10);
    }

    #[test]
    fn delta_subtracts_and_drops_zero_entries() {
        let mut a = FlatProfile::new();
        a.record_self_time(fid(0), 100);
        a.record_calls(fid(0), 2);
        a.record_self_time(fid(1), 40);

        let mut b = a.clone();
        b.record_self_time(fid(0), 60); // now 160
        b.record_calls(fid(0), 1); // now 3
        b.record_self_time(fid(2), 5); // new function appears

        let d = b.delta(&a).unwrap();
        assert_eq!(
            d.get(fid(0)),
            FunctionStats {
                self_time: 60,
                calls: 1,
                child_time: 0
            }
        );
        assert!(
            !d.contains(fid(1)),
            "unchanged function must be dropped from delta"
        );
        assert_eq!(d.get(fid(2)).self_time, 5);
    }

    #[test]
    fn delta_of_profile_with_itself_is_empty() {
        let mut a = FlatProfile::new();
        a.record_self_time(fid(0), 9);
        a.record_calls(fid(1), 3);
        assert!(a.delta(&a).unwrap().is_empty());
    }

    #[test]
    fn delta_detects_regression() {
        let mut a = FlatProfile::new();
        a.record_self_time(fid(0), 100);
        let mut b = FlatProfile::new();
        b.record_self_time(fid(0), 50);
        let err = b.delta(&a).unwrap_err();
        assert!(matches!(
            err,
            ProfileError::NonMonotonicDelta {
                id: 0,
                counter: "self_time"
            }
        ));
    }

    #[test]
    fn delta_detects_vanished_function() {
        let mut a = FlatProfile::new();
        a.record_self_time(fid(7), 10);
        let b = FlatProfile::new();
        let err = b.delta(&a).unwrap_err();
        assert!(matches!(
            err,
            ProfileError::NonMonotonicDelta {
                id: 7,
                counter: "presence"
            }
        ));
    }

    #[test]
    fn merge_adds_elementwise() {
        let mut a = FlatProfile::new();
        a.record_self_time(fid(0), 10);
        a.record_calls(fid(0), 1);
        let mut b = FlatProfile::new();
        b.record_self_time(fid(0), 5);
        b.record_self_time(fid(1), 3);
        a.merge(&b);
        assert_eq!(a.get(fid(0)).self_time, 15);
        assert_eq!(a.get(fid(0)).calls, 1);
        assert_eq!(a.get(fid(1)).self_time, 3);
    }

    #[test]
    fn rows_are_ordered_by_self_time_desc() {
        let mut p = FlatProfile::new();
        p.record_self_time(fid(0), 100);
        p.record_self_time(fid(1), 300);
        p.record_self_time(fid(2), 200);
        let rows = p.rows(|id| match id.0 {
            0 => "a",
            1 => "b",
            _ => "c",
        });
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["b", "c", "a"]);
        // cumulative seconds are a running sum
        assert!(rows[0].cumulative_secs <= rows[1].cumulative_secs);
        assert!(rows[1].cumulative_secs <= rows[2].cumulative_secs);
        // percentages sum to 100
        let pct: f64 = rows.iter().map(|r| r.percent_time).sum();
        assert!((pct - 100.0).abs() < 1e-9);
    }

    #[test]
    fn rows_per_call_columns() {
        let mut p = FlatProfile::new();
        // 2 ms self over 4 calls = 0.5 ms/call; 4 ms total = 1 ms/call.
        p.set(
            fid(0),
            FunctionStats {
                self_time: 2_000_000,
                calls: 4,
                child_time: 2_000_000,
            },
        );
        p.record_self_time(fid(1), 1_000_000); // zero calls -> 0 ms/call
        let rows = p.rows(|_| "f");
        let r0 = rows.iter().find(|r| r.id == fid(0)).unwrap();
        assert!((r0.self_ms_per_call - 0.5).abs() < 1e-12);
        assert!((r0.total_ms_per_call - 1.0).abs() < 1e-12);
        let r1 = rows.iter().find(|r| r.id == fid(1)).unwrap();
        assert_eq!(r1.self_ms_per_call, 0.0);
        assert_eq!(r1.calls, 0);
    }

    #[test]
    fn empty_profile_rows_and_totals() {
        let p = FlatProfile::new();
        assert_eq!(p.total_self_time(), 0);
        assert!(p.rows(|_| "x").is_empty());
    }
}

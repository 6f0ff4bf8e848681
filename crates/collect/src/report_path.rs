//! The text-report data path: snapshot → gprof report → parsed profile.
//!
//! The paper deliberately routes its data through `gprof`'s *textual*
//! output: "we found it easier to just invoke the gprof command line tool
//! to convert the data into standard gprof textual reports, and then
//! process those" (§IV). That choice quantizes all times to gprof's 10 ms
//! report resolution. This module reproduces the full round trip so
//! experiments can run with exactly the paper's fidelity, and so the
//! report parser is exercised end-to-end.

use crate::series::SampleSeries;
use incprof_profile::report::{parse_flat_profile, profile_from_rows, write_flat_profile};
use incprof_profile::{FlatProfile, FunctionTable, ProfileError};

/// Render every cumulative snapshot in `series` to a gprof flat-profile
/// text report, naming functions from the snapshot's own table. One
/// report per sample, in order — the in-memory stand-in for the paper's
/// per-interval report files.
pub fn render_reports(series: &SampleSeries) -> Vec<String> {
    series
        .snapshots()
        .iter()
        .map(|snap| write_flat_profile(&snap.flat, &snap.functions))
        .collect()
}

/// Parse gprof flat-profile reports back into cumulative profiles,
/// registering names into a fresh [`FunctionTable`]. Returns the profiles
/// and the table they are keyed against.
pub fn parse_reports(
    reports: &[String],
) -> Result<(Vec<FlatProfile>, FunctionTable), ProfileError> {
    let mut table = FunctionTable::new();
    let mut profiles = Vec::with_capacity(reports.len());
    for report in reports {
        let rows = parse_flat_profile(report)?;
        profiles.push(profile_from_rows(&rows, &mut table));
    }
    Ok((profiles, table))
}

/// The complete paper-fidelity path: snapshots → reports → parsed
/// cumulative profiles → per-interval deltas. The returned table is the
/// one rebuilt *from the reports* (as the paper's analysis sees it).
///
/// Because report times are rounded to 10 ms, a counter may appear to
/// regress by one rounding step between consecutive samples; such
/// regressions are clamped to zero rather than treated as corruption.
pub fn intervals_via_reports(
    series: &SampleSeries,
) -> Result<(Vec<FlatProfile>, FunctionTable), ProfileError> {
    let reports = render_reports(series);
    let (mut cumulative, parsed_table) = parse_reports(&reports)?;
    clamp_monotone(&mut cumulative);
    let intervals = SampleSeries::deltas_of(&cumulative)?;
    Ok((intervals, parsed_table))
}

/// Force a sequence of nearly-cumulative profiles to be monotone by
/// clamping each counter to at least its previous value (absorbing report
/// rounding artifacts). Returns how many counters it raised: 0 on reports
/// that were cumulative to begin with.
pub fn clamp_monotone(profiles: &mut [FlatProfile]) -> u64 {
    let mut raised = 0;
    for i in 1..profiles.len() {
        let (before, after) = profiles.split_at_mut(i);
        let prev = &before[i - 1];
        let cur = &mut after[0];
        let mut fixes = Vec::new();
        for (id, stats) in prev.iter() {
            let now = cur.get(id);
            let below = [
                now.self_time < stats.self_time,
                now.calls < stats.calls,
                now.child_time < stats.child_time,
            ];
            let n = below.iter().filter(|&&b| b).count() as u64;
            if n > 0 {
                raised += n;
                fixes.push((
                    id,
                    incprof_profile::FunctionStats {
                        self_time: now.self_time.max(stats.self_time),
                        calls: now.calls.max(stats.calls),
                        child_time: now.child_time.max(stats.child_time),
                    },
                ));
            }
        }
        for (id, s) in fixes {
            cur.set(id, s);
        }
    }
    raised
}

#[cfg(test)]
mod tests {
    use super::*;
    use incprof_profile::{FunctionId, FunctionStats, GmonData};

    fn series_with_two_samples() -> SampleSeries {
        let mut table = FunctionTable::new();
        let a = table.register("run_bfs");
        let b = table.register("validate_bfs_result");
        let mut s0 = GmonData {
            sample_index: 0,
            timestamp_ns: 0,
            functions: table.clone(),
            ..Default::default()
        };
        s0.flat.set(
            a,
            FunctionStats {
                self_time: 500_000_000,
                calls: 4,
                child_time: 0,
            },
        );
        let mut s1 = GmonData {
            sample_index: 1,
            timestamp_ns: 1,
            functions: table,
            ..Default::default()
        };
        s1.flat.set(
            a,
            FunctionStats {
                self_time: 900_000_000,
                calls: 7,
                child_time: 0,
            },
        );
        s1.flat.set(
            b,
            FunctionStats {
                self_time: 1_200_000_000,
                calls: 1,
                child_time: 0,
            },
        );
        vec![s0, s1].into_iter().collect()
    }

    #[test]
    fn render_produces_one_report_per_sample() {
        let series = series_with_two_samples();
        let reports = render_reports(&series);
        assert_eq!(reports.len(), 2);
        assert!(reports[0].contains("run_bfs"));
        assert!(reports[1].contains("validate_bfs_result"));
    }

    #[test]
    fn full_path_recovers_interval_data_within_rounding() {
        let series = series_with_two_samples();
        let (intervals, parsed) = intervals_via_reports(&series).unwrap();
        assert_eq!(intervals.len(), 2);
        let a = parsed.id_of("run_bfs").unwrap();
        let b = parsed.id_of("validate_bfs_result").unwrap();
        // Interval 0: run_bfs 0.5 s.
        assert_eq!(intervals[0].get(a).self_time, 500_000_000);
        assert_eq!(intervals[0].get(a).calls, 4);
        // Interval 1: run_bfs +0.4 s / +3 calls; validate appears.
        assert_eq!(intervals[1].get(a).self_time, 400_000_000);
        assert_eq!(intervals[1].get(a).calls, 3);
        assert_eq!(intervals[1].get(b).self_time, 1_200_000_000);
    }

    #[test]
    fn report_rounding_is_absorbed() {
        // Craft a counter that regresses by sub-bucket rounding: 14 ms
        // rounds to 0.01 s, then 15 ms rounds to 0.02 s — fine. Simulate a
        // hostile regression directly through clamp_monotone instead.
        let mut p0 = FlatProfile::new();
        p0.set(
            FunctionId(0),
            FunctionStats {
                self_time: 20_000_000,
                calls: 2,
                child_time: 0,
            },
        );
        let mut p1 = FlatProfile::new();
        p1.set(
            FunctionId(0),
            FunctionStats {
                self_time: 10_000_000,
                calls: 2,
                child_time: 0,
            },
        );
        let mut clamped = vec![p0, p1];
        assert_eq!(clamp_monotone(&mut clamped), 1, "one counter raised");
        assert_eq!(clamped[1].get(FunctionId(0)).self_time, 20_000_000);
        assert!(SampleSeries::deltas_of(&clamped).is_ok());
        assert_eq!(clamp_monotone(&mut clamped), 0, "now cumulative");
    }

    #[test]
    fn parse_reports_builds_unified_table() {
        let series = series_with_two_samples();
        let reports = render_reports(&series);
        let (profiles, parsed) = parse_reports(&reports).unwrap();
        assert_eq!(profiles.len(), 2);
        assert_eq!(parsed.len(), 2, "both functions registered once");
    }

    #[test]
    fn empty_series_is_fine() {
        let series = SampleSeries::new();
        let (intervals, _) = intervals_via_reports(&series).unwrap();
        assert!(intervals.is_empty());
    }
}

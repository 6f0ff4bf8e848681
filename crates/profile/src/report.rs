//! gprof-style textual reports: writer and flat-profile parser.
//!
//! The paper's pipeline does not decode `gmon.out` binaries directly:
//! "we found it easier to just invoke the gprof command line tool to convert
//! the data into standard gprof textual reports, and then process those"
//! (§IV). We therefore provide a faithful flat-profile report writer *and*
//! the parser the analysis uses to read such reports back, so the IncProf
//! data path mirrors the paper's exactly: binary snapshot → text report →
//! parsed per-interval rows.

use crate::error::ProfileError;
use crate::flat::{FlatProfile, FunctionStats};
use crate::function::FunctionTable;
use std::fmt::Write as _;

/// Header lines reproduced from real gprof output.
const FLAT_HEADER: &str = "Flat profile:\n\n\
Each sample counts as 0.01 seconds.\n\
  %   cumulative   self              self     total           \n\
 time   seconds   seconds    calls  ms/call  ms/call  name    \n";

/// Render the flat-profile section of a gprof report.
///
/// Output is column-compatible with GNU gprof's flat profile table
/// (numeric columns are fixed-width; the name column is last and may
/// contain spaces in C++-style names, which the parser handles).
pub fn write_flat_profile(flat: &FlatProfile, table: &FunctionTable) -> String {
    let rows = flat.rows(|id| table.name(id));
    let mut out = String::with_capacity(FLAT_HEADER.len() + rows.len() * 80);
    out.push_str(FLAT_HEADER);
    for r in &rows {
        // gprof prints an empty calls column for functions never observed
        // entering (sampling-only hits). We print 0 calls the same way.
        if r.calls > 0 {
            let _ = writeln!(
                out,
                "{:6.2} {:10.2} {:8.2} {:8} {:8.2} {:8.2}  {}",
                r.percent_time,
                r.cumulative_secs,
                r.self_secs,
                r.calls,
                r.self_ms_per_call,
                r.total_ms_per_call,
                r.name
            );
        } else {
            let _ = writeln!(
                out,
                "{:6.2} {:10.2} {:8.2} {:>8} {:>8} {:>8}  {}",
                r.percent_time, r.cumulative_secs, r.self_secs, "", "", "", r.name
            );
        }
    }
    out
}

/// One parsed flat-profile row: the subset of columns the IncProf analysis
/// consumes (name, self seconds, calls), plus the rest for completeness.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedFlatRow {
    /// "% time" column.
    pub percent_time: f64,
    /// "cumulative seconds" column.
    pub cumulative_secs: f64,
    /// "self seconds" column — the feature the paper clusters on.
    pub self_secs: f64,
    /// "calls" column; `None` when gprof printed it blank.
    pub calls: Option<u64>,
    /// Function name (may contain spaces / template brackets).
    pub name: String,
}

/// Parse the flat-profile section of a gprof text report.
///
/// Accepts both our writer's output and the general shape of GNU gprof
/// output: skips everything up to the `% time ... name` header, then reads
/// rows until a blank line or end of input.
pub fn parse_flat_profile(text: &str) -> Result<Vec<ParsedFlatRow>, ProfileError> {
    let mut rows = Vec::new();
    let mut in_table = false;
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if !in_table {
            let t = line.trim_start();
            if t.starts_with("time") && t.contains("seconds") && t.contains("name") {
                in_table = true;
            }
            continue;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() {
            break; // end of flat table
        }
        rows.push(parse_flat_row(trimmed, lineno)?);
    }
    Ok(rows)
}

fn parse_flat_row(line: &str, lineno: usize) -> Result<ParsedFlatRow, ProfileError> {
    let err = |message: String| ProfileError::ReportParse {
        line: lineno,
        message,
    };
    let mut fields = line.split_whitespace();
    let percent_time: f64 = fields
        .next()
        .ok_or_else(|| err("missing % time".into()))?
        .parse()
        .map_err(|e| err(format!("bad % time: {e}")))?;
    let cumulative_secs: f64 = fields
        .next()
        .ok_or_else(|| err("missing cumulative seconds".into()))?
        .parse()
        .map_err(|e| err(format!("bad cumulative seconds: {e}")))?;
    let self_secs: f64 = fields
        .next()
        .ok_or_else(|| err("missing self seconds".into()))?
        .parse()
        .map_err(|e| err(format!("bad self seconds: {e}")))?;
    // Remaining fields: either "calls self_ms total_ms name..." or just
    // "name..." when the numeric columns were blank.
    let rest: Vec<&str> = fields.collect();
    if rest.is_empty() {
        return Err(err("missing function name".into()));
    }
    // If the next three tokens are all numeric, they are the calls and
    // per-call columns. gprof guarantees numeric columns never contain
    // non-numeric tokens, and function names never *start* with a bare
    // number in C/C++/Fortran identifiers.
    let numeric = |s: &str| s.parse::<f64>().is_ok();
    if rest.len() >= 4 && numeric(rest[0]) && numeric(rest[1]) && numeric(rest[2]) {
        let calls: u64 = rest[0]
            .parse()
            .map_err(|e| err(format!("bad calls column: {e}")))?;
        let name = rest[3..].join(" ");
        Ok(ParsedFlatRow {
            percent_time,
            cumulative_secs,
            self_secs,
            calls: Some(calls),
            name,
        })
    } else {
        Ok(ParsedFlatRow {
            percent_time,
            cumulative_secs,
            self_secs,
            calls: None,
            name: rest.join(" "),
        })
    }
}

/// Rebuild a [`FlatProfile`] from parsed report rows, registering function
/// names in `table` as needed.
///
/// Report rendering rounds times to 10 ms resolution (gprof's own
/// granularity), so the reconstruction is lossy in exactly the way the
/// paper's pipeline was.
pub fn profile_from_rows(rows: &[ParsedFlatRow], table: &mut FunctionTable) -> FlatProfile {
    let mut flat = FlatProfile::new();
    for r in rows {
        let id = table.register(r.name.clone());
        flat.set(
            id,
            FunctionStats {
                self_time: (r.self_secs * 1e9).round() as u64,
                calls: r.calls.unwrap_or(0),
                child_time: 0,
            },
        );
    }
    flat
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionId;

    fn build_profile() -> (FlatProfile, FunctionTable) {
        let mut table = FunctionTable::new();
        let a = table.register("run_bfs");
        let b = table.register("validate_bfs_result");
        let c = table.register("PairLJCut::compute(int, int)");
        let mut flat = FlatProfile::new();
        flat.set(
            a,
            FunctionStats {
                self_time: 2_000_000_000,
                calls: 64,
                child_time: 0,
            },
        );
        flat.set(
            b,
            FunctionStats {
                self_time: 5_500_000_000,
                calls: 0,
                child_time: 0,
            },
        );
        flat.set(
            c,
            FunctionStats {
                self_time: 1_250_000_000,
                calls: 1000,
                child_time: 500_000_000,
            },
        );
        (flat, table)
    }

    #[test]
    fn report_contains_gprof_header() {
        let (flat, table) = build_profile();
        let text = write_flat_profile(&flat, &table);
        assert!(text.starts_with("Flat profile:"));
        assert!(text.contains("Each sample counts as 0.01 seconds."));
        assert!(text.contains("cumulative"));
        assert!(text.contains("ms/call"));
    }

    #[test]
    fn report_rows_roundtrip_through_parser() {
        let (flat, table) = build_profile();
        let text = write_flat_profile(&flat, &table);
        let rows = parse_flat_profile(&text).unwrap();
        assert_eq!(rows.len(), 3);
        // Sorted by self time: validate (5.5s), run_bfs (2s), PairLJ (1.25s)
        assert_eq!(rows[0].name, "validate_bfs_result");
        assert!((rows[0].self_secs - 5.5).abs() < 0.01);
        assert_eq!(
            rows[0].calls, None,
            "zero-call row renders blank calls column"
        );
        assert_eq!(rows[1].name, "run_bfs");
        assert_eq!(rows[1].calls, Some(64));
        assert_eq!(rows[2].name, "PairLJCut::compute(int, int)");
        assert_eq!(rows[2].calls, Some(1000));
    }

    #[test]
    fn names_with_spaces_survive() {
        let (flat, table) = build_profile();
        let text = write_flat_profile(&flat, &table);
        let rows = parse_flat_profile(&text).unwrap();
        assert!(rows
            .iter()
            .any(|r| r.name == "PairLJCut::compute(int, int)"));
    }

    #[test]
    fn profile_from_rows_reconstructs_within_rounding() {
        let (flat, table) = build_profile();
        let text = write_flat_profile(&flat, &table);
        let rows = parse_flat_profile(&text).unwrap();
        let mut table2 = FunctionTable::new();
        let back = profile_from_rows(&rows, &mut table2);
        let id = table2.id_of("run_bfs").unwrap();
        let orig = flat.get(table.id_of("run_bfs").unwrap());
        let diff = back.get(id).self_time.abs_diff(orig.self_time);
        assert!(diff < 10_000_000, "within 10ms rounding, got diff {diff}");
        assert_eq!(back.get(id).calls, 64);
    }

    #[test]
    fn parse_real_gprof_sample() {
        // Taken (abbreviated) from the gprof manual's example output.
        let text = "\
Flat profile:

Each sample counts as 0.01 seconds.
  %   cumulative   self              self     total
 time   seconds   seconds    calls  ms/call  ms/call  name
 33.34      0.02     0.02     7208     0.00     0.00  open
 16.67      0.03     0.01      244     0.04     0.12  offtime
 16.67      0.04     0.01        8     1.25     1.25  memccpy
  0.00      0.06     0.00      236     0.00     0.00  tzset
";
        let rows = parse_flat_profile(text).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].name, "open");
        assert_eq!(rows[0].calls, Some(7208));
        assert!((rows[1].self_secs - 0.01).abs() < 1e-9);
        assert_eq!(rows[3].name, "tzset");
    }

    #[test]
    fn parse_rejects_garbage_rows() {
        let text = "\
 time   seconds   seconds    calls  ms/call  ms/call  name
 not_a_number 0.02 0.02 1 0.0 0.0 f
";
        assert!(parse_flat_profile(text).is_err());
    }

    #[test]
    fn parse_empty_table() {
        let text = " time   seconds   seconds    calls  ms/call  ms/call  name\n\n";
        assert!(parse_flat_profile(text).unwrap().is_empty());
        assert!(parse_flat_profile("no header at all").unwrap().is_empty());
    }

    #[test]
    fn zero_time_profile_renders_zero_percent() {
        let mut table = FunctionTable::new();
        let a = table.register("noop");
        let mut flat = FlatProfile::new();
        flat.set(
            a,
            FunctionStats {
                self_time: 0,
                calls: 5,
                child_time: 0,
            },
        );
        let text = write_flat_profile(&flat, &table);
        let rows = parse_flat_profile(&text).unwrap();
        assert_eq!(rows[0].percent_time, 0.0);
        assert_eq!(rows[0].calls, Some(5));
        let _ = FunctionId(0); // silence unused import in some cfgs
    }
}

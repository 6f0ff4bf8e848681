//! On-disk persistence of sample series as gmon binary files.
//!
//! The paper's collector leaves behind a directory of renamed `gmon.out`
//! files — one binary cumulative profile per interval (Fig. 1). This
//! module writes and reads exactly that artifact: one
//! [`incprof_profile::GmonData`] file per sample, named
//! `gmon.out.<index>` so lexicographic order is sample order.

use crate::series::SampleSeries;
use incprof_profile::{GmonData, ProfileError};
use std::io;
use std::path::{Path, PathBuf};

/// The regular files of `dir`, in name order: what [`read_gmon_dir`]
/// reads as samples.
fn sample_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    Ok(paths)
}

/// Fail with [`io::ErrorKind::AlreadyExists`] when `dir` holds a file
/// [`read_gmon_dir`] would read; a missing directory holds none. Writing
/// files into a directory does not replace the ones already there, so a
/// shorter run written over a longer one would leave the old tail to be
/// read as part of it, and any other file would fail the read.
pub fn ensure_fresh_run_dir(dir: &Path) -> Result<(), ProfileError> {
    let files = match sample_files(dir) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        files => files?,
    };
    match files.first() {
        Some(file) => Err(ProfileError::Io(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!(
                "{} is not a fresh run directory: it holds {}",
                dir.display(),
                file.display()
            ),
        ))),
        None => Ok(()),
    }
}

/// The file name of sample `index` in a run whose largest index is
/// `last`: `gmon.out.` and the index, zero-padded to the width of `last`
/// and never to fewer than 6 digits, so that name order is sample order
/// however long the run. Every file of one run, binary or text report,
/// is named by it.
pub fn sample_name(index: u64, last: u64) -> String {
    let width = last.to_string().len().max(6);
    format!("gmon.out.{index:0width$}")
}

/// Write one `gmon.out.<index>` binary per sample into `dir` (created if
/// missing), named by [`sample_name`]. Returns the number of files
/// written. A directory that already holds files is refused by
/// [`ensure_fresh_run_dir`] before anything is written.
pub fn write_gmon_dir(series: &SampleSeries, dir: &Path) -> Result<usize, ProfileError> {
    ensure_fresh_run_dir(dir)?;
    std::fs::create_dir_all(dir)?;
    let last = series.last().map_or(0, |s| s.sample_index);
    for snap in series.snapshots() {
        let path = dir.join(sample_name(snap.sample_index, last));
        std::fs::write(path, snap.encode())?;
    }
    Ok(series.len())
}

/// Read a directory of gmon binaries back into a sample series, each
/// sample with the function table its file holds. Files are read in
/// lexicographic name order; sample indices are reassigned densely in
/// that order, so a directory of files renamed by any monotone scheme
/// loads correctly. A file whose table equals the one before it shares
/// that table's contents, so a long run holds one copy of its names each
/// time its table grows, not one per file.
pub fn read_gmon_dir(dir: &Path) -> Result<SampleSeries, ProfileError> {
    let paths = sample_files(dir)?;
    let mut series = SampleSeries::new();
    for (i, path) in paths.iter().enumerate() {
        // Each sample file is a self-contained dump, table included.
        let mut gmon = GmonData::decode(&std::fs::read(path)?)?;
        gmon.sample_index = i as u64;
        if let Some(prev) = series.last() {
            gmon.functions = gmon.functions.shared_with(&prev.functions);
        }
        series.push(gmon);
    }
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use incprof_profile::{FlatProfile, FunctionTable};

    /// Five samples; `kernel_b` is registered at sample 2, so the table
    /// grows once.
    fn sample_series() -> SampleSeries {
        let mut table = FunctionTable::new();
        let a = table.register("kernel_a");
        let mut series = SampleSeries::new();
        let mut flat = FlatProfile::new();
        for i in 0..5u64 {
            flat.record_self_time(a, 1_000_000_000);
            flat.record_calls(a, 2);
            if i >= 2 {
                let b = table.register("kernel_b");
                flat.record_self_time(b, 500_000_000);
            }
            series.push(GmonData {
                sample_index: i,
                timestamp_ns: i * 1_000_000_000,
                functions: table.clone(),
                flat: flat.clone(),
                callgraph: Default::default(),
            });
        }
        series
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("incprof_gmon_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip_through_directory() {
        let series = sample_series();
        let dir = tmpdir("roundtrip");
        let n = write_gmon_dir(&series, &dir).unwrap();
        assert_eq!(n, 5);
        // Every sample reads back whole, its own table included.
        let back = read_gmon_dir(&dir).unwrap();
        assert_eq!(back, series);
        // And the interval pipeline runs on the loaded series.
        assert_eq!(back.interval_profiles().unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_names_sort_in_sample_order() {
        let series = sample_series();
        let dir = tmpdir("names");
        write_gmon_dir(&series, &dir).unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names[0], "gmon.out.000000");
        assert_eq!(names[4], "gmon.out.000004");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_file_is_an_error_not_a_panic() {
        let series = sample_series();
        let dir = tmpdir("corrupt");
        write_gmon_dir(&series, &dir).unwrap();
        std::fs::write(dir.join("gmon.out.000002"), b"garbage").unwrap();
        assert!(read_gmon_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_directory_loads_empty_series() {
        let dir = tmpdir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(read_gmon_dir(&dir).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Each file decodes to a table of its own; the read shares one
    /// between consecutive files whose tables are equal, and gives a
    /// grown table a handle of its own.
    #[test]
    fn equal_tables_read_back_as_one_shared_table() {
        let series = sample_series();
        let dir = tmpdir("grow");
        write_gmon_dir(&series, &dir).unwrap();
        let back = read_gmon_dir(&dir).unwrap();
        let tables: Vec<&FunctionTable> = back.snapshots().iter().map(|s| &s.functions).collect();
        let sizes: Vec<usize> = tables.iter().map(|t| t.len()).collect();
        assert_eq!(sizes, [1, 1, 2, 2, 2]);
        let shared: Vec<bool> = tables
            .windows(2)
            .map(|w| w[0].shares_contents_with(w[1]))
            .collect();
        assert_eq!(shared, [true, false, true, true]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writing over a run is refused whole: a shorter run written into
    /// the directory of a longer one would otherwise read back with the
    /// old run's tail spliced on.
    #[test]
    fn a_directory_holding_a_run_is_refused_and_left_as_it_was() {
        let series = sample_series();
        let dir = tmpdir("refuse");
        write_gmon_dir(&series, &dir).unwrap();
        let listing = |dir: &Path| -> Vec<(String, Vec<u8>)> {
            let mut files: Vec<_> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| {
                    let e = e.unwrap();
                    let name = e.file_name().into_string().unwrap();
                    (name, std::fs::read(e.path()).unwrap())
                })
                .collect();
            files.sort();
            files
        };
        let before = listing(&dir);
        let mut shorter = SampleSeries::new();
        shorter.push(series.snapshots()[0].clone());
        match write_gmon_dir(&shorter, &dir) {
            Err(ProfileError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::AlreadyExists),
            other => panic!("expected AlreadyExists, got {other:?}"),
        }
        assert_eq!(listing(&dir), before);
        // Any file the read would take for a sample is refused too; a
        // subdirectory, which the read skips, is not.
        let other = tmpdir("refuse_other");
        std::fs::create_dir_all(other.join("reports")).unwrap();
        assert_eq!(write_gmon_dir(&shorter, &other).unwrap(), 1);
        assert_eq!(read_gmon_dir(&other).unwrap().len(), 1);
        let notes = tmpdir("refuse_notes");
        std::fs::create_dir_all(&notes).unwrap();
        std::fs::write(notes.join("notes.txt"), b"x").unwrap();
        assert!(write_gmon_dir(&shorter, &notes).is_err());
        assert_eq!(listing(&notes).len(), 1);
        for d in [dir, other, notes] {
            std::fs::remove_dir_all(d).ok();
        }
    }

    /// Past 999 999 samples every name in the directory widens together,
    /// so name order stays sample order and the deltas read back in it.
    #[test]
    fn indices_past_six_digits_keep_name_order() {
        let five = sample_series();
        let mut series = SampleSeries::new();
        for (snap, index) in five.snapshots().iter().zip([999_998, 999_999, 1_000_000]) {
            let snap = GmonData {
                sample_index: index,
                ..snap.clone()
            };
            series.append_monotonic(snap).unwrap();
        }
        let dir = tmpdir("wide");
        write_gmon_dir(&series, &dir).unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            ["gmon.out.0999998", "gmon.out.0999999", "gmon.out.1000000"]
        );
        let back = read_gmon_dir(&dir).unwrap();
        let flats = |s: &SampleSeries| -> Vec<FlatProfile> {
            s.snapshots().iter().map(|x| x.flat.clone()).collect()
        };
        assert_eq!(flats(&back), flats(&series));
        assert_eq!(back.interval_profiles().unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sample_names_sort_in_sample_order_across_a_digit() {
        let indices = [99_998u64, 99_999, 100_000, 100_001];
        let last = indices[3];
        let names: Vec<String> = indices.iter().map(|&i| sample_name(i, last)).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(sorted, names, "name order is sample order");
        assert_eq!(names[0], "gmon.out.099998");
        assert_eq!(sample_name(7, 0), "gmon.out.000007");
        // With a text suffix, as `render-reports` names them.
        let reports: Vec<String> = names.iter().map(|n| format!("{n}.txt")).collect();
        let mut sorted = reports.clone();
        sorted.sort();
        assert_eq!(sorted, reports);
    }
}

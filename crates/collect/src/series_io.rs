//! On-disk persistence of sample series as gmon binary files.
//!
//! The paper's collector leaves behind a directory of renamed `gmon.out`
//! files — one binary cumulative profile per interval (Fig. 1). This
//! module writes and reads exactly that artifact: one
//! [`incprof_profile::GmonData`] file per sample, named
//! `gmon.out.<index>` so lexicographic order is sample order.

use crate::series::SampleSeries;
use incprof_profile::{FunctionTable, GmonData, ProfileError, ProfileSnapshot};
use std::path::Path;

/// Write one `gmon.out.<index>` binary per sample into `dir` (created if
/// missing). Returns the number of files written.
pub fn write_gmon_dir(
    series: &SampleSeries,
    table: &FunctionTable,
    dir: &Path,
) -> Result<usize, ProfileError> {
    std::fs::create_dir_all(dir)?;
    for snap in series.snapshots() {
        let gmon = snap.to_gmon(table);
        let path = dir.join(format!("gmon.out.{:06}", snap.sample_index));
        std::fs::write(path, gmon.encode())?;
    }
    Ok(series.len())
}

/// Read a directory of gmon binaries back into a sample series and the
/// function table of the *last* (most complete) sample. Files are read
/// in lexicographic name order; sample indices are reassigned densely in
/// that order, so a directory of files renamed by any monotone scheme
/// loads correctly.
pub fn read_gmon_dir(dir: &Path) -> Result<(SampleSeries, FunctionTable), ProfileError> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    let mut series = SampleSeries::new();
    let mut table = FunctionTable::new();
    for (i, path) in paths.iter().enumerate() {
        // Each sample file is a self-contained dump, table included.
        let gmon = GmonData::decode(&std::fs::read(path)?)?;
        let mut snap = ProfileSnapshot::from_gmon(&gmon);
        snap.sample_index = i as u64;
        if gmon.functions.len() >= table.len() {
            table = gmon.functions;
        }
        series.push(snap);
    }
    Ok((series, table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use incprof_profile::{FlatProfile, FunctionId, FunctionStats};

    fn sample_series() -> (SampleSeries, FunctionTable) {
        let mut table = FunctionTable::new();
        let a = table.register("kernel_a");
        let b = table.register("kernel_b");
        let mut series = SampleSeries::new();
        let mut flat = FlatProfile::new();
        for i in 0..5u64 {
            flat.record_self_time(a, 1_000_000_000);
            flat.record_calls(a, 2);
            if i >= 2 {
                flat.record_self_time(b, 500_000_000);
            }
            series.push(ProfileSnapshot {
                sample_index: i,
                timestamp_ns: i * 1_000_000_000,
                flat: flat.clone(),
                callgraph: Default::default(),
            });
        }
        (series, table)
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("incprof_gmon_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn roundtrip_through_directory() {
        let (series, table) = sample_series();
        let dir = tmpdir("roundtrip");
        let n = write_gmon_dir(&series, &table, &dir).unwrap();
        assert_eq!(n, 5);
        let (back, back_table) = read_gmon_dir(&dir).unwrap();
        assert_eq!(back.len(), 5);
        assert_eq!(back_table.id_of("kernel_a"), table.id_of("kernel_a"));
        // Cumulative content identical sample-by-sample.
        for (orig, read) in series.snapshots().iter().zip(back.snapshots()) {
            assert_eq!(orig.flat, read.flat);
        }
        // And the interval pipeline runs on the loaded series.
        assert_eq!(back.interval_profiles().unwrap().len(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_names_sort_in_sample_order() {
        let (series, table) = sample_series();
        let dir = tmpdir("names");
        write_gmon_dir(&series, &table, &dir).unwrap();
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
        let (series, table) = sample_series();
        let dir = tmpdir("corrupt");
        write_gmon_dir(&series, &table, &dir).unwrap();
        std::fs::write(dir.join("gmon.out.000002"), b"garbage").unwrap();
        assert!(read_gmon_dir(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_directory_loads_empty_series() {
        let dir = tmpdir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        let (series, table) = read_gmon_dir(&dir).unwrap();
        assert!(series.is_empty());
        assert!(table.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn growing_function_table_keeps_latest() {
        // Later samples may know more functions than early ones.
        let (series, table) = sample_series();
        let dir = tmpdir("grow");
        write_gmon_dir(&series, &table, &dir).unwrap();
        let (_, back_table) = read_gmon_dir(&dir).unwrap();
        assert_eq!(back_table.len(), 2);
        let _ = (FunctionId(0), FunctionStats::default());
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! Byte pins for what the CLI prints and writes from one collected run:
//! the `gmon.out.N` sample files `demo` writes (as one FNV-1a digest
//! line per file), the `demo` run analysed as a table and as `--json`,
//! the gprof text reports `render-reports` writes, and the
//! `PhaseAnalysis` a daemon answers to `push --analysis`. The goldens under `tests/golden/` are
//! the exact bytes; a change to how a run is stored, read or pushed
//! that moves one of them fails here.

use incprof_cli::run;
use incprof_serve::{ServeConfig, Server};
use std::path::{Path, PathBuf};

const ANALYSIS_TABLE: &str = include_str!("golden/demo_analysis.txt");
const ANALYSIS_JSON: &str = include_str!("golden/demo_analysis.json");
const REPORTS: &str = include_str!("golden/demo_reports.txt");
const PUSH_ANALYSIS: &str = include_str!("golden/demo_push_analysis.json");
const SAMPLES: &str = include_str!("golden/demo_samples.txt");

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("incprof_run_pins_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn cli(args: &[&str]) -> String {
    let line: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    run(&line).unwrap_or_else(|e| panic!("incprof {args:?}: {e}"))
}

fn path(p: &Path) -> &str {
    p.to_str().expect("utf8 path")
}

/// `demo` into a fresh directory; returns the run's path.
fn demo_run(dir: &Path) -> PathBuf {
    let run = dir.join("run");
    cli(&["demo", path(&run)]);
    run
}

/// The files of `dir` in name order, each as `name size fnv1a64`.
fn file_digests(dir: &Path) -> String {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("run written")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .collect();
    names.sort();
    let mut all = String::new();
    for name in names {
        let bytes = std::fs::read(dir.join(&name)).expect("sample file");
        let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        all.push_str(&format!("{name} {} {hash:016x}\n", bytes.len()));
    }
    all
}

#[test]
fn demo_sample_files_are_pinned() {
    let dir = tmpdir("samples");
    let run = demo_run(&dir);
    assert_eq!(file_digests(&run), SAMPLES);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn demo_analysis_is_pinned() {
    let dir = tmpdir("analyze");
    let run = demo_run(&dir);
    assert_eq!(
        format!("{}\n", cli(&["analyze-gmon", path(&run)])),
        ANALYSIS_TABLE
    );
    assert_eq!(
        format!("{}\n", cli(&["analyze-gmon", path(&run), "--json"])),
        ANALYSIS_JSON
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rendered_reports_are_pinned() {
    let dir = tmpdir("reports");
    let run = demo_run(&dir);
    let out = dir.join("reports");
    cli(&["render-reports", path(&run), path(&out)]);
    let mut names: Vec<String> = std::fs::read_dir(&out)
        .expect("reports written")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8"))
        .collect();
    names.sort();
    let mut all = String::new();
    for name in names {
        all.push_str(&format!("==> {name} <==\n"));
        all.push_str(&std::fs::read_to_string(out.join(&name)).expect("report"));
    }
    assert_eq!(all, REPORTS);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pushed_analysis_is_pinned() {
    let dir = tmpdir("push");
    let run = demo_run(&dir);
    let server = Server::bind(ServeConfig::default())
        .and_then(Server::start)
        .expect("daemon starts");
    let analysis = cli(&["push", server.addr(), path(&run), "--analysis"]);
    server.shutdown();
    assert_eq!(format!("{analysis}\n"), PUSH_ANALYSIS);
    std::fs::remove_dir_all(&dir).ok();
}

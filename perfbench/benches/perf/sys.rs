//! What the harness reads from the operating system: CPU time, peak
//! memory, the machine descriptor, and a scratch directory inside the
//! checkout.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// `/proc` reports process times in USER_HZ ticks, fixed at 100 per
/// second by the Linux ABI.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds (user + system) this process has used, over all of its
/// threads, finished ones included. The pool spawns scoped threads per
/// call, and a per-task sum over `/proc/self/task` would lose their
/// time when they exit. Zero where `/proc` is unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the line, so 11 and 12 after the ')'.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / TICKS_PER_S
}

/// CPU seconds the calling thread has run, at scheduler resolution.
pub fn thread_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))?
                .split_whitespace()
                .next()?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Closed-loop clients (threads and connections) a socket workload
/// drives, and the daemon's worker threads: half the CPUs each, so that
/// clients and workers together never oversubscribe the machine (with
/// more busy threads than CPUs the push median flips between two
/// scheduling modes from run to run). Never more than four.
pub fn clients() -> usize {
    (nproc() / 2).clamp(1, 4)
}

/// The benchmark's own directory inside the checkout.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A fresh scratch directory under the benchmark's directory (the
/// benchmark reads and writes only inside its checkout). Removed by
/// [`remove_work_dirs`].
pub fn work_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = bench_dir()
        .join(".work")
        .join(format!("{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory inside the checkout");
    dir
}

/// Delete every scratch directory this process made.
pub fn remove_work_dirs() {
    let prefix = format!("{}-", std::process::id());
    let Ok(entries) = std::fs::read_dir(bench_dir().join(".work")) else {
        return;
    };
    for e in entries.flatten() {
        if e.file_name().to_string_lossy().starts_with(&prefix) {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
}

/// Size of the file at `path`; 0 when it does not exist.
pub fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(bench_dir())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine descriptor stored with every result file, as JSON.
pub fn machine_json() -> String {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    let threads = std::env::var("INCPROF_THREADS").unwrap_or_default();
    format!(
        "{{\"nproc\":{},\"INCPROF_THREADS\":{},\"rustc\":{},\"profile\":\"{}\",\"kernel\":{},\"git_commit\":{}}}",
        nproc(),
        crate::json_str(&threads),
        crate::json_str(&command_line("rustc", &["-V"])),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        crate::json_str(&kernel),
        crate::json_str(&command_line("git", &["rev-parse", "HEAD"])),
    )
}

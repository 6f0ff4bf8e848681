//! The suite modes: every workload in a child process of its own (so
//! peak memory, the obs registry and the pool are per workload), one
//! schema-versioned result file, and the self-check of the benchmark's
//! own repeatability.

use crate::{json_str, metrics, stats, sys, Args, DEFAULT_SEED, HELD_OUT_SEED};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Version of the result file's layout.
const SCHEMA_VERSION: u32 = 1;

/// What the harness needs from `BENCHMARK.json`.
pub struct BenchmarkJson {
    pub run_seconds: f64,
    /// End-to-end metric → `(bound, higher is better)`.
    pub bounds: BTreeMap<String, (f64, bool)>,
}

/// Read `BENCHMARK.json` from the root of the checkout.
pub fn benchmark_json() -> BenchmarkJson {
    let path = sys::bench_dir()
        .parent()
        .expect("the benchmark directory sits in the checkout")
        .join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let bounds = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("BENCHMARK.json lists end_to_end metrics")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).expect("metric field");
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .expect("metric bound");
            (
                field("name").to_string(),
                (bound, field("better") == "higher"),
            )
        })
        .collect();
    BenchmarkJson {
        run_seconds: doc
            .get("run_seconds")
            .and_then(Value::as_f64)
            .expect("BENCHMARK.json has run_seconds"),
        bounds,
    }
}

/// One child run's parsed result line.
struct ChildResult {
    attempted: u64,
    failed: u64,
    /// name → `(value, unit)`.
    metrics: BTreeMap<String, (f64, String)>,
}

/// Run one workload in a child process; its print-out passes through.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().ok_or(format!(
        "{workload}: the child printed nothing ({})",
        output.status
    ))?;
    let doc: Value = serde_json::from_str(last).map_err(|e| {
        format!(
            "{workload}: last line is not a result ({e}); {}",
            output.status
        )
    })?;
    let count = |k: &str| {
        doc.get(k)
            .and_then(Value::as_u64)
            .ok_or(format!("result lacks {k}"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result lacks metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            (name.clone(), (value, unit.to_string()))
        })
        .collect();
    Ok(ChildResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// A set of untraced runs of one workload.
#[derive(Default)]
struct UntracedSet {
    /// End-to-end metric → its value in each run.
    values: BTreeMap<String, Vec<f64>>,
    /// Operations and checks attempted / failed over all runs.
    attempted: u64,
    failed: u64,
}

/// `runs` untraced runs of `workload`, run `i` seeded `seed + i`.
fn untraced_set(
    workload: &str,
    seed: u64,
    seconds: f64,
    runs: usize,
) -> Result<UntracedSet, String> {
    let mut set = UntracedSet::default();
    for i in 0..runs {
        let run = child(workload, seed + i as u64, seconds, false)?;
        set.attempted += run.attempted;
        set.failed += run.failed;
        for (name, (value, _)) in run.metrics {
            set.values.entry(name).or_default().push(value);
        }
    }
    Ok(set)
}

/// `(q1, median, q3)`; a single value is all three.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = stats::sorted(values.to_vec());
    if v.len() < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return (only, only, only);
    }
    stats::quartiles(&v)
}

fn numbers(values: &[f64]) -> String {
    values
        .iter()
        .map(f64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// `perf --all`: every workload untraced `runs` times, then traced once;
/// one result file.
pub fn run_all(args: &Args) -> Result<(), String> {
    let seconds = if args.quick {
        1.0
    } else {
        args.seconds.unwrap_or_else(|| benchmark_json().run_seconds)
    };
    let runs = if args.quick {
        1
    } else {
        args.runs.unwrap_or(3)
    };
    let mut total_failed = 0;
    let mut sections = Vec::new();
    for workload in metrics::WORKLOADS {
        let UntracedSet {
            values,
            attempted,
            failed,
        } = untraced_set(workload, args.seed, seconds, runs)?;
        let traced = child(workload, args.seed, seconds, true)?;
        total_failed += failed + traced.failed;
        let end_to_end: Vec<String> = metrics::END_TO_END
            .iter()
            .map(|(name, unit)| {
                let v = values.get(*name).cloned().unwrap_or_default();
                let (q1, median, q3) = quartiles(&v);
                format!(
                    "{}:{{\"unit\":{},\"n\":{},\"median\":{median},\"q1\":{q1},\"q3\":{q3},\"values\":[{}]}}",
                    json_str(name),
                    json_str(unit),
                    v.len(),
                    numbers(&v)
                )
            })
            .collect();
        let per_layer: Vec<String> = metrics::PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let value = traced.metrics.get(*name).map_or(0.0, |(v, _)| *v);
                format!(
                    "{}:{{\"unit\":{},\"value\":{value}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        sections.push(format!(
            "{}:{{\"attempted\":{},\"failed\":{},\"end_to_end\":{{{}}},\"per_layer\":{{{}}}}}",
            json_str(workload),
            attempted + traced.attempted,
            failed + traced.failed,
            end_to_end.join(","),
            per_layer.join(",")
        ));
    }
    let doc = format!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"benchmark\":\"incprof-perf\",\"machine\":{},\"seed\":{},\"default_seed\":{DEFAULT_SEED},\"held_out_seed\":{HELD_OUT_SEED},\"seconds\":{seconds},\"untraced_runs\":{runs},\"clients\":{},\"workloads\":{{{}}}}}\n",
        sys::machine_json(),
        args.seed,
        sys::clients(),
        sections.join(",")
    );
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| sys::bench_dir().join("out").join("BENCH_local.json"));
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&path, doc).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    if total_failed > 0 {
        return Err(format!("{total_failed} operations or checks failed"));
    }
    Ok(())
}

/// `perf --selfcheck`: the untraced suite twice on this build. Every
/// end-to-end metric's second median must not be worse than the first by
/// more than its bound; a metric whose run-to-run spread is wider than
/// its bound is listed as unresolved, not passed.
pub fn selfcheck(args: &Args) -> Result<(), String> {
    let spec = benchmark_json();
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let runs = args.runs.unwrap_or(5);
    let (mut disagree, mut unresolved) = (Vec::new(), Vec::new());
    for workload in metrics::WORKLOADS {
        let mut sets = Vec::new();
        for _ in 0..2 {
            let set = untraced_set(workload, args.seed, seconds, runs)?;
            if set.failed > 0 {
                disagree.push(format!(
                    "{workload}: {} operations or checks failed",
                    set.failed
                ));
            }
            sets.push(set.values);
        }
        println!(
            "selfcheck {workload} ({runs} runs per set, seeds {}..):",
            args.seed
        );
        for (name, _) in metrics::END_TO_END {
            let (bound, higher_better) = spec.bounds.get(name).copied().unwrap_or((0.0, false));
            let first = stats::sorted(sets[0].get(name).cloned().unwrap_or_default());
            let second = stats::sorted(sets[1].get(name).cloned().unwrap_or_default());
            let (m1, m2) = (quartiles(&first).1, quartiles(&second).1);
            let worse_by = if higher_better {
                (m1 - m2) / m1
            } else {
                (m2 - m1) / m1
            };
            let spread = if first.len() >= 2 {
                stats::spread(&first).max(stats::spread(&second))
            } else {
                0.0
            };
            let verdict = if worse_by > bound {
                disagree.push(format!(
                    "{workload}/{name}: second median worse by {worse_by:.4} > {bound}"
                ));
                "DISAGREE"
            } else if name != "setup_s" && spread > bound {
                unresolved.push(format!(
                    "{workload}/{name}: spread {spread:.4} > bound {bound}"
                ));
                "UNRESOLVED"
            } else {
                "ok"
            };
            println!(
                "  {name:<20} median {m1:>14.4} then {m2:>14.4}  worse_by {worse_by:>8.4}  spread {spread:>7.4}  bound {bound:<5} {verdict}"
            );
        }
    }
    for line in &unresolved {
        println!("UNRESOLVED {line}");
    }
    for line in &disagree {
        println!("DISAGREE {line}");
    }
    if disagree.is_empty() && unresolved.is_empty() {
        println!("selfcheck: every end-to-end metric repeats within its bound");
        Ok(())
    } else {
        Err(format!(
            "selfcheck: {} metrics disagree, {} unresolved",
            disagree.len(),
            unresolved.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the harness must name the same things.
    #[test]
    fn benchmark_json_lists_what_the_harness_reports() {
        let path = sys::bench_dir().parent().unwrap().join("BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |section: &str, key: &str| -> Vec<(String, String)> {
            doc.get(section)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field =
                        |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field(key))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end", "unit"), own(&metrics::END_TO_END));
        assert_eq!(listed("per_layer", "unit"), own(&metrics::PER_LAYER));
        let workloads: Vec<String> = listed("workloads", "why")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, metrics::WORKLOADS);
        assert!(benchmark_json()
            .bounds
            .values()
            .all(|(b, _)| *b > 0.0 && *b <= 0.25));
    }
}

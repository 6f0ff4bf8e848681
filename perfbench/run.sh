#!/usr/bin/env bash
# Build the perf benchmark and run it.
#
#   perfbench/run.sh                every workload (untraced x3, traced x1) -> perfbench/out/BENCH_local.json
#   perfbench/run.sh --quick        the same with 1-second runs, one each: a smoke test for CI, numbers mean nothing
#   perfbench/run.sh --selfcheck    the untraced suite twice, held against the bounds in BENCHMARK.json
#   perfbench/run.sh test           the harness's own unit tests
#   perfbench/run.sh <perf args>    anything else goes to `perf` unchanged (see `perf` with no arguments)
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=perfbench/Cargo.toml

case "${1:-}" in
    test)
        shift
        exec cargo test --release --quiet --offline --manifest-path "$manifest" "$@"
        ;;
    "" | --quick | --seed | --seconds | --runs | --out)
        exec cargo run --release --quiet --offline --manifest-path "$manifest" -- --all "$@"
        ;;
    *)
        exec cargo run --release --quiet --offline --manifest-path "$manifest" -- "$@"
        ;;
esac

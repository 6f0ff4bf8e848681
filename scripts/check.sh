#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
# Run from anywhere inside the repository.
#
#   scripts/check.sh            # everything
#   scripts/check.sh smoke      # only the serve smoke (CI runs this step
#                               # separately so its artifacts upload on
#                               # failure; SMOKE_DIR overrides the workdir)
#   scripts/check.sh cluster-smoke
#                               # only the shard-router cluster smoke:
#                               # 2 spawned backends, kill -9 failover,
#                               # merged scrape (SMOKE_DIR as above)
#   scripts/check.sh docs-links # only the docs checks: README ↔ docs/ links,
#                               # every `--bin <name>` a doc quotes exists,
#                               # no doc says `cargo bench`
#   scripts/check.sh sca        # only the static-analysis gate: incprof
#                               # sca over the workspace (graph rules +
#                               # per-line lints, warnings are errors)
#                               # plus the apps call-graph export; leaves
#                               # target/sca-report.json for CI upload
#   scripts/check.sh perf-smoke # only the perf benchmark smoke: builds
#                               # perfbench/ (its own package, outside
#                               # the workspace, so nothing else compiles
#                               # it), runs its unit tests (percentile,
#                               # quartile and span arithmetic) and every
#                               # workload for one second; the numbers
#                               # mean nothing, a non-zero exit means a
#                               # rename broke it
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

docs_links() {
    echo "==> docs links (every docs/*.md linked from README, every link and quoted --bin resolves)"
    local fail=0
    for doc in docs/*.md; do
        grep -qF "$doc" README.md \
            || { echo "docs-links: $doc is not linked from README.md"; fail=1; }
    done
    for ref in $(grep -o 'docs/[A-Za-z0-9_.-]*\.md' README.md | sort -u); do
        [ -f "$ref" ] \
            || { echo "docs-links: README.md links missing file $ref"; fail=1; }
    done
    # A command a doc tells the reader to run names a binary that exists.
    for bin in $(grep -oh -e '--bin [A-Za-z0-9_-]*' README.md DESIGN.md EXPERIMENTS.md docs/*.md \
                     | cut -d' ' -f2 | sort -u); do
        compgen -G "crates/*/src/bin/$bin.rs" >/dev/null \
            || { echo "docs-links: --bin $bin: no crates/*/src/bin/$bin.rs"; fail=1; }
    done
    # The workspace has no bench targets: perfbench/ is the one thing that
    # times code. The three exempt files are history and plans.
    for doc in $(git ls-files '*.md' | grep -vxE 'CHANGES\.md|ROADMAP\.md|ISSUE\.md'); do
        if grep -qF 'cargo bench' "$doc"; then
            echo "docs-links: $doc says 'cargo bench'; the timing harness is perfbench/run.sh"
            fail=1
        fi
    done
    [ "$fail" -eq 0 ] || exit 1
}

serve_smoke() {
    echo "==> serve smoke (daemon + admin round-trip on ephemeral ports)"
    cargo build -q -p incprof-cli
    INCPROF="$(pwd)/target/debug/incprof"
    if [ -z "${SMOKE_DIR:-}" ]; then
        SMOKE_DIR="$(mktemp -d)"
        trap 'rm -rf "$SMOKE_DIR"' EXIT
    else
        mkdir -p "$SMOKE_DIR"
    fi
    "$INCPROF" demo "$SMOKE_DIR/run.json" >/dev/null
    # timeout(1) hard-bounds the whole exchange so a wedged daemon fails
    # the gate instead of hanging it; the daemon picks its own ports and
    # reports them through --addr-file / --admin-addr-file.
    timeout 60 "$INCPROF" serve --addr 127.0.0.1:0 --addr-file "$SMOKE_DIR/addr.txt" \
        --admin 127.0.0.1:0 --admin-addr-file "$SMOKE_DIR/admin.txt" \
        --store-dir "$SMOKE_DIR/store" \
        >"$SMOKE_DIR/serve.log" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$SMOKE_DIR/addr.txt" ] && [ -s "$SMOKE_DIR/admin.txt" ] && break
        sleep 0.1
    done
    [ -s "$SMOKE_DIR/addr.txt" ] || { echo "serve smoke: daemon never bound"; exit 1; }
    [ -s "$SMOKE_DIR/admin.txt" ] || { echo "serve smoke: admin socket never bound"; exit 1; }
    ADDR="$(cat "$SMOKE_DIR/addr.txt")"
    ADMIN="$(cat "$SMOKE_DIR/admin.txt")"
    timeout 60 "$INCPROF" push "$ADDR" "$SMOKE_DIR/run.json" --analysis --keep-open \
        --session-file "$SMOKE_DIR/session.txt" \
        >"$SMOKE_DIR/report.json"
    grep -q '"phases"' "$SMOKE_DIR/report.json" \
        || { echo "serve smoke: report has no phases"; cat "$SMOKE_DIR/report.json"; exit 1; }
    # Admin plane: the scrape must be well-formed exposition that saw
    # the push traffic, and the flight-recorder dump valid JSON. grep -v
    # drops the CLI's trailing "top: 1 refresh(es) of ..." status line.
    timeout 60 "$INCPROF" top "$ADMIN" --iterations 1 --raw \
        | grep -v '^top: ' >"$SMOKE_DIR/scrape.txt"
    grep -q '^# TYPE incprof_serve_frames_received counter$' "$SMOKE_DIR/scrape.txt" \
        || { echo "serve smoke: scrape missing frame counter"; cat "$SMOKE_DIR/scrape.txt"; exit 1; }
    grep -q '^incprof_session_snapshots{session="[0-9]*"} [1-9]' "$SMOKE_DIR/scrape.txt" \
        || { echo "serve smoke: scrape has no session snapshots"; cat "$SMOKE_DIR/scrape.txt"; exit 1; }
    awk '!/^# TYPE / && !/^[a-z_][a-z0-9_]*({[^}]*})? -?[0-9.]+(e-?[0-9]+)?$/ { bad=1; print "malformed:", $0 } END { exit bad }' \
        "$SMOKE_DIR/scrape.txt" \
        || { echo "serve smoke: malformed exposition line"; exit 1; }
    timeout 60 "$INCPROF" top "$ADMIN" --iterations 1 --recorder >"$SMOKE_DIR/recorder.json"
    grep -q '"total":' "$SMOKE_DIR/recorder.json" \
        || { echo "serve smoke: recorder dump malformed"; cat "$SMOKE_DIR/recorder.json"; exit 1; }
    timeout 60 "$INCPROF" top "$ADMIN" --iterations 1 --health | grep -q '"status":"ok"' \
        || { echo "serve smoke: health not ok"; exit 1; }
    timeout 60 "$INCPROF" push "$ADDR" "$SMOKE_DIR/run.json" --analysis --shutdown >/dev/null
    wait "$SERVE_PID" || { echo "serve smoke: daemon exited non-zero"; cat "$SMOKE_DIR/serve.log"; exit 1; }

    # Second life: a fresh daemon over the same --store-dir must answer
    # for the kept-open session by id, byte-identically to the first
    # life's report (transparent rehydration; docs/PERSISTENCE.md).
    echo "==> serve smoke: restart + rehydrate over $SMOKE_DIR/store"
    [ -s "$SMOKE_DIR/session.txt" ] || { echo "serve smoke: push wrote no session id"; exit 1; }
    SID="$(cat "$SMOKE_DIR/session.txt")"
    timeout 60 "$INCPROF" serve --addr 127.0.0.1:0 --addr-file "$SMOKE_DIR/addr2.txt" \
        --store-dir "$SMOKE_DIR/store" \
        >"$SMOKE_DIR/serve2.log" 2>&1 &
    SERVE2_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$SMOKE_DIR/addr2.txt" ] && break
        sleep 0.1
    done
    [ -s "$SMOKE_DIR/addr2.txt" ] || { echo "serve smoke: restarted daemon never bound"; exit 1; }
    ADDR2="$(cat "$SMOKE_DIR/addr2.txt")"
    timeout 60 "$INCPROF" query "$ADDR2" "$SID" --analysis --close --shutdown \
        >"$SMOKE_DIR/report2.json"
    cmp -s "$SMOKE_DIR/report.json" "$SMOKE_DIR/report2.json" || {
        echo "serve smoke: rehydrated report differs from the first life"
        diff "$SMOKE_DIR/report.json" "$SMOKE_DIR/report2.json" | head -20
        exit 1
    }
    wait "$SERVE2_PID" || { echo "serve smoke: restarted daemon exited non-zero"; cat "$SMOKE_DIR/serve2.log"; exit 1; }
}

cluster_smoke() {
    echo "==> cluster smoke (shard router + 2 backends, kill -9 failover)"
    cargo build -q -p incprof-cli
    INCPROF="$(pwd)/target/debug/incprof"
    if [ -z "${SMOKE_DIR:-}" ]; then
        SMOKE_DIR="$(mktemp -d)"
        trap 'rm -rf "$SMOKE_DIR"' EXIT
    else
        mkdir -p "$SMOKE_DIR"
    fi
    "$INCPROF" demo "$SMOKE_DIR/run.json" >/dev/null
    mkdir -p "$SMOKE_DIR/pids"
    # The router spawns its two serve children itself (spawn mode); all
    # three processes share the store so a killed backend's sessions can
    # replay on the survivor. timeout(1) bounds the whole cluster's life.
    timeout 120 "$INCPROF" shard --backends 2 \
        --addr 127.0.0.1:0 --addr-file "$SMOKE_DIR/router-addr.txt" \
        --admin 127.0.0.1:0 --admin-addr-file "$SMOKE_DIR/router-admin.txt" \
        --store-dir "$SMOKE_DIR/cluster-store" --pid-dir "$SMOKE_DIR/pids" \
        >"$SMOKE_DIR/shard.log" 2>&1 &
    SHARD_PID=$!
    for _ in $(seq 1 150); do
        [ -s "$SMOKE_DIR/router-addr.txt" ] && [ -s "$SMOKE_DIR/router-admin.txt" ] && break
        sleep 0.1
    done
    [ -s "$SMOKE_DIR/router-addr.txt" ] \
        || { echo "cluster smoke: router never bound"; cat "$SMOKE_DIR/shard.log"; exit 1; }
    [ -s "$SMOKE_DIR/router-admin.txt" ] \
        || { echo "cluster smoke: router admin never bound"; cat "$SMOKE_DIR/shard.log"; exit 1; }
    RADDR="$(cat "$SMOKE_DIR/router-addr.txt")"
    RADMIN="$(cat "$SMOKE_DIR/router-admin.txt")"

    # Push/query round-trip through the router, session kept open so the
    # failover below addresses the same id.
    timeout 60 "$INCPROF" push "$RADDR" "$SMOKE_DIR/run.json" --analysis --keep-open \
        --session-file "$SMOKE_DIR/cluster-session.txt" \
        >"$SMOKE_DIR/cluster-report.json"
    grep -q '"phases"' "$SMOKE_DIR/cluster-report.json" \
        || { echo "cluster smoke: report has no phases"; cat "$SMOKE_DIR/cluster-report.json"; exit 1; }

    # The merged scrape must be well-formed exposition carrying both
    # shards' samples under the shard label, with TYPE lines deduped.
    timeout 60 "$INCPROF" top "$RADMIN" --iterations 1 --raw \
        | grep -v '^top: ' >"$SMOKE_DIR/cluster-scrape.txt"
    grep -q 'shard="0"' "$SMOKE_DIR/cluster-scrape.txt" \
        || { echo "cluster smoke: scrape has no shard 0 samples"; cat "$SMOKE_DIR/cluster-scrape.txt"; exit 1; }
    grep -q 'shard="1"' "$SMOKE_DIR/cluster-scrape.txt" \
        || { echo "cluster smoke: scrape has no shard 1 samples"; cat "$SMOKE_DIR/cluster-scrape.txt"; exit 1; }
    [ "$(grep -c '^# TYPE incprof_serve_frames_received ' "$SMOKE_DIR/cluster-scrape.txt")" = 1 ] \
        || { echo "cluster smoke: merged scrape duplicates TYPE lines"; exit 1; }
    awk '!/^# TYPE / && !/^[a-z_][a-z0-9_]*({[^}]*})? -?[0-9.]+(e-?[0-9]+)?$/ { bad=1; print "malformed:", $0 } END { exit bad }' \
        "$SMOKE_DIR/cluster-scrape.txt" \
        || { echo "cluster smoke: malformed merged exposition line"; exit 1; }
    timeout 60 "$INCPROF" top "$RADMIN" --iterations 1 --health | grep -q '"status":"ok"' \
        || { echo "cluster smoke: aggregate health not ok"; exit 1; }

    # Kill -9 the backend that owns the session (found via the pure
    # placement helper) and query again: the survivor must adopt the
    # session, replay it from the shared store, and answer with the
    # byte-identical report.
    SID="$(cat "$SMOKE_DIR/cluster-session.txt")"
    OWNER="$("$INCPROF" shard --route "$SID" --backends 2)"
    echo "==> cluster smoke: kill -9 shard $OWNER (owner of session $SID), query must fail over"
    kill -9 "$(cat "$SMOKE_DIR/pids/backend-$OWNER.pid")"
    timeout 60 "$INCPROF" query "$RADDR" "$SID" --analysis >"$SMOKE_DIR/cluster-report2.json"
    cmp -s "$SMOKE_DIR/cluster-report.json" "$SMOKE_DIR/cluster-report2.json" || {
        echo "cluster smoke: post-failover report differs from the pre-kill report"
        diff "$SMOKE_DIR/cluster-report.json" "$SMOKE_DIR/cluster-report2.json" | head -20
        exit 1
    }
    timeout 60 "$INCPROF" top "$RADMIN" --iterations 1 --health | grep -q '"status":"degraded"' \
        || { echo "cluster smoke: health must report degraded after a backend death"; exit 1; }

    # Drain: Shutdown through the router drains the surviving backend
    # before the ack, and the router process exits cleanly.
    timeout 60 "$INCPROF" query "$RADDR" "$SID" --close --shutdown >/dev/null
    wait "$SHARD_PID" \
        || { echo "cluster smoke: router exited non-zero"; cat "$SMOKE_DIR/shard.log"; exit 1; }
}

sca_gate() {
    echo "==> incprof sca (multi-pass static analysis: parser, call graph, P02/D05/A01)"
    cargo build -q -p incprof-cli
    INCPROF="$(pwd)/target/debug/incprof"
    # The JSON artifact (diagnostics + graph stats + timed run) survives
    # for CI to upload when the gate fails.
    "$INCPROF" sca . --deny-warnings --json target/sca-report.json
    echo "==> incprof callgraph (apps static graph vs golden)"
    "$INCPROF" callgraph . --json target/apps-callgraph.json
    cmp -s target/apps-callgraph.json tests/golden/apps_callgraph.json || {
        echo "sca: apps call graph drifted from tests/golden/apps_callgraph.json"
        diff tests/golden/apps_callgraph.json target/apps-callgraph.json | head -20
        exit 1
    }
}

if [ "${1:-all}" = "smoke" ]; then
    serve_smoke
    echo "Serve smoke passed."
    exit 0
fi

if [ "${1:-all}" = "cluster-smoke" ]; then
    cluster_smoke
    echo "Cluster smoke passed."
    exit 0
fi

perf_smoke() {
    echo "==> perf smoke (perfbench/ still builds, its unit tests pass, every workload still runs)"
    mkdir -p target
    perfbench/run.sh test >target/perf-smoke.log 2>&1 \
        || { echo "perf smoke: perfbench/run.sh test failed"; tail -40 target/perf-smoke.log; exit 1; }
    perfbench/run.sh --quick >>target/perf-smoke.log 2>&1 \
        || { echo "perf smoke: perfbench/run.sh --quick failed"; tail -40 target/perf-smoke.log; exit 1; }
}

if [ "${1:-all}" = "perf-smoke" ]; then
    perf_smoke
    echo "Perf smoke passed."
    exit 0
fi

if [ "${1:-all}" = "sca" ]; then
    sca_gate
    echo "Static-analysis gate passed."
    exit 0
fi

if [ "${1:-all}" = "docs-links" ]; then
    docs_links
    echo "Docs links OK."
    exit 0
fi

docs_links

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (workspace, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

sca_gate

echo "==> cargo test (workspace)"
cargo test --workspace -q

serve_smoke

cluster_smoke

perf_smoke

echo "All checks passed."

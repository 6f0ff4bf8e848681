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
#                               # every `--bin <name>` and source path
#                               # (tests/, crates/, examples/, scripts/)
#                               # a doc quotes exists,
#                               # every metric a doc's metric table names
#                               # is registered in crates/obs/src/names.rs,
#                               # no doc says `cargo bench`,
#                               # docs/PERSISTENCE.md names the
#                               # checkpoint blob version the code writes,
#                               # docs/PROTOCOL.md's Full-report example
#                               # is tests/golden/full_report.json
#   scripts/check.sh sca        # only the static-analysis gate: incprof
#                               # lint over the workspace (graph rules +
#                               # per-line lints, warnings are errors);
#                               # leaves target/sca-report.json for CI
#                               # upload
#   scripts/check.sh perf-smoke # only the perf benchmark smoke: builds
#                               # perfbench/ (its own package, outside
#                               # the workspace, so nothing else compiles
#                               # it), runs its unit tests (percentile,
#                               # quartile and span arithmetic) and every
#                               # workload for one second; the numbers
#                               # mean nothing, a non-zero exit means a
#                               # rename broke it, or that building it
#                               # rewrote perfbench/Cargo.lock
#   scripts/check.sh experiments
#                               # only the experiment goldens: the release
#                               # ablation_interval's stdout must equal
#                               # experiments_out/ablation_interval.txt,
#                               # and all_experiments' site tables II-VI
#                               # (paper size, INCPROF_SCALE unset) their
#                               # experiments_out/table*.txt files
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

docs_links() {
    echo "==> docs links (every docs/*.md linked from README, every link, quoted --bin, source path and tabled metric resolves; the blob version is current)"
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
    # Every source file a doc quotes in backticks exists.
    local doc ref
    while IFS=: read -r doc ref; do
        [ -f "${ref#\`}" ] \
            || { echo "docs-links: $doc quotes ${ref#\`}, which does not exist"; fail=1; }
    done < <(grep -oHE '`(tests/[A-Za-z0-9_]+\.rs|crates/[A-Za-z0-9_/-]+\.rs|examples/[A-Za-z0-9_]+\.rs|scripts/[A-Za-z0-9_-]+\.sh)' \
                 README.md DESIGN.md EXPERIMENTS.md docs/*.md | sort -u)
    # Every metric a doc's metric table names (`| `name` | counter |`) is
    # registered: a string literal in crates/obs/src/names.rs. A `<k>`
    # suffix matches as a prefix; "`a.b.c` / `.d`" names a.b.d too.
    local line col first metric pat
    while IFS= read -r line; do
        doc="${line%%:*}"
        col="${line#*:| }"
        col="${col%% | *}"
        first=""
        for metric in $(grep -o '`[^`]*`' <<<"$col" | tr -d '`'); do
            if [ -z "$first" ]; then
                first="$metric"
            else
                metric="${first%.*}$metric"
            fi
            case "$metric" in
                *'<k>') pat="\"${metric%<k>}" ;;
                *) pat="\"$metric\"" ;;
            esac
            grep -qF "$pat" crates/obs/src/names.rs \
                || { echo "docs-links: $doc: metric $metric is not in crates/obs/src/names.rs"; fail=1; }
        done
    done < <(grep -HE '^\| `[^`]+`( / `[^`]+`)* \| (counter|gauge|histogram) \|' README.md docs/*.md)
    # The workspace has no bench targets: perfbench/ is the one thing that
    # times code. The three exempt files are history and plans.
    for doc in $(git ls-files '*.md' | grep -vxE 'CHANGES\.md|ROADMAP\.md|ISSUE\.md'); do
        if grep -qF 'cargo bench' "$doc"; then
            echo "docs-links: $doc says 'cargo bench'; the timing harness is perfbench/run.sh"
            fail=1
        fi
    done
    # PERSISTENCE.md describes the blob the code writes: every "currently
    # version N" and every layout line `u8 state version (N)` it has
    # names STATE_VERSION in crates/core/src/cache.rs.
    local want got pat
    want=$(sed -nE 's/^const STATE_VERSION: u8 = ([0-9]+);$/\1/p' crates/core/src/cache.rs)
    for pat in 'currently version [0-9]+' 'u8 +state version \([0-9]+\)'; do
        got=$(grep -oE "$pat" docs/PERSISTENCE.md | grep -oE '[0-9]+\)?$' | tr -d ')' | sort -u | tr '\n' ' ')
        [ -n "$want" ] && [ "$got" = "$want " ] \
            || { echo "docs-links: docs/PERSISTENCE.md: '$pat' gives '${got% }', STATE_VERSION is '$want'"; fail=1; }
    done
    # PROTOCOL.md's Full-report example is tests/golden/full_report.json,
    # which tests/json_pins.rs pins to what the daemon sends.
    local example
    example=$(awk '/^Mode `0x00` \(full\)/ { f = 1 } f && /^```$/ { exit }
                   f == 2 { print } f && /^```json$/ { f = 2 }' docs/PROTOCOL.md)
    [ -n "$example" ] && [ "$example" = "$(cat tests/golden/full_report.json)" ] \
        || { echo "docs-links: docs/PROTOCOL.md's Full-report example differs from tests/golden/full_report.json"; fail=1; }
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
    # A run is a gmon.out.N directory, and demo refuses one that holds
    # files already (the other smoke may have left one in this SMOKE_DIR).
    rm -rf "$SMOKE_DIR/run"
    "$INCPROF" demo "$SMOKE_DIR/run" >/dev/null
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
    timeout 60 "$INCPROF" push "$ADDR" "$SMOKE_DIR/run" --analysis --keep-open \
        --session-file "$SMOKE_DIR/session.txt" \
        >"$SMOKE_DIR/report.json"
    grep -q '"phases"' "$SMOKE_DIR/report.json" \
        || { echo "serve smoke: report has no phases"; cat "$SMOKE_DIR/report.json"; exit 1; }
    # The Full report too: its source_context and site names read the
    # session's function table, which a restart rebuilds from table-less
    # log records.
    timeout 60 "$INCPROF" query "$ADDR" "$(cat "$SMOKE_DIR/session.txt")" >"$SMOKE_DIR/full.json"
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
    # The demo run's 38 pushes cross two due checkpoints (the default
    # --checkpoint-every is 16) before the push's one query: the second
    # rewrites the first's frame, and no write failed.
    awk '$1 == "incprof_store_checkpoint_write_errors" { errors = $2; seen = 1 }
         $1 == "incprof_store_checkpoint_reused" { reused = $2 }
         END { exit !(seen && errors + 0 == 0 && reused + 0 >= 1) }' "$SMOKE_DIR/scrape.txt" || {
        echo "serve smoke: an unchanged checkpoint was not rewritten from its frame"
        grep '^incprof_store_' "$SMOKE_DIR/scrape.txt"
        exit 1
    }
    timeout 60 "$INCPROF" top "$ADMIN" --iterations 1 --recorder >"$SMOKE_DIR/recorder.json"
    grep -q '"total":' "$SMOKE_DIR/recorder.json" \
        || { echo "serve smoke: recorder dump malformed"; cat "$SMOKE_DIR/recorder.json"; exit 1; }
    timeout 60 "$INCPROF" top "$ADMIN" --iterations 1 --health | grep -q '"status":"ok"' \
        || { echo "serve smoke: health not ok"; exit 1; }
    timeout 60 "$INCPROF" push "$ADDR" "$SMOKE_DIR/run" --analysis --shutdown >/dev/null
    wait "$SERVE_PID" || { echo "serve smoke: daemon exited non-zero"; cat "$SMOKE_DIR/serve.log"; exit 1; }

    # Second life: a fresh daemon over the same --store-dir must answer
    # for the kept-open session by id, byte-identically to the first
    # life's report (transparent rehydration; docs/PERSISTENCE.md), and
    # must adopt the session's checkpoint rather than replay it cold: a
    # blob every restart rejects still answers the same bytes.
    echo "==> serve smoke: restart + rehydrate over $SMOKE_DIR/store"
    [ -s "$SMOKE_DIR/session.txt" ] || { echo "serve smoke: push wrote no session id"; exit 1; }
    SID="$(cat "$SMOKE_DIR/session.txt")"
    [ -s "$SMOKE_DIR/store/$SID/checkpoint.iprf" ] || { echo "serve smoke: no checkpoint written"; exit 1; }
    timeout 60 "$INCPROF" serve --addr 127.0.0.1:0 --addr-file "$SMOKE_DIR/addr2.txt" \
        --admin 127.0.0.1:0 --admin-addr-file "$SMOKE_DIR/admin2.txt" \
        --store-dir "$SMOKE_DIR/store" \
        >"$SMOKE_DIR/serve2.log" 2>&1 &
    SERVE2_PID=$!
    for _ in $(seq 1 100); do
        [ -s "$SMOKE_DIR/addr2.txt" ] && [ -s "$SMOKE_DIR/admin2.txt" ] && break
        sleep 0.1
    done
    [ -s "$SMOKE_DIR/addr2.txt" ] || { echo "serve smoke: restarted daemon never bound"; exit 1; }
    [ -s "$SMOKE_DIR/admin2.txt" ] || { echo "serve smoke: restarted admin never bound"; exit 1; }
    ADDR2="$(cat "$SMOKE_DIR/addr2.txt")"
    timeout 60 "$INCPROF" query "$ADDR2" "$SID" --analysis >"$SMOKE_DIR/report2.json"
    cmp -s "$SMOKE_DIR/report.json" "$SMOKE_DIR/report2.json" || {
        echo "serve smoke: rehydrated report differs from the first life"
        diff "$SMOKE_DIR/report.json" "$SMOKE_DIR/report2.json" | head -20
        exit 1
    }
    timeout 60 "$INCPROF" query "$ADDR2" "$SID" >"$SMOKE_DIR/full2.json"
    cmp -s "$SMOKE_DIR/full.json" "$SMOKE_DIR/full2.json" || {
        echo "serve smoke: rehydrated Full report differs from the first life"
        diff "$SMOKE_DIR/full.json" "$SMOKE_DIR/full2.json" | head -20
        exit 1
    }
    timeout 60 "$INCPROF" top "$(cat "$SMOKE_DIR/admin2.txt")" --iterations 1 --raw \
        | grep -v '^top: ' >"$SMOKE_DIR/scrape2.txt"
    awk '$1 == "incprof_store_checkpoint_rejected" { rejected = $2 }
         $1 == "incprof_store_session_rehydrations" { rehydrated = $2 }
         END { exit !(rejected + 0 == 0 && rehydrated + 0 >= 1) }' "$SMOKE_DIR/scrape2.txt" || {
        echo "serve smoke: the restart did not adopt its checkpoint"
        grep '^incprof_store_' "$SMOKE_DIR/scrape2.txt"
        exit 1
    }
    timeout 60 "$INCPROF" query "$ADDR2" "$SID" --close --shutdown >/dev/null
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
    # A run is a gmon.out.N directory, and demo refuses one that holds
    # files already (the other smoke may have left one in this SMOKE_DIR).
    rm -rf "$SMOKE_DIR/run"
    "$INCPROF" demo "$SMOKE_DIR/run" >/dev/null
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
    timeout 60 "$INCPROF" push "$RADDR" "$SMOKE_DIR/run" --analysis --keep-open \
        --session-file "$SMOKE_DIR/cluster-session.txt" \
        >"$SMOKE_DIR/cluster-report.json"
    grep -q '"phases"' "$SMOKE_DIR/cluster-report.json" \
        || { echo "cluster smoke: report has no phases"; cat "$SMOKE_DIR/cluster-report.json"; exit 1; }
    timeout 60 "$INCPROF" query "$RADDR" "$(cat "$SMOKE_DIR/cluster-session.txt")" \
        >"$SMOKE_DIR/cluster-full.json"

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
    timeout 60 "$INCPROF" query "$RADDR" "$SID" >"$SMOKE_DIR/cluster-full2.json"
    cmp -s "$SMOKE_DIR/cluster-full.json" "$SMOKE_DIR/cluster-full2.json" || {
        echo "cluster smoke: post-failover Full report differs from the pre-kill one"
        diff "$SMOKE_DIR/cluster-full.json" "$SMOKE_DIR/cluster-full2.json" | head -20
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
    echo "==> incprof lint (multi-pass static analysis: parser, call graph, P02/D05/A01)"
    cargo build -q -p incprof-cli
    INCPROF="$(pwd)/target/debug/incprof"
    # The JSON artifact (diagnostics + graph stats + timed run) survives
    # for CI to upload when the gate fails.
    "$INCPROF" lint . --deny-warnings --json target/sca-report.json
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
    # Kept to compare with after the build, not with the index, so an
    # unstaged edit to the lockfile does not read as the build's.
    cp perfbench/Cargo.lock target/perf-smoke.Cargo.lock.before
    perfbench/run.sh test >target/perf-smoke.log 2>&1 \
        || { echo "perf smoke: perfbench/run.sh test failed"; tail -40 target/perf-smoke.log; exit 1; }
    perfbench/run.sh --quick >>target/perf-smoke.log 2>&1 \
        || { echo "perf smoke: perfbench/run.sh --quick failed"; tail -40 target/perf-smoke.log; exit 1; }
    # A dependency row of a crate perfbench builds moves its lockfile,
    # which the benchmark would then rewrite at run time.
    cmp -s target/perf-smoke.Cargo.lock.before perfbench/Cargo.lock || {
        echo "perf smoke: building perfbench changed perfbench/Cargo.lock; a change to a"
        echo "dependency row of a crate perfbench builds waits for a change allowed to touch"
        echo "the benchmark (shims/README.md)"
        diff target/perf-smoke.Cargo.lock.before perfbench/Cargo.lock
        exit 1
    }
}

if [ "${1:-all}" = "perf-smoke" ]; then
    perf_smoke
    echo "Perf smoke passed."
    exit 0
fi

experiments() {
    echo "==> experiment goldens (release ablation_interval stdout and site tables II-VI vs experiments_out/)"
    cargo build -q --release -p incprof-bench --bin ablation_interval --bin all_experiments
    mkdir -p target
    target/release/ablation_interval >target/ablation_interval.txt
    cmp -s target/ablation_interval.txt experiments_out/ablation_interval.txt || {
        echo "experiments: ablation_interval drifted from experiments_out/ablation_interval.txt"
        diff experiments_out/ablation_interval.txt target/ablation_interval.txt | head -20
        exit 1
    }
    # all_experiments writes into ./experiments_out, so run it elsewhere.
    local dir=target/experiments n name
    mkdir -p "$dir"
    for n in 2 3 4 5 6; do
        (cd "$dir" && env -u INCPROF_SCALE ../release/all_experiments --only "table$n" >/dev/null 2>&1)
    done
    for name in table2_Graph500 table3_MiniFE table4_MiniAMR table5_LAMMPS table6_Gadget2; do
        cmp -s "$dir/experiments_out/$name.txt" "experiments_out/$name.txt" || {
            echo "experiments: $name drifted from experiments_out/$name.txt"
            diff "experiments_out/$name.txt" "$dir/experiments_out/$name.txt" | head -20
            exit 1
        }
    done
}

if [ "${1:-all}" = "experiments" ]; then
    experiments
    echo "Experiment goldens match."
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

experiments

echo "All checks passed."

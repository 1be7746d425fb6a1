#!/usr/bin/env bash
# Offline CI gate: the workspace must build, test, and lint clean with zero
# registry access (no network in the build environment).
set -euo pipefail
cd "$(dirname "$0")"

# ci.sh leaves the checkout as it found it: its last step compares the
# tracked-file state with this one (skipped outside a git checkout).
tracked_state() {
    git status --porcelain --untracked-files=no 2> /dev/null || echo "not a git checkout"
}
tracked_at_start=$(tracked_state)

echo "== build (release, offline) =="
cargo build --release --offline

echo "== tests (workspace, offline) =="
# Includes tests/architecture.rs: the table of structural gates (where a
# deleted parallel path would grow back), each row proven to fire.
cargo test -q --offline --workspace

echo "== clippy (workspace, all targets, deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== bench smokes (small N, offline) =="
# Small-scale run of each sweep into a scratch path (the committed
# BENCH*.json are the full-scale artifacts). The emitter's exit status is the
# gate: each sweep's verdict lives beside its point type in
# crates/bench/src/lib.rs (results and wire bytes identical across the
# compared modes, the tracing overhead budget, flat goodput past saturation
# with the shed path firing and every error typed) and is unit-tested there.
# Any panic fails the run itself.
for bench in scaleout paths plans joins throughput; do
    cargo run --release --offline --example bench -- "$bench" --small --out "target/BENCH_$bench.ci.json"
done
# a name the emitter does not know is a usage error (2), not a panic (101)
status=0
target/release/examples/bench no-such-bench 2> /dev/null || status=$?
if [ "$status" != 2 ]; then
    echo "bench: an unknown bench name exited $status, expected the usage error 2" >&2
    exit 1
fi

echo "== value join probes its key column (a count, not a timing) =="
# The paper's Section VII join, closed at the coordinator under data
# shipping: the compiled plan must evaluate the loop-invariant key column
# `$t/attribute::id` at most twice (first sight, then the sight that builds
# the probe table) while the `for $e` body still runs once per auction, and
# the listing must mark the comparison's memoisable operands.
# `profile_calls <regex>` reads calls= of the first op line matching <regex>
# in the EXPLAIN ANALYZE listing (an op line, then its counters line).
profile_calls() {
    awk -v pat="$1" '
        hit { if (match($0, /calls=[0-9]+/)) print substr($0, RSTART + 6, RLENGTH - 6); exit }
        $0 ~ pat { hit = 1 }
    ' target/ci_join_profile.out
}
target/release/xqd gen-xmark --bytes 30000 \
    --people target/ci_join_people.xml --auctions target/ci_join_auctions.xml > /dev/null
# the query text has one home: xqd_bench::BENCHMARK_QUERY
awk '/^pub const BENCHMARK_QUERY/ { on = 1; next } /^"#;/ { on = 0 } on' \
    crates/bench/src/lib.rs > target/ci_join.xq
target/release/xqd explain target/ci_join.xq --analyze --strategy data-shipping \
    --peer peer1:xmk.xml=target/ci_join_people.xml \
    --peer peer2:xmk.auctions.xml=target/ci_join_auctions.xml > target/ci_join_profile.out
auctions=$(grep -o '<open_auction ' target/ci_join_auctions.xml | wc -l)
key_calls=$(profile_calls ': path @[0-9]+ / attribute::id ')
body=$(awk '/: for \$e in / { sub(/.* return @/, ""); print $1; exit }' target/ci_join_profile.out)
body_calls=$(profile_calls "^ *$body: ")
if ! [ "$auctions" -ge 20 ] || ! [ "$key_calls" -le 2 ] || [ "$body_calls" != "$auctions" ]; then
    echo "value join: key column evaluated '$key_calls' times (want <= 2)," \
         "for \$e body '$body_calls' times (want $auctions)" >&2
    exit 1
fi
grep -q ': cmp @[0-9]* = @[0-9]* memo(@' target/ci_join_profile.out

echo "== multi-process crash harness (3 daemons over TCP, kill -9, drain) =="
# Live `xqd serve` daemons on localhost ephemeral ports: the federated-join
# workload must return bit-identical results to the simulated oracle over
# the real wire, a kill -9'd peer must surface as a typed error (with a
# replica standing, as the identical result via failover), and every
# surviving daemon must exit 0 on graceful drain. The harness carries its
# own 90s watchdog; the outer timeout is belt-and-braces where coreutils
# provides one. The harness's `xqd run --connect` client also writes the
# trace of its run: the socket path is traced by the one coordinator.
rm -f target/ci_socket_trace.json
crash_harness=(cargo run --release --offline --example crash_harness --
    --out target/ci_crash.json --trace-out target/ci_socket_trace.json)
if command -v timeout >/dev/null 2>&1; then
    timeout 150 "${crash_harness[@]}"
else
    "${crash_harness[@]}"
fi
grep -q '"equivalence_identical": true' target/ci_crash.json
grep -q '"killed_typed_or_identical": true' target/ci_crash.json
grep -q '"replica_failover_identical": true' target/ci_crash.json
grep -q '"drain_exit_zero": true' target/ci_crash.json
grep -q '"name": "rpc.attempt"' target/ci_socket_trace.json

echo "== chaos smoke (seeded fault sweep + replica failover, offline) =="
# Small-N seeded fault-injection sweep across all three wire semantics,
# followed by the replicated scene: every peer's documents live on a
# stand-in host and the schedule kills the elected primary. The example
# exits non-zero if any schedule returns a wrong answer, an untyped error,
# panics, or degrades to data shipping while a healthy replica is up.
cargo run --release --offline --example chaos_tour -- --seeds 25 --quiet

echo "== traced chaos smoke (byte-identical replay + trace_event shape) =="
# A seeded fault schedule run twice with tracing on must write the same
# bytes — the trace is part of the replay contract — and the Chrome export
# must carry the trace_event object-format markers chrome://tracing and
# Perfetto expect. The scheduler trace gets the same replay check.
XQD=target/release/xqd
TQ='count(doc("xrpc://p/d.xml")//c)'
printf '<a><b><c>one</c></b><b><c>two</c></b></a>' > target/ci_trace_doc.xml
for i in 1 2; do
    "$XQD" run -e "$TQ" --peer p:d.xml=target/ci_trace_doc.xml \
        --fault-seed 7 --fault-rate 0.3 \
        --trace-out "target/ci_trace_$i.json" > /dev/null 2> /dev/null
done
cmp target/ci_trace_1.json target/ci_trace_2.json
grep -q '"trace_id": "0x' target/ci_trace_1.json
grep -q '"name": "rpc.attempt"' target/ci_trace_1.json
# A two-peer query whose schedule takes every landing kind: a scatter
# round, a slot that degrades to data shipping, and the document fetch
# that backs it.
TQ2='count(doc("xrpc://p/d.xml")//c) + count(doc("xrpc://q/e.xml")//c)'
printf '<e><c>x</c><c>y</c><c>z</c></e>' > target/ci_trace_doc2.xml
for i in 1 2; do
    "$XQD" run -e "$TQ2" --peer p:d.xml=target/ci_trace_doc.xml \
        --peer q:e.xml=target/ci_trace_doc2.xml --fault-seed 7 --fault-rate 0.3 \
        --trace-out "target/ci_trace2_$i.json" > /dev/null 2> /dev/null
done
cmp target/ci_trace2_1.json target/ci_trace2_2.json
for span in scatter.round rpc.degrade doc.fetch; do
    grep -q "\"name\": \"$span\"" target/ci_trace2_1.json
done
"$XQD" run -e "$TQ" --peer p:d.xml=target/ci_trace_doc.xml \
    --fault-seed 7 --fault-rate 0.3 \
    --trace-out target/ci_trace.chrome --trace-format chrome > /dev/null 2> /dev/null
grep -q '^{"traceEvents": \[' target/ci_trace.chrome
grep -q '"ph": "X"' target/ci_trace.chrome
grep -q '"ts": ' target/ci_trace.chrome
grep -q '"dur": ' target/ci_trace.chrome
grep -q '"pid": 1' target/ci_trace.chrome
for i in 1 2; do
    "$XQD" workload -e "$TQ" --peer p:d.xml=target/ci_trace_doc.xml \
        --offered-qps 2000 --workers 1 --queue-depth 4 \
        --trace-out "target/ci_wtrace_$i.json" > /dev/null 2> /dev/null
done
cmp target/ci_wtrace_1.json target/ci_wtrace_2.json
grep -q '"name": "sched.run"' target/ci_wtrace_1.json
grep -q '"name": "sched.shed"' target/ci_wtrace_1.json

echo "== wirebench smoke (real sockets; correctness only, no timing gate) =="
# The real-wire benchmark's own smoke pass (builds into wirebench/target):
# two `xqd serve` daemons per workload, driven through the SocketFederation
# face — the coordinator's wire carrier on every CI run. The
# driver exits non-zero on any reply that is not bit-identical to
# in-process Federation::run, on any retry, failover, shed request or
# orphaned daemon, and on an unclean drain. Timing is printed, never
# gated: identical code swings 10-20% on this host (wirebench/AA.md).
# The smoke's cargo build may rewrite wirebench/Cargo.lock: put back the
# bytes it found, whether or not the smoke passes.
cp wirebench/Cargo.lock target/ci_wirebench.lock
trap 'cp target/ci_wirebench.lock wirebench/Cargo.lock' EXIT
bash wirebench/run.sh > target/ci_wirebench.out
cp target/ci_wirebench.lock wirebench/Cargo.lock
trap - EXIT
grep -q '"correct": true' target/ci_wirebench.out
if grep -q '"correct": false' target/ci_wirebench.out; then
    echo "wirebench: a workload returned a wrong or failed reply" >&2
    exit 1
fi
# One value of the smoke output: `smoke_metric <workload> <0|1> <name>`
# reads metric <name> from the untraced (0) or traced (1) section.
smoke_metric() {
    awk -v section="# smoke: $1 trace=$2" -v name="$3" '
        $0 == section { on = 1; next }
        /^# smoke:/ { on = 0 }
        on && $1 == name { print $2; exit }
    ' target/ci_wirebench.out
}
# Structural, not a timing: exchange time summed over exchange time covered.
# A plan without a scatter round cannot overlap anything (exactly 1.0000,
# as sequential scatter also read), and a plan with one must have its
# exchanges in flight together: two equal calls fully overlapped read 2.0,
# full-length runs on two cores 1.6-1.8, smoke-length runs on this shared
# host 1.35-1.70 — hence 1.2, which sequential code cannot reach and a
# momentarily stolen core does not fail.
ratio=$(smoke_metric scatter_fanout 1 xrpc.tcp.overlap_ratio)
if ! awk -v r="$ratio" 'BEGIN { exit !(r != "" && r + 0 >= 1.2) }'; then
    echo "wirebench: scatter_fanout overlap_ratio '$ratio' < 1.2 — the round did not fan out" >&2
    exit 1
fi
for w in point_lookup xmark_semijoin bulk_ship; do
    ratio=$(smoke_metric "$w" 1 xrpc.tcp.overlap_ratio)
    if [ "$ratio" != "1.0000" ]; then
        echo "wirebench: $w overlap_ratio '$ratio' != 1.0000 — exchanges overlapped without a scatter round" >&2
        exit 1
    fi
done
# The deterministic half of the ruler (smoke seed 1): bytes on the wire and
# message counts are exact per seed, so they are gated exactly. A PR that
# changes the wire format or the number of messages a plan sends updates
# these constants in the same diff and says why.
# bulk_ship 1420504 -> 1099000: the doc envelope embeds the shipped document
# instead of carrying it as escaped text (1.3x), so the workload moves its two
# documents plus 2 doc-requests and 2 fixed envelopes; no message was added or
# removed, and the three function-shipping rows did not move.
expect_smoke() {
    got=$(smoke_metric "$1" "$2" "$3")
    if [ "$got" != "$4" ]; then
        echo "wirebench: $1 $3 is '$got', expected $4" >&2
        exit 1
    fi
}
#            workload       wire bytes   exchanges calls fetches
for row in "point_lookup    4929.5000    1 1 0" \
           "xmark_semijoin  35803.0000   2 2 0" \
           "bulk_ship       1099000.0000 2 0 2" \
           "scatter_fanout  1156.0000    2 2 0"; do
    # shellcheck disable=SC2086  # the row is split into fields on purpose
    set -- $row
    expect_smoke "$1" 0 wire_bytes_per_query "$2"
    expect_smoke "$1" 1 xrpc.tcp.exchanges_per_query "$3.0000"
    expect_smoke "$1" 1 xrpc.tcp.remote_calls_per_query "$4.0000"
    expect_smoke "$1" 1 xrpc.tcp.doc_fetches_per_query "$5.0000"
    expect_smoke "$1" 1 xrpc.tcp.retries_per_query 0.0000
    expect_smoke "$1" 1 xrpc.tcp.failovers_per_query 0.0000
done

echo "== the checkout is as ci.sh found it =="
if [ "$(tracked_state)" != "$tracked_at_start" ]; then
    echo "ci.sh changed tracked files:" >&2
    diff <(echo "$tracked_at_start") <(tracked_state) >&2 || true
    exit 1
fi

echo "== ci OK =="

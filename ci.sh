#!/bin/sh
# The full local CI gate. The workspace has zero external dependencies, so
# everything runs --offline from a clean checkout: no registry, no network.
set -eu
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace

echo "==> rustdoc, warnings denied"
# A broken intra-doc link (say, to a deleted item) fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --lib \
    --document-private-items

echo "==> cargo test -q --offline"
cargo test -q --offline --workspace

echo "==> arithmetic tests with release semantics"
# Release builds wrap on integer overflow where debug builds panic, so the
# checked i64/i128 fast paths of BigInt and BigRational are tested again
# the way the campaign binary runs them.
cargo test -q --release --offline -p yinyang-arith

echo "==> coverage example"
# RQ3 in miniature: each arm brackets its own probe hits with two
# thread-local metrics snapshots, and the fused-test arm must reach at
# least the sites of the seed arm (the example asserts it).
cargo run --release --offline --quiet --example coverage_runs > /dev/null

echo "==> campaign benchmark smoke tests"
# The benchmark is its own workspace over crates/*; its smoke tests check
# every workload's outputs against the method's properties.
cargo test -q --release --offline --manifest-path campaign-bench/Cargo.toml

echo "==> telemetry smoke gate"
# A tiny traced campaign must produce (a) a JSON-lines trace that
# trace-check can parse with rt::json, and (b) a report with a telemetry
# section carrying per-stage quantiles and solver statistics — and both
# must be byte-identical replays across thread counts.
SMOKE=target/telemetry-smoke
mkdir -p "$SMOKE"
# The timeout is a hang watchdog: a deadlocked executor hangs forever
# rather than finishing slowly, so a hard cap is the right gate.
timeout 300 target/release/yinyang fuzz --iterations 2 --rounds 1 --seed 7 \
    --threads 1 --json --trace "$SMOKE/seq.jsonl" > "$SMOKE/seq.json"
timeout 300 target/release/yinyang fuzz --iterations 2 --rounds 1 --seed 7 \
    --threads 3 --json --trace "$SMOKE/par.jsonl" > "$SMOKE/par.json"
cmp "$SMOKE/seq.json" "$SMOKE/par.json"
cmp "$SMOKE/seq.jsonl" "$SMOKE/par.jsonl"
target/release/yinyang trace-check "$SMOKE/seq.jsonl" > /dev/null
grep -q '"telemetry"' "$SMOKE/seq.json"
grep -q '"stages"' "$SMOKE/seq.json"
grep -q '"solver.sat.decisions"' "$SMOKE/seq.json"

echo "==> forensics smoke gate"
# A faulted campaign must yield at least one reproduction bundle whose
# ddmin-reduced script is strictly smaller than its fused script (and
# still triggers the bug — the reducer's oracle enforces that); the
# trace must fold into a span profile; and EXPERIMENTS.md's
# deterministic generated block must not be stale.
FORENSICS=target/forensics-smoke
rm -rf "$FORENSICS"
mkdir -p "$FORENSICS"
target/release/yinyang fuzz --iterations 2 --rounds 1 --seed 7 --quiet \
    --json --trace "$FORENSICS/trace.jsonl" \
    --bundle-dir "$FORENSICS/bundles" \
    --metrics-out "$FORENSICS/metrics.json" > "$FORENSICS/report.json"
test -s "$FORENSICS/metrics.json"
grep -q '"coverage_rounds"' "$FORENSICS/report.json"
test "$(ls "$FORENSICS/bundles" | wc -l)" -ge 1
SHRUNK=0
for d in "$FORENSICS/bundles"/*/; do
    test -s "$d/verdict.json"
    fused=$(wc -c < "$d/fused.smt2")
    reduced=$(wc -c < "$d/reduced.smt2")
    if [ "$reduced" -lt "$fused" ]; then SHRUNK=1; fi
done
test "$SHRUNK" -eq 1
target/release/yinyang profile "$FORENSICS/trace.jsonl" | grep -q "span tree"
target/release/yinyang experiments-md --check

echo "==> regress smoke gate"
# Replaying a campaign's own bundles against the same build must classify
# every finding still-broken (nothing fixed, flaky, or stale), and the
# report and its span trace must be byte-identical across thread counts
# and repeated runs.
REGRESS=target/regress-smoke
rm -rf "$REGRESS"
mkdir -p "$REGRESS"
target/release/yinyang regress "$FORENSICS/bundles" --json --threads 1 \
    --trace "$REGRESS/seq.jsonl" > "$REGRESS/seq.json"
target/release/yinyang regress "$FORENSICS/bundles" --json --threads 4 \
    --trace "$REGRESS/par.jsonl" > "$REGRESS/par.json"
cmp "$REGRESS/seq.json" "$REGRESS/par.json"
cmp "$REGRESS/seq.jsonl" "$REGRESS/par.jsonl"
target/release/yinyang trace-check "$REGRESS/seq.jsonl" | grep -q "regress.solve"
target/release/yinyang regress "$FORENSICS/bundles" --json --threads 1 \
    | cmp - "$REGRESS/seq.json"
grep -q '"fixed": 0' "$REGRESS/seq.json"
grep -q '"flaky": 0' "$REGRESS/seq.json"
grep -q '"stale": 0' "$REGRESS/seq.json"
grep -q '"still-broken"' "$REGRESS/seq.json"
target/release/yinyang regress "$FORENSICS/bundles" | grep -q "still-broken"

echo "==> status server + export smoke gate"
# The status server is observability only: a campaign run with
# --status-addr must print the exact report and trace a serverless run
# prints, while /metrics, /status, and /healthz answer well-formed over
# plain TCP (the `fetch` subcommand — no curl in the loop). The
# exporters must rewrite identical bytes on a rerun.
STATUS=target/status-smoke
rm -rf "$STATUS"
mkdir -p "$STATUS"
YINYANG_STATUS_HOLD_MS=20000 target/release/yinyang fuzz \
    --iterations 2 --rounds 1 --seed 7 --threads 3 --json \
    --trace "$STATUS/served.jsonl" --status-addr 127.0.0.1:0 \
    > "$STATUS/served.json" 2> "$STATUS/stderr.txt" &
FUZZ_PID=$!
# The bind announcement is the first stderr line; poll for it, then probe
# the advertised ephemeral port while the hold keeps the server up.
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's|.*status server listening on http://\([0-9.:]*\).*|\1|p' \
        "$STATUS/stderr.txt" | head -n 1)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
test -n "$ADDR"
target/release/yinyang fetch "$ADDR" /healthz | grep -qx "ok"
target/release/yinyang fetch "$ADDR" /status > "$STATUS/status.json"
grep -q '"phase": "fuzz"' "$STATUS/status.json"
grep -q '"jobs"' "$STATUS/status.json"
# Wait for the campaign to finish (the report lands on stdout), then
# scrape /metrics during the hold window — every per-job delta has
# merged by now, so the span histograms are guaranteed present.
# Serverless replay check folded into the wait: the probed run's report
# must be byte-identical to the telemetry gate's --threads 3 run.
for _ in $(seq 1 300); do
    cmp -s "$SMOKE/par.json" "$STATUS/served.json" && break
    sleep 0.1
done
cmp "$SMOKE/par.json" "$STATUS/served.json"
cmp "$SMOKE/par.jsonl" "$STATUS/served.jsonl"
target/release/yinyang fetch "$ADDR" /metrics > "$STATUS/metrics.txt"
grep -q '^# HELP yinyang_up ' "$STATUS/metrics.txt"
grep -q '^# TYPE yinyang_up gauge$' "$STATUS/metrics.txt"
grep -q '^yinyang_build_info{version="' "$STATUS/metrics.txt"
grep -q '^# TYPE span_solve histogram$' "$STATUS/metrics.txt"
grep -q 'span_solve_bucket{le="+Inf"}' "$STATUS/metrics.txt"
grep -q '^span_solve_count ' "$STATUS/metrics.txt"
# Coverage probes are registry counters, one series per site.
grep -q '^coverage_function_smt::solve_script [0-9]' "$STATUS/metrics.txt"
kill "$FUZZ_PID" 2>/dev/null || true
wait "$FUZZ_PID" 2>/dev/null || true
# Exporters: valid outputs, byte-identical across reruns.
target/release/yinyang export "$STATUS/served.jsonl" \
    --chrome-trace "$STATUS/a.json" --flamegraph "$STATUS/a.folded" --lanes 3 \
    > /dev/null
target/release/yinyang export "$STATUS/served.jsonl" \
    --chrome-trace "$STATUS/b.json" --flamegraph "$STATUS/b.folded" --lanes 3 \
    > /dev/null
cmp "$STATUS/a.json" "$STATUS/b.json"
cmp "$STATUS/a.folded" "$STATUS/b.folded"
grep -q '"traceEvents"' "$STATUS/a.json"
grep -q '^solve' "$STATUS/a.folded"

echo "CI green."

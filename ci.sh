#!/usr/bin/env bash
# The repository's CI gate, runnable locally and from the GitHub Actions
# workflow (.github/workflows/ci.yml). Fails fast on the first red step.
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n=== %s\n' "$*"; }
# Waits up to 10 s for a signalled server to exit and returns its exit
# status: a server that misses its shutdown wake fails CI, not hangs it.
wait_bounded() {
  for _ in $(seq 1 100); do
    kill -0 "$1" 2>/dev/null || { wait "$1"; return; }
    sleep 0.1
  done
  echo "pid $1 still running 10 s after SIGTERM"
  kill -KILL "$1" 2>/dev/null || true
  return 1
}

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo build --workspace (release)"
cargo build --workspace --release

step "cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib --quiet

step "cargo test -q --workspace"
cargo test -q --workspace

step "golden suite pinned to one CPU (the 1-worker build and simulate paths)"
# The workspace run above checks the goldens at the host's core count;
# pinned to one CPU, the trace build and the simulator batch both take
# the shared loop's in-thread path, and the goldens must still match.
if command -v taskset >/dev/null; then
  taskset -c 0 cargo test -q -p tensordash-bench --test golden
else
  echo "taskset not found: skipping the single-CPU golden run"
fi

step "nn golden-reference suite (vectorized kernels bit-identical to scalar)"
# Run the property suite by name so a red kernel is impossible to miss in
# the CI log even though the workspace run above already covers it.
cargo test -q -p tensordash-nn --test reference

step "tensordash CLI smoke test"
./target/release/tensordash --help >/dev/null
./target/release/tensordash list >/dev/null
smoke_config="$(mktemp -t tensordash-smoke-XXXXXX.toml)"
smoke_report="$(mktemp -t tensordash-smoke-XXXXXX.json)"
trap 'rm -f "$smoke_config" "$smoke_report"' EXIT
cat > "$smoke_config" <<'EOF'
name = "ci-smoke"
models = ["AlexNet"]
[chip]
tiles = 2
[eval]
progress = 0.45
[eval.sample]
max_windows = 4
max_rows = 32
EOF
./target/release/tensordash --config "$smoke_config" --out "$smoke_report" >/dev/null
grep -q '"ci-smoke"' "$smoke_report"

step "tensordash train smoke + record->replay byte identity"
train_dir="$(mktemp -d -t tensordash-train-XXXXXX)"
trap 'rm -f "$smoke_config" "$smoke_report"; rm -rf "$train_dir"' EXIT
# Live run: 2 real training epochs, per-epoch speedup report, recorded
# trace artifact.
./target/release/tensordash train --smoke \
  --record "$train_dir/run.trace.json" --out "$train_dir/live.json" >/dev/null
grep -q '"total_speedup"' "$train_dir/live.json"
grep -q '"tensordash-trace/1"' "$train_dir/run.trace.json"
# Replaying the artifact must rebuild the report byte-identically.
./target/release/tensordash train \
  --replay "$train_dir/run.trace.json" --out "$train_dir/replay.json" >/dev/null
cmp "$train_dir/live.json" "$train_dir/replay.json"
# The pipelined path (epoch N+1 trains while epoch N simulates) must
# produce the same bytes as the serial run above.
./target/release/tensordash train --smoke --workers 2 \
  --out "$train_dir/pipelined.json" >/dev/null
cmp "$train_dir/live.json" "$train_dir/pipelined.json"
# ...and the same artifact replays through the declarative --config path.
cat > "$train_dir/replay.toml" <<REPLAY_TOML
name = "ci-train-replay"
[eval]
progress = 1.0
[eval.source]
recorded = "$train_dir/run.trace.json"
REPLAY_TOML
./target/release/tensordash --config "$train_dir/replay.toml" \
  --out "$train_dir/replay-config.json" >/dev/null
grep -q '"small-cnn"' "$train_dir/replay-config.json"

step "tensordash scheduler-family comparison smoke"
# The four family members priced side by side over the recorded trace
# from the train step — one shared trace cache, one document with a full
# report per scheduler — and `list` naming the family.
./target/release/tensordash list > "$train_dir/list.out"
grep -q 'tstd' "$train_dir/list.out"
cat > "$train_dir/compare.toml" <<COMPARE_TOML
name = "ci-schedulers"
[eval]
progress = 1.0
[eval.source]
recorded = "$train_dir/run.trace.json"
COMPARE_TOML
# Capture stdout to a file (grep -q would close the pipe mid-table).
./target/release/tensordash --config "$train_dir/compare.toml" \
  --scheduler tensordash,2to4,tstd,dense \
  --out "$train_dir/schedulers.json" > "$train_dir/schedulers.out"
grep -q 'dense' "$train_dir/schedulers.out"
grep -q '"scheduler": "2to4"' "$train_dir/schedulers.json"
grep -q '"scheduler": "tstd"' "$train_dir/schedulers.json"
grep -q '"scheduler": "dense"' "$train_dir/schedulers.json"

step "tensordash trace pack/inspect round-trip (v1 <-> v2, same digest)"
# v1 JSON -> v2 binary -> v1 JSON must be byte-identical (the lossless
# property), and the binary artifact must replay the live report
# byte-identically too.
./target/release/tensordash trace pack \
  "$train_dir/run.trace.json" "$train_dir/run.trace.bin" >/dev/null
./target/release/tensordash trace inspect "$train_dir/run.trace.bin" \
  > "$train_dir/inspect.txt"
grep -q 'tensordash-trace/2' "$train_dir/inspect.txt"
digest="$(sed -n 's/^digest: *//p' "$train_dir/inspect.txt")"
[ -n "$digest" ] || { echo "trace inspect printed no digest"; exit 1; }
./target/release/tensordash trace pack \
  "$train_dir/run.trace.bin" "$train_dir/roundtrip.trace.json" >/dev/null
cmp "$train_dir/run.trace.json" "$train_dir/roundtrip.trace.json"
./target/release/tensordash train \
  --replay "$train_dir/run.trace.bin" --out "$train_dir/replay-bin.json" >/dev/null
cmp "$train_dir/live.json" "$train_dir/replay-bin.json"

step "tensordash serve smoke (boot, health, one experiment, SIGTERM)"
serve_log="$(mktemp -t tensordash-serve-XXXXXX.log)"
trap 'rm -f "$smoke_config" "$smoke_report" "$serve_log"; rm -rf "$train_dir"' EXIT
# Ephemeral port: the server prints its bound address on the first line.
# The trace store lives with the other train artifacts and is swept by
# the gc smoke below.
./target/release/tensordash serve --port 0 --workers 2 \
  --trace-dir "$train_dir/store" >"$serve_log" &
serve_pid=$!
# If any later step aborts, take the server down with the shell.
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$smoke_config" "$smoke_report" "$serve_log"; rm -rf "$train_dir"' EXIT
serve_url=""
for _ in $(seq 1 100); do
  serve_url="$(sed -n 's#.*listening on \(http://[0-9.:]*\).*#\1#p' "$serve_log" | head -n1)"
  [ -n "$serve_url" ] && break
  sleep 0.1
done
[ -n "$serve_url" ] || { echo "serve never reported its address"; cat "$serve_log"; exit 1; }
curl -sf "$serve_url/healthz" | grep -q '"ok"'
# One tiny experiment through the full request path, polled to its report.
# The spec pins a non-default scheduler — the family flows through the
# service face, and the job's report records which member priced it.
job_url="$(curl -sf -X POST "$serve_url/v1/experiments" -d \
  '{"name": "ci-serve", "models": ["AlexNet"],
    "chip": {"tiles": 1, "scheduler": "2to4"},
    "eval": {"sample": {"max_windows": 1, "max_rows": 8}}}' \
  | sed -n 's/.*"report_url": "\([^"]*\)".*/\1/p')"
[ -n "$job_url" ] || { echo "submit returned no report_url"; exit 1; }
report=""
for _ in $(seq 1 100); do
  report="$(curl -s "$serve_url$job_url")"
  echo "$report" | grep -q '"ci-serve"' && break
  sleep 0.1
done
echo "$report" | grep -q '"ci-serve"' || { echo "job never finished: $report"; exit 1; }
echo "$report" | grep -q '"scheduler": "2to4"' || { echo "served report lost its scheduler"; exit 1; }
curl -sf "$serve_url/metrics" | grep -q '"evictions"'
# Upload the binary artifact end-to-end verified (?digest= -> 409 on
# mismatch) and replay it by content digest through the full job path.
curl -sf -X POST --data-binary @"$train_dir/run.trace.bin" \
  "$serve_url/v1/traces?digest=$digest" | grep -q "\"$digest\""
stored_url="$(curl -sf -X POST "$serve_url/v1/experiments" -d \
  "{\"name\": \"ci-stored\", \"eval\": {\"source\": {\"stored\": \"$digest\"}}}" \
  | sed -n 's/.*"report_url": "\([^"]*\)".*/\1/p')"
[ -n "$stored_url" ] || { echo "stored submit returned no report_url"; exit 1; }
stored=""
for _ in $(seq 1 100); do
  stored="$(curl -s "$serve_url$stored_url")"
  echo "$stored" | grep -q '"small-cnn"' && break
  sleep 0.1
done
echo "$stored" | grep -q '"small-cnn"' || { echo "stored replay never finished: $stored"; exit 1; }
curl -sf "$serve_url/metrics" | grep -q '"dedup_hits"'
# A short load test against the same live server...
./target/release/tensordash loadtest "$serve_url" --smoke
# ...then assert the SIGTERM path drains and exits cleanly.
kill -TERM "$serve_pid"
wait_bounded "$serve_pid" || { echo "serve did not exit cleanly after SIGTERM"; exit 1; }
grep -q "shut down cleanly" "$serve_log"

step "tensordash trace gc smoke"
# The uploaded object survives a keep-listed sweep and falls to a bare one.
./target/release/tensordash trace gc --trace-dir "$train_dir/store" \
  --keep "$digest" | grep -q 'kept 1'
./target/release/tensordash trace gc --trace-dir "$train_dir/store" \
  | grep -q 'removed 1 object'

step "tensordash chaos smoke (fault-injected serve survives the adversarial mix)"
chaos_log="$(mktemp -t tensordash-chaos-XXXXXX.log)"
chaos_dir="$(mktemp -d -t tensordash-chaos-store-XXXXXX)"
trap 'kill "$serve_pid" 2>/dev/null || true; rm -f "$smoke_config" "$smoke_report" "$serve_log" "$chaos_log"; rm -rf "$train_dir" "$chaos_dir"' EXIT
# A server that injects deterministic faults into its own connection
# handling and store I/O, bombarded by the adversarial loadtest: resets,
# slow-loris drips, oversized bodies, corrupt uploads, tiny deadlines.
# `loadtest --chaos` exits nonzero unless the server survives with every
# leg in a typed outcome and every surviving report byte-identical to a
# fault-free run.
./target/release/tensordash serve --port 0 --workers 2 \
  --trace-dir "$chaos_dir" --fault-seed 7 >"$chaos_log" &
chaos_pid=$!
trap 'kill "$serve_pid" "$chaos_pid" 2>/dev/null || true; rm -f "$smoke_config" "$smoke_report" "$serve_log" "$chaos_log"; rm -rf "$train_dir" "$chaos_dir"' EXIT
chaos_url=""
for _ in $(seq 1 100); do
  chaos_url="$(sed -n 's#.*listening on \(http://[0-9.:]*\).*#\1#p' "$chaos_log" | head -n1)"
  [ -n "$chaos_url" ] && break
  sleep 0.1
done
[ -n "$chaos_url" ] || { echo "chaos serve never reported its address"; cat "$chaos_log"; exit 1; }
./target/release/tensordash loadtest "$chaos_url" --chaos 7 --smoke
# Even a fault-injected server must drain cleanly on SIGTERM.
kill -TERM "$chaos_pid"
wait_bounded "$chaos_pid" || { echo "chaos serve did not exit cleanly after SIGTERM"; exit 1; }
grep -q "shut down cleanly" "$chaos_log"

step "perfbench tests (the repository benchmark, tiny inputs, byte-correctness gates)"
# Runs all four BENCHMARK.json workloads through the production entry
# points on tiny inputs and checks every timed report byte for byte, and
# checks that the committed BENCHMARK.json / catalog.json match the
# catalog. Timings are not gated here: on a shared host, run-to-run noise
# is wider than any fixed throughput tolerance (see perfbench/README.md).
cargo test --release --offline --manifest-path perfbench/Cargo.toml

step "all green"

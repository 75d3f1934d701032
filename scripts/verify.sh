#!/usr/bin/env bash
# Full verification gate: build, tests, lints, formatting, docs.
#
# This is what CI runs (quick-suite scale — FDIP_SUITE=quick is set for
# the integration tests' child processes via the tests themselves). All
# cargo invocations are --offline: the three external dependencies
# resolve to in-tree stand-ins under vendor/ (see Cargo.toml).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> fdip-lint --deny"
# The workspace's own static-analysis gate (docs/ANALYSIS.md) runs
# first: it needs no build artifacts beyond the lint binary and catches
# the project-specific hazards (relaxed cross-thread atomics, schema
# drift, hot-path allocation, lock discipline) before the expensive
# steps. `unsafe` and discarded Results fail `cargo build` below;
# hot-path panics, `let _ =` on a must-use value and the determinism
# bans (HashMap/HashSet/RandomState, Instant/SystemTime outside
# fdip_telemetry::clock, thread::current, drop) fail `cargo clippy`.
# Those are compiler lints declared in Cargo.toml `[workspace.lints]`,
# in each hot-path module's header and in the root clippy.toml.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run -q --release --offline -p fdip-analysis --bin fdip-lint -- \
  --deny --json "$tmp/lint.json"
# Document 5 smoke: the report is parseable JSON with the documented
# envelope (the bidirectional check lives in tests/lint_doc.rs).
grep -q '"schema_version"' "$tmp/lint.json"
grep -q '"tool": "fdip-lint"' "$tmp/lint.json"
echo "    lint clean under --deny, lint.json written"

echo "==> fdip-lint detection liveness (--inject)"
# A pass that silently stops firing would leave the gate above green
# forever (docs/ANALYSIS.md "Detection liveness"). Splice each
# syntax-aware pass's canonical bad construct into the tree in memory;
# the linter must then exit nonzero. The full four-pass matrix runs in
# crates/analysis/tests/mutation_liveness.rs.
for pass in hot-alloc lock-discipline; do
  if cargo run -q --release --offline -p fdip-analysis --bin fdip-lint -- \
      --deny --inject "$pass" > /dev/null 2>&1; then
    echo "pass $pass did not fire on its injected mutation" >&2
    exit 1
  fi
done
echo "    injected mutations all caught"

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> cargo test"
cargo test -q --offline --workspace

echo "==> cargo clippy"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> determinism smoke: FDIP_JOBS=1 vs FDIP_JOBS=2"
# A quick-suite run of every experiment must produce byte-identical JSON
# for any worker count once the volatile manifest fields are stripped
# (docs/METRICS.md: wall_seconds, generated_unix, git_revision, pool).
# The experiments share one Runner, so this also diffs cells coalesced
# across experiments; and since each distinct cell is simulated once,
# the pool's jobs_completed must agree too.
for jobs in 1 2; do
  FDIP_SUITE=quick FDIP_WARMUP=2000 FDIP_INSTRS=10000 FDIP_JOBS="$jobs" \
    ./target/release/fdip-experiments --json "$tmp/j$jobs.json" all \
    > /dev/null
  cargo run -q --release --offline --example strip_results -- \
    "$tmp/j$jobs.json" > "$tmp/j$jobs.stripped.json"
done
diff -u "$tmp/j1.stripped.json" "$tmp/j2.stripped.json"
jobs1="$(grep -o '"jobs_completed": [0-9]*' "$tmp/j1.json")"
jobs2="$(grep -o '"jobs_completed": [0-9]*' "$tmp/j2.json")"
if [ -z "$jobs1" ] || [ "$jobs1" != "$jobs2" ]; then
  echo "pool.jobs_completed differs: 1 worker '$jobs1', 2 workers '$jobs2'" >&2
  exit 1
fi
echo "    identical results and $jobs1 at 1 and 2 workers"

echo "==> trace smoke: --trace emits a valid Chrome trace"
# A short traced run must produce a trace_event document the in-repo
# JSON parser accepts, with nonzero event counts and cycle-monotonic
# timestamps (checked by examples/check_trace.rs).
./target/release/fdip-run --workload server_a --warmup 2000 --instrs 10000 \
  --trace "$tmp/trace.json" --trace-limit 20000 > /dev/null
cargo run -q --release --offline --example check_trace -- "$tmp/trace.json" \
  | tail -n 1
# Tracing must not perturb results: a traced run's stripped results.json
# is byte-identical to an untraced one.
FDIP_WARMUP=2000 FDIP_INSTRS=10000 ./target/release/fdip-run \
  --workload server_a --json "$tmp/untraced.json" > /dev/null
FDIP_WARMUP=2000 FDIP_INSTRS=10000 ./target/release/fdip-run \
  --workload server_a --json "$tmp/traced.json" \
  --trace "$tmp/trace2.json" > /dev/null
for f in untraced traced; do
  cargo run -q --release --offline --example strip_results -- \
    "$tmp/$f.json" > "$tmp/$f.stripped.json"
done
diff -u "$tmp/untraced.stripped.json" "$tmp/traced.stripped.json"
echo "    tracing leaves results byte-identical"

echo "==> serve smoke: served sweep == local sweep, then 100% cache hits"
# Start the daemon on an ephemeral port — with observability fully on
# (debug logging, a log file, span tracing) so the byte-identity diff
# below doubles as the obs-on vs obs-off determinism gate
# (docs/OBSERVABILITY.md) — run a quick sweep through it, and require
# the stripped results to be byte-identical to the same sweep run locally
# (docs/SERVE.md "Determinism guarantee"). A second served pass must hit
# only the cache, and the daemon must drain cleanly on ctl shutdown.
FDIP_SUITE=quick FDIP_WARMUP=2000 FDIP_INSTRS=10000 \
  ./target/release/fdip-experiments --json "$tmp/local.json" fig7 fig9 > /dev/null
cargo run -q --release --offline --example strip_results -- \
  "$tmp/local.json" > "$tmp/local.stripped.json"
./target/release/fdip-serve --addr 127.0.0.1:0 --state-dir "$tmp/serve-state" \
  --log debug --log-file "$tmp/serve-file.log" --trace-dir "$tmp/serve-traces" \
  --port-file "$tmp/serve.addr" > "$tmp/serve.log" 2>&1 &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -s "$tmp/serve.addr" ] && break
  sleep 0.1
done
addr="$(cat "$tmp/serve.addr")"
for pass in 1 2; do
  FDIP_SUITE=quick FDIP_WARMUP=2000 FDIP_INSTRS=10000 \
    ./target/release/fdip-experiments --server "$addr" \
    --json "$tmp/served$pass.json" fig7 fig9 > /dev/null
  cargo run -q --release --offline --example strip_results -- \
    "$tmp/served$pass.json" > "$tmp/served$pass.stripped.json"
  diff -u "$tmp/local.stripped.json" "$tmp/served$pass.stripped.json"
done
./target/release/fdip-serve ctl "$addr" telemetry > "$tmp/serve-telemetry.json"
grep -q '"cache_hits"' "$tmp/serve-telemetry.json"
# Observability smoke (docs/OBSERVABILITY.md "Enforcement"): ctl metrics
# exits nonzero unless the scrape passes the in-repo exposition
# validator; the scrape must cover the catalog's breadth; ctl tail must
# page the structured log ring; every grid must have written a Chrome
# trace; and the daemon's own log file must hold JSON records.
./target/release/fdip-serve ctl "$addr" metrics > "$tmp/serve-metrics.txt"
families="$(grep -c '^# TYPE fdip_' "$tmp/serve-metrics.txt")"
if [ "$families" -lt 12 ]; then
  echo "scrape covers only $families families" >&2
  exit 1
fi
grep -q '^fdip_serve_cells_simulated_total ' "$tmp/serve-metrics.txt"
./target/release/fdip-serve ctl "$addr" tail --limit 1024 > "$tmp/serve-tail.txt"
grep -q 'grid admitted' "$tmp/serve-tail.txt"
ls "$tmp"/serve-traces/grid-*.json > /dev/null
grep -q '"traceEvents"' "$tmp"/serve-traces/grid-*.json
grep -q '"msg":"daemon started"' "$tmp/serve-file.log"
./target/release/fdip-serve ctl "$addr" shutdown > /dev/null
wait "$serve_pid"
echo "    served results byte-identical to local; obs surfaces live; daemon drained"

echo "==> fuzz smoke: differential invariants, report determinism, injection"
# The fuzz gate (docs/FUZZ.md): a fixed-seed campaign must pass every
# invariant on every generated program, its Document 7 report must be
# byte-identical across worker counts (the report is clock- and
# host-free by construction), and a deliberately injected invariant
# break must be caught, exit nonzero, and shrink to a replayable case.
for jobs in 2 3; do
  ./target/release/fdip-fuzz run --seed 7 --count 64 --jobs "$jobs" \
    --json "$tmp/fuzz-j$jobs.json" 2> /dev/null
done
diff -u "$tmp/fuzz-j2.json" "$tmp/fuzz-j3.json"
grep -q '"failures": 0' "$tmp/fuzz-j2.json"
grep -q '"tool": "fdip-fuzz"' "$tmp/fuzz-j2.json"
if ./target/release/fdip-fuzz run --seed 7 --count 2 --profile tiny \
    --inject stall-leak --cases "$tmp/fuzz-cases" \
    --json "$tmp/fuzz-inj.json" 2> /dev/null; then
  echo "injected fuzz run unexpectedly passed" >&2
  exit 1
fi
grep -q '"failures": 2' "$tmp/fuzz-inj.json"
case_file="$(ls "$tmp"/fuzz-cases/*.json | head -n 1)"
test -s "$case_file"
./target/release/fdip-fuzz replay "$case_file" 2> /dev/null
echo "    64-program campaign clean; report jobs-identical; injection caught and shrunk"

echo "==> benchmark correctness: perfbench matches its reference digests"
# One short untraced run of each repository benchmark workload
# (perfbench/README.md) must print "correct":true: every cell's
# statistics and every experiment report reproduce the committed
# perfbench/reference.tsv digests, with no failed cell. fdp_cell pins
# the one-off Simulator::new path, paper_sweep the Runner path whose
# cells share each workload's prepared warm-up.
for w in fdp_cell paper_sweep; do
  status=0
  cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$w" --seconds 1 --trace 0 > "$tmp/perfbench-$w.txt" 2>&1 || status=$?
  if [ "$status" -ne 0 ] || ! grep -q '"correct":true' "$tmp/perfbench-$w.txt"; then
    tail -n 20 "$tmp/perfbench-$w.txt" >&2
    echo "perfbench $w is not correct against perfbench/reference.tsv (exit $status)" >&2
    exit 1
  fi
done
echo "    fdp_cell and paper_sweep reproduce perfbench/reference.tsv"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

echo "verify: OK"

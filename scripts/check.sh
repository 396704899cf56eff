#!/usr/bin/env bash
# The full local gate: formatting, the clippy deny-set, the determinism
# lint (which covers crates/telemetry along with the rest of the
# simulation path), every test (including the feature-gated runtime
# invariant suite), a `cargo check` of (a copy of) the detached
# `benchmark/` workspace against the crates it path-depends on, and a two-run
# byte-identity check on the telemetry exports. CI and pre-commit both
# just run this script.
#
# `--e11-smoke` additionally runs the reduced kilonode scenario (256
# LCs, fault-free) in release and fails on a missing throughput column
# or any dead letter.
#
# `--mc-smoke` additionally runs the model checker's built-in smoke
# exploration (failover topology, bounded depth) twice in release and
# fails on any invariant violation or on a mismatch between the two
# runs' explored-state counts and fingerprints.
#
# `--obs-smoke` additionally runs the continuous-observability gate in
# release: the E11 256-LC shape with windows, profiler, SLO watchdogs
# and a forced incident, 3x2 interleaved runs. The binary fails on a
# digest change, non-identical artifact bytes, or >10% throughput
# overhead; the script then re-parses the emitted incident dump through
# `--check-scenarios`.
#
# `--trace-smoke` additionally generates a tiny trace twice with
# `snooze-tracegen --seed 42` (the two files must be byte-identical),
# then replays it twice per variant on the reduced 128-LC E12 shape in
# release and fails on any digest or table-column mismatch.
#
# `--arena-smoke` additionally replays the seeded tiny trace once per
# `ConsolidatorRegistry` key on the reduced 128-LC arena shape under
# the billed-DVFS power model, twice each, in release, and fails on any
# digest or table-column mismatch.
set -euo pipefail
cd "$(dirname "$0")/.."

run_e11_smoke=0
run_mc_smoke=0
run_obs_smoke=0
run_trace_smoke=0
run_arena_smoke=0
for arg in "$@"; do
  case "$arg" in
    --e11-smoke) run_e11_smoke=1 ;;
    --mc-smoke) run_mc_smoke=1 ;;
    --obs-smoke) run_obs_smoke=1 ;;
    --trace-smoke) run_trace_smoke=1 ;;
    --arena-smoke) run_arena_smoke=1 ;;
    *)
      echo "unknown argument: $arg (supported: --e11-smoke, --mc-smoke, --obs-smoke, --trace-smoke, --arena-smoke)" >&2
      exit 2
      ;;
  esac
done

say() { printf '\n== %s\n' "$*"; }

say "cargo fmt --check"
cargo fmt --all -- --check

say "cargo clippy (workspace deny-set)"
cargo clippy --offline --workspace --all-targets -- -D warnings

say "snooze-audit lint"
cargo run --offline -q -p snooze-audit -- lint

say "cargo test (default features)"
cargo test --offline --workspace -q

say "cargo test -p snooze-audit --features audit (runtime invariants)"
cargo test --offline -p snooze-audit --features audit -q

say "benchmark workspace still builds against crates/ (cargo check on a copy)"
# On a sibling copy, so that cargo refreshing a stale Cargo.lock never
# edits anything under benchmark/; `../crates/*` resolves the same.
rm -rf .bench_build
mkdir .bench_build
cp -r benchmark/Cargo.toml benchmark/Cargo.lock benchmark/src benchmark/workloads .bench_build/
CARGO_TARGET_DIR=benchmark/target \
  cargo check --offline -q --manifest-path .bench_build/Cargo.toml
rm -rf .bench_build

say "snooze-audit determinism"
cargo run --offline -q -p snooze-audit -- determinism

say "scenario specs (parse, canonical form, dry-run compile, preset drift)"
cargo run --offline -q -p snooze-bench --bin run_experiments -- --check-scenarios

say "telemetry export determinism (two same-seed report runs)"
tmp="$(mktemp -d)"
cargo run --offline -q -p snooze-bench --bin report -- --out "$tmp/a" >/dev/null
cargo run --offline -q -p snooze-bench --bin report -- --out "$tmp/b" >/dev/null
for f in trace.chrome.json spans.jsonl metrics.prom metrics.jsonl \
  windows.jsonl windows.csv profile.folded; do
  cmp -s "$tmp/a/$f" "$tmp/b/$f" || {
    echo "nondeterministic telemetry export: $f" >&2
    exit 1
  }
done
# Incident dumps too (the report scenario's heartbeat watchdog trips,
# so at least incident_0.toml exists in both runs).
diff -rq "$tmp/a" "$tmp/b" >/dev/null || {
  echo "nondeterministic telemetry export directory" >&2
  exit 1
}
rm -rf "$tmp"

if [ "$run_e11_smoke" -eq 1 ]; then
  say "e11 smoke (256 LCs, release, zero dead letters + throughput column)"
  cargo run --offline -q --release -p snooze-bench --bin run_experiments -- --e11-smoke
fi

if [ "$run_mc_smoke" -eq 1 ]; then
  say "mc smoke (bounded failover exploration, two-run determinism)"
  cargo run --offline -q --release -p snooze-mc -- --smoke
fi

if [ "$run_obs_smoke" -eq 1 ]; then
  say "obs smoke (windows + profiler + SLOs + forced incident, release)"
  obs_tmp="$(mktemp -d)"
  cargo run --offline -q --release -p snooze-bench --bin run_experiments -- \
    --obs-smoke "$obs_tmp/artifacts"
  # The emitted incident dump must parse back through the scenario
  # checker alongside every checked-in preset file.
  mkdir -p "$obs_tmp/scenarios"
  cp scenarios/*.toml "$obs_tmp/scenarios/"
  cp "$obs_tmp/artifacts/incident_forced.toml" "$obs_tmp/scenarios/"
  cargo run --offline -q -p snooze-bench --bin run_experiments -- \
    --check-scenarios "$obs_tmp/scenarios"
  rm -rf "$obs_tmp"
fi

if [ "$run_trace_smoke" -eq 1 ]; then
  say "trace smoke (seeded tracegen + 128-LC replay, two-run identity)"
  trace_tmp="$(mktemp -d)"
  cargo run --offline -q --release -p snooze-trace --bin snooze-tracegen -- \
    --seed 42 --vms 200 --horizon-s 1800 --diurnal-period-s 900 \
    --flash-crowds 1 --curve-step-s 300 --out "$trace_tmp/a.csv"
  cargo run --offline -q --release -p snooze-trace --bin snooze-tracegen -- \
    --seed 42 --vms 200 --horizon-s 1800 --diurnal-period-s 900 \
    --flash-crowds 1 --curve-step-s 300 --out "$trace_tmp/b.csv"
  cmp -s "$trace_tmp/a.csv" "$trace_tmp/b.csv" || {
    echo "snooze-tracegen is not byte-deterministic for a fixed seed" >&2
    exit 1
  }
  cargo run --offline -q --release -p snooze-bench --bin run_experiments -- \
    --trace-smoke "$trace_tmp/a.csv"
  rm -rf "$trace_tmp"
fi

if [ "$run_arena_smoke" -eq 1 ]; then
  say "arena smoke (every registry key on 128 LCs, two-run identity)"
  cargo run --offline -q --release -p snooze-bench --bin run_experiments -- --arena-smoke
fi

say "all checks passed"

#!/usr/bin/env bash
# The full local gate, run by CI and pre-commit: formatting, the clippy
# deny-set, `snooze-audit lint` (13 rules: the determinism rules over the
# simulation path, plus `uncalled`, `edge-alloc`, `span-label` and
# `lc-views`; `snooze-audit rules` lists them), a grep that every vendored
# crate and every root dependency still has a consumer, every test (a
# debug build, so every `debug_assert!` invariant is checked and every
# simulated run of a checked-in document must break no predicate of
# `snooze::invariants`), the golden replay in release
# (`tests/experiments_manifest.rs` with `--release`, which adds the three
# explicit-only full tables the debug `cargo test` ignores) and the
# release-only colony decision pins in `tests/aco_kernel.rs`, a `cargo
# check` and `cargo test` of (a copy of) the detached `benchmark/`
# workspace (its tests include `BENCHMARK.json` == the harness's own
# manifest), `snooze-audit determinism`, the scenario gate over
# `scenarios/*.toml` and a two-run byte-identity check on the exports
# `run_experiments --scenario scenarios/report.toml --json` writes.
#
# Tier-1 (`cargo build --release && cargo test -q` at the root) is the
# workspace's `default-members`, `snooze-audit`'s whole-tree lint test
# among them; everything it runs, `cargo test --workspace` below runs too.
#
# `--smoke` additionally runs, in release, the two measurement gates:
#
# * `run_experiments --smoke` — the `obs` gate: the full observability
#   surface costs at most 10% throughput, on the median of 31 back-to-back
#   plain/observed pairs of the E11 smoke shape;
# * `snooze-mc --smoke` — bounded failover exploration, twice, safety
#   and liveness predicates both: no invariant violation, same state
#   counts and fingerprints.
set -euo pipefail
cd "$(dirname "$0")/.."

run_smoke=0
for arg in "$@"; do
  case "$arg" in
    --smoke) run_smoke=1 ;;
    *)
      echo "unknown argument: $arg (supported: --smoke)" >&2
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

say "every vendored crate and every root dependency has a consumer"
vendored="$(sed -n '/^\[workspace.dependencies\]$/,/^\[/s/.*path = "vendor\/\([^"]*\)".*/\1/p' Cargo.toml | sort)"
[ "$vendored" = "$(ls vendor | sort)" ] || {
  echo "vendor/ and the vendor paths of [workspace.dependencies] differ" >&2
  exit 1
}
for crate in $vendored; do
  grep -rqE "\b(use ${crate}\b|${crate}::)" --include='*.rs' crates src tests examples || {
    echo "vendor/$crate: no \`use $crate\` or \`$crate::\` outside vendor/" >&2
    exit 1
  }
done
for dep in $(sed -n -e '/^\[dependencies\]$/,/^\[/p' -e '/^\[dev-dependencies\]$/,/^\[/p' Cargo.toml |
  sed -n 's/^\([a-z][a-z0-9_-]*\)[ .=].*/\1/p'); do
  grep -rqE "\b${dep//-/_}\b" src tests examples || {
    echo "root package depends on \`$dep\`, which src/, tests/ and examples/ never name" >&2
    exit 1
  }
done

say "cargo test (every test; debug builds check every debug_assert! invariant)"
cargo test --offline --workspace -q

say "golden identity gate (release replay of every golden, full E11/E14 included) and colony pins"
cargo test --release --offline -q --test experiments_manifest --test aco_kernel

say "benchmark workspace still builds and passes against crates/ (check + test on a copy)"
# On a sibling copy, so that cargo refreshing a stale Cargo.lock never
# edits anything under benchmark/; `../crates/*` resolves the same.
rm -rf .bench_build
mkdir .bench_build
cp -r benchmark/Cargo.toml benchmark/Cargo.lock benchmark/src benchmark/workloads .bench_build/
CARGO_TARGET_DIR=benchmark/target \
  cargo check --offline -q --manifest-path .bench_build/Cargo.toml
CARGO_TARGET_DIR=benchmark/target \
  cargo test --offline -q --manifest-path .bench_build/Cargo.toml
rm -rf .bench_build

say "snooze-audit determinism"
cargo run --offline -q -p snooze-audit -- determinism

say "scenario specs (parse, canonical form, dry-run compile of every run and profile)"
cargo run --offline -q -p snooze-bench --bin run_experiments -- --check-scenarios

say "telemetry export determinism (two runs of scenarios/report.toml)"
# `--scenario --json` writes the tables beside one directory of exports per
# run; the summary table's wall columns differ run to run, the exports may
# not. report.toml's heartbeat watchdog trips, so incident dumps are in it.
tmp="$(mktemp -d)"
for side in a b; do
  cargo run --offline -q -p snooze-bench --bin run_experiments -- \
    --scenario scenarios/report.toml --json "$tmp/$side" >/dev/null
done
for f in trace.chrome.json spans.jsonl metrics.prom metrics.jsonl \
  windows.jsonl windows.csv profile.folded incident_0.toml; do
  cmp -s "$tmp/a/report-failover/$f" "$tmp/b/report-failover/$f" || {
    echo "nondeterministic or missing telemetry export: $f" >&2
    exit 1
  }
done
diff -r "$tmp/a/report-failover" "$tmp/b/report-failover" >/dev/null || {
  echo "nondeterministic telemetry export directory" >&2
  exit 1
}
rm -rf "$tmp"

if [ "$run_smoke" -eq 1 ]; then
  say "obs overhead gate (release)"
  smoke_tmp="$(mktemp -d)"
  cargo run --offline -q --release -p snooze-bench --bin run_experiments -- \
    --smoke --json "$smoke_tmp/obs"
  rm -rf "$smoke_tmp"

  say "mc smoke (bounded failover exploration with liveness, two-run determinism)"
  cargo run --offline -q --release -p snooze-mc -- --smoke
fi

say "all checks passed"

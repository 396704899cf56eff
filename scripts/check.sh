#!/usr/bin/env bash
# The full local gate: formatting, the clippy deny-set, the determinism
# lint (which covers crates/telemetry along with the rest of the
# simulation path), a grep that every vendored crate, every root
# dependency and every `pub fn` still has a consumer, a grep that the text
# edges still write each export in one pass, every test (a debug build,
# so every `debug_assert!` invariant is checked, and every simulated run
# of a checked-in document must break no predicate of
# `snooze::invariants`), the golden replay in release
# (`tests/experiments_manifest.rs` with `--release`, which adds the three
# explicit-only full tables the debug `cargo test` ignores: about 20 s of
# test time plus a release build of the root package's tests) and the
# release-only colony decision pins in `tests/aco_kernel.rs`, a
# `cargo check` and `cargo test` of (a copy of) the
# detached `benchmark/` workspace against the crates it path-depends on
# (its tests include `BENCHMARK.json` == the harness's own manifest), the
# scenario gate over `scenarios/*.toml` and a two-run byte-identity check
# on the exports `run_experiments --scenario scenarios/report.toml --json`
# writes. CI and pre-commit both just run this script.
#
# Tier-1 (`cargo build --release && cargo test -q` at the root) is the
# workspace's `default-members`: the root package's integration tests
# (among them the debug golden replay: every table but the three
# explicit-only ones, and those three at their smoke profiles) plus
# the `snooze-simcore`, `snooze-telemetry`, `snooze-consolidation`,
# `snooze-mc`, `snooze`, `snooze-protocols`, `snooze-cluster`,
# `snooze-scenario`, `snooze-trace`, `snooze-audit` (which runs the same
# whole-tree lint as the step below, as a test) and `snooze-bench` suites.
# Everything it runs, `cargo test --workspace` below runs too.
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

say "every pub fn has a caller"
# A call-site scan, not a resolver: a `pub fn` under crates/*/src is
# reported when no .rs file uses its name as a call site. A use is
# `name(`, `name::<`, `.name` or `::name` (which takes in a path used as
# a value, `map(Type::name)`); a bare word is not, so a parameter, a
# local or a field that shares the name hides nothing. Every `fn name`
# is a definition, never a use, and neither comments, string literals
# nor test code are callers: `tests/` directories are not scanned,
# nothing below a `#[cfg(test)]` counts and every "…" is blanked before
# the line is scanned, so a function only its own tests (or its own
# panic message) name is reported. A bare `name(` in a file that defines
# a fn of that name other than a `pub fn` calls that local fn, so it
# counts for no `pub fn` elsewhere. A `// check-allow(uncalled): reason`
# comment directly above one keeps an API that is there by intent — a
# hook tests are meant to drive.
uncalled="$(find crates/*/src src examples benchmark/src -name '*.rs' | sort |
  xargs awk '
    FNR == 1 { in_tests = 0; allowed = 0 }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    {
      comment = ($0 ~ /^[ \t]*\/\//)
      if ($0 ~ /check-allow\(uncalled\)/) allowed = 1
      if (!in_tests && !comment && !allowed && FILENAME ~ /^crates\/[^\/]*\/src\// &&
          match($0, /pub fn [A-Za-z_][A-Za-z0-9_]*/))
        defs[FILENAME SUBSEP substr($0, RSTART + 7, RLENGTH - 7)] = FNR
      if (in_tests || comment) next
      allowed = 0
      line = $0
      gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
      if (match(line, /(^|[^A-Za-z0-9_])fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/) &&
          substr(line, 1, RSTART + RLENGTH - 1) !~ /(^|[^A-Za-z0-9_])pub[ \t]+fn[ \t]+[A-Za-z0-9_]*$/) {
        name = substr(line, RSTART, RLENGTH)
        sub(/.*fn[ \t]+/, "", name)
        own[FILENAME SUBSEP name] = 1
      }
      gsub(/(^|[^A-Za-z0-9_])fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/, " fn", line)
      while (match(line, /[A-Za-z_][A-Za-z0-9_]*/)) {
        before = substr(line, 1, RSTART - 1)
        name = substr(line, RSTART, RLENGTH)
        line = substr(line, RSTART + RLENGTH)
        if (before ~ /(::|[^.]\.|^\.)$/) called[name] = 1
        else if (line ~ /^(\(|::<)/) bare[FILENAME SUBSEP name] = 1
      }
    }
    END {
      for (k in bare) {
        split(k, at, SUBSEP)
        if (!(k in own)) called[at[2]] = 1
      }
      for (k in defs) {
        split(k, at, SUBSEP)
        if (!(at[2] in called)) print at[1] ":" defs[k] ": " at[2]
      }
    }' | sort)"
[ -z "$uncalled" ] || {
  echo "pub fn called nowhere but in test code (delete it, make it private, or check-allow it):" >&2
  echo "$uncalled" >&2
  exit 1
}

say "text edges write each export once (no per-field String in a render path)"
# The exporters, the trace writers and the TOML renderer append to the one
# buffer they return. A `format!(`, `.to_string()`, `.join(` or
# `collect::<Vec<String>>` in one of them is a heap round trip per field,
# row or header coming back. Scanned: all of the three telemetry files
# above `#[cfg(test)]`; the trace files from their `// Writers` banner;
# the `render*` functions of the TOML codec. Comments are skipped, and a
# `// check-allow(edge-alloc): reason` comment directly above a line keeps
# a wrapper that must return a `String` of its own.
edge_allocs="$(awk '
    FNR == 1 {
      in_tests = 0; allowed = 0
      mode = "render"
      if (FILENAME ~ /crates\/telemetry\//) mode = "file"
      if (FILENAME ~ /crates\/trace\//) mode = "writers"
      scan = (mode == "file")
    }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    mode == "writers" && /^\/\/ Writers$/ { scan = 1 }
    mode == "render" && /^(pub )?fn render/ { scan = 1 }
    {
      comment = ($0 ~ /^[ \t]*\/\//)
      if (scan && !in_tests && !comment && !allowed &&
          $0 ~ /format!\(|\.to_string\(\)|\.join\(|collect::<Vec<String>>/)
        print FILENAME ":" FNR ":" $0
      allowed = ($0 ~ /check-allow\(edge-alloc\)/)
      if (mode == "render" && $0 ~ /^}/) scan = 0
    }' \
  crates/telemetry/src/json.rs crates/telemetry/src/chrome.rs crates/telemetry/src/jsonl.rs \
  crates/telemetry/src/span.rs \
  crates/trace/src/csv.rs crates/trace/src/jsonl.rs crates/scenario/src/toml.rs)"
[ -z "$edge_allocs" ] || {
  echo "a render path allocates per field again (stream into the output buffer, or check-allow it):" >&2
  echo "$edge_allocs" >&2
  exit 1
}

say "span labels are typed values (no String built for a span label)"
# `Ctx::span_label` takes `impl Into<LabelValue>`: a static str, an integer
# or a `ComponentId` is stored as itself, and its text is written only when
# the digest folds it or an exporter streams it. A `span_label(` call under
# crates/*/src whose arguments build a `String` with `.to_string()` or
# `format!(` is reported; the call is followed from its `(` to the matching
# `)` across lines, with string literals blanked first. A
# `// check-allow(span-label): reason` comment directly above the call
# keeps a value that is an owned string by nature.
label_strings="$(find crates/*/src -name '*.rs' | sort |
  xargs awk '
    FNR == 1 { open = 0; allowed = 0 }
    {
      line = $0
      gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
      if (!open) {
        if (line ~ /^[ \t]*\/\//) { allowed = (line ~ /check-allow\(span-label\)/); next }
        at = index(line, "span_label(")
        if (at == 0 || line ~ /fn span_label/) { allowed = 0; next }
        call = substr(line, at + 10); start = FNR; keep = allowed; allowed = 0; open = 1
      } else call = call " " line
      depth = 0
      for (i = 1; i <= length(call); i++) {
        c = substr(call, i, 1)
        if (c == "(") depth++
        else if (c == ")" && --depth == 0) break
      }
      if (depth > 0) next
      open = 0
      if (!keep && substr(call, 1, i) ~ /\.to_string\(\)|format!\(/)
        print FILENAME ":" start ": span_label" substr(call, 1, i)
    }')"
[ -z "$label_strings" ] || {
  echo "a span label is built as a String (pass the value itself, or check-allow it):" >&2
  echo "$label_strings" >&2
  exit 1
}

say "placement and the tick read the GM's LC table in place (no lc_views() copy)"
# `GroupManager::lc_views` copies every LC record into a `Vec<LcView>`:
# a fleet-sized allocation. The relocation and reconfiguration planners
# take that snapshot, rarely; placement runs once per VM and the tick's
# sweep once per heartbeat, and both walk the table in place. So a call
# `lc_views(` under crates/snooze/src is reported unless it sits in
# `fn reconfigure` or the `SnoozeMsg::AnomalyReport` arm of a `match`,
# whichever of a `fn` or a `SnoozeMsg::` arm opened last above it.
# Comments, the definition and test code are skipped; a
# `// check-allow(lc-views): reason` comment directly above a call keeps
# it.
lc_view_calls="$(find crates/snooze/src -name '*.rs' | sort |
  xargs awk '
    FNR == 1 { in_tests = 0; allowed = 0; scope = "" }
    /^#\[cfg\(test\)\]/ { in_tests = 1 }
    {
      if (in_tests) next
      if ($0 ~ /^[ \t]*\/\//) { allowed = ($0 ~ /check-allow\(lc-views\)/); next }
      if (match($0, /(^|[^A-Za-z0-9_])fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
        scope = substr($0, RSTART, RLENGTH)
        sub(/.*fn[ \t]+/, "fn ", scope)
      }
      if (match($0, /^[ \t]*SnoozeMsg::[A-Za-z]+/)) {
        scope = substr($0, RSTART, RLENGTH)
        sub(/^[ \t]*/, "", scope)
      }
      if ($0 ~ /lc_views\(/ && $0 !~ /fn lc_views\(/ && !allowed &&
          scope != "fn reconfigure" && scope != "SnoozeMsg::AnomalyReport")
        print FILENAME ":" FNR ": in " (scope == "" ? "file scope" : scope) ":" $0
      allowed = 0
    }')"
[ -z "$lc_view_calls" ] || {
  echo "lc_views() copies the whole LC table; walk it in place (or check-allow it):" >&2
  echo "$lc_view_calls" >&2
  exit 1
}

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

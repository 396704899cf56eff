#!/usr/bin/env bash
# Paired benchmark runs of two source trees: a parent and a change.
#
#   scripts/bench_pairs.sh <parent-tree> <change-tree> <workload>[,<workload>...] <pairs> [seed]
#
# Each tree is copied (without `target/` and `.git/`) into a temporary
# directory and its `benchmark/` built there once, in release, offline,
# with a `CARGO_TARGET_DIR` of its own beside the copy: nothing is
# written into either tree, and the two builds cannot be mistaken for
# each other. Then, per workload, `<pairs>` pairs of
# `snooze-benchmark run --workload W --seed S --out <tmp>` alternate the
# two binaries, the parent first in odd rounds and the change first in
# even ones, so a drift of the host over the session lands on both sides
# alike. The seed defaults to 3602, the benchmark's own.
#
# Printed per workload: each run's `wall_s`, `peak_rss_mb` and `setup_s`
# (the run's own median over its rounds), each side's median and
# interquartile range of those per-run values, how many pairs the change
# read lower in, and whether every run's `exact` section (counts,
# digests, simulated results) is identical to the parent's first one.
# Quartiles follow Python's `statistics.quantiles(n=4)`, as the
# benchmark's own `stats.rs` does. Exits 1 when an `exact` section
# differs, 2 on a usage error.
set -euo pipefail

usage() {
  echo "usage: $0 <parent-tree> <change-tree> <workload>[,<workload>...] <pairs> [seed]" >&2
  exit 2
}
[ $# -ge 4 ] && [ $# -le 5 ] || usage
[ -d "$1/benchmark" ] && [ -d "$2/benchmark" ] || usage
case "$4" in '' | *[!0-9]*) usage ;; esac
[ "$4" -ge 1 ] || usage
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
IFS=, read -r -a workloads <<<"$3"
pairs="$4"
seed="${5:-3602}"
case "$seed" in '' | *[!0-9]*) usage ;; esac

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# build <side> <tree>: copy the tree and build its benchmark binary.
build() {
  mkdir -p "$work/$1/tree"
  (cd "$2" && tar --exclude=./target --exclude=./.git --exclude=./benchmark/target \
    --exclude=./benchmark/out -cf - .) | tar -xf - -C "$work/$1/tree"
  echo "building $1 ($2)" >&2
  CARGO_TARGET_DIR="$work/$1/target" cargo build --release --offline --quiet \
    --manifest-path "$work/$1/tree/benchmark/Cargo.toml"
}
build parent "$parent"
build change "$change"

# run <side> <workload> <round>: one benchmark run; appends
# `side round wall_s peak_rss_mb setup_s` to the workload's table and
# keeps the run's `exact` section.
run() {
  local out="$work/out/$1.$2.$3"
  mkdir -p "$out"
  "$work/$1/target/release/snooze-benchmark" run --workload "$2" --seed "$seed" \
    --out "$out" >"$out/stdout.txt" 2>"$out/stderr.txt"
  awk -v side="$1" -v round="$3" -v w="$2" '
    $1 == w { v[$2] = $3 }
    END { print side, round, v["wall_s"], v["peak_rss_mb"], v["setup_s"] }' \
    "$out/stdout.txt" >>"$work/$2.table"
  sed -n 's/.*"exact":\({[^}]*}\).*/\1/p' "$out/$2.json" >"$work/exact.$1.$2.$3"
}

# exact_identical <workload>: every run's `exact` section is the parent's
# first one, byte for byte.
exact_identical() {
  local reference="$work/exact.parent.$1.1" f
  [ -s "$reference" ] || return 1
  for f in "$work"/exact.*."$1".*; do
    cmp -s "$reference" "$f" || return 1
  done
}

status=0
for w in "${workloads[@]}"; do
  : >"$work/$w.table"
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2 == 1)); then
      run parent "$w" "$i"
      run change "$w" "$i"
    else
      run change "$w" "$i"
      run parent "$w" "$i"
    fi
  done
  echo "== $w (seed $seed, $pairs pairs)"
  awk '
    function quartile(a, n, i,    m, j, delta) {
      if (n == 1) return a[1]
      m = n + 1
      j = int(i * m / 4)
      if (j < 1) j = 1
      if (j > n - 1) j = n - 1
      delta = i * m - j * 4
      return (a[j] * (4 - delta) + a[j + 1] * delta) / 4
    }
    function sorted(src, n, dst,    i, j, t) {
      for (i = 1; i <= n; i++) dst[i] = src[i]
      for (i = 2; i <= n; i++)
        for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) {
          t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t
        }
    }
    function summary(side, col, name,    n, s) {
      n = count[side]
      split("", s)
      for (r = 1; r <= n; r++) vals[r] = val[side, r, col]
      sorted(vals, n, s)
      printf "  %-7s %-12s median %.6g  IQR [%.6g, %.6g]\n", side, name,
        quartile(s, n, 2), quartile(s, n, 1), quartile(s, n, 3)
    }
    {
      count[$1]++
      val[$1, $2, 3] = $3 + 0; val[$1, $2, 4] = $4 + 0; val[$1, $2, 5] = $5 + 0
      printf "  round %2d %-7s wall_s %.6f  peak_rss_mb %.4f  setup_s %.6f\n", $2, $1, $3, $4, $5
    }
    END {
      summary("parent", 3, "wall_s"); summary("change", 3, "wall_s")
      summary("parent", 4, "peak_rss_mb"); summary("change", 4, "peak_rss_mb")
      summary("parent", 5, "setup_s"); summary("change", 5, "setup_s")
      lower = 0
      for (r = 1; r <= count["parent"]; r++)
        if (val["change", r, 3] < val["parent", r, 3]) lower++
      printf "  wall_s: change lower in %d/%d pairs\n", lower, count["parent"]
    }' "$work/$w.table"
  if exact_identical "$w"; then
    echo "  exact: identical in all $((2 * pairs)) runs"
  else
    echo "  exact: DIFFERS"
    for f in "$work"/exact.*."$w".*; do echo "    ${f##*/exact.}: $(cat "$f")"; done
    status=1
  fi
done
exit "$status"

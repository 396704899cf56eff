#!/usr/bin/env bash
# Two sets of runs of the same code must agree within the benchmark's
# own bounds: run every workload twice on one seed and `compare` the
# pair (`--identical`: every exact count, digest and simulated result
# must match too; a metric whose run-to-run spread exceeds its bound is
# reported `unresolved`, and fails). Then run a held-out seed through
# the same output checks. Any failure exits non-zero.
set -euo pipefail
cd "$(dirname "$0")"

SEED="${SEED:-3602}"
HELD_OUT_SEED="${HELD_OUT_SEED:-90210}"

bench() {
    cargo run --release --offline --quiet --manifest-path Cargo.toml -- "$@"
}

# A and B are run back to back per workload: this box's speed drifts by
# more than the bounds over a minute or two, less over seconds.
status=0
for workload in kilonode_failover trace_replay dense_reconfig pack_kernels \
    engine_micro mc_failover ingest_export; do
    bench run --workload "$workload" --seed "$SEED" --out out/A
    bench run --workload "$workload" --seed "$SEED" --out out/B
    bench compare out/A/summary.json out/B/summary.json --identical || status=1
done
bench run --seed "$HELD_OUT_SEED" --out out/held-out
if [ "$status" -ne 0 ]; then
    echo "benchmark/run.sh: the two runs do not agree within the bounds (see above)" >&2
    exit 1
fi
echo "benchmark/run.sh: two runs agree within bounds; held-out seed $HELD_OUT_SEED passes its checks"

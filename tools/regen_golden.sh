#!/bin/bash
# Regenerate the golden files the cli.* golden cases and
# campaign.aggregate compare against. Run this (and commit the result) after an
# intentional change to the timing model or the metric set.
#
#   tools/regen_golden.sh [path-to-emcc_sim] [path-to-emcc_campaign]
#
# Defaults to build/tools/emcc_sim and build/tools/emcc_campaign. The
# invocations here must stay in lockstep with the golden_stats,
# scheme_golden_*, series, noresmon_parity and sampled_golden* cases in
# tests/cli_smoke.sh and with tests/campaign_aggregate.sh (CI reruns
# this script and fails on any diff under tests/golden).
set -eu

REPO="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SIM="${1:-$REPO/build/tools/emcc_sim}"
CAMPAIGN="${2:-$REPO/build/tools/emcc_campaign}"
SERIES_GOLDEN="$REPO/tests/golden/series_bfs_emcc.jsonl"

if [ ! -x "$SIM" ]; then
    echo "regen_golden.sh: no emcc_sim at $SIM (build first?)" >&2
    exit 1
fi

# The golden runs pin the workload scale explicitly; the env knobs
# would silently change it.
unset EMCC_BENCH_FAST EMCC_BENCH_FULL

mkdir -p "$REPO/tests/golden"

# Detailed-mode goldens (cli.golden_stats, cli.noresmon_parity and
# cli.scheme_golden_*).
detailed() {
    local out="$REPO/tests/golden/$1"; shift
    "$SIM" --workload BFS --warmup 5000 --measure 20000 --trace-len 40000 \
        "$@" --seed 42 --stats-json "$out" > /dev/null
    echo "wrote $out"
}
detailed stats_bfs_emcc.json --scheme emcc
detailed stats_bfs_emcc_noresmon.json --scheme emcc --no-resmon
detailed stats_bfs_nonsecure.json --scheme nonsecure
detailed stats_bfs_mconly.json --scheme mconly
detailed stats_bfs_baseline.json --scheme baseline
detailed stats_bfs_emcc_inclusive.json --scheme emcc --inclusive

"$SIM" --workload BFS --warmup 5000 --measure 20000 --trace-len 40000 \
    --scheme emcc --seed 42 --stats-interval 0.02 \
    --stats-series "$SERIES_GOLDEN" > /dev/null
echo "wrote $SERIES_GOLDEN"

# Sampled-mode goldens (cli.sampled_golden*); flags must stay in
# lockstep with the sampled_golden* and checkpoint_identity cases.
sampled() {
    detailed "$@" --sample 4 --sample-ffwd-first 8000 --ffwd 2000 \
        --sample-warm 1000 --sample-measure 3000
}
sampled stats_bfs_emcc_sampled.json --scheme emcc
sampled stats_bfs_baseline_inclusive_sampled.json --scheme baseline --inclusive
sampled stats_bfs_emcc_inclusive_dynoff_sampled.json \
    --scheme emcc --inclusive --dynamic-off

if [ -x "$CAMPAIGN" ]; then
    AGG_GOLDEN="$REPO/tests/golden/campaign_aggregate.jsonl"
    "$CAMPAIGN" --spec "$REPO/tests/campaign_aggregate_spec.json" \
        --jobs 2 --no-fsync --quiet --aggregate "$AGG_GOLDEN" > /dev/null
    echo "wrote $AGG_GOLDEN"
else
    echo "skipping campaign aggregate golden (no emcc_campaign at $CAMPAIGN)"
fi

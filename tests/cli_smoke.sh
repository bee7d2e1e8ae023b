#!/bin/bash
# CLI contract tests for the emcc_sim binary, run from ctest.
#
#   cli_smoke.sh <path-to-emcc_sim> <case>
#
# Cases:
#   bad_flag           unknown argument reports and exits 2
#   bad_int            garbage integer value reports and exits 2
#   bad_config         out-of-range knob fails validation with exit 2
#   strict_integrity   --fault-strict turns a terminal MAC failure
#                      into exit 3
#   leak_strict_clean  --leak-strict exits 0 on a clean run
#   determinism        identical (workload, seed) runs emit
#                      byte-identical CSV stats
#   stats_json         identical seeded runs emit byte-identical
#                      --stats-json dumps with a valid schema
#   golden_stats       the seeded stats dump matches the checked-in
#                      golden file (regen: tools/regen_golden.sh)
#   scheme_golden_nonsecure
#   scheme_golden_mconly
#   scheme_golden_baseline
#   scheme_golden_emcc_inclusive
#                      the golden_stats run under --scheme nonsecure,
#                      mconly and baseline, and under --scheme emcc
#                      --inclusive (the unverified-LLC-hit arms), each
#                      against its own checked-in golden
#   trace_schema       --trace emits valid Chrome trace JSON (parses,
#                      monotonic timestamps, every B has a matching E)
#   stats_stdout       --stats-json - writes the same JSON to stdout
#                      as to a file
#   series             --stats-interval/--stats-series emit valid,
#                      deterministic emcc-stats-series-v1 JSONL that
#                      matches the checked-in golden
#   overlap_scheme     EMCC hides strictly more crypto latency than
#                      the MC-crypto baseline on the same seeded run
#                      (lat.l2miss.overlap_frac; the paper's headline)
#   sigint_partial     SIGINT mid-run flushes partial stats tagged
#                      "partial": true and exits 5
#   noresmon_parity    --no-resmon stats match the checked-in detached
#                      golden byte-for-byte (observer parity)
#   bottleneck         default run prints the bottleneck report and
#                      emits coherent res.*/cp.* stats (bound_by
#                      fractions sum to 1, what-if projections present)
#   sampled_golden     the seeded --sample stats dump matches the
#                      checked-in golden and validates the sample.*
#                      schema (regen: tools/regen_golden.sh)
#   sampled_golden_baseline_inclusive
#   sampled_golden_emcc_inclusive_dynoff
#                      the same sampled run as sampled_golden under
#                      --scheme baseline --inclusive and --scheme emcc
#                      --inclusive --dynamic-off: fast-forward paths the
#                      BFS-EMCC golden does not reach (inclusive
#                      back-invalidation, the LLC counter insert, the
#                      unverified LLC flag)
#   checkpoint_identity
#                      --checkpoint-roundtrip (save -> scramble ->
#                      restore -> continue at every window boundary)
#                      emits a --stats-json byte-identical to the same
#                      run without it
set -u

SIM="${1:?usage: cli_smoke.sh <emcc_sim> <case>}"
CASE="${2:?usage: cli_smoke.sh <emcc_sim> <case>}"
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Small but non-trivial run: big enough that faults land inside the
# measured window, small enough for a quick ctest entry.
SMALL=(--workload BFS --warmup 5000 --measure 20000 --trace-len 40000)

# The observability cases pin the workload scale exactly (the golden
# file depends on it), so the bench-scale env knobs must not leak in.
unset EMCC_BENCH_FAST EMCC_BENCH_FULL

expect_exit() {
    local want="$1"; shift
    "$@" > /dev/null 2> stderr.txt
    local got=$?
    if [ "$got" != "$want" ]; then
        echo "FAIL: exit $got, wanted $want: $*" >&2
        cat stderr.txt >&2
        return 1
    fi
}

# match_golden <golden file> <flags...>: the seeded SMALL run with
# <flags> must dump tests/golden/<golden file> byte for byte.
match_golden() {
    local golden="$SCRIPT_DIR/golden/$1"; shift
    expect_exit 0 "$SIM" "${SMALL[@]}" "$@" --seed 42 \
        --stats-json stats.json || exit 1
    if ! cmp stats.json "$golden"; then
        echo "FAIL: stats dump diverged from $golden" >&2
        if command -v python3 > /dev/null; then
            python3 "$SCRIPT_DIR/check_stats.py" stats.json \
                --golden "$golden" >&2
        fi
        echo "If the change is intentional, regenerate with" >&2
        echo "  tools/regen_golden.sh <path-to-emcc_sim>" >&2
        exit 1
    fi
}

# sampled_golden <golden file> <scheme flags...>: match_golden for the
# seeded --sample run.
sampled_golden() {
    match_golden "$@" --sample 4 --sample-ffwd-first 8000 --ffwd 2000 \
        --sample-warm 1000 --sample-measure 3000
    # check_stats.py validates the sample.* schema: per-window values,
    # non-negative sd, ordered CI half-widths, mean = window average.
    if command -v python3 > /dev/null; then
        python3 "$SCRIPT_DIR/check_stats.py" stats.json || exit 1
    fi
}

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
cd "$TMP"

case "$CASE" in
  bad_flag)
    expect_exit 2 "$SIM" --definitely-not-a-flag
    grep -q "unknown argument" stderr.txt || {
        echo "FAIL: no diagnostic for unknown argument" >&2; exit 1; }
    ;;
  bad_int)
    expect_exit 2 "$SIM" --cores banana
    ;;
  bad_config)
    expect_exit 2 "$SIM" --cores 99
    ;;
  strict_integrity)
    expect_exit 3 "$SIM" "${SMALL[@]}" --scheme emcc \
        --inject-faults "replay:count=1:period=50" --fault-strict
    grep -q "integrity violation" stderr.txt || {
        echo "FAIL: no integrity diagnostic" >&2; exit 1; }
    ;;
  leak_strict_clean)
    expect_exit 0 "$SIM" "${SMALL[@]}" --scheme emcc --leak-strict
    ;;
  determinism)
    for i in 1 2; do
        expect_exit 0 "$SIM" "${SMALL[@]}" --scheme emcc --seed 42 \
            --inject-faults "bus:count=5:period=200" --fault-seed 9 \
            --csv "run_$i.csv" || exit 1
    done
    cmp run_1.csv run_2.csv || {
        echo "FAIL: identical seeded runs produced different stats" >&2
        exit 1; }
    ;;
  stats_json)
    for i in 1 2; do
        expect_exit 0 "$SIM" "${SMALL[@]}" --scheme emcc --seed 42 \
            --stats-json "stats_$i.json" || exit 1
    done
    cmp stats_1.json stats_2.json || {
        echo "FAIL: identical seeded runs produced different stats JSON" >&2
        exit 1; }
    if command -v python3 > /dev/null; then
        python3 "$SCRIPT_DIR/check_stats.py" stats_1.json || exit 1
    else
        echo "note: python3 unavailable, schema check skipped" >&2
    fi
    ;;
  golden_stats)
    match_golden stats_bfs_emcc.json --scheme emcc
    ;;
  scheme_golden_nonsecure)
    match_golden stats_bfs_nonsecure.json --scheme nonsecure
    ;;
  scheme_golden_mconly)
    match_golden stats_bfs_mconly.json --scheme mconly
    ;;
  scheme_golden_baseline)
    match_golden stats_bfs_baseline.json --scheme baseline
    ;;
  scheme_golden_emcc_inclusive)
    match_golden stats_bfs_emcc_inclusive.json --scheme emcc --inclusive
    ;;
  trace_schema)
    if ! command -v python3 > /dev/null; then
        echo "PASS: trace_schema (skipped: python3 unavailable)"
        exit 0
    fi
    expect_exit 0 "$SIM" "${SMALL[@]}" --scheme emcc --seed 42 \
        --trace trace.json --trace-cats all || exit 1
    python3 "$SCRIPT_DIR/check_trace.py" trace.json || exit 1
    # Category filtering must also hold: a dram-only trace still
    # validates and contains no cache/crypto spans.
    expect_exit 0 "$SIM" "${SMALL[@]}" --scheme emcc --seed 42 \
        --trace dram_only.json --trace-cats dram || exit 1
    python3 "$SCRIPT_DIR/check_trace.py" dram_only.json \
        --only-cats dram || exit 1
    ;;
  stats_stdout)
    expect_exit 0 "$SIM" "${SMALL[@]}" --scheme emcc --seed 42 \
        --stats-json stats_file.json || exit 1
    "$SIM" "${SMALL[@]}" --scheme emcc --seed 42 --stats-json - \
        > report.txt 2> stderr.txt || {
        echo "FAIL: --stats-json - exited $?" >&2; cat stderr.txt >&2
        exit 1; }
    # The JSON is the single line starting with the schema tag.
    grep '"schema":"emcc-stats-v1"' report.txt > stats_stdout.json || {
        echo "FAIL: no stats JSON on stdout" >&2; exit 1; }
    cmp stats_file.json stats_stdout.json || {
        echo "FAIL: stdout stats differ from file stats" >&2; exit 1; }
    ;;
  series)
    for i in 1 2; do
        expect_exit 0 "$SIM" "${SMALL[@]}" --scheme emcc --seed 42 \
            --stats-interval 0.002 --stats-series "series_$i.jsonl" \
            || exit 1
    done
    cmp series_1.jsonl series_2.jsonl || {
        echo "FAIL: identical seeded runs produced different series" >&2
        exit 1; }
    if command -v python3 > /dev/null; then
        python3 "$SCRIPT_DIR/check_series.py" series_1.jsonl \
            --min-lines 5 || exit 1
    fi
    # A coarse-interval run is compared byte-for-byte against the
    # checked-in golden (regen: tools/regen_golden.sh).
    expect_exit 0 "$SIM" "${SMALL[@]}" --scheme emcc --seed 42 \
        --stats-interval 0.02 --stats-series series_coarse.jsonl \
        || exit 1
    GOLDEN="$SCRIPT_DIR/golden/series_bfs_emcc.jsonl"
    cmp series_coarse.jsonl "$GOLDEN" || {
        echo "FAIL: series diverged from $GOLDEN" >&2
        echo "If the change is intentional, regenerate with" >&2
        echo "  tools/regen_golden.sh <path-to-emcc_sim>" >&2
        exit 1; }
    # Interval without a sink (and vice versa) is a usage error.
    expect_exit 2 "$SIM" "${SMALL[@]}" --stats-interval 0.002
    expect_exit 2 "$SIM" "${SMALL[@]}" --stats-series lone.jsonl
    ;;
  overlap_scheme)
    if ! command -v python3 > /dev/null; then
        echo "PASS: overlap_scheme (skipped: python3 unavailable)"
        exit 0
    fi
    expect_exit 0 "$SIM" "${SMALL[@]}" --scheme emcc --seed 42 \
        --stats-json emcc.json || exit 1
    expect_exit 0 "$SIM" "${SMALL[@]}" --scheme baseline --seed 42 \
        --stats-json baseline.json || exit 1
    python3 - <<'EOF' || exit 1
import json
e = json.load(open("emcc.json"))
b = json.load(open("baseline.json"))
ef = e["formulas"]["lat.l2miss.overlap_frac"]
bf = b["formulas"]["lat.l2miss.overlap_frac"]
assert e["histograms"]["lat.l2miss.total"]["count"] > 0, "no misses"
assert ef > bf, f"emcc overlap_frac {ef} !> baseline {bf}"
print(f"overlap_frac: emcc {ef:.4f} > baseline {bf:.4f}")
EOF
    ;;
  sigint_partial)
    # A long run that cannot finish before the signal: interrupt it,
    # expect the dedicated exit code and a partial-tagged stats dump.
    "$SIM" --workload BFS --warmup 5000 --measure 50000000 \
        --trace-len 40000 --stats-json stats.json \
        > /dev/null 2> stderr.txt &
    SIM_PID=$!
    sleep 1
    kill -INT "$SIM_PID"
    wait "$SIM_PID"
    GOT=$?
    if [ "$GOT" != 5 ]; then
        echo "FAIL: exit $GOT after SIGINT, wanted 5" >&2
        cat stderr.txt >&2
        exit 1
    fi
    grep -q '"partial": *true' stats.json || {
        echo "FAIL: stats.json missing \"partial\": true" >&2; exit 1; }
    grep -q "interrupted" stderr.txt || {
        echo "FAIL: no interruption diagnostic on stderr" >&2; exit 1; }
    if command -v python3 > /dev/null; then
        python3 "$SCRIPT_DIR/check_stats.py" stats.json || exit 1
    fi
    ;;
  noresmon_parity)
    # Detaching the monitor must leave the metric set and every value
    # exactly as it was before the resmon subsystem existed; the golden
    # holds the pre-resmon bytes (regen: tools/regen_golden.sh).
    match_golden stats_bfs_emcc_noresmon.json --scheme emcc --no-resmon
    # And no res.*/cp.* keys may leak into a detached dump.
    if grep -q '"res\.\|"cp\.' stats.json; then
        echo "FAIL: res.*/cp.* metrics present under --no-resmon" >&2
        exit 1
    fi
    ;;
  bottleneck)
    "$SIM" "${SMALL[@]}" --scheme emcc --seed 42 \
        --stats-json stats.json > report.txt 2> stderr.txt || {
        echo "FAIL: run exited $?" >&2; cat stderr.txt >&2; exit 1; }
    grep -q "=== bottleneck report ===" report.txt || {
        echo "FAIL: no bottleneck report in run summary" >&2; exit 1; }
    grep -q "resource contention" report.txt || {
        echo "FAIL: no resource contention table" >&2; exit 1; }
    grep -q "critical path" report.txt || {
        echo "FAIL: no critical-path table" >&2; exit 1; }
    if ! command -v python3 > /dev/null; then
        echo "PASS: bottleneck (stats checks skipped: no python3)"
        exit 0
    fi
    python3 "$SCRIPT_DIR/check_stats.py" stats.json || exit 1
    python3 - <<'EOF' || exit 1
import json
d = json.load(open("stats.json"))
f = d["formulas"]
bound = {k: v for k, v in f.items() if k.startswith("cp.bound_by.")}
assert bound, "no cp.bound_by.* fractions"
s = sum(bound.values())
assert abs(s - 1.0) < 1e-9, f"cp.bound_by.* sums to {s}, not 1"
whatif = {k: v for k, v in f.items() if k.startswith("cp.whatif.")}
assert whatif, "no cp.whatif.* projections"
for k, v in whatif.items():
    assert v >= 1.0 - 1e-9, f"{k} = {v} < 1 (speedups only)"
utils = {k: v for k, v in f.items() if k.startswith("res.")
         and k.endswith(".util")}
assert utils, "no res.*.util metrics"
print(f"bottleneck: {len(bound)} bound_by, {len(whatif)} what-ifs, "
      f"{len(utils)} resources")
EOF
    ;;
  sampled_golden)
    sampled_golden stats_bfs_emcc_sampled.json --scheme emcc
    ;;
  sampled_golden_baseline_inclusive)
    sampled_golden stats_bfs_baseline_inclusive_sampled.json \
        --scheme baseline --inclusive
    ;;
  sampled_golden_emcc_inclusive_dynoff)
    # Dropping fast-forward's sampleIntensity() call would go unseen
    # here: sys.dynamic_windows stays 0 at this scale.
    sampled_golden stats_bfs_emcc_inclusive_dynoff_sampled.json \
        --scheme emcc --inclusive --dynamic-off
    ;;
  checkpoint_identity)
    SAMPLED=(--sample 4 --sample-ffwd-first 8000 --ffwd 2000
             --sample-warm 1000 --sample-measure 3000)
    expect_exit 0 "$SIM" "${SMALL[@]}" --scheme emcc --seed 42 \
        "${SAMPLED[@]}" --stats-json plain.json || exit 1
    expect_exit 0 "$SIM" "${SMALL[@]}" --scheme emcc --seed 42 \
        "${SAMPLED[@]}" --checkpoint-roundtrip \
        --stats-json roundtrip.json || exit 1
    if ! cmp plain.json roundtrip.json; then
        echo "FAIL: checkpoint save->restore->continue changed the" \
             "stats dump (determinism broken)" >&2
        if command -v python3 > /dev/null; then
            python3 "$SCRIPT_DIR/check_stats.py" roundtrip.json \
                --golden plain.json >&2
        fi
        exit 1
    fi
    ;;
  *)
    echo "unknown case: $CASE" >&2
    exit 2
    ;;
esac
echo "PASS: $CASE"

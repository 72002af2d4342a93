#!/usr/bin/env bash
# Zero-threshold identity gate between two builds of btbsim.
#
#   scripts/identity_gate.sh <parent-build> <change-build> [out-dir]
#
# Runs the 12 result-JSON benches in both build trees at pinned knobs and
# compares each pair with the change build's exact diff
# (`btbsim-stats diff --threshold 0`: same runs, equal stats, counters
# and samples). Prints OK/DIFF per bench; exits 1 on any difference.
set -u
if [ $# -lt 2 ]; then
    echo "usage: $0 <parent-build> <change-build> [out-dir]" >&2
    exit 2
fi
PARENT=$1
CHANGE=$2
OUT=${3:-$(mktemp -d)}
mkdir -p "$OUT/parent" "$OUT/change"
export BTBSIM_WARMUP=20000 BTBSIM_MEASURE=50000 BTBSIM_TRACES=2 BTBSIM_RUN_CACHE=0
BENCHES="bench_ablation_blockend bench_ablation_mbbtb bench_fig10_fetchpcs
bench_fig11a_ideal_backend bench_fig11b_bp_sweep bench_fig4_ideal_orgs
bench_fig5_realistic bench_fig7_rbtb bench_fig8_bbtb_mbbtb
bench_fig9_blocksize bench_hetero bench_taken_penalty"
fail=0
for b in $BENCHES; do
    for side in parent change; do
        build=$PARENT
        [ "$side" = change ] && build=$CHANGE
        BTBSIM_JSON_OUT="$OUT/$side/$b.json" "$build/bench/$b" >/dev/null 2>&1 ||
            { echo "RUN-FAIL $b ($side)"; fail=1; continue 2; }
    done
    if "$CHANGE/src/tools/btbsim-stats" diff "$OUT/parent/$b.json" \
        "$OUT/change/$b.json" --threshold 0 >"$OUT/$b.diff" 2>&1; then
        echo "OK   $b"
    else
        echo "DIFF $b: $(grep -m1 'not identical\|REGRESSION\|pairs' "$OUT/$b.diff")"
        fail=1
    fi
done
echo "results in $OUT"
exit $fail

#!/bin/bash
# Regenerate every paper figure/table. Scale via BTBSIM_WARMUP /
# BTBSIM_MEASURE / BTBSIM_TRACES.
#
# Each sim bench also writes machine-readable results to
# results/<bench>.json (schema documented in src/obs/export.h); inspect or
# regression-compare them with build/src/tools/btbsim-stats.
#
#   --fresh    Drop the run cache first so every point simulates cold.
#
# Completed points are kept in the run cache (BTBSIM_RUN_CACHE, default
# results/cache), so rerunning after an interruption simulates only the
# points that had not finished.
set -euo pipefail
cd "$(dirname "$0")"

fresh=0
for arg in "$@"; do
    case "$arg" in
        --fresh) fresh=1 ;;
        *)
            echo "usage: $0 [--fresh]" >&2
            exit 2
            ;;
    esac
done

mkdir -p results
cache_dir=${BTBSIM_RUN_CACHE:-results/cache}

# Per-bench result JSON. An externally-set BTBSIM_JSON_OUT names the
# output *directory* (default results/); every bench writes its own
# <dir>/<bench>.json. BTBSIM_JSON_OUT=0 disables JSON output.
json_dir=results
json_enabled=1
case "${BTBSIM_JSON_OUT:-}" in
    "" | 1 | true) ;;
    0) json_enabled=0 ;;
    *) json_dir=$BTBSIM_JSON_OUT ;;
esac
[[ $json_enabled -eq 1 ]] && mkdir -p "$json_dir"

if [[ $fresh -eq 1 && "$cache_dir" != 0 ]]; then
    echo "=== dropping run cache $cache_dir ==="
    rm -rf "$cache_dir"
fi

SECONDS=0
declare -A json_path_for
for b in build/bench/bench_*; do
    [[ -f "$b" && -x "$b" ]] || continue
    name=$(basename "$b")
    # Basename-uniqueness guard: two benches mapping onto the same
    # <json_dir>/<name>.json would have the later one silently
    # overwrite the earlier one's results.
    if [[ -n "${json_path_for[$name]:-}" ]]; then
        echo "error: bench basename collision: '$b' and" \
             "'${json_path_for[$name]}' would both write" \
             "$json_dir/${name}.json" >&2
        exit 2
    fi
    json_path_for[$name]=$b
    echo "=== $name ==="
    # bench_characterization (analyzer-only) produces no result JSON,
    # so the env knob is a no-op there.
    if [[ $json_enabled -eq 1 ]]; then
        BTBSIM_JSON_OUT="$json_dir/${name}.json" "$b" 2>&1 |
            tee "results/$name.txt"
    else
        BTBSIM_JSON_OUT=0 "$b" 2>&1 | tee "results/$name.txt"
    fi
done
echo "=== live wall clock: ${SECONDS}s ==="

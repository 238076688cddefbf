#!/usr/bin/env bash
# Regenerate the committed golden outputs of the figure/table benches.
#
#   $ tools/regen_goldens.sh [build-dir] [output-dir]
#
# Defaults: build/ and bench/golden/. The benches are bit-deterministic
# (no wall-clock content), so these files only change when a PR changes
# simulation behavior — which is exactly what the nightly workflow
# diffs for. Rerun this script (Release build!) and commit the result
# whenever such a change is intentional.
#
# The six benches are independent processes, so they run side by side;
# each one's exit status is checked, and the script fails if any bench
# fails.
set -euo pipefail

build_dir="${1:-build}"
out_dir="${2:-bench/golden}"

benches=(
    bench_fig6_accuracy
    bench_fig7_signature
    bench_fig8_global
    bench_fig9_speedup
    bench_table3_storage
    bench_table4_timeliness
)

for b in "${benches[@]}"; do
    if [[ ! -x "$build_dir/$b" ]]; then
        echo "error: $build_dir/$b not built (cmake --build $build_dir)" >&2
        exit 1
    fi
done

mkdir -p "$out_dir"
pids=()
for b in "${benches[@]}"; do
    echo "running $b ..."
    "$build_dir/$b" > "$out_dir/$b.txt" &
    pids+=("$!")
done

# `set -e` does not see a background job's failure: wait on each pid.
failed=0
for i in "${!benches[@]}"; do
    if ! wait "${pids[$i]}"; then
        echo "error: ${benches[$i]} failed" >&2
        failed=1
    fi
done
if (( failed )); then
    exit 1
fi
echo "golden outputs written to $out_dir/"

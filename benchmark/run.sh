#!/usr/bin/env bash
# The one command of the benchmark.  Run it from the repo root.
#
#   bash benchmark/run.sh [--quick] [--seed N] [--workload NAME]
#       builds offline, then runs each workload twice, one process each:
#       untraced repetitions (end-to-end metrics), then the traced passes and
#       the layer drivers (per-layer metrics).  Prints every metric as
#       `workload  name  value  unit`, writes benchmark/out/<workload>.json,
#       .layers.json and .trace.json plus env.json, and exits non-zero if any
#       correctness check failed.  --quick is the self-test size (1/50 of the
#       jobs, one repetition); its numbers are never reported.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one process, as the driver in BENCHMARK.json calls it: the last line
#       of standard output is the result object.
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"
bin="${CARGO_TARGET_DIR:-$here/target}/release/rpcv-benchmark"
out="$here/out"

single=0
workloads=()
pass=()
while [ $# -gt 0 ]; do
    case "$1" in
        --trace) single=1; pass+=("$1" "$2"); shift 2 ;;
        --workload) workloads+=("$2"); shift 2 ;;
        --seed|--seconds) pass+=("$1" "$2"); shift 2 ;;
        --quick) pass+=("$1"); shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

cargo build --offline --release --manifest-path "$here/Cargo.toml" >&2
mkdir -p "$out"

if [ "$single" = 1 ]; then
    [ "${#workloads[@]}" = 1 ] || { echo "run.sh: --trace needs one --workload" >&2; exit 2; }
    exec "$bin" --workload "${workloads[0]}" --out "$out" ${pass[@]+"${pass[@]}"}
fi

[ "${#workloads[@]}" -gt 0 ] || workloads=(steady_sharded batch_wide overload_flat churn_mixed)

cores="$(nproc)"
load="$(cut -d' ' -f1 /proc/loadavg)"
loaded=false
if awk -v l="$load" -v n="$cores" 'BEGIN { exit !(l > n) }'; then
    loaded=true
    echo "WARNING: 1-min loadavg $load exceeds $cores cores: host-clock numbers are suspect" >&2
fi
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
printf '{"nproc": %s, "rustc": "%s", "commit": "%s", "loadavg_1m": %s, "loaded": %s}\n' \
    "$cores" "$(rustc -V)" "$commit" "$load" "$loaded" | tee "$out/env.json"

status=0
for w in "${workloads[@]}"; do
    for trace in 0 1; do
        # The result object is for the driver; people read the rows.
        "$bin" --workload "$w" --trace "$trace" --out "$out" ${pass[@]+"${pass[@]}"} | grep -v '^{' || status=1
    done
done
[ "$status" = 0 ] && echo "all correctness checks passed" || echo "FAILED: see the checks above" >&2
exit "$status"

#!/usr/bin/env bash
# Runs the end-to-end HTAP benchmark (see README.md).
#
#   bench/e2e/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--trace-dir DIR] [--json DIR] [--check-counts]
#
# Builds bench_e2e in Release under .bench_build/e2e at the repository root,
# then runs each workload (default: all four) in its own process. Every
# metric is printed as `workload metric value unit`; the last line of
# stdout is one JSON object {correct, attempted, failed, metrics}. With
# --trace 1 the run is the per-layer one: spans go to --trace-dir as
# <workload>.jsonl and the metrics are the per-layer set. --json DIR keeps
# each run's full record as DIR/<workload>-s<seed>-t<trace>.json for
# compare.py. --check-counts runs every workload twice on one seed and once
# on the next seed and checks that the exact counts repeat.
# Exits non-zero when the build fails or any result is wrong.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
all_workloads=(olap_frozen olap_evicted oltp_tpcc hybrid_serve)

workloads=("${all_workloads[@]}")
seed=1
seconds=10
trace=0
trace_dir="$build/trace"
json_dir=""
check_counts=0

need() {
  if [[ $# -lt 2 || -z "$2" ]]; then
    echo "run.sh: $1 needs a value" >&2
    exit 2
  fi
}
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) need "$@"; workloads=("$2"); shift 2 ;;
    --seed) need "$@"; seed="$2"; shift 2 ;;
    --seconds) need "$@"; seconds="$2"; shift 2 ;;
    --trace) need "$@"; trace="$2"; shift 2 ;;
    --trace-dir) need "$@"; trace_dir="$2"; shift 2 ;;
    --json) need "$@"; json_dir="$2"; shift 2 ;;
    --check-counts) check_counts=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target bench_e2e -j "$(nproc)" >&2

work="$build/work-$$"
trap 'rm -rf "$work"' EXIT

# run_one WORKLOAD SEED TRACE JSON_FILE
run_one() {
  local args=(--workload "$1" --seed "$2" --seconds "$seconds" --trace "$3"
              --work-dir "$work/$1" --trace-dir "$trace_dir")
  if [[ -n "$4" ]]; then args+=(--json "$4"); fi
  "$build/bench_e2e" "${args[@]}"
}

if [[ $check_counts == 1 ]]; then
  dir="$build/check-counts"
  rm -rf "$dir"
  mkdir -p "$dir"
  for w in "${workloads[@]}"; do
    echo "check-counts: $w (seed $seed twice, seed $((seed + 1)) once)" >&2
    run_one "$w" "$seed" 1 "$dir/$w-a.json" > /dev/null || true
    run_one "$w" "$seed" 1 "$dir/$w-b.json" > /dev/null || true
    run_one "$w" "$((seed + 1))" 1 "$dir/$w-c.json" > /dev/null || true
  done
  python3 "$here/compare.py" --check-counts "$dir"
  exit $?
fi

json_file() {
  if [[ -n "$json_dir" ]]; then
    mkdir -p "$json_dir"
    echo "$json_dir/$1-s$seed-t$trace.json"
  fi
}

if [[ ${#workloads[@]} == 1 ]]; then
  run_one "${workloads[0]}" "$seed" "$trace" "$(json_file "${workloads[0]}")"
  exit $?
fi

# Several workloads: their lines in turn, then one JSON line whose metrics
# are keyed workload/metric.
status=0
summaries=()
for w in "${workloads[@]}"; do
  out="$work/$w.out"
  mkdir -p "$work"
  run_one "$w" "$seed" "$trace" "$(json_file "$w")" > "$out" || status=1
  head -n -1 "$out"
  summaries+=("$w" "$(tail -n 1 "$out")")
done
python3 - "${summaries[@]}" <<'EOF'
import json, sys
args = sys.argv[1:]
combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
for workload, line in zip(args[0::2], args[1::2]):
    try:
        run = json.loads(line)
    except ValueError:
        combined["correct"] = False
        continue
    combined["correct"] &= run["correct"]
    combined["attempted"] += run["attempted"]
    combined["failed"] += run["failed"]
    for name, metric in run["metrics"].items():
        combined["metrics"][workload + "/" + name] = metric
print(json.dumps(combined))
EOF
exit $status

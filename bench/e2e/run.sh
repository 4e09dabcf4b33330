#!/usr/bin/env bash
# The end-to-end benchmark's one command. Builds Release into build/e2e/
# (first run only, a few minutes), then:
#
#   bench/e2e/run.sh [--seed N] [--quick]
#       Runs every workload in its own process, untraced and then traced,
#       and prints "<workload> <metric> <value> <unit> n=<samples>" lines.
#       Writes build/e2e/results.json: every run's result and the host.
#       --quick shortens the windows to 3 s: the same code path as a full
#       run, for smoke checks; its numbers are not comparable.
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload; the last line of standard output is its
#       JSON result (the form BENCHMARK.json's command runs).
#   bench/e2e/run.sh --selftest
#       Builds and runs harness_test, the checks of the benchmark itself.
#   bench/e2e/run.sh --record FILE [--seed N]
#       Two sets of ten untraced runs of every workload, each run with its
#       own seed starting at N (the workloads interleaved), plus one traced
#       run per workload and set. Writes FILE: per-run values, medians,
#       quartiles and the host, and checks the spreads against the bounds
#       in BENCHMARK.json.
#
# The development seed is 1 (the default); a gain must also hold on the
# held-out seed 1000 (README.md).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"
build=build/e2e
workloads=(rank_mix scan_analytic hot_zipf read_write)
run_seconds=15
record_sets=2
record_runs=10

build_targets() {
  if [ ! -f "$build/Makefile" ]; then
    cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
  fi
  local jobs
  jobs="$(nproc)"
  [ "$jobs" -gt 4 ] && jobs=4
  cmake --build "$build" -j "$jobs" --target "$@" >&2
}

host_json() {
  local rev=unknown dirty=null
  if git -C "$root" rev-parse HEAD >/dev/null 2>&1; then
    rev="$(git -C "$root" rev-parse HEAD)"
    if [ -n "$(git -C "$root" status --porcelain)" ]; then dirty=true; else dirty=false; fi
  fi
  "$build/mirror_bench" --host |
    sed "s/}\$/, \"git_revision\": \"$rev\", \"git_dirty\": $dirty}/"
}

# run_one W SEED SECONDS TRACE [extra flags]: prints the text lines and
# appends {"workload", "seed", "trace", "set", "result"} to $runs_file.
run_one() {
  local w=$1 seed=$2 secs=$3 trace=$4
  shift 4
  local out status=0
  out="$("$build/mirror_bench" --workload "$w" --seed "$seed" \
    --seconds "$secs" --trace "$trace" "$@")" || status=$?
  printf '%s\n' "$out" | sed '$d'
  printf '{"workload": "%s", "seed": %s, "trace": %s, "set": %s, "result": %s}\n' \
    "$w" "$seed" "$trace" "${set_index:-1}" "$(printf '%s\n' "$out" | tail -n 1)" \
    >>"$runs_file"
  return $status
}

mode=all seed=1 quick=0 record_file=""
workload="" seconds="" trace=""
while [ $# -gt 0 ]; do
  case "$1" in
    --selftest) mode=selftest ;;
    --quick) quick=1 ;;
    --seed) seed="$2"; shift ;;
    --workload) mode=one; workload="$2"; shift ;;
    --seconds) seconds="$2"; shift ;;
    --trace) trace="$2"; shift ;;
    --record) mode=record; record_file="$2"; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
  shift
done

case "$mode" in
  selftest)
    build_targets harness_test
    exec "$build/harness_test"
    ;;
  one)
    build_targets mirror_bench
    exec "$build/mirror_bench" --workload "$workload" --seed "$seed" \
      --seconds "${seconds:-$run_seconds}" --trace "${trace:-0}"
    ;;
  all)
    build_targets mirror_bench
    runs_file="$build/runs.jsonl"
    : >"$runs_file"
    secs=$run_seconds
    extra=()
    if [ "$quick" = 1 ]; then secs=3; extra=(--quick); fi
    failed=0
    for w in "${workloads[@]}"; do
      for t in 0 1; do
        run_one "$w" "$seed" "$secs" "$t" "${extra[@]}" || failed=1
      done
    done
    host_json >"$build/host.json"
    python3 "$here/summarize.py" results "$runs_file" "$build/host.json" \
      "$build/results.json"
    exit $failed
    ;;
  record)
    build_targets mirror_bench
    runs_file="$build/record.jsonl"
    : >"$runs_file"
    for ((set_index = 1; set_index <= record_sets; set_index++)); do
      for ((r = 0; r < record_runs; r++)); do
        s=$((seed + (set_index - 1) * record_runs + r))
        for w in "${workloads[@]}"; do
          echo "set $set_index run $r seed $s $w" >&2
          run_one "$w" "$s" "$run_seconds" 0 >/dev/null ||
            echo "FAILED: $w seed $s" >&2
        done
      done
      for w in "${workloads[@]}"; do
        run_one "$w" "$((seed + (set_index - 1) * record_runs))" "$run_seconds" 1 \
          >/dev/null || echo "FAILED: $w traced" >&2
      done
    done
    host_json >"$build/host.json"
    python3 "$here/summarize.py" record "$runs_file" "$build/host.json" \
      "$record_file" "$root/BENCHMARK.json"
    ;;
esac

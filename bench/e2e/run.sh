#!/usr/bin/env bash
# Builds bench_e2e from the repository sources and runs it.
#
#   bench/e2e/run.sh [--seed S] [--seconds N] [--trace DIR] [--out DIR]
#       Every workload once untraced (the end-to-end metrics) and once
#       traced (the per-layer metrics), the traced run writing its Chrome
#       trace and per-layer JSON into DIR (default
#       .bench_build/e2e/traces). Prints every metric with its unit and
#       writes one JSON per run into --out (default
#       .bench_build/e2e/runs). Exits non-zero if any run fails a
#       correctness check.
#   bench/e2e/run.sh --workload W --seed S --seconds N --trace 0|1
#       One run of one workload; the last stdout line is its result JSON.
#   bench/e2e/run.sh --smoke
#       Every workload for about a second at reduced scale, untraced and
#       traced, checking that each output names every metric in
#       BENCHMARK.json.
#
# The build goes to ${CARGO_TARGET_DIR:-.bench_build}/e2e under the
# repository root; BENCH_E2E_BIN names a prebuilt binary instead.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}/e2e"
workloads=(explore_hot explore_cold query_hot ingest_mixed)

workload="" seed=1 seconds=10 trace="" out="" smoke=0
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

bin="${BENCH_E2E_BIN:-}"
if [[ -z "$bin" ]]; then
  generator=()
  command -v ninja > /dev/null && generator=(-G Ninja)
  if [[ ! -f "$build/CMakeCache.txt" ]]; then
    cmake -S bench/e2e -B "$build" "${generator[@]}" \
      -DCMAKE_BUILD_TYPE=Release >&2
  fi
  cmake --build "$build" --target bench_e2e -j 4 >&2
  bin="$build/bench_e2e"
fi

runs="${out:-$build/runs}"
mkdir -p "$runs"

if [[ -n "$workload" ]]; then
  args=(--workload="$workload" --seed="$seed" --seconds="$seconds")
  case "$trace" in
    1) mkdir -p "$build/traces"
       args+=(--trace-dir="$build/traces"
              --out="$runs/$workload-seed$seed-traced.json") ;;
    0|"") args+=(--out="$runs/$workload-seed$seed.json") ;;
    *) echo "run.sh: --trace takes 0 or 1 with --workload" >&2; exit 2 ;;
  esac
  exec "$bin" "${args[@]}"
fi

if [[ $smoke -eq 1 ]]; then
  smoke_dir="$build/smoke"
  mkdir -p "$smoke_dir"
  status=0
  for w in "${workloads[@]}"; do
    for mode in end_to_end per_layer; do
      args=(--workload="$w" --seed="$seed" --seconds=1 --smoke)
      [[ $mode == per_layer ]] && args+=(--trace-dir="$smoke_dir")
      line="$("$bin" "${args[@]}" | tail -n 1)" || { echo "FAIL $w $mode" >&2; status=1; continue; }
      BENCH_LINE="$line" python3 - "$mode" "$w" <<'EOF' || status=1
import json, os, sys
mode, workload = sys.argv[1], sys.argv[2]
want = {m["name"] for m in json.load(open("BENCHMARK.json"))[mode]}
got = json.loads(os.environ["BENCH_LINE"])
missing = want - set(got["metrics"])
extra = set(got["metrics"]) - want
ok = got["correct"] and not missing and not extra and got["attempted"] >= 1
print(("ok  " if ok else "FAIL"), workload, mode, "missing:", sorted(missing),
      "unexpected:", sorted(extra))
sys.exit(0 if ok else 1)
EOF
    done
  done
  exit $status
fi

trace="${trace:-$build/traces}"
mkdir -p "$trace"
status=0
for w in "${workloads[@]}"; do
  "$bin" --workload="$w" --seed="$seed" --seconds="$seconds" \
    --out="$runs/$w-seed$seed.json" | sed '$d' || status=1
  "$bin" --workload="$w" --seed="$seed" --seconds="$seconds" \
    --trace-dir="$trace" --out="$runs/$w-seed$seed-traced.json" | sed '$d' \
    || status=1
done
echo "run JSONs in $runs, traces in $trace"
exit $status

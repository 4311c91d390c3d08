#!/usr/bin/env bash
# Runs the whole benchmark set on one seed: the four workloads timed, then
# the four traced, one process each, and merges their results into one
# JSON file for `bench_e2e --compare`.
#
#   bench_e2e/run_all.sh [seed] [out.json]
#
# Exits non-zero when any run fails or returns a wrong answer.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build=$root/.bench_build
seed=${1:-1}
out=${2:-$build/e2e-seed$seed.json}

if [ ! -f "$build/CMakeCache.txt" ]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build "$build" --target bench_e2e -j "$(nproc)" >&2

scratch=$build/run-all-$$
trap 'rm -rf "$scratch"' EXIT
mkdir -p "$scratch"
parts=()
for mode in timed traced; do
  for workload in tpch-local tpch-remote-spill tpch-chaos service-trace; do
    part=$scratch/$mode-$workload.json
    flags=()
    if [ "$mode" = traced ]; then flags=(--traced); fi
    "$build/bench_e2e" --workload "$workload" --seed "$seed" \
      --scratch "$scratch" --json "$part" "${flags[@]}"
    parts+=("$part")
  done
done

python3 - "$out" "${parts[@]}" <<'EOF'
import json
import sys

runs = [run for part in sys.argv[2:] for run in json.load(open(part))["runs"]]
with open(sys.argv[1], "w") as f:
    json.dump({"runs": runs}, f, indent=1)
EOF
echo "wrote $out" >&2

#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload of it.

    python3 bench_e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build lives in .bench_build/. Each run
does a fixed amount of work (20 passes, or 220 jobs), so --seconds is
accepted but not used: a slower host or commit takes longer instead of
measuring less. The benchmark's own `name value unit` lines pass through;
the last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end_to_end metrics BENCHMARK.json names for
--trace 0, its per_layer metrics for --trace 1. Exits non-zero without
that line when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench_e2e")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build():
    """Configures, then lets cmake bring bench_e2e up to date."""
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "bench_e2e",
              "-j", str(os.cpu_count() or 1)]]
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit("bench_e2e build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    scratch = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    result_path = os.path.join(scratch, "result.json")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--scratch", scratch, "--json", result_path]
    if args.trace:
        cmd.append("--traced")
    try:
        sys.stdout.flush()
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        if done.returncode not in (0, 1) or not os.path.exists(result_path):
            sys.exit("bench_e2e exited with %d" % done.returncode)
        with open(result_path) as f:
            run = json.load(f)["runs"][0]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    for m in wanted:
        got = run["metrics"].get(m["name"])
        if got is None:
            sys.exit("bench_e2e did not report %s" % m["name"])
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    # A wrong answer is reported through "correct", not the exit code.
    print(json.dumps({"correct": run["correct"], "attempted": int(run["attempted"]),
                      "failed": int(run["failed"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

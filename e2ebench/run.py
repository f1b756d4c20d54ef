#!/usr/bin/env python3
"""Build e2ebench from source and run one workload.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selftest

NAME is attest-cold, attest-churn, fleet-monitor or fuzz-shrink, or all
to run the four in turn in one process (one JSON line each, then a
combined line whose metric names carry the workload as a prefix).  The
program is built with dune into ./_build under the e2ebench profile, the
only profile in which e2ebench/dune enables the benchmark.  An untraced
attest-cold or attest-churn run splits the measured time over three fresh
processes and reports the median of each end-to-end metric, because host
time on a shared machine drifts between otherwise identical processes;
attempted and failed operations are summed.  fleet-monitor and fuzz-shrink
run in one process, which their long operations need to time at least 20
of them.  A traced run uses one process, which also runs the per-layer
ladder.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --selftest builds and runs the
benchmark's own tests of its output checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "e2ebench", "main.exe")
WORKLOADS = ("attest-cold", "attest-churn", "fleet-monitor", "fuzz-shrink")
# Processes per untraced run.
PROCESSES = {"attest-cold": 3, "attest-churn": 3, "fleet-monitor": 1, "fuzz-shrink": 1}
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(1)


def dune(target):
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "e2ebench", target],
            env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    return r.returncode == 0


def child(args, seconds, timeout):
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("workload process timed out")
    lines = r.stdout.splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if r.returncode != 0 or not lines:
        die("workload process exited with %d" % r.returncode)
    try:
        return json.loads(lines[-1])
    except ValueError:
        die("workload process printed no result")


def combine(results):
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if any(v is None for v in values):
            value = None
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in results) and all(
            m["value"] is not None for m in metrics.values()),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    if sys.argv[1:] == ["--selftest"]:
        sys.exit(0 if dune("@e2ebench/runtest") else 1)
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seconds <= 0:
        die("--seconds must be positive")
    if not dune("./e2ebench/main.exe") or not os.path.exists(EXE):
        die("build failed")
    k = 1 if args.trace or args.workload == "all" else PROCESSES[args.workload]
    timeout = 900 if args.workload == "all" else RUN_TIMEOUT_S // k
    results = [child(args, args.seconds / k, timeout) for _ in range(k)]
    print(json.dumps(combine(results)))


if __name__ == "__main__":
    main()

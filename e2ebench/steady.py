#!/usr/bin/env python3
"""Steadiness check for e2ebench.

Runs the benchmark command from BENCHMARK.json N times per set for two
sets, alternating A and B run by run, each run with its own seed.  For
every end-to-end metric it prints each set's median, quartiles and spread
(interquartile distance over the median), and whether the benchmark would
accept the pair: each spread (but that of setup_s) within the metric's
bound, the two medians apart by no more than the bound in either
direction, and the same share of failed operations in both sets.  setup_s
is held to the bound on its medians only: it is the median of three short
set-ups per process, and a later change is judged on its median.  Use it
after any change to the benchmark to re-measure the baseline.

    python3 e2ebench/steady.py --workload attest-cold [--runs 10] [--json FILE]

--workload all checks every workload in turn.  Exit status 0 when every
checked workload is steady, 1 otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    if r.returncode != 0:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), r.returncode))
    return json.loads(r.stdout.splitlines()[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


SETS = 2
# Seeds: set s, run i uses SEED + 1000 * s + i.
SEED = 1


def shift(first, second):
    """How far apart the two medians are, as a share of the first."""
    a, b = first["median"], second["median"]
    return abs(b - a) / a


def check(bench, workload, runs, log):
    names = [m["name"] for m in bench["end_to_end"]]
    data = [{"values": {n: [] for n in names}, "attempted": 0, "failed": 0, "correct": True}
            for _ in range(SETS)]
    for i in range(runs):
        for s in range(SETS):
            r = run_once(bench, workload, SEED + 1000 * s + i)
            d = data[s]
            d["attempted"] += r["attempted"]
            d["failed"] += r["failed"]
            d["correct"] &= r["correct"]
            for n in names:
                d["values"][n].append(r["metrics"][n]["value"])
            print("  %s set %d run %d: %s" % (workload, s, i, json.dumps(
                {n: round(r["metrics"][n]["value"], 4) for n in names})), flush=True)
    ok = all(d["correct"] for d in data)
    shares = [d["failed"] / d["attempted"] for d in data]
    if shares[0] != shares[1]:
        ok = False
    print("%s: failed share per set %s, correct %s" % (workload, shares, ok))
    result = {"workload": workload, "runs": runs, "sets": [], "steady": None}
    for d in data:
        result["sets"].append({n: dict(summary(d["values"][n]), values=d["values"][n]) for n in names})
    for m in bench["end_to_end"]:
        n, bound = m["name"], m["bound"]
        a, b = (result["sets"][s][n] for s in range(SETS))
        line = "  %-16s bound %.2f" % (n, bound)
        for s, x in enumerate((a, b)):
            line += " | set %d median %.4g q1 %.4g q3 %.4g spread %.3f" % (
                s, x["median"], x["q1"], x["q3"], x["spread"])
            if n != "setup_s" and x["spread"] > bound:
                ok = False
                line += " SPREAD>BOUND"
        w = shift(a, b)
        line += " | medians apart by %.3f" % w
        if w > bound:
            ok = False
            line += " SHIFT>BOUND"
        print(line)
    result["steady"] = ok
    print("%s: %s" % (workload, "STEADY" if ok else "NOT STEADY"), flush=True)
    log.append(result)
    return ok


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--json")
    args = p.parse_args()
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    todo = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in todo) or args.runs < 2:
        raise SystemExit("unknown workload or fewer than 2 runs")
    log = []
    ok = all([check(bench, w, args.runs, log) for w in todo])
    if args.json:
        with open(args.json, "w") as f:
            json.dump(log, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

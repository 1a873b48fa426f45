#!/usr/bin/env python3
"""Steadiness check: are the benchmark's end-to-end metrics steady enough
for their bounds?

Runs two independent sets of every workload on the same build,
interleaved (set A run 1, set B run 1, set A run 2, ...), each run on its
own seed and for BENCHMARK.json's run_seconds. For each workload and
end-to-end metric it prints, per set, the median and quartiles of the
runs' values, the spread (q3 - q1) / median, and the drift of set B's
median from set A's, next to the metric's bound from BENCHMARK.json. A
spread above the bound or a drift of more than the bound in either
direction fails the check, for every metric; the target is a spread below
a third of the bound.

    python3 perfbench/steady.py                       # 2 sets x 10 runs
    python3 perfbench/steady.py --runs 5 --workloads packet64_kv
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
FIRST_SEED = 1


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    if proc.returncode != 0 or not result.get("correct"):
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("%s seed %d failed its output checks" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    # values[workload][set][metric] = list of run values
    values = {w: [{} for _ in range(SETS)] for w in workloads}
    for i in range(args.runs):
        for s in range(SETS):
            seed = FIRST_SEED + i + 1000 * s
            for w in workloads:
                for name, v in run(w, seed, bench["run_seconds"]).items():
                    values[w][s].setdefault(name, []).append(v)
                print("set %s run %d/%d %s done" % ("AB"[s], i + 1, args.runs, w),
                      file=sys.stderr, flush=True)

    ok = True
    for w in workloads:
        print("\n%s (%d runs per set)" % (w, args.runs))
        print("  %-22s %-5s %12s %12s %12s %7s %7s %7s  %s" % (
            "metric", "set", "median", "q1", "q3", "spread", "drift", "bound", "verdict"))
        for name, m in bounds.items():
            bound = m["bound"]
            meds = []
            for s in range(SETS):
                med, q1, q3, spread = summary(values[w][s][name])
                meds.append(med)
                drift = ""
                verdict = []
                if spread > bound:
                    verdict.append("SPREAD > BOUND")
                    ok = False
                elif spread > bound / 3:
                    verdict.append("spread > bound/3")
                if s == 1:
                    change = (meds[1] - meds[0]) / meds[0]
                    drift = "%+.3f" % change
                    if abs(change) > bound:
                        verdict.append("DRIFT > BOUND")
                        ok = False
                print("  %-22s %-5s %12.6g %12.6g %12.6g %7.3f %7s %7.3f  %s" % (
                    name if s == 0 else "", "AB"[s], med, q1, q3, spread, drift,
                    bound, ", ".join(verdict) or "steady"))
    print("\nsteadiness check %s" % ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

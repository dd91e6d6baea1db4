#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads teardown churn-lossy --seeds 1-10

Runs perfbench/run.py once per (workload, seed) with run_seconds from
BENCHMARK.json, one run at a time, and prints for every end-to-end
metric its median and its interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to the metric's bound. A
spread at or above a third of its bound is flagged and its values are
listed in seed order.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    metrics = bench["end_to_end"]
    ok = True
    for w in args.workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in seeds_of(args.seeds):
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                ok = False
                print(f"{w} seed {seed}: correct=false, failed={result['failed']}")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {w} ({len(seeds_of(args.seeds))} seeds)")
        for m in metrics:
            vs = values[m["name"]]
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = m["bound"]
            flag = "" if spread < bound / 3 else "  <-- spread >= bound/3"
            print(f"  {m['name']:<24} median {med:<14.6g} spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
            if flag:
                print("    by seed: " + " ".join(f"{v:.4g}" for v in vs))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

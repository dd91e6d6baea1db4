#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload teardown --seed 1 --seconds 10 --trace 0

Builds perfbench/xbench.exe with dune (build directory: $CARGO_TARGET_DIR,
default .bench_build; the dune cache is off so nothing is written outside
the checkout), then runs it with the same arguments. The last line of
standard output is the JSON result. Traced runs (--trace 1) also write
their spans to <build dir>/perfbench-spans/. Exits non-zero without a
result when the checkout does not hold the engine sources.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("teardown", "churn-lossy", "batch-monitored")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            print(f"run.py: {needed} not found; run from the root of a full checkout",
                  file=sys.stderr)
            return 2

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--display", "quiet", "./perfbench/xbench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode or 1

    exe = os.path.join(build_dir, "default", "perfbench", "xbench.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--out", os.path.join(build_dir, "perfbench-spans")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

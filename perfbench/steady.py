#!/usr/bin/env python3
"""Runs one workload k times with distinct seeds and prints, for every
end-to-end metric, the median and the interquartile range as a share of the
median, next to the metric's bound in BENCHMARK.json. The bounds are set
from this output (README.md, "Bounds").

    python3 perfbench/steady.py --workload plan [-k 10] [--first-seed 1]

Run it from the root of a checkout. Every run measures run_seconds, the
length the bounds apply to. A metric passes when its spread is within its
bound; the "aim" column marks the spreads also under a third of it. The exit
code is 0 when every metric passes, 2 when one does not, 1 when a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("-k", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for i in range(args.k):
        seed = args.first_seed + i
        t0 = time.monotonic()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        wall = time.monotonic() - t0
        if out.returncode != 0:
            print("seed %d: run.py exited %d" % (seed, out.returncode))
            return 1
        res = json.loads(out.stdout.strip().splitlines()[-1])
        runs.append(res)
        print("seed %d: %.1f s wall, correct=%s attempted=%d failed=%d (%.6f)"
              % (seed, wall, res["correct"], res["attempted"], res["failed"],
                 res["failed"] / res["attempted"]), flush=True)

    print("%-24s %14s %10s %8s %6s %6s"
          % ("metric", "median", "IQR/med", "bound", "pass", "aim"))
    passed = True
    for name in sorted(bounds):
        vals = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
        if len(vals) < 2:
            print("%-24s missing" % name)
            passed = False
            continue
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / abs(med) if med else float("inf")
        bound = bounds[name]
        ok = spread <= bound
        passed = passed and ok
        print("%-24s %14.6g %10.4f %8.3f %6s %6s" % (
            name, med, spread, bound, "yes" if ok else "NO",
            "yes" if spread <= bound / 3 else "no"))
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())

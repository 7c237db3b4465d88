#!/usr/bin/env python3
"""Run workloads over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--trace 0] [workload ...]

For every end-to-end metric prints the median over the seeds and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)), next to a third of the metric's
bound from BENCHMARK.json.  Run from the root of a checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("workloads", nargs="*")
    a = ap.parse_args()
    lo, _, hi = a.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        values = {}
        walls = []
        for seed in seeds:
            t0 = time.monotonic()
            out = subprocess.run(
                bench["command"] + ["--workload", w, "--seed", str(seed),
                                    "--seconds", str(bench["run_seconds"]),
                                    "--trace", a.trace],
                capture_output=True, text=True)
            walls.append(time.monotonic() - t0)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                print(f"{w} seed {seed}: exit {out.returncode}, "
                      f"{result['failed']} of {result['attempted']} failed")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} (seeds {a.seeds}; wall time per run: median "
              f"{statistics.median(walls):.1f} s, max {max(walls):.1f} s)")
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            third = bounds.get(name, 0) / 3
            flag = "" if name not in bounds or name == "setup_s" or spread < third else "  WIDE"
            print(f"{name:26s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  (bound/3 {third:.4f}){flag}  "
                  + " ".join(f"{v:.4g}" for v in vs))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

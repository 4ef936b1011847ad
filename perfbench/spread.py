#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workload NAME ...]

Runs the benchmark (`--trace 0`) once per seed for each workload, one run
after another, and prints for every end-to-end metric its median and its
spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median, next to a
third of the metric's bound from BENCHMARK.json. Run it from the
repository root; each run lasts about `run_seconds` plus a few seconds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workload or names:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)
        print(f"\n{workload}: metric, median, spread, bound/3")
        for name, vals in values.items():
            med, s = spread(vals)
            flag = "" if s < bounds[name] / 3 else "  <-- over a third of the bound"
            if name != "setup_s":
                worst = max(worst, s / bounds[name])
            print(f"  {name:22s} {med:14.6g} {s:8.4f} {bounds[name] / 3:8.4f}{flag}")
        print(flush=True)
    print(f"largest spread/bound, setup_s aside: {worst:.3f}")


if __name__ == "__main__":
    main()

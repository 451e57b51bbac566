#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--workloads a,b] [--first-seed 1]
                                [--save set1.json] [--compare set0.json]

Runs each workload once per seed (seeds first-seed .. first-seed+runs-1)
through perfbench/run.py with --trace 0, then prints, per metric, the median
and the quartile spread (Q3 - Q1) / median, with Python's
statistics.quantiles(values, n=4) -- the figure BENCHMARK.json's bounds are
judged against.  --save writes the medians to a file; --compare reads such a
file from an earlier set and prints how far each median moved in the
metric's worse direction, as a share of the earlier median.  Run from the
repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--save", default="")
    parser.add_argument("--compare", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as f:
            earlier = json.load(f)
    medians = {}
    worst_spread = 0.0
    worst_shift = 0.0
    for workload in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                 text=True, cwd=ROOT, check=True).stdout
            result = json.loads(out.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print("%s seed %d: INCORRECT %s" % (workload, seed, result), flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("%s seed %d: %s" % (workload, seed, " ".join(
                "%s=%.6g" % (name, m["value"]) for name, m in result["metrics"].items())),
                  flush=True)
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            medians.setdefault(workload, {})[name] = med
            spread = (q3 - q1) / med if med else float("inf")
            bound = metrics[name]["bound"]
            worst_spread = max(worst_spread, spread / bound)
            line = "%-16s %-14s median %-14.6g spread %6.2f %% (bound %g %%)" % (
                workload, name, med, spread * 100, bound * 100)
            before = earlier.get(workload, {}).get(name)
            if before:
                sign = 1 if metrics[name]["better"] == "lower" else -1
                shift = sign * (med - before) / before
                worst_shift = max(worst_shift, shift / bound)
                line += "  worse than earlier set by %6.2f %%" % (shift * 100)
            print(line, flush=True)
    print("largest spread / bound: %.2f" % worst_spread)
    if earlier:
        print("largest shift / bound: %.2f" % worst_shift)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(medians, f, indent=1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per metric, the
median and the spread (first-to-third quartile distance over the
median), the statistic the benchmark's bounds are checked against.

    python3 perfbench/spread.py --workload decide_wire --seeds 1-10 [--trace 0]

Run from the repository root. Each seed is one `perfbench/run.py`
run, which builds the benchmark first if it is out of date;
`--seconds` defaults to `run_seconds` in `BENCHMARK.json`.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    if args.seconds is None:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    values = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect run: {result}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        print(f"{name:28s} median {med:12.5g}  spread {spread:7.3f}  n={len(vals)}")


if __name__ == "__main__":
    main()

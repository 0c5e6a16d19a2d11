#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics; run from the repository root.

    python3 perfbench/spread.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Runs each workload once per seed (seeds first-seed, first-seed+1, ...)
through perfbench/run.py with BENCHMARK.json's run_seconds, then prints,
per end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median next to the metric's bound. A spread above a third of
its bound is flagged: such a metric cannot resolve a change of that size.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    status = 0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True,
            )
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit code {done.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        print(f"{workload} ({args.runs} runs)")
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "  WIDE" if spread > metric["bound"] / 3 else ""
            print(f"  {metric['name']:<22} median {med:<14.6g} spread {spread:7.4f}"
                  f"  bound {metric['bound']}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())

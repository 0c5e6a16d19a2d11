#!/usr/bin/env python3
"""Smoke self-test of the benchmark; run from the repository root.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, a tiny run (`--smoke`, 1 s) in each
mode must pass its output checks and emit every metric BENCHMARK.json names
for that mode, with its unit (perfbench/run.py enforces the metric set).
A run with `--break-check`, which makes one real output check of the
workload expect a wrong value, must exit 1 and report `correct: false`.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload, trace, *extra):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return done.returncode, result, done.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, stderr = run(workload, trace)
            ok = code == 0 and result is not None and result["correct"] and result["failed"] == 0
            print(f"{workload} --trace {trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                failures.append(f"{workload} --trace {trace}: exit {code}\n{stderr}")
        code, result, _ = run(workload, 0, "--break-check")
        ok = code == 1 and result is not None and not result["correct"] and result["failed"] > 0
        print(f"{workload} --break-check: {'fails as it must' if ok else 'DID NOT FAIL'}")
        if not ok:
            failures.append(f"{workload} --break-check: exit {code}, result {result}")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

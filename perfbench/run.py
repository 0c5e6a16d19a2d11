#!/usr/bin/env python3
"""Builds and runs the fet benchmark; run from the repository root.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (perfbench/Cargo.toml) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs one workload, and checks
that the result line names exactly the metrics BENCHMARK.json lists for the
mode (`end_to_end` for --trace 0, `per_layer` for --trace 1) with their
units. Build output and diagnostics go to stderr; stdout carries the
workload's report, whose last line is the result object.

Exit codes: 0 when every output check passed, 1 when a check failed, 2 on
bad arguments, a failed build or a malformed result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build")))
    if not target.is_absolute():
        target = ROOT / target
        env["CARGO_TARGET_DIR"] = str(target)
    manifest = HERE / "Cargo.toml"
    done = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if done.returncode != 0:
        fail(f"cargo build failed with exit code {done.returncode}")
    binary = target / "release" / "perfbench"
    if not binary.is_file():
        fail(f"no benchmark binary at {binary}")
    return binary


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def validate(line, trace):
    """Returns the parsed result, or exits when it is malformed."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        fail(f"last stdout line is not JSON ({e}): {line[:200]!r}")
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys must be correct, attempted, failed, metrics: {line[:200]!r}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("`attempted` must be a whole number of at least 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("`failed` must be a non-negative whole number")
    expected = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(n for n in set(got) & set(expected) if got[n] != expected[n])
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, wrong unit {wrong}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value")
    return result


def main(argv):
    trace = None
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            trace = value
    if trace not in ("0", "1"):
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    binary = build()
    try:
        done = subprocess.run(
            [str(binary), *argv],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        fail(f"the workload ran past {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        sys.stdout.write(done.stdout)
        fail(f"the benchmark exited with code {done.returncode} and no result")
    result = validate(lines[-1], trace == "1")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0 or not result["correct"] or result["failed"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

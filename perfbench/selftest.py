#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload through perfbench/run.py with --tiny,
once untraced and once traced, and checks that:
  * the run exits 0 and its last stdout line is the result JSON with exactly
    the keys correct, attempted, failed and metrics, correct being true;
  * the untraced result holds exactly the end_to_end metrics and the traced
    one exactly the per_layer metrics, each with the unit BENCHMARK.json
    gives it, and every name matches [A-Za-z0-9_.-]+;
  * the output carries the host block, and the traced output a per-layer
    table with its remainder and tracing-overhead rows.
Exits non-zero on the first failure.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def fail(message):
    print(f"selftest FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def check_result(workload, trace, stdout, expected):
    lines = stdout.strip().splitlines()
    if not lines:
        fail(f"{workload} trace={trace}: no output")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{workload} trace={trace}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{workload} trace={trace}: correct is {result['correct']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: attempted {result['attempted']}")
    if not isinstance(result["failed"], int):
        fail(f"{workload} trace={trace}: failed {result['failed']}")
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if not NAME.match(name):
            fail(f"{workload}: metric name {name!r} is not [A-Za-z0-9_.-]+")
        if sorted(metric) != ["unit", "value"]:
            fail(f"{workload}: metric {name} has keys {sorted(metric)}")
        if not isinstance(metric["value"], (int, float)):
            fail(f"{workload}: metric {name} value {metric['value']!r}")
    if set(metrics) != set(expected):
        fail(f"{workload} trace={trace}: missing "
             f"{sorted(set(expected) - set(metrics))}, unexpected "
             f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            fail(f"{workload}: {name} unit {metrics[name]['unit']} != {unit}")
    if not any(line.startswith('{"host": ') for line in lines):
        fail(f"{workload} trace={trace}: no host block")
    if trace:
        text = "\n".join(lines)
        for row in ("== per-layer time:", "remainder (wall - layers)",
                    "tracing overhead"):
            if row not in text:
                fail(f"{workload}: traced output lacks {row!r}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for group in expected.values():
        for name in group:
            if not NAME.match(name):
                fail(f"BENCHMARK.json metric name {name!r}")
    # Every workload the binary has, not only those BENCHMARK.json runs:
    # serve_open and da_train stay runnable (see README.md).
    for workload in ("serve_open", "dedup_e2e", "block_scale", "da_train"):
        for trace in (0, 1):
            done = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", "3",
                                   "--seconds", "2", "--trace", str(trace),
                                   "--tiny"],
                cwd=ROOT, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                sys.stderr.write(done.stderr[-4000:])
                fail(f"{workload} trace={trace}: exit code {done.returncode}")
            check_result(workload, trace, done.stdout, expected[trace])
            print(f"ok  {workload} trace={trace}", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/selfcheck.py

Run it from the repository root. It builds spe_perfbench, then
  1. makes a short seeded run of every workload in BENCHMARK.json, untraced
     and traced, and checks that each run is correct and emits exactly the
     end_to_end (untraced) or per_layer (traced) metrics, each with its unit;
  2. runs one workload with a deliberately wrong expected image in the shadow
     copy and checks that the shadow checker flags it: the run must exit
     nonzero and report correct = false with failed ops.
Prints "selfcheck PASS" and exits 0 when every check holds.
"""

import json
import os
import subprocess
import sys

import run as bench

SECONDS = "1"
SEED = "7"


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def drive(args):
    proc = subprocess.run([bench.BINARY] + args, capture_output=True, text=True,
                          timeout=bench.RUN_TIMEOUT_S)
    return proc.returncode, last_json(proc.stdout)


def check_run(workload, trace, expected):
    """Returns a list of problems with one short run (empty when clean)."""
    code, result = drive(["--workload", workload, "--seed", SEED,
                          "--seconds", SECONDS, "--trace", str(trace)])
    where = f"{workload} --trace {trace}"
    if result is None:
        return [f"{where}: no JSON result (exit {code})"]
    problems = []
    if code != 0 or result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{where}: exit {code}, correct {result.get('correct')}, "
                        f"failed {result.get('failed')}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"{where}: missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {name} = {got}, want a number in {unit}")
    return problems


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not bench.build():
        print("selfcheck FAIL: build failed")
        return 1
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        problems += check_run(name, 0, end_to_end)
        problems += check_run(name, 1, per_layer)
        print(f"checked {name}", flush=True)

    name = spec["workloads"][0]["name"]
    code, result = drive(["--workload", name, "--seed", SEED, "--seconds", SECONDS,
                          "--trace", "0", "--corrupt-shadow"])
    if code == 0 or result is None or result["correct"] or result["failed"] == 0:
        problems.append(f"{name} --corrupt-shadow: the wrong expected image went "
                        f"unflagged (exit {code}, result {result})")
    print("checked the shadow checker", flush=True)

    for problem in problems:
        print("FAIL:", problem)
    print("selfcheck", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

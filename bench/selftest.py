"""Self-test of the benchmark at a tiny size (a few seconds):

    python3 bench/selftest.py

For every workload it checks that an untraced run prints every
end-to-end metric of BENCHMARK.json with its unit and passes its own
known-answer checks, that a traced run prints every per-layer metric,
and that one planted wrong expected answer is counted as a failed op
without stopping the run.  Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def check(cond, message):
    if not cond:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def check_printed(result, lines, declared, label):
    metrics = result["metrics"]
    check(set(metrics) == set(declared), f"{label}: metrics {sorted(set(metrics) ^ set(declared))} "
                                         "differ from BENCHMARK.json")
    for name, unit in declared.items():
        check(metrics[name]["unit"] == unit, f"{label}: {name} has unit {metrics[name]['unit']}")
        check(any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines),
              f"{label}: {name} not printed with unit {unit}")
    check(any(line.startswith("error_rate ") for line in lines), f"{label}: no error_rate line")
    json.dumps(result)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for w in spec["workloads"]:
        name = w["name"]
        result, lines = run.measure(name, seed=0, seconds=0.0, trace=False, tiny=True)
        check_printed(result, lines, end_to_end, f"{name} untraced")
        check(result["correct"] and result["failed"] == 0,
              f"{name}: known-answer check failed: {lines}")

        result, lines = run.measure(name, seed=0, seconds=0.0, trace=True, tiny=True)
        check_printed(result, lines, per_layer, f"{name} traced")
        check(result["correct"], f"{name} traced: known-answer check failed: {lines}")

        result, lines = run.measure(name, seed=0, seconds=0.0, trace=False, tiny=True,
                                    plant_error=True)
        check(not result["correct"] and result["failed"] == 1,
              f"{name}: planted wrong answer gave failed = {result['failed']}")
        rate = next(line for line in lines if line.startswith("error_rate "))
        check(abs(float(rate.split()[1]) - 1 / result["attempted"]) < 1e-5,
              f"{name}: planted wrong answer not in error_rate: {rate}")
        print(f"selftest {name}: ok ({result['attempted']} ops, planted failure counted)")
    print("selftest: all workloads ok")


if __name__ == "__main__":
    main()

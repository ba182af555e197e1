#!/usr/bin/env python3
"""Smoke test for the campaign benchmark, at tiny workload sizes.

Run from the repository root (builds the benchmark on first use):

    python3 perfbench/smoke_test.py

Checks that
  - every end-to-end and per-layer metric named in BENCHMARK.json is
    printed, with its unit, on every workload, for two different seeds,
    and that the correctness check passes on both;
  - a deliberately perturbed report is counted as failed;
  - the traced run writes valid Chrome trace-event JSON.
Exits 0 when all checks pass, 1 otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OPS_SCALE = "0.2"
SECONDS = "1"


def run(workload, seed, trace, *extra):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", SECONDS, "--trace", str(trace),
               "--ops-scale", OPS_SCALE, *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited "
                             f"{done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result, expected, label):
    got = result["metrics"]
    if set(got) != set(expected):
        raise AssertionError(f"{label}: metric names differ: missing "
                             f"{sorted(set(expected) - set(got))}, extra "
                             f"{sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        if got[name]["unit"] != unit:
            raise AssertionError(f"{label}: {name} unit {got[name]['unit']}"
                                 f", expected {unit}")
        if not isinstance(got[name]["value"], (int, float)):
            raise AssertionError(f"{label}: {name} has no numeric value")


def check_trace_file(workload, seed):
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.join(ROOT, target_dir, "perfbench", "traces",
                        f"{workload}-seed{seed}.json")
    with open(path) as f:
        trace = json.load(f)
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    if not spans:
        raise AssertionError(f"{path}: no spans")
    for event in spans:
        for key in ("name", "ts", "dur", "args"):
            if key not in event:
                raise AssertionError(f"{path}: span without {key}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []

    def check(label, fn):
        try:
            fn()
            print(f"ok   {label}")
        except (AssertionError, OSError, ValueError, KeyError) as e:
            failures.append(label)
            print(f"FAIL {label}: {e}")

    for workload in (w["name"] for w in bench["workloads"]):
        for seed in (1, 2):
            def timed(workload=workload, seed=seed):
                result = run(workload, seed, 0)
                check_metrics(result, end_to_end, f"{workload} seed {seed}")
                if not result["correct"] or result["failed"] != 0:
                    raise AssertionError(f"correctness check failed: "
                                         f"{result}")
            check(f"{workload} seed {seed}: end-to-end metrics", timed)

        def traced(workload=workload):
            result = run(workload, 1, 1)
            check_metrics(result, per_layer, f"{workload} traced")
            if not result["correct"]:
                raise AssertionError(f"traced correctness failed: {result}")
            check_trace_file(workload, 1)
        check(f"{workload}: per-layer metrics and trace JSON", traced)

    def perturbed():
        for trace in (0, 1):
            result = run(bench["workloads"][0]["name"], 1, trace,
                         "--perturb")
            if result["correct"] or result["failed"] == 0:
                raise AssertionError(f"perturbed report passed: {result}")
    check("perturbed reports count as failed", perturbed)

    if failures:
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

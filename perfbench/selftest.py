#!/usr/bin/env python3
"""Self-test of the benchmark: a smoke run of every workload.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it runs a smoke-sized trace-0 run
and two trace-1 runs (tiny designs, fixed iteration counts), and checks:
  * each run exits 0 and reports correct=true with no failures;
  * the metric names and units are exactly BENCHMARK.json's end_to_end
    (trace 0) and per_layer (trace 1) lists, end-to-end values nonzero;
  * the deterministic counts repeat exactly across the two traced runs.
Exits non-zero on the first violation.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts the program computes deterministically for a fixed input and
# iteration count (wall-clock metrics are excluded).
DETERMINISTIC = [
    "core.factorizations_per_stage",
    "core.substitutions_per_stage",
    "core.matches_per_stage",
    "core.hankel_per_stage",
    "timing.levels",
    "timing.stages_per_level",
    "timing.recomputed_per_edit",
    "timing.reused_per_edit",
    "timing.evictions_per_edit",
    "core.factorizations_per_edit",
    "la.low_rank_ratio",
    "reduce.reduced_ratio",
    "reduce.dedup_hit_ratio",
]


def run(workload, trace, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "2", "--trace",
           str(trace), "--smoke"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"FAIL {workload} trace={trace}: exit "
                         f"{done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"FAIL {workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or \
            result["attempted"] < 1:
        raise SystemExit(f"FAIL {workload} trace={trace}: {result}")
    return result["metrics"]


def check_names(workload, metrics, expected):
    got = {name: m["unit"] for name, m in metrics.items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        raise SystemExit(f"FAIL {workload}: metrics {sorted(got.items())} "
                         f"!= BENCHMARK.json {sorted(want.items())}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        e2e = run(name, 0, 7)
        check_names(name, e2e, spec["end_to_end"])
        zero = [k for k, m in e2e.items() if not m["value"] > 0]
        if zero:
            raise SystemExit(f"FAIL {name}: end-to-end metrics not > 0: "
                             f"{zero}")
        first = run(name, 1, 7)
        second = run(name, 1, 7)
        check_names(name, first, spec["per_layer"])
        for key in DETERMINISTIC:
            if first[key]["value"] != second[key]["value"]:
                raise SystemExit(
                    f"FAIL {name}: {key} differs between runs: "
                    f"{first[key]['value']} vs {second[key]['value']}")
        print(f"ok {name}")
    print("selftest passed")


if __name__ == "__main__":
    main()

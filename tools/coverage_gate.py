#!/usr/bin/env python3
"""Line-coverage rollup and floor gate for the CI coverage leg.

Runs gcov over every .gcda the instrumented test suite produced, rolls
line coverage up per top-level source directory, writes a JSON report,
and exits nonzero if the combined line coverage of the gated
directories (default: src/la + src/timing: the factorizations, the
analyzer and the warm session) falls below the floor recorded in the CI
workflow.

Usage:
    coverage_gate.py --build-dir build-cov --source-dir . \
        --gate src/la --gate src/timing --floor 85.0 \
        --report coverage_report.json

Only gcov is required (it ships with gcc); lcov/gcovr are not needed.
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict


def find_gcda(build_dir):
    out = []
    # Absolute paths: gcov runs from a scratch directory, so relative
    # .gcda paths would not resolve there.
    for root, _dirs, files in os.walk(os.path.abspath(build_dir)):
        for f in files:
            if f.endswith(".gcda"):
                out.append(os.path.join(root, f))
    return out


def run_gcov(gcda_files, build_dir, scratch):
    """Invoke gcov in JSON-intermediate mode; return parsed file records."""
    records = []
    # Batch to keep command lines bounded.
    for i in range(0, len(gcda_files), 64):
        batch = gcda_files[i : i + 64]
        proc = subprocess.run(
            ["gcov", "--json-format", "--stdout"] + batch,
            cwd=scratch,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            check=False,
        )
        # --stdout emits one JSON document per input file, newline-separated.
        for line in proc.stdout.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                continue
            records.extend(doc.get("files", []))
    if records:
        return records
    # Older gcov: fall back to per-file .gcov.json.gz outputs.
    import glob
    import gzip

    for i in range(0, len(gcda_files), 64):
        batch = gcda_files[i : i + 64]
        subprocess.run(
            ["gcov", "--json-format"] + batch,
            cwd=scratch,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            check=False,
        )
    for gz in glob.glob(os.path.join(scratch, "*.gcov.json.gz")):
        try:
            with gzip.open(gz, "rt") as fh:
                doc = json.load(fh)
            records.extend(doc.get("files", []))
        except (OSError, json.JSONDecodeError):
            continue
    return records


def rollup(records, source_dir):
    """Merge per-compilation-unit line records into per-source-file sets.

    The same header or source file appears once per object that includes
    it; a line counts as covered if ANY unit executed it.
    """
    source_dir = os.path.abspath(source_dir)
    covered = defaultdict(set)
    instrumented = defaultdict(set)
    for rec in records:
        path = rec.get("file", "")
        apath = os.path.abspath(os.path.join(source_dir, path))
        if not apath.startswith(source_dir + os.sep):
            continue  # system headers, gtest, etc.
        rel = os.path.relpath(apath, source_dir)
        for ln in rec.get("lines", []):
            n = ln.get("line_number")
            if n is None:
                continue
            instrumented[rel].add(n)
            if ln.get("count", 0) > 0:
                covered[rel].add(n)
    return covered, instrumented


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--build-dir", required=True)
    ap.add_argument("--source-dir", default=".")
    ap.add_argument(
        "--gate",
        action="append",
        default=[],
        help="source directory prefix included in the floor check "
        "(repeatable); default src/la + src/timing",
    )
    ap.add_argument("--floor", type=float, default=0.0,
                    help="minimum combined line coverage %% of the gated dirs")
    ap.add_argument("--report", default="coverage_report.json")
    args = ap.parse_args()
    gates = args.gate or ["src/la", "src/timing"]

    gcda = find_gcda(args.build_dir)
    if not gcda:
        print(f"coverage_gate: no .gcda files under {args.build_dir} -- "
              "was the build configured with -DAWESIM_COVERAGE=ON and the "
              "suite run?", file=sys.stderr)
        return 2

    scratch = os.path.join(args.build_dir, "gcov-scratch")
    os.makedirs(scratch, exist_ok=True)
    records = run_gcov(gcda, args.build_dir, scratch)
    if not records:
        print("coverage_gate: gcov produced no parsable records",
              file=sys.stderr)
        return 2

    covered, instrumented = rollup(records, args.source_dir)

    per_dir = defaultdict(lambda: [0, 0])  # dir -> [covered, instrumented]
    per_file = {}
    for rel, lines in sorted(instrumented.items()):
        hit = len(covered.get(rel, set()))
        total = len(lines)
        per_file[rel] = {
            "covered": hit,
            "instrumented": total,
            "percent": round(100.0 * hit / total, 2) if total else 100.0,
        }
        parts = rel.split(os.sep)
        key = os.sep.join(parts[:2]) if len(parts) >= 2 else parts[0]
        per_dir[key][0] += hit
        per_dir[key][1] += total

    gate_hit = gate_total = 0
    for rel, stats in per_file.items():
        if any(rel == g or rel.startswith(g + os.sep) for g in gates):
            gate_hit += stats["covered"]
            gate_total += stats["instrumented"]
    gate_pct = 100.0 * gate_hit / gate_total if gate_total else 0.0

    report = {
        "schema": "awesim-coverage-report",
        "schema_version": 1,
        "gate_dirs": gates,
        "gate_percent": round(gate_pct, 2),
        "floor_percent": args.floor,
        "directories": {
            d: {
                "covered": v[0],
                "instrumented": v[1],
                "percent": round(100.0 * v[0] / v[1], 2) if v[1] else 100.0,
            }
            for d, v in sorted(per_dir.items())
        },
        "files": per_file,
    }
    with open(args.report, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    print(f"coverage_gate: wrote {args.report}")
    for d, v in sorted(per_dir.items()):
        pct = 100.0 * v[0] / v[1] if v[1] else 100.0
        print(f"  {d:<16} {v[0]:>6}/{v[1]:<6} {pct:6.2f}%")
    print(f"  gate ({' + '.join(gates)}): "
          f"{gate_hit}/{gate_total} = {gate_pct:.2f}% "
          f"(floor {args.floor:.2f}%)")

    if gate_total == 0:
        print("coverage_gate: gated directories have no instrumented lines",
              file=sys.stderr)
        return 2
    if gate_pct < args.floor:
        print(f"coverage_gate: FAIL -- {gate_pct:.2f}% < floor "
              f"{args.floor:.2f}%", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

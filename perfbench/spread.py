#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py [--workloads presets dense_grid point_sweep]

Every workload runs once for each of the seeds 1-10, for BENCHMARK.json's
``run_seconds``.  For every workload and end-to-end metric it prints the median of the runs
and the distance between the first and third quartile as a share of that
median (``statistics.quantiles(values, n=4)``), next to the metric's bound
from BENCHMARK.json, plus the share of failed operations per run.  This is
how the README's steadiness figures were made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()

    for workload in args.workloads:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: " + json.dumps(
                {k: round(v["value"], 6) for k, v in runs[-1]["metrics"].items()}),
                flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: correct {all(r['correct'] for r in runs)}, "
              f"failed share {shares}")
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            print(f"  {metric['name']:14s} median {med:14.6g} {metric['unit']:9s}"
                  f" spread {(q3 - q1) / med:7.4f}  bound {metric['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

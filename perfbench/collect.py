#!/usr/bin/env python3
"""Run every workload on seeds 1-10, twice, and write perfbench/baseline.json.

    python3 perfbench/collect.py

Each set runs every workload of BENCHMARK.json once per seed, untraced,
each run as long as run_seconds; the second set starts when the first
has ended.  Then every workload runs once traced on the first seed.
The spread of a metric in a set is the distance between the first and
third quartiles of its values over the seeds, as a share of their
median (statistics.quantiles(values, n=4)); the drift of a metric is
the second set's median over the first's, minus 1.  The output records
the environment, so results from different backends are not compared.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SEEDS = list(range(1, 11))
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("# env "))[6:])
    return json.loads(lines[-1]), env


def one_set(workload: str, seconds: int) -> tuple[dict, dict]:
    """Untraced runs of a workload on every seed: values, medians, spreads."""
    values: dict[str, list[float]] = {}
    failed = 0
    for seed in SEEDS:
        result, env = run_once(workload, seed, seconds, 0)
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
    row = {"failed": failed, "median": {}, "spread": {}, "values": values}
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        row["median"][name] = statistics.median(vals)
        row["spread"][name] = (q3 - q1) / row["median"][name]
        print(f"{workload} {name:14s} median {row['median'][name]:.5g} "
              f"spread {row['spread'][name]:.3f}", flush=True)
    return row, env


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    sets = []
    for _ in range(SETS):
        rows = {}
        for workload in workloads:
            rows[workload], env = one_set(workload, seconds)
        sets.append(rows)
    summary = {"seeds": SEEDS, "run_seconds": seconds, "env": env, "workloads": {}}
    for workload in workloads:
        first, second = sets[0][workload], sets[-1][workload]
        drift = {name: second["median"][name] / first["median"][name] - 1
                 for name in first["median"]}
        for name, value in drift.items():
            print(f"{workload} {name:14s} drift {value:+.3f}")
        traced, _ = run_once(workload, SEEDS[0], seconds, 1)
        summary["workloads"][workload] = {
            "sets": [rows[workload] for rows in sets],
            "drift": drift,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    OUT.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

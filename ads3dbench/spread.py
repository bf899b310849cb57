"""Run the benchmark once per seed and report each metric's spread.

    python3 ads3dbench/spread.py --workloads reduced_cv,full_train --seeds 1-10

Each run measures for ``run_seconds`` of BENCHMARK.json, untraced, as a
comparison runs it. Runs are sequential, one process at a time; with
several workloads the runs interleave (seed 1 of each workload, then seed
2, ...), so that a slow spell of the machine falls on every workload alike.
For every workload and metric it prints the median, the first and third
quartile (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median. Raw results go to
``ads3dbench/_work/spread_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import BENCH_DIR, ROOT


def last_json_line(text: str) -> dict:
    """The result object: the last non-empty line of a run's stdout."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    keys = {"correct", "attempted", "failed", "metrics"}
    if not isinstance(result, dict) or set(result) != keys:
        raise ValueError(f"result keys {sorted(result)} != {sorted(keys)}")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            raise ValueError(f"metric {name!r} is not {{value, unit}}")
    return result


def seed_range(text: str) -> list:
    """Seeds lo-hi; quartiles need at least two."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if len(seeds) < 2:
        raise ValueError(f"--seeds {text}: a spread needs at least two seeds")
    return seeds


def summarize(results: list) -> dict:
    """metric -> (median, q1, q3, spread) over the runs' values."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = (med, q1, q3, (q3 - q1) / med if med else float("nan"))
    return out


def run_once(workload: str, seed: int, seconds) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    for line in proc.stderr.splitlines():
        print(f"{workload} seed {seed}: {line}", file=sys.stderr)
    return last_json_line(proc.stdout)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", required=True, help="comma-separated names")
    p.add_argument("--seeds", default="1-10", help="lo-hi, at least two seeds")
    args = p.parse_args(argv)
    try:
        seeds = seed_range(args.seeds)
    except ValueError as exc:
        p.error(str(exc))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    names = args.workloads.split(",")
    results = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            results[name].append(run_once(name, seed, seconds))
    os.makedirs(os.path.join(BENCH_DIR, "_work"), exist_ok=True)
    ok = True
    for name in names:
        with open(os.path.join(BENCH_DIR, "_work", f"spread_{name}.json"), "w") as fh:
            json.dump(results[name], fh)
        runs = results[name]
        ok &= all(r["correct"] and r["failed"] == 0 for r in runs)
        print(f"{name}: {len(runs)} runs, correct {sum(r['correct'] for r in runs)}, "
              f"failed/attempted {sum(r['failed'] for r in runs)}/"
              f"{sum(r['attempted'] for r in runs)}")
        print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
        for metric, (med, q1, q3, spread) in summarize(runs).items():
            print(f"  {metric:32s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:7.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

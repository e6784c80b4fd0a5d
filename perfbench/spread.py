#!/usr/bin/env python3
"""Run the benchmark several times and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload serve_steady --runs 10
    python3 perfbench/spread.py --workload kws_clip --runs 2 --same-seed

Each run is a fresh ``run.py`` process with its own ``--seed`` (or the
same seed every time with ``--same-seed``).  For every metric the
script prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median, next to the metric's bound from ``BENCHMARK.json``.  With
``--same-seed`` it also reports whether every metric that does not
measure the host (simulated metrics, shares, ratios and counts)
repeated exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Units of host measurements; every other metric must repeat exactly
# at one seed, except the traced run's reconcile error.
HOST_UNITS = ("s", "1/s", "MB")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = elapsed
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}
    results = []
    for index in range(args.runs):
        seed = args.first_seed + (0 if args.same_seed else index)
        result = run_once(args.workload, seed, benchmark["run_seconds"],
                          args.trace)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"elapsed {result['elapsed_s']:.1f} s", flush=True)

    ok = all(r["correct"] for r in results)
    print(f"\n{args.workload}: {len(results)} runs, all correct: {ok}, "
          f"longest run {max(r['elapsed_s'] for r in results):.1f} s")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"  {name:28s} median {median:12.5g}  q1 {q1:12.5g}  "
              f"q3 {q3:12.5g}  spread {spread:7.2%}"
              f"{'' if bound is None else f'  bound {bound:.0%}'}{flag}")
    if args.same_seed:
        exact = [name for name, metric in results[0]["metrics"].items()
                 if metric["unit"] not in HOST_UNITS
                 and name != "trace.reconcile_error"]
        differ = [name for name in exact
                  if len({r["metrics"][name]["value"] for r in results}) > 1]
        print(f"  {len(exact)} metrics that do not measure the host, "
              f"identical across runs: {not differ} {differ or ''}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 benchmarks/e2e/stability.py --runs 10

Makes K runs of every workload with its end-to-end metrics, alternating
workloads so slow phases of a shared host spread over all of them, each
run with its own seed, one at a time.  For each metric it prints the
median, the inter-quartile range, the IQR as a share of the median (the
spread a bound in BENCHMARK.json must cover) and the largest relative
distance from the median.  Each run's wall time is reported too, since
the benchmark's runs must fit a fixed time budget.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("port-bound", "control-bound", "fullsys-cold", "f2-grid",
             "instrumented")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=600, check=False)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed its checks:\n"
                           + done.stdout[-2000:])
    result["wall_s"] = wall
    return result


def spread(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    low, _, high = statistics.quantiles(values, n=4)
    return {"median": median, "iqr": high - low,
            "iqr_share": (high - low) / median if median else 0.0,
            "max_share": max(abs(v - median) for v in values) / median
            if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in WORKLOADS}
    for index in range(args.runs):
        for workload in WORKLOADS:
            result = one_run(workload, args.first_seed + index,
                             args.seconds)
            samples = values[workload]
            for name, metric in result["metrics"].items():
                samples.setdefault(name, []).append(metric["value"])
            samples.setdefault("wall_s", []).append(result["wall_s"])
            values_line = " ".join(
                f"{name}={metric['value']:.4f}"
                for name, metric in result["metrics"].items())
            print(f"run {index + 1}/{args.runs} {workload} seed "
                  f"{args.first_seed + index}: {result['wall_s']:.1f} s "
                  f"{values_line}", file=sys.stderr, flush=True)
    print(f"{'workload':<14} {'metric':<28} {'median':>12} {'IQR':>10} "
          f"{'IQR/med':>8} {'max/med':>8}")
    for workload in WORKLOADS:
        for name, samples in values[workload].items():
            s = spread(samples)
            print(f"{workload:<14} {name:<28} {s['median']:>12.4f} "
                  f"{s['iqr']:>10.4f} {s['iqr_share']:>8.3f} "
                  f"{s['max_share']:>8.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

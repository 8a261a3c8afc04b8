#!/usr/bin/env python
"""Fleet timeline: one Perfetto capture of a parallel experiment run.

Runs a small simulation grid across worker processes with span
tracing on, then writes the merged Chrome-trace JSON.  Load the
output in https://ui.perfetto.dev: the parent process appears as one
track (trace warm-up), and every worker as its own track showing its
jobs and each job's `core.run` — where the host's time went, across
the whole fleet, on one timeline.  Tracing leaves every job on the
cycle loop a plain run takes; `repro simulate --self-profile` breaks a
run down by pipeline stage.
"""

import argparse

from repro.experiments.engine import Engine, SimJob, TraceSpec
from repro.obs.spans import (chrome_trace, count_spans,
                             parse_chrome_trace, write_chrome_trace)
from repro.presets import machine


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny",
                        choices=("tiny", "small", "full"))
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--output", default="fleet_timeline.json")
    args = parser.parse_args()

    grid = [SimJob((workload, config),
                   TraceSpec.workload(workload, args.scale),
                   machine(config))
            for workload in ("stream", "qsort")
            for config in ("1P", "2P")]

    engine = Engine(jobs=args.jobs, collect_spans=True)
    results = engine.execute(grid)
    write_chrome_trace(args.output, engine.span_events)

    print(f"{len(results)} jobs on {args.jobs} worker(s):")
    for (workload, config), result in results.items():
        print(f"  {workload:>8} on {config:<4} {result.cycles:>8} cycles"
              f"  IPC {result.ipc:.3f}")
    summary = engine.last_summary
    for worker in summary["workers"]:
        print(f"worker {worker['pid']}: {worker['jobs']} jobs, "
              f"{worker['utilization']:.0%} busy")

    tracks = parse_chrome_trace(chrome_trace(engine.span_events))
    print(f"{count_spans(engine.span_events)} spans on "
          f"{len(tracks)} tracks -> {args.output} "
          f"(open in https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Hotspot report: per-PC attribution of the port-bandwidth problem.

Runs one workload with the hotspot profiler attached and asks the
program-level question the aggregate stall ledger can't answer: *which
static instructions* lose issue slots to cache-port contention, and
what their address streams look like (dominant stride, bank spread,
working set).  Every counter reconciles exactly with the run's global
totals — the profiler is an attribution of the ledger, not a second
estimate of it.
"""

import argparse

from repro import OoOCore, build_trace, machine
from repro.obs.hotspots import HotspotRecorder, build_hotspots_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="qsort")
    parser.add_argument("--scale", choices=("tiny", "small", "full"),
                        default="tiny")
    parser.add_argument("--config", default="1P")
    parser.add_argument("--top", type=int, default=5)
    args = parser.parse_args()
    trace = build_trace(args.workload, args.scale)

    recorder = HotspotRecorder()
    config = machine(args.config)
    result = OoOCore(config, hotspots=recorder).run(trace)
    recorder.check_conservation(result)  # exact, or it raises

    print(f"{args.workload} on {args.config}: {result.cycles} cycles, "
          f"IPC {result.ipc:.3f}")
    print(f"profile: {recorder.summary()}")
    print()

    print(f"top {args.top} PCs by port-conflict slots "
          f"(K = kernel mode):")
    for row in recorder.top_rows(k=args.top, sort="port"):
        side = "K" if row["kernel"] else "U"
        slots = row["stall"].get("dcache_port", 0)
        print(f"  0x{row['pc']:x} {side} {row['kind']:<8} "
              f"{row['executions']:>6} execs  {slots:>5} port slots  "
              f"{row['dcache'].get('port_uses', 0):>5} port uses")
        stream = row.get("stream")
        if stream and stream.get("dominant_stride") is not None:
            print(f"      stride {stream['dominant_stride']:+d} "
                  f"({stream['stride_coverage']:.0%} of deltas), "
                  f"working set {stream['working_set_lines']} lines")

    split = recorder.split()
    kernel, user = split["kernel"], split["user"]
    print()
    print(f"privilege split: kernel {kernel['executions']} instrs / "
          f"{kernel['port_conflict_slots']} port slots, "
          f"user {user['executions']} instrs / "
          f"{user['port_conflict_slots']} port slots")

    # The same analysis ships as a versioned manifest.
    report = build_hotspots_report(recorder, result, config,
                                   workload=args.workload,
                                   scale=args.scale)
    print(f"manifest: {report['schema']} with {len(report['rows'])} "
          f"rows (conservation-checked)")


if __name__ == "__main__":
    main()

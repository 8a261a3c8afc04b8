"""T1 — workload characteristics table.

The standard "benchmark description" table: dynamic instruction count,
memory/branch densities, kernel fraction, and two behavioural columns
measured on the dual-ported reference machine (branch prediction
accuracy and L1 D-cache load miss rate).
"""

from __future__ import annotations

from ..presets import DUAL_PORT, machine
from ..stats.report import Table
from ..workloads.suite import trace_summary
from .engine import SimJob, TraceSpec
from .runner import ROW_NAMES, suite_traces


def plan(scale: str = "small") -> list[SimJob]:
    reference = machine(DUAL_PORT)
    return [SimJob(name, TraceSpec.workload(name, scale), reference)
            for name in ROW_NAMES]


def tabulate(scale: str, results: dict) -> Table:
    table = Table(
        title=f"T1: workload characteristics ({scale})",
        columns=["workload", "instructions", "%load", "%store", "%branch",
                 "%kernel", "bpred_acc", "dmiss_rate"],
    )
    traces = suite_traces(scale)
    for name in ROW_NAMES:
        summary = trace_summary(traces[name])
        stats = results[name].stats
        branches = stats["bpred.branches"]
        accuracy = stats["bpred.correct"] / branches if branches else 1.0
        port_loads = (stats["dcache.load_hits"] + stats["dcache.load_misses"]
                      + stats["dcache.load_secondary_misses"])
        miss_rate = stats["dcache.load_misses"] / port_loads \
            if port_loads else 0.0
        table.add_row(
            name,
            int(summary["instructions"]),
            round(100 * summary["load_fraction"], 1),
            round(100 * summary["store_fraction"], 1),
            round(100 * summary["branch_fraction"], 1),
            round(100 * summary["kernel_fraction"], 1),
            round(accuracy, 3),
            round(miss_rate, 3),
        )
    table.add_note("bpred_acc and dmiss_rate measured on the dual-ported "
                   "reference (2P)")
    return table

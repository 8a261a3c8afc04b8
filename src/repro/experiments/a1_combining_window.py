"""A1 — ablation: how many loads may share one wide-port access.

Sweeps ``max_combine`` (1 disables combining entirely) on the wide
single-port configuration over the memory-intensive workloads.
"""

from __future__ import annotations

from dataclasses import replace

from ..presets import machine
from ..stats.report import Table
from .engine import SimJob, TraceSpec
from .runner import MEMORY_INTENSIVE

_LIMITS = (1, 2, 4, 8)


def plan(scale: str = "small") -> list[SimJob]:
    base = machine("1P-wide+LB+SC")
    machines = {limit: replace(base, core=replace(base.core,
                                                  max_combine=limit))
                for limit in _LIMITS}
    return [SimJob((name, limit), TraceSpec.workload(name, scale),
                   machines[limit])
            for name in MEMORY_INTENSIVE for limit in _LIMITS]


def tabulate(scale: str, results: dict) -> Table:
    table = Table(
        title=f"A1: loads combined per wide-port access ({scale})",
        columns=["workload"] + [f"max_{n}" for n in _LIMITS],
    )
    for name in MEMORY_INTENSIVE:
        table.add_row(name, *(round(results[(name, limit)].ipc, 3)
                              for limit in _LIMITS))
    table.add_note("max_1 keeps the wide port but allows no sharing; the "
                   "line buffer read cap follows the same limit")
    return table

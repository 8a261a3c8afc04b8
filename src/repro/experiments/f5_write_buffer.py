"""F5 — write buffer depth and store combining.

IPC of the single-ported cache as the write buffer deepens (0 = stores
take a port at commit), with and without same-line store combining.
Measured on the store-heavy workloads where the write path matters.
"""

from __future__ import annotations

from ..presets import machine
from ..stats.report import Table
from .engine import SimJob, TraceSpec

_DEPTHS = (0, 1, 2, 4, 8, 16)
_WORKLOADS = ("memops", "stream", "qsort", "os-mix")


def plan(scale: str = "small") -> list[SimJob]:
    return [SimJob((name, combining, depth),
                   TraceSpec.workload(name, scale),
                   machine("1P", write_buffer_depth=depth,
                           combine_stores=combining and depth > 0))
            for name in _WORKLOADS
            for combining in (False, True)
            for depth in _DEPTHS]


def tabulate(scale: str, results: dict) -> Table:
    columns = ["workload", "combining"]
    columns += [f"depth_{d}" for d in _DEPTHS]
    table = Table(
        title=f"F5: write buffer depth and store combining ({scale})",
        columns=columns,
    )
    for name in _WORKLOADS:
        for combining in (False, True):
            cells: list[object] = [name, combining]
            for depth in _DEPTHS:
                cells.append(round(results[(name, combining, depth)].ipc, 3))
            table.add_row(*cells)
    table.add_note("depth 0: no write buffer — stores claim a port at "
                   "commit and stall it when none is free")
    return table

"""A2 — ablation: line buffer capacity.

One entry (the paper's proposal) already captures spatial reuse within
the most recent line; this sweep measures what 2, 4 or 8 entries add,
and reports the line-buffer service fraction alongside IPC.
"""

from __future__ import annotations

from ..presets import machine
from ..stats.report import Table
from .engine import SimJob, TraceSpec
from .runner import MEMORY_INTENSIVE

_ENTRIES = (1, 2, 4, 8)


def plan(scale: str = "small") -> list[SimJob]:
    machines = {count: machine("1P+LB", line_buffer_entries=count)
                for count in _ENTRIES}
    return [SimJob((name, count), TraceSpec.workload(name, scale),
                   machines[count])
            for name in MEMORY_INTENSIVE for count in _ENTRIES]


def tabulate(scale: str, results: dict) -> Table:
    columns = ["workload"]
    for count in _ENTRIES:
        columns += [f"ipc_e{count}", f"lbfrac_e{count}"]
    table = Table(
        title=f"A2: line buffer entries ({scale})",
        columns=columns,
    )
    for name in MEMORY_INTENSIVE:
        cells: list[object] = [name]
        for count in _ENTRIES:
            result = results[(name, count)]
            stats = result.stats
            loads = stats["lsq.lb_loads"] + stats["lsq.port_loads"] + \
                stats["lsq.sq_forwards"] + stats["lsq.wb_forwards"]
            fraction = stats["lsq.lb_loads"] / loads if loads else 0.0
            cells += [round(result.ipc, 3), round(fraction, 3)]
        table.add_row(*cells)
    return table

"""A5 — extension: next-line prefetch through idle MSHRs.

The same "use otherwise-idle resources" philosophy as the paper's
write-buffer drain, applied to misses: a demand miss also fetches the
next sequential line into a free MSHR.  Helps streaming misses, does
nothing for resident working sets, and can pollute on irregular
workloads — the L2-occupancy model charges the bandwidth cost.
"""

from __future__ import annotations

from ..presets import machine
from ..stats.report import Table
from .engine import SimJob, TraceSpec

_WORKLOADS = ("compress", "stream", "memops", "linked", "os-mix")
_CONFIGS = ("1P", "1P-wide+LB+SC")


def plan(scale: str = "small") -> list[SimJob]:
    machines = {(config, pf): machine(config, prefetch_next_line=True)
                if pf else machine(config)
                for config in _CONFIGS for pf in (False, True)}
    return [SimJob((name, config, pf), TraceSpec.workload(name, scale),
                   machines[(config, pf)])
            for name in _WORKLOADS
            for config in _CONFIGS for pf in (False, True)]


def tabulate(scale: str, results: dict) -> Table:
    columns = ["workload"]
    for config in _CONFIGS:
        columns += [f"{config}", f"{config}+PF"]
    columns += ["prefetches"]
    table = Table(
        title=f"A5: next-line prefetch through idle MSHRs ({scale})",
        columns=columns,
    )
    for name in _WORKLOADS:
        cells: list[object] = [name]
        prefetches = 0
        for config in _CONFIGS:
            base = results[(name, config, False)]
            prefetched = results[(name, config, True)]
            cells += [round(base.ipc, 3), round(prefetched.ipc, 3)]
            prefetches = int(prefetched.stats["dcache.prefetches"])
        cells.append(prefetches)
        table.add_row(*cells)
    table.add_note("+PF = prefetch_next_line enabled; prefetch count from "
                   "the techniques configuration")
    return table

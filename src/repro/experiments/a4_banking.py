"""A4 — extension: banked caches vs buffering techniques vs true ports.

Line-interleaved banking (two address paths into N single-ported
banks) was the era's other cheap alternative to a true dual-ported
array.  This experiment positions it against the paper's single-port
techniques and the true dual port: banking approaches dual-port
performance as conflicts thin out with more banks, but unlike the
techniques it still pays one array access per load.
"""

from __future__ import annotations

from ..presets import (BEST_SINGLE_PORT, DUAL_PORT, EXTENDED_CONFIG_NAMES,
                       machine)
from ..stats.report import Table
from .engine import SimJob, TraceSpec
from .runner import MEMORY_INTENSIVE

_CONFIGS = ("1P", *EXTENDED_CONFIG_NAMES, BEST_SINGLE_PORT, DUAL_PORT)


def plan(scale: str = "small") -> list[SimJob]:
    machines = {name: machine(name) for name in _CONFIGS}
    return [SimJob((name, config), TraceSpec.workload(name, scale),
                   machines[config])
            for name in MEMORY_INTENSIVE for config in _CONFIGS]


def tabulate(scale: str, results: dict) -> Table:
    columns = ["workload"] + [f"ipc_{name}" for name in _CONFIGS] + \
        ["conflicts_4B"]
    table = Table(
        title=f"A4: banked caches vs the paper's techniques ({scale})",
        columns=columns,
    )
    for name in MEMORY_INTENSIVE:
        conflicts = results[(name, "2R-4B")].stats["dcache.bank_conflicts"]
        table.add_row(name,
                      *(round(results[(name, c)].ipc, 3) for c in _CONFIGS),
                      int(conflicts))
    table.add_note("2R-NB = two address paths into N single-ported "
                   "line-interleaved banks; conflicts_4B counts same-bank "
                   "rejections in the 4-bank configuration")
    return table

"""F1 — IPC of every port configuration, per workload.

The evaluation's main figure: one IPC bar per (workload, configuration)
over the full suite plus the multiprogrammed OS mix.
"""

from __future__ import annotations

from ..presets import CONFIG_NAMES, machine
from ..stats.report import Table
from .engine import SimJob, TraceSpec
from .runner import ROW_NAMES


def plan(scale: str = "small") -> list[SimJob]:
    machines = {name: machine(name) for name in CONFIG_NAMES}
    return [SimJob((name, config), TraceSpec.workload(name, scale),
                   machines[config])
            for name in ROW_NAMES for config in CONFIG_NAMES]


def tabulate(scale: str, results: dict) -> Table:
    table = Table(
        title=f"F1: IPC by port configuration ({scale})",
        columns=["workload", *CONFIG_NAMES],
    )
    for name in ROW_NAMES:
        table.add_row(name, *(round(results[(name, config)].ipc, 3)
                              for config in CONFIG_NAMES))
    return table

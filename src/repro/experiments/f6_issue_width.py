"""F6 — sensitivity to issue width.

Port bandwidth matters more as the core gets wider: this sweep runs
2-, 4- and 8-wide cores over the single-port baseline, the
all-techniques single port and the dual-ported cache, and reports the
relative performance at each width.
"""

from __future__ import annotations

from ..presets import BEST_SINGLE_PORT, DUAL_PORT, machine
from ..stats.report import Table
from .engine import SimJob, TraceSpec
from .runner import MEMORY_INTENSIVE, mean

_WIDTHS = (2, 4, 8)
_CONFIGS = ("1P", BEST_SINGLE_PORT, DUAL_PORT)


def plan(scale: str = "small") -> list[SimJob]:
    jobs = []
    for width in _WIDTHS:
        machines = {name: machine(name, width) for name in _CONFIGS}
        jobs += [SimJob((width, name, config),
                        TraceSpec.workload(name, scale), machines[config])
                 for name in MEMORY_INTENSIVE for config in _CONFIGS]
    return jobs


def tabulate(scale: str, results: dict) -> Table:
    columns = ["width"]
    for config in _CONFIGS:
        columns.append(f"ipc_{config}")
    columns += ["1P/2P", "tech/2P"]
    table = Table(
        title=f"F6: issue width sensitivity, memory-intensive mean ({scale})",
        columns=columns,
    )
    for width in _WIDTHS:
        means = {config: mean([results[(width, name, config)].ipc
                               for name in MEMORY_INTENSIVE])
                 for config in _CONFIGS}
        table.add_row(
            width,
            *(round(means[c], 3) for c in _CONFIGS),
            round(means["1P"] / means[DUAL_PORT], 3),
            round(means[BEST_SINGLE_PORT] / means[DUAL_PORT], 3),
        )
    table.add_note(f"rows are means over {MEMORY_INTENSIVE}")
    return table

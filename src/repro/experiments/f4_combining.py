"""F4 — wide-port access combining, by port width.

How much of the load traffic combines into shared port accesses as the
port widens from 8 to 16 to 32 bytes, and what that buys in IPC.
Measured on the combining single-port configuration without a line
buffer so the combining effect is isolated.
"""

from __future__ import annotations

from ..presets import machine
from ..stats.report import Table
from .engine import SimJob, TraceSpec
from .runner import ROW_NAMES

_WIDTHS = (8, 16, 32)


def plan(scale: str = "small") -> list[SimJob]:
    machines = {width: machine("1P-wide", port_width=width)
                for width in _WIDTHS}
    return [SimJob((name, width), TraceSpec.workload(name, scale),
                   machines[width])
            for name in ROW_NAMES for width in _WIDTHS]


def tabulate(scale: str, results: dict) -> Table:
    columns = ["workload"]
    for width in _WIDTHS:
        columns += [f"ipc_w{width}", f"comb_frac_w{width}"]
    table = Table(
        title=f"F4: wide-port access combining ({scale})",
        columns=columns,
    )
    for name in ROW_NAMES:
        cells: list[object] = [name]
        for width in _WIDTHS:
            result = results[(name, width)]
            stats = result.stats
            port_loads = stats["lsq.port_loads"]
            combined = stats["lsq.combined_loads"]
            fraction = combined / port_loads if port_loads else 0.0
            cells += [round(result.ipc, 3), round(fraction, 3)]
        table.add_row(*cells)
    table.add_note("comb_frac = loads sharing another load's port access / "
                   "all port loads; width 8 cannot combine 8-byte loads")
    return table

"""F3 — line buffer effectiveness.

For each workload: the fraction of loads the line buffer services (port
accesses avoided), the resulting IPC gain over the plain single port,
and a comparison of the two fill policies (capture on every access —
the paper's "load all" — vs capture only on miss fills).
"""

from __future__ import annotations

from ..mem.config import LineBufferFill
from ..presets import machine
from ..stats.report import Table
from .engine import SimJob, TraceSpec
from .runner import ROW_NAMES


def plan(scale: str = "small") -> list[SimJob]:
    variants = {
        "1P": machine("1P"),
        "1P+LB": machine("1P+LB"),
        "on-fill": machine("1P+LB",
                           line_buffer_fill=LineBufferFill.ON_FILL),
    }
    return [SimJob((name, label), TraceSpec.workload(name, scale), config)
            for name in ROW_NAMES for label, config in variants.items()]


def tabulate(scale: str, results: dict) -> Table:
    table = Table(
        title=f"F3: line buffer effectiveness ({scale})",
        columns=["workload", "lb_hit_frac", "ipc_1P", "ipc_1P+LB",
                 "speedup", "ipc_fill_policy"],
    )
    for name in ROW_NAMES:
        base = results[(name, "1P")]
        with_lb = results[(name, "1P+LB")]
        on_fill = results[(name, "on-fill")]
        stats = with_lb.stats
        loads = stats["lsq.lb_loads"] + stats["lsq.port_loads"] + \
            stats["lsq.sq_forwards"] + stats["lsq.wb_forwards"]
        lb_fraction = stats["lsq.lb_loads"] / loads if loads else 0.0
        table.add_row(
            name,
            round(lb_fraction, 3),
            round(base.ipc, 3),
            round(with_lb.ipc, 3),
            round(with_lb.ipc / base.ipc, 3),
            round(on_fill.ipc, 3),
        )
    table.add_note("ipc_fill_policy: line buffer filled only by miss fills "
                   "(weaker than the 'load all' on-access policy)")
    return table

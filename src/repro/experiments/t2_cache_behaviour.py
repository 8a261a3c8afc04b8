"""T2 — cache-side behaviour per configuration.

Aggregate D-cache behaviour over the whole suite for each port
configuration: port utilisation, load miss rate, line-buffer service
fraction, write-buffer drain counts.  Confirms the techniques change
*port traffic*, not miss behaviour.
"""

from __future__ import annotations

from ..presets import CONFIG_NAMES, machine
from ..stats.counters import Stats
from ..stats.report import Table
from .engine import SimJob, TraceSpec
from .runner import ROW_NAMES


def plan(scale: str = "small") -> list[SimJob]:
    machines = {config: machine(config) for config in CONFIG_NAMES}
    return [SimJob((config, name), TraceSpec.workload(name, scale),
                   machines[config])
            for config in CONFIG_NAMES for name in ROW_NAMES]


def tabulate(scale: str, results: dict) -> Table:
    table = Table(
        title=f"T2: aggregate D-cache behaviour by configuration ({scale})",
        columns=["config", "port_util", "load_miss_rate", "lb_frac",
                 "wb_drains", "wb_combined", "port_uses"],
    )
    for config_name in CONFIG_NAMES:
        total = Stats()
        cycles = 0
        ports = machine(config_name).mem.dcache.ports
        for name in ROW_NAMES:
            result = results[(config_name, name)]
            total.merge(result.stats)
            cycles += result.cycles
        port_loads = (total["dcache.load_hits"]
                      + total["dcache.load_misses"]
                      + total["dcache.load_secondary_misses"])
        loads_all = port_loads + total["lsq.lb_loads"] + \
            total["lsq.sq_forwards"] + total["lsq.wb_forwards"]
        table.add_row(
            config_name,
            round(total["dcache.port_uses"] / (cycles * ports), 3),
            round(total["dcache.load_misses"] / port_loads
                  if port_loads else 0.0, 3),
            round(total["lsq.lb_loads"] / loads_all if loads_all else 0.0,
                  3),
            int(total["wb.drains"]),
            int(total["wb.combined"]),
            int(total["dcache.port_uses"]),
        )
    table.add_note("aggregated over the full suite incl. the OS mix")
    return table

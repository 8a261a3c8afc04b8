"""D1 — load service latency distribution per configuration.

Beyond average IPC: how each port configuration reshapes the *latency
distribution* a load sees between address-ready and data-ready.  Port
queueing fattens the tail on the plain single port; the line buffer
and combining restore the 1–2 cycle common case without adding ports.
"""

from __future__ import annotations

from ..stats.histogram import Histogram
from ..presets import machine
from ..stats.report import Table
from .engine import SimJob, TraceSpec
from .runner import MEMORY_INTENSIVE

_CONFIGS = ("1P", "1P+LB", "1P-wide+LB+SC", "2P")


def plan(scale: str = "small") -> list[SimJob]:
    machines = {config: machine(config) for config in _CONFIGS}
    return [SimJob((config, name), TraceSpec.workload(name, scale),
                   machines[config])
            for config in _CONFIGS for name in MEMORY_INTENSIVE]


def tabulate(scale: str, results: dict) -> Table:
    table = Table(
        title=f"D1: load service latency distribution ({scale})",
        columns=["config", "mean", "p50", "p90", "p99", "frac<=2cyc"],
    )
    for config_name in _CONFIGS:
        merged = Histogram(config_name)
        for name in MEMORY_INTENSIVE:
            result = results[(config_name, name)]
            assert result.load_latency is not None
            merged.merge(result.load_latency)
        table.add_row(
            config_name,
            round(merged.mean, 2),
            merged.percentile(0.5),
            merged.percentile(0.9),
            merged.percentile(0.99),
            round(merged.fraction_at_most(2), 3),
        )
    table.add_note(f"latency = address-ready to data-ready cycles, pooled "
                   f"over {MEMORY_INTENSIVE}")
    return table

"""A6 — extension: victim cache, and how it composes with the techniques.

A small fully-associative victim cache (Jouppi 1990) attacks conflict
misses; the paper's techniques attack port bandwidth.  This ablation
shows the two are orthogonal: the victim cache helps exactly where
conflict misses exist (compress's dictionary, the OS mix), and its
benefit is preserved — not cannibalised — under the all-techniques
single port.
"""

from __future__ import annotations

from ..presets import machine
from ..stats.report import Table
from .engine import SimJob, TraceSpec

_WORKLOADS = ("compress", "qsort", "stream", "os-mix")
_CONFIGS = ("1P", "1P-wide+LB+SC")
_ENTRIES = 8


def plan(scale: str = "small") -> list[SimJob]:
    machines = {(config, vc): machine(config, victim_entries=_ENTRIES)
                if vc else machine(config)
                for config in _CONFIGS for vc in (False, True)}
    return [SimJob((name, config, vc), TraceSpec.workload(name, scale),
                   machines[(config, vc)])
            for name in _WORKLOADS
            for config in _CONFIGS for vc in (False, True)]


def tabulate(scale: str, results: dict) -> Table:
    columns = ["workload"]
    for config in _CONFIGS:
        columns += [config, f"{config}+VC"]
    columns += ["vc_hits"]
    table = Table(
        title=f"A6: victim cache ({_ENTRIES} entries) composition ({scale})",
        columns=columns,
    )
    for name in _WORKLOADS:
        cells: list[object] = [name]
        hits = 0
        for config in _CONFIGS:
            base = results[(name, config, False)]
            with_vc = results[(name, config, True)]
            cells += [round(base.ipc, 3), round(with_vc.ipc, 3)]
            hits = int(with_vc.stats["victim.hits"])
        cells.append(hits)
        table.add_row(*cells)
    table.add_note("+VC = victim cache enabled; vc_hits from the "
                   "techniques configuration")
    return table

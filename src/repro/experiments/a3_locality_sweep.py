"""A3 — ablation: where the techniques stop working.

Synthetic streams sweeping spatial locality from 0 (random dwords) to 1
(pure streaming).  The line buffer and wide-port combining exploit
spatial locality; at the random end the single port must pay for every
access and the gap to the dual-ported cache cannot be closed.
"""

from __future__ import annotations

from ..presets import BEST_SINGLE_PORT, DUAL_PORT, machine
from ..stats.report import Table
from ..trace.synthetic import SyntheticConfig
from .engine import SimJob, TraceSpec

_LOCALITIES = (0.0, 0.25, 0.5, 0.75, 0.9, 1.0)
_CONFIGS = ("1P", BEST_SINGLE_PORT, DUAL_PORT)
_SEED = 11

_SCALE_PARAMS = {
    # (instructions, working set): the working set shrinks with the
    # instruction budget so cold misses amortise at every scale.
    "tiny": (12_000, 4 * 1024),
    "small": (30_000, 16 * 1024),
    "full": (100_000, 16 * 1024),
}


def plan(scale: str = "small") -> list[SimJob]:
    instructions, working_set = _SCALE_PARAMS[scale]
    machines = {name: machine(name) for name in _CONFIGS}
    jobs = []
    for locality in _LOCALITIES:
        spec = TraceSpec.from_synthetic(SyntheticConfig(
            instructions=instructions,
            seed=_SEED,
            load_fraction=0.35,
            store_fraction=0.15,
            spatial_locality=locality,
            working_set=working_set,
        ))
        jobs += [SimJob((locality, config), spec, machines[config])
                 for config in _CONFIGS]
    return jobs


def tabulate(scale: str, results: dict) -> Table:
    _, working_set = _SCALE_PARAMS[scale]
    table = Table(
        title=f"A3: synthetic spatial-locality sweep ({scale})",
        columns=["locality", "ipc_1P", "ipc_tech", "ipc_2P", "1P/2P",
                 "tech/2P"],
    )
    for locality in _LOCALITIES:
        base = results[(locality, DUAL_PORT)].ipc
        table.add_row(
            locality,
            round(results[(locality, "1P")].ipc, 3),
            round(results[(locality, BEST_SINGLE_PORT)].ipc, 3),
            round(base, 3),
            round(results[(locality, "1P")].ipc / base, 3),
            round(results[(locality, BEST_SINGLE_PORT)].ipc / base, 3),
        )
    table.add_note(f"load 35% / store 15% of instructions; "
                   f"{working_set // 1024} KiB working set (L1-resident) "
                   "so port bandwidth is the constraint")
    return table

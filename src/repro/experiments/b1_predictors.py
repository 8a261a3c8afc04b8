"""B1 — extension: branch predictors on user vs full-system streams.

A companion study in the spirit of the ISCA'96 session: the same
machine with a per-branch 2-bit table vs gshare, on the user-only view
and on the kernel-inclusive trace.  Kernel interleaving perturbs global
history and aliases tables, so the gshare advantage shrinks (or
reverses) once the OS is included — the effect the user-only
methodology hides.
"""

from __future__ import annotations

from dataclasses import replace

from ..presets import DUAL_PORT, machine
from ..stats.report import Table
from .engine import SimJob, TraceSpec

_KINDS = ("twobit", "gshare")
_VIEWS = (("with-kernel", False), ("user-only", True))


def _with_predictor(kind: str):
    base = machine(DUAL_PORT)
    return replace(base, core=replace(base.core, predictor=kind))


def plan(scale: str = "small") -> list[SimJob]:
    machines = {kind: _with_predictor(kind) for kind in _KINDS}
    return [SimJob((label, kind), TraceSpec.os_mix(scale, user_only),
                   machines[kind])
            for label, user_only in _VIEWS for kind in _KINDS]


def tabulate(scale: str, results: dict) -> Table:
    table = Table(
        title=f"B1: predictor accuracy, user-only vs full-system ({scale})",
        columns=["trace", "twobit_acc", "gshare_acc", "twobit_ipc",
                 "gshare_ipc"],
    )
    for label, _user_only in _VIEWS:
        row: list[object] = [label]
        ipcs = []
        for kind in _KINDS:
            result = results[(label, kind)]
            stats = result.stats
            branches = stats["bpred.branches"]
            row.append(round(stats["bpred.correct"] / branches
                             if branches else 1.0, 4))
            ipcs.append(round(result.ipc, 3))
        row += ipcs
        table.add_row(*row)
    return table

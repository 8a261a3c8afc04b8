"""F7 — the effect of including the operating system.

The paper's evaluation pointedly uses "realistic applications that
include the operating system".  This experiment quantifies why that
matters for port studies across three OS-heavy streams — the
multiprogrammed workload mix plus two scenario-corpus entries (the
interrupt-driven ``iostorm`` and the syscall-dense ``syspipe``) — each
traced *with* kernel activity and in the user-only view of the same
execution (kernel records filtered out — the classic user-only-trace
methodology), for OS-activity share, branch behaviour, and the
port-technique benefit.
"""

from __future__ import annotations

from ..presets import BEST_SINGLE_PORT, DUAL_PORT, machine
from ..stats.report import Table
from ..workloads.suite import trace_summary
from .engine import SimJob, TraceSpec

_CONFIGS = ("1P", BEST_SINGLE_PORT, DUAL_PORT)
_VIEWS = (("with-kernel", False), ("user-only", True))

#: The OS-activity streams: the workload mix plus the corpus's
#: interrupt-heavy and syscall-dense scenarios.
STREAMS = ("os-mix", "iostorm", "syspipe")

#: Experiment scales are tiny/small/full; scenarios call their largest
#: scale "medium".
_SCENARIO_SCALE = {"tiny": "tiny", "small": "small", "full": "medium"}


def _spec(stream: str, scale: str, user_only: bool) -> TraceSpec:
    if stream == "os-mix":
        return TraceSpec.os_mix(scale, user_only=user_only)
    return TraceSpec.scenario(stream, _SCENARIO_SCALE[scale],
                              user_only=user_only)


def plan(scale: str = "small") -> list[SimJob]:
    machines = {name: machine(name) for name in _CONFIGS}
    return [SimJob((stream, label, config),
                   _spec(stream, scale, user_only), machines[config])
            for stream in STREAMS
            for label, user_only in _VIEWS
            for config in _CONFIGS]


def _kernel_fraction(stream: str, scale: str) -> float:
    """OS-activity share of the full (with-kernel) stream, read from its
    flags column.  The trace was warmed by the engine, so this is an
    in-memory cache hit that decodes no record."""
    trace = _spec(stream, scale, user_only=False).build()
    return trace_summary(trace)["kernel_fraction"]


def tabulate(scale: str, results: dict) -> Table:
    table = Table(
        title=f"F7: OS inclusion vs user-only tracing ({scale})",
        columns=["stream", "trace", "instructions", "kernel_frac",
                 "bpred_acc", "ipc_1P", "ipc_tech", "ipc_2P", "1P/2P",
                 "tech/2P"],
    )
    for stream in STREAMS:
        kernel_frac = _kernel_fraction(stream, scale)
        for label, user_only in _VIEWS:
            reference = results[(stream, label, DUAL_PORT)]
            stats = reference.stats
            branches = stats["bpred.branches"]
            accuracy = stats["bpred.correct"] / branches if branches \
                else 1.0
            base = reference.ipc
            single = results[(stream, label, "1P")].ipc
            tech = results[(stream, label, BEST_SINGLE_PORT)].ipc
            table.add_row(
                stream,
                label,
                reference.instructions,
                round(0.0 if user_only else kernel_frac, 3),
                round(accuracy, 3),
                round(single, 3),
                round(tech, 3),
                round(base, 3),
                round(single / base, 3),
                round(tech / base, 3),
            )
    table.add_note("user-only = kernel records filtered from the same "
                   "execution (the methodology the paper improves on)")
    table.add_note("kernel_frac = OS-activity share of the full "
                   "stream; iostorm/syspipe are scenario-corpus "
                   "entries (interrupt-heavy / syscall-dense)")
    return table

"""Shared infrastructure for the experiment harness.

Each experiment module in this package regenerates one table or figure
of the evaluation (see ``DESIGN.md``'s experiment index) and exposes::

    plan(scale="small") -> list[repro.experiments.engine.SimJob]
    tabulate(scale, results) -> repro.stats.report.Table
    run(scale="small", engine=None) -> repro.stats.report.Table

``run`` is ``tabulate`` over ``engine.execute(plan(...))`` — the
engine fans the simulation grid across worker processes (see
:mod:`repro.experiments.engine`) while ``tabulate`` stays a pure
function of the results, so parallel runs are byte-identical to serial
ones.  Traces are produced once per (workload, scale) by the workload
suite's two-tier cache, so a grid of machine configurations only pays
for functional simulation once — or never, when the disk tier is warm.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator, Mapping, Sequence
from contextlib import contextmanager
from contextvars import ContextVar

from ..core.config import MachineConfig
from ..core.pipeline import CoreResult, OoOCore
from ..obs.report import build_run_report
from ..presets import DUAL_PORT, STRONG_DUAL_PORT
from ..presets import machine as preset_machine
from ..trace.io import Trace
from ..trace.record import TraceRecord
from ..workloads.suite import SUITE_NAMES, build_os_mix_trace, build_trace

#: Workload row order used by most experiments (suite + the OS mix).
ROW_NAMES = SUITE_NAMES + ("os-mix",)

#: The memory-intensive subset where port bandwidth is first-order.
MEMORY_INTENSIVE = ("linked", "stream", "memops", "os-mix")

#: Configurations that serve as *references* in relative-performance
#: tables; sweep overrides never apply to them unless explicitly
#: requested (see :func:`config_machines`).
REFERENCE_CONFIGS = frozenset({DUAL_PORT, STRONG_DUAL_PORT})


def suite_traces(scale: str = "small",
                 names: Sequence[str] = ROW_NAMES,
                 ) -> dict[str, Trace]:
    """Build (or fetch cached) traces for the requested workloads."""
    traces: dict[str, Trace] = {}
    for name in names:
        if name == "os-mix":
            traces[name] = build_os_mix_trace(scale)
        else:
            traces[name] = build_trace(name, scale)
    return traces


#: When a :func:`capture_reports` block is active in this context,
#: every simulation run through this module appends its machine-readable
#: run report to the block's sink.  A :class:`~contextvars.ContextVar`
#: (not a module global) so concurrent captures — worker threads, the
#: parallel engine's merge barrier — cannot corrupt each other.
_report_sink: ContextVar[list[dict] | None] = ContextVar(
    "repro_report_sink", default=None)


@contextmanager
def capture_reports() -> Iterator[list[dict]]:
    """Collect a run report for every :func:`run_one` in the block.

    Used by ``repro experiment --json`` and the benchmark harness to
    persist perf trajectories without changing experiment signatures.
    The parallel engine appends its workers' reports to the active sink
    at the merge barrier, in deterministic job order.
    """
    sink: list[dict] = []
    token = _report_sink.set(sink)
    try:
        yield sink
    finally:
        _report_sink.reset(token)


def current_report_sink() -> list[dict] | None:
    """The active capture sink, or None outside a capture block."""
    return _report_sink.get()


def run_one(trace: Sequence[TraceRecord],
            machine: MachineConfig,
            metrics_interval: int | None = None) -> CoreResult:
    """Simulate one trace on one machine.

    ``metrics_interval`` turns on interval telemetry (see
    :mod:`repro.obs.metrics`); the captured run report then carries the
    per-interval series under its ``metrics`` key.
    """
    start = time.perf_counter()
    result = OoOCore(machine, metrics_interval=metrics_interval).run(trace)
    sink = _report_sink.get()
    if sink is not None:
        sink.append(build_run_report(
            result, machine, wall_time=time.perf_counter() - start))
    return result


def config_machines(config_names: Iterable[str],
                    issue_width: int = 4,
                    dcache_overrides: Mapping[str, object] | None = None,
                    override_scope: Iterable[str] | None = None,
                    ) -> dict[str, MachineConfig]:
    """Build the machines for a preset-configuration grid.

    ``dcache_overrides`` apply only to the configurations named in
    ``override_scope``; the default scope is every requested
    configuration *except* the ``2P``/``2P+SC`` references, so a sweep
    can never silently distort the baseline it is measured against.
    Pass an explicit scope to override a reference on purpose.
    """
    names = list(config_names)
    overrides = dict(dcache_overrides or {})
    if override_scope is None:
        scope = set(names) - REFERENCE_CONFIGS
    else:
        scope = set(override_scope)
        unknown = scope - set(names)
        if unknown:
            raise ValueError(
                f"override_scope names configs not in the grid: "
                f"{sorted(unknown)}")
    return {name: preset_machine(
                name, issue_width,
                **(overrides if overrides and name in scope else {}))
            for name in names}


def run_configs(trace: Sequence[TraceRecord],
                config_names: Iterable[str],
                issue_width: int = 4,
                dcache_overrides: Mapping[str, object] | None = None,
                override_scope: Iterable[str] | None = None,
                ) -> dict[str, CoreResult]:
    """Simulate one trace across several preset configurations.

    Override scoping follows :func:`config_machines`: reference
    configurations are never modified unless explicitly listed.
    """
    machines = config_machines(config_names, issue_width,
                               dcache_overrides, override_scope)
    return {name: run_one(trace, mach) for name, mach in machines.items()}


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean.  Raises :class:`ValueError` for empty input —
    no experiment legitimately averages zero rows, so an empty sequence
    means a workload row was dropped and must not be masked as 0.0."""
    values = list(values)
    if not values:
        raise ValueError("mean() of an empty sequence — an experiment "
                         "row went missing")
    return sum(values) / len(values)

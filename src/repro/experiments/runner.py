"""Shared infrastructure for the experiment harness.

Each experiment module in this package regenerates one table or figure
of the evaluation (see ``DESIGN.md``'s experiment index) and exposes::

    plan(scale="small") -> list[repro.experiments.engine.SimJob]
    tabulate(scale, results) -> repro.stats.report.Table

:func:`repro.experiments.run_all` joins the plans, runs them in one
:class:`~repro.experiments.engine.Engine` pass — which simulates each
distinct (trace, machine) cell once, across worker processes if asked
— and hands each module its own slice of the results.  ``tabulate``
stays a pure function of the results, so parallel runs are
byte-identical to serial ones.  Traces are produced once per
(workload, scale) by the workload suite's two-tier cache, so a grid of
machine configurations only pays for functional simulation once — or
never, when the disk tier is warm.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..trace.io import Trace
from ..workloads.suite import SUITE_NAMES, build_os_mix_trace, build_trace

#: Workload row order used by most experiments (suite + the OS mix).
ROW_NAMES = SUITE_NAMES + ("os-mix",)

#: The memory-intensive subset where port bandwidth is first-order.
MEMORY_INTENSIVE = ("linked", "stream", "memops", "os-mix")


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


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean.  Raises :class:`ValueError` for empty input —
    no experiment legitimately averages zero rows, so an empty sequence
    means a workload row was dropped and must not be masked as 0.0."""
    values = list(values)
    if not values:
        raise ValueError("mean() of an empty sequence — an experiment "
                         "row went missing")
    return sum(values) / len(values)

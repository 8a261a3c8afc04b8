"""The experiment harness: one module per reproduced table/figure.

``ALL_EXPERIMENTS`` maps experiment ids to their modules, and
``run_all`` regenerates any of them.  Every module follows the same
contract — ``plan(scale)`` returns the simulation grid as
:class:`~repro.experiments.engine.SimJob` objects, and
``tabulate(scale, results)`` is a pure function of the results keyed
as planned.  ``run_all`` plans every requested experiment, runs the
joined grid in one :class:`~repro.experiments.engine.Engine` pass
(serial by default, process parallel with ``jobs > 1``; each distinct
trace-on-machine cell is simulated once, however many experiments
plan it) and lets each module tabulate its own slice; tables are
byte-identical either way.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace
from types import ModuleType

from ..stats.report import Table
from .engine import Engine
from . import (
    a1_combining_window,
    a2_line_buffer_entries,
    a3_locality_sweep,
    a4_banking,
    a5_prefetch,
    a6_victim_cache,
    b1_predictors,
    d1_load_latency,
    f1_ipc_configs,
    f2_headline,
    f3_line_buffer,
    f4_combining,
    f5_write_buffer,
    f6_issue_width,
    f7_os_effect,
    t1_characteristics,
    t2_cache_behaviour,
)

ALL_EXPERIMENTS: dict[str, ModuleType] = {
    "T1": t1_characteristics,
    "F1": f1_ipc_configs,
    "F2": f2_headline,
    "F3": f3_line_buffer,
    "F4": f4_combining,
    "F5": f5_write_buffer,
    "F6": f6_issue_width,
    "T2": t2_cache_behaviour,
    "F7": f7_os_effect,
    "A1": a1_combining_window,
    "A2": a2_line_buffer_entries,
    "A3": a3_locality_sweep,
    "A4": a4_banking,
    "A5": a5_prefetch,
    "A6": a6_victim_cache,
    "B1": b1_predictors,
    "D1": d1_load_latency,
}


def run_all(scale: str = "small", engine: Engine | None = None,
            ids: Iterable[str] | None = None) -> dict[str, Table]:
    """Regenerate the tables named by *ids* (default: every one),
    keyed by id in *ids* order.

    The experiments' plans are joined under ``(id, key)`` keys and run
    in one ``engine.execute`` call, so a cell several experiments plan
    is simulated once; afterwards ``engine.last_reports`` holds every
    planned job's run report under the same keys.  Pass an
    :class:`Engine` to fan the grid across worker processes; the result
    dict is identical to the serial run.
    """
    modules = {exp_id: ALL_EXPERIMENTS[exp_id]
               for exp_id in (ALL_EXPERIMENTS if ids is None else ids)}
    jobs = [replace(job, key=(exp_id, job.key))
            for exp_id, module in modules.items()
            for job in module.plan(scale)]
    results = (engine if engine is not None else Engine()).execute(jobs)
    slices: dict[str, dict] = {exp_id: {} for exp_id in modules}
    for (exp_id, key), result in results.items():
        slices[exp_id][key] = result
    return {exp_id: module.tabulate(scale, slices[exp_id])
            for exp_id, module in modules.items()}


__all__ = ["ALL_EXPERIMENTS", "Engine", "run_all"]

"""Machine-readable run reports (the ``--json`` manifests).

A **run report** describes one timing simulation: configuration,
workload identity (including the generator seed when one applies), the
full counter set, the stall ledger, the load-latency distribution, and
host-side throughput (wall time and simulated instructions per second).
An **experiment manifest** wraps one regenerated table/figure together
with the run reports it was built from, so benchmark harnesses can
persist performance trajectories (``BENCH_*.json`` style) without
scraping rendered tables.

Both documents carry ``schema`` / ``schema_version`` and are validated
by hand-rolled checkers (no external JSON-schema dependency) so CI can
reject drift.  Bump :data:`SCHEMA_VERSION` on any incompatible change
and describe it in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .codeversion import code_version

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.config import MachineConfig
    from ..core.pipeline import CoreResult
    from ..stats.report import Table

#: Version shared by run reports and experiment manifests.
SCHEMA_VERSION = 1

RUN_SCHEMA = f"repro.run/{SCHEMA_VERSION}"
EXPERIMENT_SCHEMA = f"repro.experiment/{SCHEMA_VERSION}"


def _dcache_dict(machine: "MachineConfig") -> dict[str, object]:
    dcache = machine.mem.dcache
    return {
        "ports": dcache.ports,
        "port_width": dcache.port_width,
        "banks": dcache.banks,
        "line_buffer_entries": dcache.line_buffer_entries,
        "combine_loads": dcache.combine_loads,
        "combine_stores": dcache.combine_stores,
        "write_buffer_depth": dcache.write_buffer_depth,
        "mshrs": dcache.mshrs,
    }


def build_run_report(result: "CoreResult", machine: "MachineConfig", *,
                     workload: str | None = None,
                     scale: str | None = None,
                     seed: int | None = None,
                     trace_file: str | None = None,
                     wall_time: float | None = None,
                     violations: list | None = None) -> dict[str, object]:
    """Assemble the versioned JSON document for one simulation.

    ``workload`` names a generated workload; ``trace_file`` records the
    path of a pre-saved trace.  The two are mutually exclusive — a
    simulation driven from a file has ``workload: null``.
    ``violations`` carries the findings of an attached validator (see
    :mod:`repro.validate`); ``None`` means validation did not run.
    """
    if workload is not None and trace_file is not None:
        raise ValueError("a run report names a workload or a trace_file, "
                         "not both")
    sim_ips = (result.instructions / wall_time
               if wall_time else None)
    load_latency = None
    if result.load_latency is not None and result.load_latency.total:
        hist = result.load_latency
        load_latency = {
            "mean": hist.mean,
            "p50": hist.percentile(0.5),
            "p90": hist.percentile(0.9),
            "p99": hist.percentile(0.99),
            "counts": {str(value): count
                       for value, count in hist.as_dict().items()},
        }
    return {
        "schema": RUN_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "code_version": code_version(),
        "config": {
            "name": machine.name,
            "issue_width": machine.core.issue_width,
            "dcache": _dcache_dict(machine),
        },
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "trace_file": trace_file,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ipc": result.ipc,
        "counters": result.stats.as_dict(),
        "fastpath": {
            "used": result.used_fastpath,
            "rejected_reason": result.fastpath_reason,
        },
        "stalls": result.ledger.as_dict() if result.ledger is not None
        else None,
        "load_latency": load_latency,
        "metrics": result.metrics.as_dict()
        if result.metrics is not None else None,
        # Always null, kept for schema stability: the golden check runs
        # once per trace, outside any timing run.
        "digests": None,
        "validation": ({"violations": [v.as_dict() for v in violations]}
                       if violations is not None else None),
        "host": {
            "wall_time_s": wall_time,
            "sim_ips": sim_ips,
        },
    }


def build_experiment_manifest(experiment: str, scale: str, table: "Table",
                              runs: list[dict[str, object]],
                              wall_time: float | None = None,
                              jobs: int | None = None,
                              trace_cache: dict[str, object] | None = None,
                              engine_summary: dict[str, object] | None = None,
                              ) -> dict[str, object]:
    """Wrap one experiment's table and its per-run reports.

    ``jobs`` records the worker count the grid ran with and
    ``trace_cache`` the cache directory and hit/build counters (see
    :func:`repro.workloads.trace_cache_stats`), so a manifest shows
    whether a regeneration was parallel and how much functional
    simulation it actually performed.  ``engine_summary`` embeds the
    engine's post-run fleet summary (``Engine.last_summary``:
    per-worker utilisation, queue wait, slowest jobs, failures).  The
    whole ``engine`` block is host-time content, ignored by ``repro
    compare`` by default.
    """
    engine: dict[str, object] = {"jobs": jobs, "trace_cache": trace_cache}
    if engine_summary is not None:
        engine["summary"] = engine_summary
    return {
        "schema": EXPERIMENT_SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "code_version": code_version(),
        "experiment": experiment,
        "scale": scale,
        "table": table.as_dict(),
        "runs": runs,
        "engine": engine,
        "host": {"wall_time_s": wall_time},
    }


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class SchemaError(ValueError):
    """A manifest failed validation; ``problems`` lists every issue."""

    def __init__(self, problems: list[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


def _check_code_version(document: dict, problems: list[str],
                        context: str) -> None:
    """``code_version`` is optional (pre-stamp manifests lack it) but
    must be a non-empty string when present."""
    if "code_version" not in document:
        return
    value = document["code_version"]
    if not isinstance(value, str) or not value:
        problems.append(f"{context}: code_version must be a non-empty "
                        f"string")


def _require(document: dict, spec: dict[str, type | tuple],
             problems: list[str], context: str) -> None:
    for key, expected in spec.items():
        if key not in document:
            problems.append(f"{context}: missing key {key!r}")
            continue
        value = document[key]
        if not isinstance(value, expected):
            problems.append(
                f"{context}: {key!r} should be "
                f"{getattr(expected, '__name__', expected)}, "
                f"got {type(value).__name__}")


def validate_run_report(report: dict) -> None:
    """Raise :class:`SchemaError` unless *report* is a valid run report."""
    problems: list[str] = []
    if not isinstance(report, dict):
        raise SchemaError(["run report must be an object"])
    _require(report, {
        "schema": str,
        "schema_version": int,
        "config": dict,
        "cycles": int,
        "instructions": int,
        "ipc": (int, float),
        "counters": dict,
        "host": dict,
    }, problems, "run")
    if report.get("schema") not in (None, RUN_SCHEMA):
        problems.append(f"run: schema is {report['schema']!r}, "
                        f"expected {RUN_SCHEMA!r}")
    _check_code_version(report, problems, "run")
    if "seed" in report and report["seed"] is not None and \
            not isinstance(report["seed"], int):
        problems.append("run: seed must be an integer or null")
    for key in ("workload", "scale", "trace_file"):
        if key in report and report[key] is not None and \
                not isinstance(report[key], str):
            problems.append(f"run: {key} must be a string or null")
    if isinstance(report.get("workload"), str) and \
            isinstance(report.get("trace_file"), str):
        problems.append("run: workload and trace_file are mutually "
                        "exclusive")
    config = report.get("config")
    if isinstance(config, dict):
        _require(config, {"name": str, "issue_width": int, "dcache": dict},
                 problems, "run.config")
    fastpath = report.get("fastpath")
    if fastpath is not None:  # optional: pre-PR8 reports lack it
        if not isinstance(fastpath, dict):
            problems.append("run: fastpath must be an object or null")
        else:
            _require(fastpath, {"used": bool}, problems, "run.fastpath")
            reason = fastpath.get("rejected_reason")
            if reason is not None and not isinstance(reason, str):
                problems.append("run.fastpath: rejected_reason must be a "
                                "string or null")
            if fastpath.get("used") is True and isinstance(reason, str):
                problems.append("run.fastpath: used=true cannot carry a "
                                "rejected_reason")
    stalls = report.get("stalls")
    if stalls is not None:
        if not isinstance(stalls, dict):
            problems.append("run: stalls must be an object or null")
        else:
            _require(stalls, {
                "width": int,
                "cycles": int,
                "committed": int,
                "total_slots": int,
                "total_lost": int,
                "lost": dict,
                "timeline": dict,
            }, problems, "run.stalls")
            if not problems and stalls["committed"] + stalls["total_lost"] \
                    != stalls["total_slots"]:
                problems.append("run.stalls: ledger is not conservative")
    metrics = report.get("metrics")
    if metrics is not None:
        if not isinstance(metrics, dict):
            problems.append("run: metrics must be an object or null")
        else:
            _require(metrics, {
                "interval": int,
                "ports": int,
                "n_intervals": int,
                "start_cycle": list,
                "cycles": list,
                "committed": list,
                "ipc": list,
                "port_util": list,
                "counters": dict,
                "occupancy_mean": dict,
                "occupancy": dict,
            }, problems, "run.metrics")
            n = metrics.get("n_intervals")
            if isinstance(n, int):
                for key in ("start_cycle", "cycles", "committed", "ipc",
                            "port_util"):
                    series = metrics.get(key)
                    if isinstance(series, list) and len(series) != n:
                        problems.append(
                            f"run.metrics: {key} has {len(series)} entries "
                            f"for {n} intervals")
            if not problems and isinstance(metrics.get("cycles"), list):
                if sum(metrics["cycles"]) != report.get("cycles"):
                    problems.append("run.metrics: interval cycles do not "
                                    "sum to run cycles")
                if sum(metrics["committed"]) != report.get("instructions"):
                    problems.append("run.metrics: interval committed does "
                                    "not sum to run instructions")
    digests = report.get("digests")
    if digests is not None:  # older documents may carry an object
        if not isinstance(digests, dict):
            problems.append("run: digests must be an object or null")
        else:
            _require(digests, {"registers": str, "memory": str},
                     problems, "run.digests")
    validation = report.get("validation")
    if validation is not None:
        if not isinstance(validation, dict):
            problems.append("run: validation must be an object or null")
        elif not isinstance(validation.get("violations"), list):
            problems.append("run.validation: missing violations list")
        else:
            for index, entry in enumerate(validation["violations"]):
                if not isinstance(entry, dict):
                    problems.append(f"run.validation.violations[{index}]: "
                                    f"must be an object")
                    continue
                _require(entry, {"cycle": int, "check": str,
                                 "detail": str}, problems,
                         f"run.validation.violations[{index}]")
    host = report.get("host")
    if isinstance(host, dict) and "wall_time_s" not in host:
        problems.append("run.host: missing key 'wall_time_s'")
    if problems:
        raise SchemaError(problems)


def validate_experiment_manifest(manifest: dict) -> None:
    """Raise :class:`SchemaError` unless *manifest* is valid; every
    embedded run report is validated too."""
    problems: list[str] = []
    if not isinstance(manifest, dict):
        raise SchemaError(["experiment manifest must be an object"])
    _require(manifest, {
        "schema": str,
        "schema_version": int,
        "experiment": str,
        "scale": str,
        "table": dict,
        "runs": list,
        "host": dict,
    }, problems, "experiment")
    if manifest.get("schema") not in (None, EXPERIMENT_SCHEMA):
        problems.append(f"experiment: schema is {manifest['schema']!r}, "
                        f"expected {EXPERIMENT_SCHEMA!r}")
    _check_code_version(manifest, problems, "experiment")
    table = manifest.get("table")
    if isinstance(table, dict):
        _require(table, {"title": str, "columns": list, "rows": list},
                 problems, "experiment.table")
    engine = manifest.get("engine")
    if engine is not None:
        if not isinstance(engine, dict):
            problems.append("experiment: engine must be an object or null")
        else:
            jobs = engine.get("jobs")
            if jobs is not None and (not isinstance(jobs, int) or jobs < 1):
                problems.append("experiment.engine: jobs must be a "
                                "positive integer or null")
            cache = engine.get("trace_cache")
            if cache is not None and not isinstance(cache, dict):
                problems.append("experiment.engine: trace_cache must be "
                                "an object or null")
            summary = engine.get("summary")
            if summary is not None:
                if not isinstance(summary, dict):
                    problems.append("experiment.engine: summary must be "
                                    "an object or null")
                else:
                    _require(summary, {
                        "elapsed_s": (int, float),
                        "jobs": dict,
                        "workers": list,
                        "slowest": list,
                        "failed": list,
                    }, problems, "experiment.engine.summary")
                    for index, worker in enumerate(
                            summary.get("workers") or ()):
                        if not isinstance(worker, dict):
                            problems.append(
                                f"experiment.engine.summary.workers"
                                f"[{index}]: must be an object")
                            continue
                        _require(worker, {"pid": int, "jobs": int,
                                          "busy_s": (int, float)},
                                 problems,
                                 f"experiment.engine.summary."
                                 f"workers[{index}]")
    for index, run in enumerate(manifest.get("runs") or ()):
        try:
            validate_run_report(run)
        except SchemaError as exc:
            problems.extend(f"runs[{index}].{p}" for p in exc.problems)
    if problems:
        raise SchemaError(problems)

"""Machine-readable run reports (the ``--json`` manifests).

A **run report** describes one timing simulation: configuration,
workload identity (including the generator seed when one applies), the
full counter set, the stall ledger, the load-latency distribution, and
host-side throughput (wall time and simulated instructions per second).
An **experiment manifest** wraps one regenerated table/figure together
with the run reports it was built from, so benchmark harnesses can
persist performance trajectories (``BENCH_*.json`` style) without
scraping rendered tables.

Run reports, critpath and hotspots manifests open with one
:func:`envelope` (schema, version, ``code_version``, configuration and
workload identity).  Every manifest the program reads back is declared
once, as a field spec (:data:`RUN_SPEC`, :data:`EXPERIMENT_SPEC`, and
the critpath, hotspots, bench and fuzz specs beside their builders),
and checked by one walker, :func:`validate`, which reports every
problem as a :class:`SchemaError` and raises nothing else, so CI can
reject drift and bad input fails loudly.  Cross-field checks
(conservation, mutual exclusion) are :class:`Rules` that run once
their fields are well typed.  No external JSON-schema dependency.
Bump :data:`SCHEMA_VERSION` on any incompatible change and describe it
in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .codeversion import code_version
from .stall import CAUSE_ORDER

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.config import MachineConfig
    from ..core.pipeline import CoreResult
    from ..stats.report import Table

#: Version shared by run reports and experiment manifests.
SCHEMA_VERSION = 1

RUN_SCHEMA = f"repro.run/{SCHEMA_VERSION}"
EXPERIMENT_SCHEMA = f"repro.experiment/{SCHEMA_VERSION}"


def envelope(schema: str, version: int, machine: "MachineConfig", *,
             workload: str | None, scale: str | None, seed: int | None,
             trace_file: str | None) -> dict[str, object]:
    """The head every run-shaped document (run report, critpath and
    hotspots manifests) opens with.  ``workload`` names a generated
    workload; ``trace_file`` records the path of a pre-saved trace.
    The two are mutually exclusive: a simulation driven from a file
    has ``workload: null``."""
    if workload is not None and trace_file is not None:
        raise ValueError(f"a {schema} document names a workload or a "
                         f"trace_file, not both")
    dcache = machine.mem.dcache
    return {
        "schema": schema,
        "schema_version": version,
        "code_version": code_version(),
        "config": {
            "name": machine.name,
            "issue_width": machine.core.issue_width,
            "dcache": {
                "ports": dcache.ports,
                "port_width": dcache.port_width,
                "banks": dcache.banks,
                "line_buffer_entries": dcache.line_buffer_entries,
                "combine_loads": dcache.combine_loads,
                "combine_stores": dcache.combine_stores,
                "write_buffer_depth": dcache.write_buffer_depth,
                "mshrs": dcache.mshrs,
            },
        },
        "workload": workload,
        "scale": scale,
        "seed": seed,
        "trace_file": trace_file,
    }


def build_run_report(result: "CoreResult", machine: "MachineConfig", *,
                     workload: str | None = None,
                     scale: str | None = None,
                     seed: int | None = None,
                     trace_file: str | None = None,
                     wall_time: float | None = None,
                     violations: list | None = None) -> dict[str, object]:
    """Assemble the versioned JSON document for one simulation.

    The identity arguments fill the :func:`envelope`.  ``violations``
    carries the findings of an attached validator (see
    :mod:`repro.validate`); ``None`` means validation did not run.
    """
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
        **envelope(RUN_SCHEMA, SCHEMA_VERSION, machine, workload=workload,
                   scale=scale, seed=seed, trace_file=trace_file),
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
# Validation: declarative field specs and one walker
# ----------------------------------------------------------------------
class SchemaError(ValueError):
    """A manifest failed validation; ``problems`` lists every issue."""

    def __init__(self, problems: list[str]) -> None:
        super().__init__("; ".join(problems))
        self.problems = problems


#: A JSON number (``bool`` passes, as it does for ``int``).
NUMBER = (int, float)


@dataclass(frozen=True)
class Opt:
    """A key that may be absent, or null unless ``null=False``; a
    present value must match ``spec``."""

    spec: object
    null: bool = True


@dataclass(frozen=True)
class Check:
    """A value that passes ``test``; ``what`` names it in a problem."""

    test: Callable[[object], bool]
    what: str


@dataclass(frozen=True)
class MapOf:
    """An object of any keys whose values match ``values``; a ``keys``
    :class:`Check` constrains the keys too."""

    values: object
    keys: Check | None = None


class Rules:
    """``spec`` plus cross-field rules.  Each rule takes the value and
    yields problems; rules run only once ``spec`` matched, so they may
    assume every field they read is well typed."""

    __slots__ = ("spec", "rules")

    def __init__(self, spec: object,
                 *rules: Callable[[dict], Iterable[str]]) -> None:
        self.spec = spec
        self.rules = rules


#: A count: a non-negative integer.
COUNT = Check(lambda v: isinstance(v, int) and v >= 0,
              "a non-negative integer")


def const(value: object) -> Check:
    """A field that must equal *value* (a schema tag)."""
    return Check(lambda seen: seen == value, repr(value))


def _typed(value: object, types: type | tuple, path: str,
           problems: list[str]) -> bool:
    if isinstance(value, types):
        return True
    names = " or ".join(t.__name__ for t in types) \
        if isinstance(types, tuple) else types.__name__
    problems.append(f"{path}: should be {names}, got "
                    f"{type(value).__name__}")
    return False


def _walk(value: object, spec: object, path: str,
          problems: list[str]) -> None:
    """Append every way *value* fails *spec* to *problems*.  A spec is
    a dict (an object with those keys; :class:`Opt` marks optional
    ones), ``[spec]`` (a list of it), a type or tuple of types, or a
    :class:`Check`, :class:`MapOf` or :class:`Rules`."""
    if isinstance(spec, Rules):
        before = len(problems)
        _walk(value, spec.spec, path, problems)
        if len(problems) == before:
            for rule in spec.rules:
                problems.extend(f"{path}: {problem}"
                                for problem in rule(value))
    elif isinstance(spec, Check):
        if not spec.test(value):
            scalar = isinstance(value, (str, int, float, type(None)))
            problems.append(f"{path}: should be {spec.what}"
                            + (f", got {value!r}" if scalar else ""))
    elif isinstance(spec, dict):
        if _typed(value, dict, path, problems):
            for key, field in spec.items():
                if isinstance(field, Opt):
                    if key not in value or (value[key] is None
                                            and field.null):
                        continue
                    field = field.spec
                elif key not in value:
                    problems.append(f"{path}: missing key {key!r}")
                    continue
                _walk(value[key], field, f"{path}.{key}", problems)
    elif isinstance(spec, list):
        if _typed(value, list, path, problems):
            for index, item in enumerate(value):
                _walk(item, spec[0], f"{path}[{index}]", problems)
    elif isinstance(spec, MapOf):
        if _typed(value, dict, path, problems):
            for key, item in value.items():
                if spec.keys is not None and not spec.keys.test(key):
                    problems.append(f"{path}: key {key!r} should be "
                                    f"{spec.keys.what}")
                _walk(item, spec.values, f"{path}.{key}", problems)
    else:
        _typed(value, spec, path, problems)


def validate(document: object, spec: object, context: str) -> None:
    """Raise :class:`SchemaError` listing every way *document* fails
    *spec*, each problem located from *context*."""
    problems: list[str] = []
    _walk(document, spec, context, problems)
    if problems:
        raise SchemaError(problems)


def head_spec(schema: str) -> dict[str, object]:
    """The fields every manifest opens with.  ``code_version`` may be
    absent (pre-stamp manifests lack it) but never null or empty."""
    return {
        "schema": const(schema),
        "schema_version": int,
        "code_version": Opt(Check(lambda v: isinstance(v, str) and v != "",
                                  "a non-empty string"), null=False),
    }


def _one_identity(document: dict) -> Iterable[str]:
    if isinstance(document.get("workload"), str) and \
            isinstance(document.get("trace_file"), str):
        yield "workload and trace_file are mutually exclusive"


def envelope_spec(schema: str, fields: dict[str, object],
                  *rules: Callable[[dict], Iterable[str]]) -> Rules:
    """The spec of a run-shaped document: the :func:`envelope` head,
    then *fields*, then ``host`` (whose ``wall_time_s`` is null for
    untimed runs), checked by *rules* and the rule that a document
    names a workload or a trace_file, not both."""
    return Rules({
        **head_spec(schema),
        "config": {"name": str, "issue_width": int, "dcache": dict},
        "workload": Opt(str),
        "scale": Opt(str),
        "seed": Opt(int),
        "trace_file": Opt(str),
        **fields,
        "host": {"wall_time_s": object},
    }, _one_identity, *rules)


#: The stall causes a ledger charges, in report order.
_CAUSES = tuple(cause.value for cause in CAUSE_ORDER)
_CAUSE = Check(frozenset(_CAUSES).__contains__, "a stall cause")


def used_without_reason(used: str, reason: str
                        ) -> Callable[[dict], Iterable[str]]:
    """Rule: a fast-path verdict whose *used* flag is true carries no
    rejection *reason*."""
    def rule(block: dict) -> Iterable[str]:
        if block.get(used) is True and isinstance(block.get(reason), str):
            yield f"{used}=true cannot carry a {reason}"
    return rule


def _conservative(stalls: dict) -> Iterable[str]:
    """Rule: the ledger's totals agree with each other and with its
    per-cause entries, and every cause's timeline sums to its total."""
    if stalls["committed"] + stalls["total_lost"] != stalls["total_slots"]:
        yield "ledger is not conservative"
    if stalls["total_slots"] != stalls["width"] * stalls["cycles"]:
        yield (f"total_slots {stalls['total_slots']} is not width x "
               f"cycles ({stalls['width']} x {stalls['cycles']})")
    lost = stalls["lost"]
    missing = [cause for cause in _CAUSES if cause not in lost]
    if missing:
        yield f"lost lacks the causes {missing}"
    elif sum(lost.values()) != stalls["total_lost"]:
        yield (f"lost slots sum to {sum(lost.values())}, total_lost is "
               f"{stalls['total_lost']}")
    for cause, series in stalls["timeline"].items():
        if sum(series.values()) != lost.get(cause, 0):
            yield (f"timeline[{cause}] sums to {sum(series.values())}, "
                   f"lost[{cause}] is {lost.get(cause, 0)}")


def _series_lengths(metrics: dict) -> Iterable[str]:
    count = metrics["n_intervals"]
    for key in ("start_cycle", "cycles", "committed", "ipc", "port_util"):
        if len(metrics[key]) != count:
            yield f"{key} has {len(metrics[key])} entries for {count} " \
                  f"intervals"


def _stall_cycles(report: dict) -> Iterable[str]:
    stalls = report.get("stalls")
    if stalls is not None and stalls["cycles"] != report["cycles"]:
        yield (f"stalls.cycles is {stalls['cycles']}, the run took "
               f"{report['cycles']}")


def _metrics_sums(report: dict) -> Iterable[str]:
    metrics = report.get("metrics")
    if metrics is None:
        return
    if sum(metrics["cycles"]) != report["cycles"]:
        yield "metrics interval cycles do not sum to run cycles"
    if sum(metrics["committed"]) != report["instructions"]:
        yield "metrics interval committed does not sum to run instructions"


RUN_SPEC = envelope_spec(RUN_SCHEMA, {
    "cycles": int,
    "instructions": int,
    "ipc": NUMBER,
    "counters": dict,
    # Optional blocks: older documents lack ``fastpath``.
    "fastpath": Opt(Rules({"used": bool, "rejected_reason": Opt(str)},
                          used_without_reason("used", "rejected_reason"))),
    "stalls": Opt(Rules({"width": int, "cycles": int, "committed": int,
                         "total_slots": int, "total_lost": int,
                         "lost": MapOf(COUNT, keys=_CAUSE),
                         "timeline": MapOf(MapOf(int), keys=_CAUSE)},
                        _conservative)),
    "metrics": Opt(Rules({
        "interval": int, "ports": int, "n_intervals": int,
        "start_cycle": list, "cycles": [NUMBER], "committed": [NUMBER],
        "ipc": list, "port_util": list, "counters": dict,
        "occupancy_mean": dict, "occupancy": dict}, _series_lengths)),
    # Always null now; older documents carry an object.
    "digests": Opt({"registers": str, "memory": str}),
    "validation": Opt({"violations": [{"cycle": int, "check": str,
                                       "detail": str}]}),
}, _stall_cycles, _metrics_sums)

EXPERIMENT_SPEC = {
    **head_spec(EXPERIMENT_SCHEMA),
    "experiment": str,
    "scale": str,
    "table": {"title": str, "columns": list, "rows": list},
    "runs": [RUN_SPEC],
    "engine": Opt({
        "jobs": Opt(Check(lambda v: type(v) is int and v >= 1,
                          "a positive integer")),
        "trace_cache": Opt(dict),
        "summary": Opt({
            "elapsed_s": NUMBER,
            "jobs": dict,
            "workers": [{"pid": int, "jobs": int, "busy_s": NUMBER}],
            "slowest": list,
            "failed": list,
        }),
    }),
    "host": dict,
}


def validate_run_report(report: dict) -> None:
    """Raise :class:`SchemaError` unless *report* is a valid run report."""
    validate(report, RUN_SPEC, "run")


def validate_experiment_manifest(manifest: dict) -> None:
    """Raise :class:`SchemaError` unless *manifest* is valid; every
    embedded run report is validated too."""
    validate(manifest, EXPERIMENT_SPEC, "experiment")

"""The manifest field specs and their walker.

Every document the program reads back is declared once as a spec and
checked by :func:`repro.obs.report.validate`.  A sweep over one real
document per schema deletes, nulls and retypes every field the spec
declares: each mutation must either validate or raise ``SchemaError``
(never another exception), and a missing or mistyped field is always
rejected.  Every committed manifest and reproducer must validate.
"""

import json
from pathlib import Path

import pytest

from repro.bench.compare import BENCH_SPEC
from repro.core import OoOCore
from repro.experiments.engine import Engine, SimJob, TraceSpec
from repro.obs import (WHATIF_PORT, CritPathRecorder, HotspotRecorder,
                       SchemaError, build_critpath_report,
                       build_experiment_manifest, build_hotspots_report,
                       build_run_report)
from repro.obs.critpath import CRITPATH_SPEC
from repro.obs.hotspots import HOTSPOTS_SPEC
from repro.obs.report import (EXPERIMENT_SPEC, RUN_SPEC, MapOf, Opt, Rules,
                              validate)
from repro.presets import machine
from repro.stats import Table
from repro.trace.fuzz import ARTIFACT_SPEC, load_artifact
from repro.validate import InvariantChecker
from repro.validate.base import Violation
from repro.workloads import build_trace

ROOT = Path(__file__).resolve().parent.parent
COMMITTED_BENCH = sorted(ROOT.glob("BENCH_*.json")) + [
    ROOT / "benchmarks" / "baseline_ci.json"]
CORPUS = sorted((ROOT / "tests" / "corpus").glob("*.repro"))

#: Values of the wrong type for most fields; ``None`` is swept apart.
WRONG = ("x", 7, -1, 1.5, [], {}, True)


@pytest.fixture(scope="module")
def documents():
    """One real document per schema: ``name -> (document, spec)``."""
    config = machine("1P")
    checker = InvariantChecker()
    critpath = CritPathRecorder(whatif=[WHATIF_PORT])
    hotspots = HotspotRecorder()
    result = OoOCore(config, validator=checker, critpath=critpath,
                     hotspots=hotspots,
                     metrics_interval=256).run(build_trace("qsort", "tiny"))
    # One violation and an older document's digests, so the sweep
    # reaches the fields of both blocks.
    run = build_run_report(result, config, workload="qsort", scale="tiny",
                           wall_time=1.0, violations=[
                               Violation(3, "rob.order", "swept")])
    run["digests"] = {"registers": "ab", "memory": "cd"}
    engine = Engine(jobs=1)
    engine.execute([SimJob(name, TraceSpec.workload("stream", "tiny"),
                           machine(name)) for name in ("1P", "2P")])
    runs = list(engine.last_reports.values())
    table = Table(title="T", columns=["config"])
    table.add_row("1P")
    experiment = build_experiment_manifest(
        "F2", "tiny", table, runs, wall_time=1.0, jobs=1, trace_cache={},
        engine_summary=engine.last_summary)
    with open(ROOT / "BENCH_vm_2026-10-18b.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    return {
        "run": (run, RUN_SPEC),
        "experiment": (experiment, EXPERIMENT_SPEC),
        "critpath": (build_critpath_report(
            critpath, result, config, workload="qsort", scale="tiny",
            wall_time=1.0), CRITPATH_SPEC),
        "hotspots": (build_hotspots_report(
            hotspots, result, config, trace_file="qsort.npz",
            wall_time=1.0), HOTSPOTS_SPEC),
        "bench": (bench, BENCH_SPEC),
        "fuzz": (load_artifact(str(CORPUS[0])), ARTIFACT_SPEC),
    }


def _richest(items: list) -> int:
    """Index of the list item holding the most keys (a memory row
    carries ``ports`` and ``stream``)."""
    return max(range(len(items)), key=lambda index: len(items[index])
               if isinstance(items[index], dict) else 0)


def _fields(spec, value, path=()):
    """Yield ``(path, spec, required)`` for every field *spec* declares
    that *value* holds; lists are entered at their richest item and
    maps at their first key."""
    if isinstance(spec, Rules):
        yield from _fields(spec.spec, value, path)
    elif isinstance(spec, dict) and isinstance(value, dict):
        for key, field in spec.items():
            if key not in value:
                continue
            inner = field.spec if isinstance(field, Opt) else field
            yield path + (key,), inner, not isinstance(field, Opt)
            yield from _fields(inner, value[key], path + (key,))
    elif isinstance(spec, list) and isinstance(value, list) and value:
        index = _richest(value)
        yield path + (index,), spec[0], False
        yield from _fields(spec[0], value[index], path + (index,))
    elif isinstance(spec, MapOf) and isinstance(value, dict) and value:
        key = next(iter(value))
        yield path + (key,), spec.values, False
        yield from _fields(spec.values, value[key], path + (key,))


def _mutated(document, path, new=None, delete=False):
    """A copy of *document* with one field replaced or deleted; only
    the containers along *path* are copied."""
    top = dict(document)
    node = top
    for step in path[:-1]:
        node[step] = type(node[step])(node[step])
        node = node[step]
    if delete:
        del node[path[-1]]
    else:
        node[path[-1]] = new
    return top


def _verdict(document, spec) -> bool:
    """True if *document* validates, False on ``SchemaError``; any other
    exception fails the test."""
    try:
        validate(document, spec, "doc")
    except SchemaError:
        return False
    return True


def _mistyped(spec, value) -> bool:
    """Whether *value* can never match *spec*, whatever its content."""
    if isinstance(spec, Rules):
        return _mistyped(spec.spec, value)
    if isinstance(spec, (type, tuple)):
        return not isinstance(value, spec)
    if isinstance(spec, (dict, MapOf)):
        return not isinstance(value, dict)
    if isinstance(spec, list):
        return not isinstance(value, list)
    return False  # a Check: only the no-crash property applies


@pytest.mark.parametrize("name", ["run", "experiment", "critpath",
                                  "hotspots", "bench", "fuzz"])
def test_every_mutation_validates_or_raises_schema_error(documents, name):
    document, spec = documents[name]
    assert _verdict(document, spec)
    fields = list(_fields(spec, document))
    assert len(fields) >= 6
    for path, field, required in fields:
        where = f"{name}: {'.'.join(map(str, path))}"
        deleted = _verdict(_mutated(document, path, delete=True), spec)
        assert not (required and deleted), f"{where} deleted was accepted"
        for new in (None,) + WRONG:
            accepted = _verdict(_mutated(document, path, new), spec)
            if (new is not None or required) and _mistyped(field, new):
                assert not accepted, f"{where} = {new!r} was accepted"


def _at(document, path):
    for step in path:
        document = document[step]
    return document


#: Single-field edits that keep every field well typed but make a
#: document contradict its own counts; each must be rejected.
CONTRADICTIONS = [
    ("run", ("stalls", "lost", "branch"), 7),
    ("run", ("stalls", "lost", "dcache_port"), -1),
    ("run", ("stalls", "cycles"), -1),
    ("run", ("stalls", "width"), 7),
    ("run", ("stalls", "total_slots"), 0),
    ("run", ("stalls", "timeline", "exec", "0"), 1),
    ("critpath", ("stack_share", "dcache_port"), 7),
    ("critpath", ("instructions",), -1),
    ("critpath", ("whatif", 0, "speedup"), -1),
    ("critpath", ("whatif", 0, "predicted_ipc"), -1),
    ("hotspots", ("rows", 0, "stall_total"), 7),
    ("hotspots", ("split", "user", "port_uses"), -1),
    ("hotspots", ("split", "user", "stall_total"), 7),
    ("hotspots", ("split", "user", "port_conflict_slots"), 7),
    ("hotspots", ("split", "kernel", "rows"), 1),
    ("hotspots", ("split", "kernel", "executions"), 1),
]


@pytest.mark.parametrize("name, path, value", CONTRADICTIONS,
                         ids=lambda part: ".".join(map(str, part))
                         if isinstance(part, tuple) else None)
def test_contradicting_counts_are_rejected(documents, name, path, value):
    document, spec = documents[name]
    assert _at(document, path[:-1]).get(path[-1]) != value
    assert not _verdict(_mutated(document, path, value), spec)


def test_rules_wait_for_well_typed_fields(documents):
    report, spec = documents["hotspots"]
    broken = _mutated(report, ("rows", 0, "lsq"), "x")
    with pytest.raises(SchemaError) as excinfo:
        validate(broken, spec, "hotspots")
    assert excinfo.value.problems == [
        "hotspots.rows[0].lsq: should be dict, got str"]


def test_check_and_map_keys_are_named(documents):
    report, spec = documents["critpath"]
    broken = _mutated(report, ("stack",), dict(report["stack"],
                                               fetch=-1, warp=0))
    with pytest.raises(SchemaError) as excinfo:
        validate(broken, spec, "critpath")
    assert excinfo.value.problems == [
        "critpath.stack.fetch: should be a non-negative integer, got -1",
        "critpath.stack: key 'warp' should be an edge class"]


@pytest.mark.parametrize("path", COMMITTED_BENCH,
                         ids=lambda path: path.name)
def test_committed_bench_manifests_validate(path):
    with open(path, encoding="utf-8") as handle:
        validate(json.load(handle), BENCH_SPEC, "bench")


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_committed_reproducers_validate(path):
    load_artifact(str(path))

"""Tests of the end-to-end benchmark on reduced cell lists.

    python3 -m pytest benchmarks/e2e

Outside the tier-1 ``testpaths``: every test here runs the benchmark's
phases for real, on a few small cells, through ``run.run_workload``.
"""

from __future__ import annotations

import copy
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as e2e
import tracing
from cells import WORKLOADS

HERE = Path(__file__).resolve().parent
BENCHMARK_JSON = HERE.parents[1] / "BENCHMARK.json"
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SECONDS = 0.05


def reduced(workload: str, seed: int, *labels: str) -> list:
    """The workload's cells whose label starts with one of *labels*."""
    return [cell for cell in WORKLOADS[workload].cells(seed)
            if cell.label.startswith(labels)]


def port_cells(seed: int = 1) -> list:
    return reduced("port-bound", seed, "memops@small/2P", "synthetic-16k")[:2]


@pytest.fixture(scope="module")
def expected() -> dict:
    return json.loads(e2e.EXPECTED_PATH.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory, expected):
    return e2e.run_workload("port-bound", 1, SECONDS, cells=port_cells(),
                            expected=expected,
                            work_root=tmp_path_factory.mktemp("work"))


def traced_run(tmp_path_factory, expected, workload: str, cells: list):
    out = tmp_path_factory.mktemp("spans") / "spans.json"
    result = e2e.run_workload(workload, 1, SECONDS, trace=True,
                              cells=cells, expected=expected,
                              work_root=tmp_path_factory.mktemp("work"),
                              spans_path=out)
    return result, out


@pytest.fixture(scope="module")
def traced(tmp_path_factory, expected):
    return traced_run(tmp_path_factory, expected, "port-bound", port_cells())


@pytest.fixture(scope="module")
def traced_cold(tmp_path_factory, expected):
    return traced_run(tmp_path_factory, expected, "fullsys-cold",
                      reduced("fullsys-cold", 1, "proctree")[:1])


def test_reduced_cells_mix_pinned_and_seeded():
    cells = port_cells()
    assert [cell.pinned for cell in cells].count(True) == 1
    assert [cell.pinned for cell in cells].count(False) == 1


def test_metric_names_and_units_are_printed(untraced, traced):
    for result, units in ((untraced, e2e.END_TO_END),
                          (traced[0], e2e.PER_LAYER)):
        assert list(result.metrics) == list(units)
        text = "\n".join(e2e.report_lines(result))
        for name, (value, unit) in result.metrics.items():
            assert NAME.fullmatch(name)
            assert unit == units[name]
            assert re.search(rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$",
                             text, re.MULTILINE), name
        summary = result.summary()
        assert set(summary) == {"correct", "attempted", "failed", "metrics"}
        json.dumps(summary, allow_nan=False)


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == e2e.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == e2e.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fail_rate_is_zero(untraced, traced):
    for result in (untraced, traced[0]):
        assert result.attempted > 0
        assert result.failed == 0, result.problems
        assert result.fail_rate == 0
        assert result.summary()["correct"] is True
    assert all(value > 0 for value, _ in untraced.metrics.values())
    assert untraced.metrics["success_rate"][0] == 1.0


def test_a_tampered_pin_fails(tmp_path, expected):
    tampered = copy.deepcopy(expected)
    tampered["cells"]["memops@small/2P"]["cycles"] += 1
    result = e2e.run_workload("port-bound", 1, SECONDS, cells=port_cells(),
                              expected=tampered, work_root=tmp_path)
    assert result.failed > 0
    assert result.fail_rate > 0
    assert result.summary()["correct"] is False
    assert any("memops@small/2P" in problem for problem in result.problems)


@pytest.mark.parametrize("run, layers", [
    ("traced", {"asm.assemble", "func.run", "trace.save", "trace.load",
                "trace.synthetic"}),
    ("traced_cold", {"scenarios.materialize", "scenarios.contract",
                     "asm.assemble", "func.run", "trace.save",
                     "trace.load"}),
])
def test_traced_run_keeps_the_fast_path(run, layers, request):
    result, spans = request.getfixturevalue(run)
    assert result.failed == 0, result.problems
    assert result.metrics["core.fastpath_frac"][0] == 1.0
    assert result.fastpath and all(seen == {True}
                                   for seen in result.fastpath.values())
    events = json.loads(spans.read_text())["traceEvents"]
    names = {event["name"] for event in events if event["ph"] == "B"}
    assert layers | {"core.run", "bench.pass"} <= names
    assert all(event["ts"] >= 0 for event in events)


def test_a_silent_probe_fails(tmp_path, expected, monkeypatch):
    monkeypatch.setattr(tracing, "PROBES", [
        probe for probe in tracing.PROBES if probe[2] != "trace.synthetic"])
    result = e2e.run_workload("port-bound", 1, SECONDS, trace=True,
                              cells=port_cells(), expected=expected,
                              work_root=tmp_path)
    assert any("recorded no span for ['trace.synthetic']" in problem
               for problem in result.problems), result.problems


def test_seed_changes_generated_inputs_only(tmp_path, expected):
    for workload in WORKLOADS.values():
        one, two = workload.cells(1), workload.cells(2)
        pinned = {cell.label for cell in one if cell.pinned}
        assert pinned == {cell.label for cell in two if cell.pinned}
        assert pinned <= set(expected["cells"])
        seeded = ({cell.spec for cell in one if not cell.pinned},
                  {cell.spec for cell in two if not cell.pinned})
        assert seeded[0].isdisjoint(seeded[1])
    for seed in (1, 2):
        for workload, cells in (
                ("port-bound", port_cells(seed)),
                ("fullsys-cold", reduced("fullsys-cold", seed,
                                         "proctree")[:1])):
            result = e2e.run_workload(workload, seed, SECONDS, cells=cells,
                                      expected=expected, work_root=tmp_path)
            assert result.failed == 0, (workload, seed, result.problems)


def test_grid_cells_run_through_the_engine(tmp_path, expected):
    cells = reduced("f2-grid", 1, "memops@tiny", "stream@tiny/2P")
    result = e2e.run_workload("f2-grid", 1, SECONDS, cells=cells,
                              expected=expected, work_root=tmp_path)
    assert result.failed == 0, result.problems
    assert result.metrics["kips"][0] > 0


def test_without_the_simulator_it_fails_without_a_result(tmp_path):
    alone = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, alone,
                    ignore=shutil.ignore_patterns(".work", "out",
                                                  "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload",
         "port-bound", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        check=False)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

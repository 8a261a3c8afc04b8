"""The fast loop's stage table, pinned in bytecodes.

:func:`repro.obs.selfprof.opcode_table` counts, per stage of the cycle
loop, the bytecodes, calls and container builds a run executes, and
the committed instructions.  The counts are exact integers on one
Python minor version, so ``stage_table_pins.json`` pins three tiny
cells with the version they were taken on; the comparison skips on any
other version.  A change that moves a count re-pins the table (run
this file as a script) and says why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.core import pipeline
from repro.core.pipeline import OoOCore
from repro.obs.selfprof import (COMPONENTS, OPCODE_COLUMNS, OTHER,
                                UNATTRIBUTED, opcode_table)
from repro.presets import machine
from repro.workloads import build_trace

PINS_PATH = Path(__file__).with_name("stage_table_pins.json")

#: ``workload@scale/config`` cells, as the pin file names them.
CELLS = ("stream@tiny/1P-wide+LB+SC", "memops@tiny/2P", "qsort@tiny/2P+SC")

PYTHON = f"{sys.version_info.major}.{sys.version_info.minor}"


def cell_table(cell: str, fastpath: bool | None = None) -> dict:
    """The opcode table of one run of *cell*, after an untraced run that
    leaves the trace's precompute in the memo (so the count does not
    depend on what ran before)."""
    workload, rest = cell.split("@")
    scale, config = rest.split("/", 1)
    trace = build_trace(workload, scale)
    OoOCore(machine(config), fastpath=fastpath).run(trace)
    return opcode_table(OoOCore(machine(config), fastpath=fastpath), trace)


@pytest.fixture(autouse=True)
def _bare_core(monkeypatch):
    """The implicit ``REPRO_VALIDATE`` checker would move every run onto
    the reference loop."""
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)


def test_table_is_exact_and_covers_the_run():
    first = cell_table("memops@tiny/2P")
    assert first == cell_table("memops@tiny/2P")
    assert first["instructions"] == len(build_trace("memops", "tiny"))
    stages = first["stages"]
    assert list(stages) == list(COMPONENTS) + [OTHER, UNATTRIBUTED]
    for name in COMPONENTS:
        assert list(stages[name]) == list(OPCODE_COLUMNS)
        assert stages[name]["bytecodes"] > stages[name]["calls"] > 0


def test_callees_are_charged_to_the_calling_stage():
    # The reference loop's own frame holds a handful of bytecodes per
    # stage call; the stage's work runs in the methods it calls.
    table = cell_table("memops@tiny/2P", fastpath=False)
    for name in COMPONENTS:
        assert table["stages"][name]["bytecodes"] > table["instructions"]


def _pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def test_pins_name_the_cells():
    assert sorted(_pins()["cells"]) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_stage_table_matches_pin(cell):
    pins = _pins()
    if pins["python"] != PYTHON:
        pytest.skip(f"pinned on Python {pins['python']}, running {PYTHON}")
    assert cell_table(cell) == pins["cells"][cell]


if __name__ == "__main__":  # pragma: no cover - regenerates the pins
    pipeline._ENV_VALIDATE = False
    document = {"python": PYTHON,
                "cells": {cell: cell_table(cell) for cell in CELLS}}
    PINS_PATH.write_text(json.dumps(document, indent=2) + "\n",
                         encoding="utf-8")
    sys.stdout.write(f"wrote {len(CELLS)} cells to {PINS_PATH}\n")

#!/usr/bin/env python3
"""Regenerate ``expected.json``, the pins the benchmark checks against.

    python3 benchmarks/e2e/pin.py

Pins every seed-independent cell of every workload (cycles,
instructions and a sha256 of its stats and stall ledger, from the fast
cycle loop) and the mean rows of the F2 grid.  Seeded cells need no pin:
each run checks them against the other cycle loop.  Regenerate only in a
change that means to alter simulated results, and say so in it.
"""

from __future__ import annotations

import json
import shutil
import tempfile

import run as e2e
from cells import WORKLOADS
from repro.core.pipeline import OoOCore
from repro.workloads import suite


def pins() -> dict:
    results = {}
    for workload in WORKLOADS.values():
        for cell in workload.cells(1):
            if cell.pinned and cell.label not in results:
                results[cell.label] = OoOCore(
                    e2e.machine(cell.config)).run(cell.spec.build())
    grid = {(cell.spec.name, cell.config): results[cell.label]
            for cell in WORKLOADS["f2-grid"].cells(1)}
    return {"cells": {label: e2e.fingerprint(result)
                      for label, result in sorted(results.items())},
            "f2_means": e2e.f2_means(grid)}


def main() -> int:
    e2e.WORK_ROOT.mkdir(parents=True, exist_ok=True)
    tier = tempfile.mkdtemp(prefix="pin-", dir=e2e.WORK_ROOT)
    suite.set_trace_cache_dir(tier)
    try:
        expected = pins()
    finally:
        suite.set_trace_cache_dir(None)
        shutil.rmtree(tier, ignore_errors=True)
    e2e.EXPECTED_PATH.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"pinned {len(expected['cells'])} cells and the F2 mean rows "
          f"in {e2e.EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

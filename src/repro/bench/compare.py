"""Validation and regression comparison for benchmark manifests.

A benchmark manifest mixes two kinds of content with different
comparison rules:

* **deterministic** content — the matrix itself and each cell's
  simulated ``instructions`` / ``cycles`` / ``ipc`` — must match
  *exactly* between a baseline and a candidate from the same source
  revision.  A mismatch means the simulator's functional behaviour
  changed, which no throughput tolerance should paper over.
* **throughput** content — the per-cell median kIPS — is gated one
  way, because host timing is noisy and faster is never a failure: a
  rate regressed when :func:`throughput_regressed` says so, that is
  when it fell below ``baseline × (1 − tolerance)``.

:func:`compare_bench` reports both halves separately, with the
per-cell kIPS deltas listed through
:func:`repro.obs.compare.compare_documents`, so ``repro bench
--compare`` can exit 1 for "slower" and 2 for "different" (see the
CLI).
"""

from __future__ import annotations

import datetime
import socket
from pathlib import Path

from ..obs.compare import compare_documents, render_comparison
from ..obs.report import (NUMBER, Check, Opt, Rules, head_spec,
                          used_without_reason, validate)
from .harness import BENCH_SCHEMA

#: Relative tolerance ``--compare`` applies to throughput by default.
DEFAULT_TOLERANCE = 0.1


def throughput_regressed(baseline: float, candidate: float,
                         tolerance: float) -> bool:
    """The one throughput verdict: *candidate* regressed when it fell
    more than the relative *tolerance* below *baseline*."""
    return candidate < baseline * (1.0 - tolerance)


def default_bench_path(directory: str | Path = ".") -> Path:
    """The conventional manifest name: ``BENCH_<host>_<date>.json``."""
    stamp = datetime.date.today().isoformat()
    return Path(directory) / f"BENCH_{socket.gethostname()}_{stamp}.json"


_STATS = {
    "values": Check(lambda values: isinstance(values, list) and all(
        isinstance(value, NUMBER) and not isinstance(value, bool)
        for value in values), "a list of numbers"),
    "median": NUMBER,
    "iqr": NUMBER,
}

BENCH_SPEC = {
    **head_spec(BENCH_SCHEMA),
    "mode": Check(lambda mode: mode in ("quick", "full"),
                  "'quick' or 'full'"),
    "settings": {"repeats": int, "warmup": int},
    "matrix": [{"workload": str, "scale": str, "config": str}],
    "results": [Rules({
        "label": str,
        "workload": str,
        "scale": str,
        "config": str,
        "instructions": int,
        "cycles": int,
        "ipc": NUMBER,
        # Optional: older manifests predate the fast path.
        "used_fastpath": Opt(bool, null=False),
        "fastpath_reason": Opt(str),
        "seconds": _STATS,
        "kips": _STATS,
        "cps": NUMBER,
    }, used_without_reason("used_fastpath", "fastpath_reason"))],
    "tracegen": [{"label": str, "instructions": int, "cold_s": NUMBER,
                  "warm_s": NUMBER}],
    "host": dict,
}


def validate_bench_manifest(manifest: dict) -> None:
    """Raise :class:`~repro.obs.report.SchemaError` unless *manifest*
    is a structurally valid ``repro.bench/1`` document."""
    validate(manifest, BENCH_SPEC, "bench")


def _cell_label(cell: dict) -> str:
    return f"{cell.get('workload')}@{cell.get('scale')}" \
           f"/{cell.get('config')}"


def _deterministic_view(manifest: dict,
                        labels: frozenset[str]) -> dict:
    """The exact-match subset of a manifest, restricted to the cell
    labels both sides ran (matrix growth is additive, not a diff)."""
    return {
        "schema": manifest.get("schema"),
        "mode": manifest.get("mode"),
        "matrix": [cell for cell in manifest.get("matrix") or ()
                   if isinstance(cell, dict)
                   and _cell_label(cell) in labels],
        "results": [{key: result.get(key)
                     for key in ("label", "workload", "scale", "config",
                                 "instructions", "cycles", "ipc")}
                    for result in manifest.get("results") or ()
                    if result.get("label") in labels],
    }


def _throughput_view(manifest: dict, labels: frozenset[str]) -> dict:
    """The tolerance-compared subset: per-cell median kIPS."""
    return {"kips": {result["label"]: result["kips"]["median"]
                     for result in manifest.get("results") or ()
                     if result.get("label") in labels}}


def compare_bench(baseline: dict, candidate: dict,
                  tolerance: float = DEFAULT_TOLERANCE) -> dict:
    """Compare two benchmark manifests.

    Returns a report with two embedded ``repro.compare/1`` documents:
    ``deterministic`` (tolerance 0 — simulated results must match
    exactly) and ``throughput`` (the median kIPS deltas beyond
    *tolerance*).  ``throughput_ok`` is false iff some cell's median
    kIPS regressed (:func:`throughput_regressed`); ``ok`` is true iff
    both halves pass.  ``deterministic_ok`` false means the two
    manifests disagree about *what was simulated*, not just how fast.

    Both comparisons cover only the cell labels present in **both**
    manifests: the pinned matrix grows over time, so a cell only the
    candidate ran is reported under ``new_cells`` (and a cell only the
    baseline ran under ``removed_cells``) as a note, never a failure.
    """
    base_labels = {result.get("label")
                   for result in baseline.get("results") or ()}
    cand_labels = {result.get("label")
                   for result in candidate.get("results") or ()}
    common = frozenset(base_labels & cand_labels)
    deterministic = compare_documents(
        _deterministic_view(baseline, common),
        _deterministic_view(candidate, common),
        tolerance=0.0, ignore=frozenset())
    base_view = _throughput_view(baseline, common)
    cand_view = _throughput_view(candidate, common)
    throughput = compare_documents(base_view, cand_view,
                                   tolerance=tolerance,
                                   ignore=frozenset())
    throughput_ok = not any(
        throughput_regressed(base_view["kips"][label],
                             cand_view["kips"][label], tolerance)
        for label in common)
    return {
        "schema": "repro.bench.compare/1",
        "schema_version": 1,
        "tolerance": tolerance,
        "new_cells": sorted(str(label)
                            for label in cand_labels - base_labels),
        "removed_cells": sorted(str(label)
                                for label in base_labels - cand_labels),
        "deterministic": deterministic,
        "throughput": throughput,
        "deterministic_ok": deterministic["equal"],
        "throughput_ok": throughput_ok,
        "ok": deterministic["equal"] and throughput_ok,
    }


def render_bench_comparison(report: dict, label_a: str,
                            label_b: str) -> str:
    """Human-readable rendering of a :func:`compare_bench` report."""
    lines = []
    for label in report.get("new_cells") or ():
        lines.append(f"note: {label} is a new cell (only in {label_b}); "
                     f"not compared")
    for label in report.get("removed_cells") or ():
        lines.append(f"note: {label} only in {label_a}; not compared")
    if report["deterministic_ok"]:
        lines.append("deterministic results: identical")
    else:
        lines.append("deterministic results DIFFER — the two manifests "
                     "did not simulate the same thing:")
        lines.append(render_comparison(report["deterministic"],
                                       label_a, label_b))
    verdict = "within tolerance" if report["throughput_ok"] else \
        "OUT OF TOLERANCE"
    lines.append(f"throughput (tolerance "
                 f"{report['tolerance']:g}): {verdict}")
    lines.append(render_comparison(report["throughput"],
                                   label_a, label_b))
    return "\n".join(lines)

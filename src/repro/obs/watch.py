"""The perf-regression watchdog: gate a fresh manifest on ledger history.

``repro watch`` compares a candidate document — a ``repro.run/1``
report, a ``repro.bench/1`` manifest, or every run embedded in a
``repro.experiment/1`` manifest — against the **median of the last N
ledger entries for the same key** (same bench-cell label, or same
``(trace_digest, config_digest)``), and splits the verdict in the same
two halves as ``repro bench --compare``:

* **determinism** — the candidate's simulated ``instructions`` /
  ``cycles`` / ``ipc`` must match the newest history entry *exactly*;
  a mismatch means the simulator computes something different
  (exit 2 under ``--gate``, never tolerated);
* **throughput** — the candidate's host-side rate (median kIPS per
  bench cell, ``sim_ips`` per run) must not fall more than the
  relative tolerance below the median of the window (exit 1 under
  ``--gate``).

Keys with no history are reported as ``new`` and never gate; a
candidate already in the ledger is excluded from its own baseline.
The rule is :func:`repro.bench.compare.throughput_regressed` and the
tolerance default :data:`repro.bench.compare.DEFAULT_TOLERANCE`, so
the watchdog and ``repro bench --compare`` agree on what counts as a
regression.
"""

from __future__ import annotations

from .ledger import Ledger, detect_kind, manifest_digest, trace_digest_of
from .ledger import config_digest_of

__all__ = ["MIN_HISTORY", "WATCH_SCHEMA", "exit_code", "render_watch",
           "watch_document"]

WATCH_SCHEMA = "repro.watch/1"

#: Minimum number of prior rate samples before the throughput gate is
#: armed.  A median of one sample is just that sample — one noisy
#: historical run must not be able to fail fresh work, so thinner
#: history degrades to an informational "insufficient history" note.
#: Determinism still gates with a single entry: simulated counts are
#: exact, not noisy.
MIN_HISTORY = 2


def _default_tolerance() -> float:
    # Imported lazily: repro.bench imports repro.obs at module scope.
    from ..bench.compare import DEFAULT_TOLERANCE
    return DEFAULT_TOLERANCE


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _check(label: str, history: list[dict], deterministic: dict,
           candidate_rate: float | None, history_rates: list[float],
           tolerance: float, rate_unit: str) -> dict:
    """One key's verdict.  *deterministic* maps field -> (candidate,
    latest) pairs; rates are candidate-vs-window-median."""
    from ..bench.compare import throughput_regressed  # lazy: see above
    check: dict[str, object] = {"label": label,
                                "history": len(history)}
    if not history:
        check["status"] = "new"
        return check
    latest = history[-1]
    mismatches = {
        field: {"candidate": candidate, "baseline": latest[field]}
        for field, candidate in deterministic.items()
        if latest[field] != candidate
    }
    if mismatches:
        check["status"] = "determinism"
        check["mismatches"] = mismatches
        check["baseline_version"] = latest["code_version"]
        return check
    if candidate_rate is None or not history_rates:
        check["status"] = "ok"
        check["note"] = f"no {rate_unit} history to compare"
        return check
    baseline = _median(history_rates)
    check["baseline"] = baseline
    check["candidate"] = candidate_rate
    check["unit"] = rate_unit
    check["ratio"] = (candidate_rate / baseline) if baseline else None
    if len(history_rates) < MIN_HISTORY:
        check["status"] = "ok"
        check["note"] = (
            f"insufficient history ({len(history_rates)} < "
            f"{MIN_HISTORY} entries); not gating")
        return check
    if throughput_regressed(baseline, candidate_rate, tolerance):
        check["status"] = "regression"
    else:
        check["status"] = "ok"
    return check


def _watch_bench(ledger: Ledger, manifest: dict, digest: str,
                 window: int, tolerance: float) -> list[dict]:
    checks = []
    for cell in manifest.get("results") or ():
        history = ledger.bench_history(cell["label"], limit=window,
                                       exclude_digest=digest)
        checks.append(_check(
            cell["label"], history,
            {"instructions": cell["instructions"],
             "cycles": cell["cycles"], "ipc": cell["ipc"]},
            cell["kips"]["median"],
            [entry["kips_median"] for entry in history],
            tolerance, "kIPS"))
    return checks


def _run_label(report: dict) -> str:
    workload = report.get("workload") or report.get("trace_file") \
        or "trace"
    scale = report.get("scale")
    seed = report.get("seed")
    label = f"{workload}@{scale}" if scale else str(workload)
    if seed is not None:
        label += f"#seed{seed}"
    return f"{label}/{report['config']['name']}"


def _watch_run(ledger: Ledger, report: dict, digest: str,
               window: int, tolerance: float) -> dict:
    key = (trace_digest_of(report.get("workload"), report.get("scale"),
                           report.get("seed"), report.get("trace_file")),
           config_digest_of(report["config"]))
    history = ledger.run_history(*key, limit=window,
                                 exclude_digest=digest)
    host = report.get("host") or {}
    return _check(
        _run_label(report), history,
        {"instructions": report["instructions"],
         "cycles": report["cycles"], "ipc": report["ipc"]},
        host.get("sim_ips"),
        [entry["sim_ips"] for entry in history
         if entry["sim_ips"] is not None],
        tolerance, "sim_ips")


def watch_document(ledger: Ledger, document: dict, window: int = 5,
                   tolerance: float | None = None) -> dict:
    """Watch one candidate document against the ledger; returns a
    ``repro.watch/1`` report (see :func:`exit_code` for gating)."""
    if tolerance is None:
        tolerance = _default_tolerance()
    if tolerance < 0:
        raise ValueError("tolerance cannot be negative")
    if window < 1:
        raise ValueError("window must be >= 1")
    kind = detect_kind(document)
    digest = manifest_digest(document)
    if kind == "bench":
        checks = _watch_bench(ledger, document, digest, window,
                              tolerance)
    elif kind == "run":
        checks = [_watch_run(ledger, document, digest, window,
                             tolerance)]
    elif kind == "experiment":
        checks = [_watch_run(ledger, report, digest, window, tolerance)
                  for report in document.get("runs") or ()]
    else:
        raise ValueError(
            "repro watch gates run, experiment, and bench manifests; "
            f"got a {document.get('schema')!r} document")
    statuses = [check["status"] for check in checks]
    determinism_ok = "determinism" not in statuses
    throughput_ok = "regression" not in statuses
    return {
        "schema": WATCH_SCHEMA,
        "schema_version": 1,
        "kind": kind,
        "code_version": document.get("code_version"),
        "window": window,
        "tolerance": tolerance,
        "checks": checks,
        "new": statuses.count("new"),
        "determinism_ok": determinism_ok,
        "throughput_ok": throughput_ok,
        "ok": determinism_ok and throughput_ok,
    }


def exit_code(report: dict) -> int:
    """Gating semantics (mirrors ``repro bench --compare``): 2 for a
    determinism break, 1 for a throughput regression, 0 otherwise."""
    if not report["determinism_ok"]:
        return 2
    if not report["throughput_ok"]:
        return 1
    return 0


def render_watch(report: dict, label: str) -> str:
    """Human-readable rendering of a watch report."""
    lines = [f"watch {label} ({report['kind']}, window "
             f"{report['window']}, tolerance {report['tolerance']:g}):"]
    for check in report["checks"]:
        status = check["status"]
        if status == "new":
            lines.append(f"  {check['label']:<32} NEW (no history)")
        elif status == "determinism":
            fields = ", ".join(
                f"{field} {entry['baseline']!r} -> "
                f"{entry['candidate']!r}"
                for field, entry in sorted(check["mismatches"].items()))
            lines.append(f"  {check['label']:<32} DETERMINISM BREAK vs "
                         f"{check['baseline_version']}: {fields}")
        elif status == "regression":
            lines.append(
                f"  {check['label']:<32} REGRESSION "
                f"{check['candidate']:.1f} vs median "
                f"{check['baseline']:.1f} {check['unit']} "
                f"(x{check['ratio']:.2f})")
        elif "ratio" in check:
            detail = check.get("note") or f"{check['history']} entries"
            lines.append(
                f"  {check['label']:<32} ok x{check['ratio']:.2f} "
                f"({check['candidate']:.1f} vs "
                f"{check['baseline']:.1f} {check['unit']}, "
                f"{detail})")
        else:
            lines.append(f"  {check['label']:<32} ok "
                         f"({check.get('note', 'no rate history')})")
    verdict = ("ok" if report["ok"] else
               "DETERMINISM BREAK" if not report["determinism_ok"]
               else "THROUGHPUT REGRESSION")
    lines.append(f"verdict: {verdict} ({len(report['checks'])} checks, "
                 f"{report['new']} new)")
    return "\n".join(lines)

"""Corpus-wide co-execution verification.

For every scenario × scale cell this harness runs four checks and folds
them into one pass/fail table:

1. **contract** — the functional run must satisfy the scenario's
   expected-results contract (per-process exit codes, memory-region
   digests, console bytes), all predicted by the pure-Python reference
   model without executing the ISA.
2. **golden** (once per trace) — :func:`~repro.validate.golden_check`:
   every trace column must equal a fresh run's, every record's static
   columns the ISA decoder's, and the fresh run's end digests the
   functional run's.
3. **invariants** (per machine config) — the reference cycle loop runs
   the trace with an :class:`~repro.validate.InvariantChecker`
   attached; zero violations are tolerated.  Its ``rob.order`` and
   ``drain.commit_count`` checks prove every record committed once, in
   order.
4. **fastpath** (per machine config) — the fast cycle loop must produce
   a byte-identical :class:`~repro.core.pipeline.CoreResult` view
   (cycles, stats, stall ledger, load-latency histogram) to check 3's
   reference-loop run, or to a bare reference run where that one
   raised (:func:`repro.validate.fastpath_divergence`).

``repro corpus verify`` drives :func:`verify_corpus`; CI's
``corpus-smoke`` job runs it at tiny scale under ``REPRO_VALIDATE=1``.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..core.pipeline import OoOCore
from ..presets import machine
from ..stats.report import Table
from ..validate import (InvariantChecker, Violation, fastpath_divergence,
                        golden_check)
from . import SCENARIO_NAMES, SCENARIOS
from .runtime import check_contract, run_scenario

#: Machine configurations every corpus cell is verified on: the paper's
#: single-port baseline, the dual-port upper bound, and the best
#: single-port technique stack.
CORPUS_CONFIGS = ("1P", "2P", "1P-wide+LB+SC")


def verify_scenario(name: str, scale: str, seed: int | None = None,
                    configs: Sequence[str] = CORPUS_CONFIGS,
                    ) -> list[dict]:
    """Run all checks for one scenario × scale cell.

    Returns one row dict per check: ``{"scenario", "scale", "seed",
    "check", "config", "status", "detail"}`` with status ``"pass"`` or
    ``"FAIL"``.
    """
    spec = SCENARIOS[name]
    rows: list[dict] = []

    def row(check: str, config: str, detail: str | None) -> None:
        rows.append({"scenario": name, "scale": scale, "seed": used_seed,
                     "check": check, "config": config,
                     "status": "FAIL" if detail else "pass",
                     "detail": detail or ""})

    used_seed = spec.default_seed if seed is None else int(seed)
    try:
        build, run = run_scenario(spec, scale, seed=seed,
                                  collect_trace=True, check=False)
    except Exception as exc:
        row("contract", "-", f"{type(exc).__name__}: {exc}")
        return rows
    problems = check_contract(build, run)
    row("contract", "-", "; ".join(problems) or None)
    if problems:
        # A trace that violates its own contract is not a valid input
        # for the timing checks; report the cell and stop here.
        return rows
    trace = run.result.trace
    try:
        detail = _summary(golden_check(trace, build, run.digests))
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"
    row("golden", "-", detail)

    for config in configs:
        checker = InvariantChecker()
        checked = None
        try:
            checked = OoOCore(machine(config),
                              validator=checker).run(trace)
            detail = _summary(checker.violations)
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
        row("invariants", config, detail)
        try:
            detail = fastpath_divergence(config, trace, checked=checked)
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
        row("fastpath", config, detail)
    return rows


def _summary(violations: list[Violation]) -> str | None:
    """A row's failure detail for *violations*, None when there are
    none."""
    if not violations:
        return None
    return f"{len(violations)} violation(s); first: {violations[0]}"


def verify_corpus(scale: str = "tiny",
                  names: Sequence[str] | None = None,
                  seed: int | None = None,
                  configs: Sequence[str] = CORPUS_CONFIGS,
                  progress=None) -> tuple[Table, bool]:
    """Verify every scenario (or *names*) at *scale*.

    Returns the pass/fail table and an overall ok flag.  *progress*
    (a callable taking one string) gets a line per scenario as cells
    complete.
    """
    table = Table(
        title=f"Scenario corpus verification ({scale})",
        columns=["scenario", "scale", "seed", "check", "config",
                 "status", "detail"],
    )
    ok = True
    for name in (names if names is not None else SCENARIO_NAMES):
        rows = verify_scenario(name, scale, seed=seed, configs=configs)
        failed = sum(1 for r in rows if r["status"] != "pass")
        ok = ok and not failed
        for r in rows:
            table.add_row(r["scenario"], r["scale"], r["seed"],
                          r["check"], r["config"], r["status"],
                          r["detail"])
        if progress is not None:
            verdict = f"{failed} FAILED" if failed else "ok"
            progress(f"{name:>10s} @ {scale}: {len(rows)} checks, "
                     f"{verdict}")
    checks = len(table.rows)
    failed_total = sum(1 for status in table.column("status")
                       if status != "pass")
    table.add_note(f"{checks} checks, {checks - failed_total} passed, "
                   f"{failed_total} failed; configs: "
                   + ", ".join(configs))
    table.add_note("checks: contract (functional run vs reference "
                   "model), golden (the trace vs a fresh run and the "
                   "ISA decoder, once per trace), invariants (every "
                   "record committed once, in order; microarchitectural "
                   "invariants), fastpath (byte-identical fast loop)")
    return table, ok

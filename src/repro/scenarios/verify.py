"""Corpus-wide co-execution verification.

For every scenario × scale cell this harness runs three independent
checks and folds them into one pass/fail table:

1. **contract** — the functional run must satisfy the scenario's
   expected-results contract (per-process exit codes, memory-region
   digests, console bytes), all predicted by the pure-Python reference
   model without executing the ISA.
2. **golden+invariants** (per machine config) — the timing core replays
   the trace with a :class:`~repro.validate.SystemGoldenChecker` +
   :class:`~repro.validate.InvariantChecker` suite attached; zero
   violations are tolerated, and the golden model's architectural end
   digests must equal the functional run's.
3. **fastpath** (per machine config) — the fast cycle loop must produce
   a byte-identical :class:`~repro.core.pipeline.CoreResult` view
   (cycles, stats, stall ledger, load-latency histogram) to check 2's
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
from ..validate import (
    InvariantChecker,
    SystemGoldenChecker,
    ValidationSuite,
    fastpath_divergence,
)
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

    checked = {}
    for config in configs:
        golden = SystemGoldenChecker(build.programs,
                                     timer_interval=build.timer_interval,
                                     trace=trace)
        suite = ValidationSuite([golden, InvariantChecker()])
        detail: str | None = None
        try:
            checked[config] = OoOCore(machine(config),
                                      validator=suite).run(trace)
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
        if detail is None and not suite.ok:
            first = suite.all_violations[0]
            detail = (f"{len(suite.all_violations)} violation(s); "
                      f"first: {first}")
        if detail is None and golden.digests() != run.digests:
            detail = "golden digests diverge from the functional run"
        row("golden+invariants", config, detail)

    for config in configs:
        try:
            detail = fastpath_divergence(config, trace,
                                         checked=checked.get(config))
        except Exception as exc:
            detail = f"{type(exc).__name__}: {exc}"
        row("fastpath", config, detail)
    return rows


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
                   "model), golden+invariants (lock-step replay + "
                   "microarchitectural invariants), fastpath "
                   "(byte-identical fast loop)")
    return table, ok

"""Validator plumbing shared by the golden-model and invariant checkers.

A :class:`Validator` is a probe recorder (see :mod:`repro.obs.probe`)
on :class:`repro.core.pipeline.OoOCore`: a checker defines the events it
checks — ``commit`` per committed instruction, ``load_serviced`` per
serviced load, ``cycle_end`` per cycle and ``run_end`` once at drain.
Events carry ints: a checker looks an instruction up by ``seq`` in the
trace ``run_begin`` hands it, tests the one occupancy sample
``cycle_end`` carries, and otherwise reads the machine through its
public surface (the LSQ's queues, the D-cache's non-counting probes,
:meth:`~repro.core.pipeline.OoOCore.in_flight`).

Violations are collected (bounded) and fired as the probe's
``violation`` event, so an attached tracer writes them into the same
JSONL stream as the rest of the run.  ``strict=True`` turns the first
violation into a :class:`ValidationError` so CI fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..func.exceptions import SimError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.pipeline import OoOCore
    from ..obs.probe import Probe
    from ..trace.io import Trace

#: Default cap on collected violations — a broken invariant usually
#: fires every cycle, and the first few instances carry all the signal.
MAX_VIOLATIONS = 100


@dataclass(frozen=True)
class Violation:
    """One observed rule break."""

    cycle: int
    check: str
    detail: str

    def as_dict(self) -> dict[str, object]:
        return {"cycle": self.cycle, "check": self.check,
                "detail": self.detail}

    def __str__(self) -> str:
        return f"[cycle {self.cycle}] {self.check}: {self.detail}"


class ValidationError(SimError):
    """Raised by a strict validator on the first violation."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(str(violation))
        self.violation = violation


class Validator:
    """Base class: violation bookkeeping; one validator checks one
    run."""

    served = False

    def __init__(self, strict: bool = False,
                 max_violations: int = MAX_VIOLATIONS) -> None:
        self.strict = strict
        self.max_violations = max_violations
        self.violations: list[Violation] = []
        self._probe: "Probe | None" = None

    def run_begin(self, core: "OoOCore", trace: "Trace") -> None:
        """Probe event: violations go out through *core*'s probe."""
        self._probe = core.probe

    def digests(self) -> dict[str, str] | None:
        """Architectural end-state digests, when the validator tracks
        them (the golden checker does; invariant checking does not)."""
        return None

    # -- reporting -----------------------------------------------------
    def report(self, cycle: int, check: str, detail: str) -> None:
        """Record one violation (raises in strict mode)."""
        violation = Violation(cycle, check, detail)
        if self.strict:
            raise ValidationError(violation)
        if len(self.violations) >= self.max_violations:
            return
        self.violations.append(violation)
        if self._probe is not None:
            self._probe.violation(cycle, check, detail)

    @property
    def ok(self) -> bool:
        return not self.violations


class ValidationSuite(Validator):
    """Several validators as one: the core attaches each child to its
    probe, and the suite aggregates their results."""

    def __init__(self, children: list[Validator]) -> None:
        super().__init__()
        self.children = list(children)

    def digests(self) -> dict[str, str] | None:
        for child in self.children:
            digests = child.digests()
            if digests is not None:
                return digests
        return None

    @property
    def all_violations(self) -> list[Violation]:
        collected = list(self.violations)
        for child in self.children:
            collected.extend(child.violations)
        return collected

    @property
    def ok(self) -> bool:
        return all(child.ok for child in self.children)

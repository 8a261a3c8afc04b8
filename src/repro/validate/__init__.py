"""Validation: the golden check, invariant checking, the fast-path
differential.

:func:`golden_check` proves once per trace that the trace is what its
program does (a fresh run, the ISA decoder, the end digests).  The
:class:`InvariantChecker` is a probe recorder that proves per run that
the core commits every record once, in order, and breaks no structural
rule: it reads instructions by ``seq`` from the run's trace and machine
state from the per-cycle occupancy sample and the machine's public
surface.  The fast-path differential runs a trace through both cycle
loops and names the result fields where they differ
(:mod:`repro.validate.differential`).  See ``docs/VALIDATION.md`` for
the invariant catalogue and workflow.
"""

from .base import MAX_VIOLATIONS, ValidationError, Validator, Violation
from .differential import (differential_views, fastpath_divergence,
                           result_view)
from .golden import golden_check
from .invariants import InvariantChecker

__all__ = [
    "MAX_VIOLATIONS",
    "InvariantChecker",
    "ValidationError",
    "Validator",
    "Violation",
    "differential_views",
    "fastpath_divergence",
    "golden_check",
    "result_view",
]

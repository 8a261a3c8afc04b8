"""Differential validation: golden-model replay, invariant checking.

Checkers are probe recorders: they read instructions by ``seq`` from the
run's trace and machine state from the per-cycle occupancy sample and
the machine's public surface.  The fast-path differential runs a trace
through both cycle loops and names the result fields where they differ
(:mod:`repro.validate.differential`).  See ``docs/VALIDATION.md`` for
the invariant catalogue and workflow.
"""

from .base import (MAX_VIOLATIONS, ValidationError, ValidationSuite,
                   Validator, Violation)
from .differential import (differential_views, fastpath_divergence,
                           result_view)
from .golden import GoldenChecker, SystemGoldenChecker
from .invariants import InvariantChecker

__all__ = [
    "MAX_VIOLATIONS",
    "GoldenChecker",
    "InvariantChecker",
    "SystemGoldenChecker",
    "ValidationError",
    "ValidationSuite",
    "Validator",
    "Violation",
    "differential_views",
    "fastpath_divergence",
    "result_view",
]

"""Differential validation: golden-model replay, invariant checking.

Checkers are probe recorders: they read instructions by ``seq`` from the
run's trace and machine state from the per-cycle occupancy sample and
the machine's public surface.  See ``docs/VALIDATION.md`` for the
invariant catalogue and workflow.
"""

from .base import (MAX_VIOLATIONS, ValidationError, ValidationSuite,
                   Validator, Violation)
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
]

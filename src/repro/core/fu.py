"""Functional unit pool with pipelined and unpipelined units, indexed
by opclass index (the trace's ``opclass`` column, which the reference
loop's ``Uop`` carries)."""

from __future__ import annotations

from ..isa import OpClass
from ..stats.counters import Stats
from ..trace.io import OPCLASSES
from .config import FUSpec


class FUPool:
    """Tracks per-cycle functional unit availability.

    Pipelined classes accept up to ``count`` new operations per cycle.
    Unpipelined classes (divides) hold a unit for the full latency.
    Units are indexed by opclass index (into
    :data:`repro.trace.io.OPCLASSES`), so issue never hashes an enum.
    """

    def __init__(self, specs: dict[OpClass, FUSpec],
                 stats: Stats | None = None) -> None:
        self.specs = specs
        self.stats = stats if stats is not None else Stats()
        self._specs = [specs.get(opclass) for opclass in OPCLASSES]
        self._ops = [f"fu.{opclass.value}.ops" for opclass in OPCLASSES]
        self._stalls = [f"fu.{opclass.value}.structural_stalls"
                        for opclass in OPCLASSES]
        self._issued_this_cycle = [0] * len(OPCLASSES)
        self._busy_until: list[list[int] | None] = [
            None if spec is None or spec.pipelined else []
            for spec in self._specs]

    def begin_cycle(self, cycle: int) -> None:
        self._issued_this_cycle = [0] * len(OPCLASSES)

    def try_issue(self, opclass: int, cycle: int) -> int | None:
        """Claim a unit of opclass index *opclass*; returns the
        completion cycle, or None if busy."""
        spec = self._specs[opclass]
        used = self._issued_this_cycle[opclass]
        if used >= spec.count:
            self.stats.inc(self._stalls[opclass])
            return None
        busy = self._busy_until[opclass]
        if busy is not None:
            busy[:] = [t for t in busy if t > cycle]
            if len(busy) >= spec.count:
                self.stats.inc(self._stalls[opclass])
                return None
            busy.append(cycle + spec.latency)
        self._issued_this_cycle[opclass] = used + 1
        self.stats.inc(self._ops[opclass])
        return cycle + spec.latency

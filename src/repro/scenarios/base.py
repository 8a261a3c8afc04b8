"""Scenario contracts: seeded OS-heavy workloads with expected results.

A *scenario* is a seeded, parameterized generator of a multi-process
workload that runs under the mini-OS (:mod:`repro.kernel`).  Unlike the
single-program workloads in :mod:`repro.workloads`, a scenario composes
several generated programs — process trees, I/O storms, syscall
pipelines — and ships a machine-checkable **expected-results contract**
computed by a pure-Python reference model that never touches the
functional interpreter:

* the per-process exit codes,
* the exact console byte stream (or, for scenarios where several
  processes interleave atomic writes, a byte histogram — each
  ``sys_write`` is atomic because the kernel runs with interrupts
  disabled, but the chunk *order* depends on scheduling),
* named memory regions with the SHA-256 of their expected end-of-run
  bytes.

The contract is what lets :mod:`repro.scenarios.verify` tie the timing
core to the reference model: the functional run must land on exactly
these exit codes and bytes, the golden check proves the trace is that
run's retirement stream, and the invariant checker proves each timing
run commits every record of it once, in order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

#: 64-bit wrap-around mask shared by the asm generators and their
#: Python reference models.
MASK64 = (1 << 64) - 1

#: The LCG used by every scenario generator (fits in 35 bits so ``li``
#: stays cheap; same constants as java.util.Random's multiplier).
LCG_MUL = 25214903917
LCG_INC = 11


def lcg(x: int) -> int:
    """One step of the shared generator LCG (64-bit wrap)."""
    return (x * LCG_MUL + LCG_INC) & MASK64


def derive_seed(seed: int, slot: int, salt: int = 0) -> int:
    """A per-process 30-bit seed derived from the scenario seed.

    Kept below 31 bits so ``li`` needs no long-constant expansion and
    the assembly generators can embed it as an immediate.
    """
    x = (seed * 2654435761 + slot * 40503 + salt * 7919 + 1) & MASK64
    x = lcg(lcg(x))
    return (x >> 17) & 0x3FFF_FFFF or 1


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass(frozen=True)
class MemRegion:
    """Expected end-of-run contents of one physical memory range."""

    name: str
    address: int
    length: int
    sha256: str

    @staticmethod
    def of(name: str, address: int, data: bytes) -> "MemRegion":
        return MemRegion(name, address, len(data), sha256_bytes(data))


@dataclass(frozen=True)
class ExpectedResults:
    """The machine-checkable contract a scenario run must satisfy.

    ``console_sha256``/``console_length`` pin the exact console byte
    stream; ``console_counts`` instead pins the per-byte histogram for
    scenarios whose atomic write chunks interleave in schedule order.
    Exactly one of the two console forms is set (or neither, for
    silent scenarios).
    """

    exit_codes: tuple[int, ...]
    regions: tuple[MemRegion, ...] = ()
    console_sha256: str | None = None
    console_length: int | None = None
    console_counts: dict[int, int] | None = None

    @staticmethod
    def exact_console(exit_codes, regions, console: bytes,
                      ) -> "ExpectedResults":
        return ExpectedResults(tuple(exit_codes), tuple(regions),
                               console_sha256=sha256_bytes(console),
                               console_length=len(console))

    @staticmethod
    def counted_console(exit_codes, regions, counts: dict[int, int],
                        ) -> "ExpectedResults":
        return ExpectedResults(tuple(exit_codes), tuple(regions),
                               console_counts=dict(counts))

    def digest(self) -> str:
        """A stable digest of the whole contract (for reports)."""
        hasher = hashlib.sha256()
        hasher.update(repr(self.exit_codes).encode())
        for region in self.regions:
            hasher.update(
                f"{region.name}@{region.address:#x}+{region.length}:"
                f"{region.sha256}".encode())
        hasher.update(repr(self.console_sha256).encode())
        hasher.update(repr(self.console_length).encode())
        if self.console_counts is not None:
            hasher.update(repr(sorted(self.console_counts.items())).encode())
        return hasher.hexdigest()[:12]


@dataclass(frozen=True)
class ScenarioSpec:
    """One registered scenario family.

    ``programs(seed=..., **params)`` returns ``[(label, source), ...]``
    — one generated assembly program per process slot, in slot order.
    ``expected(seed=..., **params)`` returns the
    :class:`ExpectedResults` contract from the pure-Python reference
    model.  Every scale's params include ``timer`` (the preemption
    interval) and ``max_instructions`` (the functional run budget).
    """

    name: str
    description: str
    tags: tuple[str, ...]
    default_seed: int
    programs: Callable[..., list[tuple[str, str]]]
    expected: Callable[..., ExpectedResults]
    #: Parameter presets, smallest first: tiny / small / medium.
    scales: dict[str, dict[str, int]] = field(default_factory=dict)

    def params(self, scale: str) -> dict[str, int]:
        try:
            return dict(self.scales[scale])
        except KeyError:
            raise ValueError(
                f"scenario {self.name!r} has no scale {scale!r}; "
                f"choose from {sorted(self.scales)}") from None

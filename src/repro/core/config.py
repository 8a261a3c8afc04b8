"""Configuration of the dynamic superscalar timing core."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..isa import OpClass
from ..mem.config import MemSystemConfig
from .bpred import PREDICTOR_KINDS


@dataclass(frozen=True)
class FUSpec:
    """One functional-unit class: how many, how slow, pipelined or not."""

    count: int
    latency: int
    pipelined: bool = True

    def __post_init__(self) -> None:
        if self.count < 1 or self.latency < 1:
            raise ValueError("FU count and latency must be positive")


def default_fu_specs() -> dict[OpClass, FUSpec]:
    """A mid-90s 4-issue machine (R10000-flavoured latencies).

    Compute resources are provisioned generously (ALU/AGU counts match
    the issue width) so that — as in the paper's experimental setup —
    the data cache port subsystem, not the functional unit pool, is the
    structural bottleneck under study.
    """
    return {
        OpClass.ALU: FUSpec(count=4, latency=1),
        OpClass.BRANCH: FUSpec(count=2, latency=1),
        OpClass.JUMP: FUSpec(count=2, latency=1),
        OpClass.MUL: FUSpec(count=2, latency=4),
        OpClass.DIV: FUSpec(count=1, latency=20, pipelined=False),
        OpClass.FP_ADD: FUSpec(count=2, latency=2),
        OpClass.FP_MUL: FUSpec(count=2, latency=4),
        OpClass.FP_DIV: FUSpec(count=1, latency=19, pipelined=False),
        OpClass.SYSTEM: FUSpec(count=1, latency=1),
        # LOAD/STORE use the address-generation units:
        OpClass.LOAD: FUSpec(count=4, latency=1),
        OpClass.STORE: FUSpec(count=4, latency=1),
    }


@dataclass(frozen=True)
class CoreConfig:
    """The dynamic superscalar processor."""

    fetch_width: int = 4
    dispatch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    rob_size: int = 64
    iq_size: int = 32
    lq_size: int = 16
    sq_size: int = 16
    fetch_queue_size: int = 16
    max_combine: int = 4          # loads merged into one wide-port access
    fu_specs: dict[OpClass, FUSpec] = field(default_factory=default_fu_specs)
    predictor: str = "twobit"     # direction predictor: "twobit" or "gshare"

    def __post_init__(self) -> None:
        for name in ("fetch_width", "dispatch_width", "issue_width",
                     "commit_width", "rob_size", "iq_size", "lq_size",
                     "sq_size", "fetch_queue_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        missing = set(OpClass) - set(self.fu_specs)
        if missing:
            raise ValueError(f"fu_specs missing classes: {missing}")
        if self.predictor not in PREDICTOR_KINDS:
            raise ValueError(f"unknown predictor kind {self.predictor!r}")


@dataclass(frozen=True)
class MachineConfig:
    """A complete machine: core + memory hierarchy."""

    name: str = "machine"
    core: CoreConfig = field(default_factory=CoreConfig)
    mem: MemSystemConfig = field(default_factory=MemSystemConfig)

"""The dynamic superscalar timing core (the paper's host machine)."""

from .bpred import BTB, BranchPredictor, GShare, TwoBitCounters
from .config import (
    CoreConfig,
    FUSpec,
    MachineConfig,
    default_fu_specs,
)
from .fu import FUPool
from .lsq import LoadStoreQueue
from .pipeline import CoreResult, OoOCore, simulate
from .uop import Uop

__all__ = [
    "BTB",
    "BranchPredictor",
    "GShare",
    "TwoBitCounters",
    "CoreConfig",
    "FUSpec",
    "MachineConfig",
    "default_fu_specs",
    "FUPool",
    "LoadStoreQueue",
    "CoreResult",
    "OoOCore",
    "simulate",
    "Uop",
]

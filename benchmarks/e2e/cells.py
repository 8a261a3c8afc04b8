"""The five workloads of the end-to-end benchmark and the cells they run.

A *cell* is one timing simulation: a trace (named by an engine
:class:`~repro.experiments.engine.TraceSpec`, so it is built through the
workload suite's two-tier cache exactly as ``repro`` builds it) on one
preset machine configuration.  The benchmark seed reaches the simulator
only through the traces it generates (synthetic and scenario seeds) and
through the order of configurations within each trace; seed-independent
cells are pinned in ``expected.json``.

Sizes are chosen so one run of any workload stays near 15-20 s on a
2-vCPU host (see README.md for the scales and why they differ from the
full-scale suite).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.experiments import f2_headline
from repro.experiments.engine import TraceSpec
from repro.scenarios import SCENARIOS
from repro.scenarios.base import derive_seed
from repro.trace.synthetic import SyntheticConfig

#: Instructions per synthetic trace; about the size of the suite traces
#: it runs beside.
SYNTHETIC_INSTRUCTIONS = 20_000
#: Scale of the ``f2-grid`` workload's headline grid.
F2_SCALE = "tiny"


@dataclass(frozen=True)
class Cell:
    """One simulation: *spec*'s trace on the preset machine *config*."""

    spec: TraceSpec
    config: str

    @property
    def pinned(self) -> bool:
        """Seed-independent cells are pinned in ``expected.json``; seeded
        ones are checked against the other cycle loop instead."""
        return self.spec.seed is None

    @property
    def label(self) -> str:
        return f"{trace_label(self.spec)}/{self.config}"


def trace_label(spec: TraceSpec) -> str:
    """Short, unique-per-workload name of a trace."""
    if spec.kind == "synthetic":
        config = spec.synthetic
        return f"synthetic-{config.working_set // 1024}k#{config.seed}"
    label = f"{spec.name}@{spec.scale}"
    return label if spec.seed is None else f"{label}#{spec.seed}"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``mode`` picks how a timed pass runs: ``warm`` simulates held traces
    on the fast loop, ``cold`` rebuilds every trace from empty cache
    tiers first, ``grid`` fans the cells out through the experiment
    engine, and ``instrumented`` attaches every recorder (which selects
    the reference loop).
    """

    name: str
    why: str
    mode: str
    cells: Callable[[int], list[Cell]]


def _grouped(seed: int, specs: list[TraceSpec],
             configs: tuple[str, ...]) -> list[Cell]:
    """Every spec on every config, configs in a seed-shuffled order.

    Traces keep their order and their cells stay together: the fast
    loop memoises its trace precompute for the last few traces, so
    shuffling traces would make throughput and peak memory depend on the
    seed through which precomputes are alive, not through the inputs.
    """
    rng = random.Random(seed)
    cells = []
    for spec in specs:
        order = list(configs)
        rng.shuffle(order)
        cells.extend(Cell(spec, config) for config in order)
    return cells


def _port_bound(seed: int) -> list[Cell]:
    synthetic = SyntheticConfig(
        instructions=SYNTHETIC_INSTRUCTIONS, seed=seed, load_fraction=0.30,
        store_fraction=0.15, spatial_locality=0.7, working_set=16 * 1024)
    specs = [TraceSpec.workload("stream", "small"),
             TraceSpec.workload("memops", "small"),
             TraceSpec.from_synthetic(synthetic)]
    return _grouped(seed, specs, ("1P", "1P-wide+LB+SC", "2P"))


def _control_bound(seed: int) -> list[Cell]:
    synthetic = SyntheticConfig(
        instructions=SYNTHETIC_INSTRUCTIONS, seed=seed, taken_fraction=0.4,
        working_set=256 * 1024)
    specs = [TraceSpec.workload("qsort", "small"),
             TraceSpec.workload("compress", "small"),
             TraceSpec.workload("bintree", "tiny"),
             TraceSpec.from_synthetic(synthetic)]
    return _grouped(seed, specs, ("1P", "2P+SC"))


def _fullsys_cold(seed: int) -> list[Cell]:
    specs = [TraceSpec.scenario(name, "tiny", seed=derive_seed(seed, slot))
             for slot, name in enumerate(sorted(SCENARIOS))]
    return _grouped(seed, specs, ("1P-wide+LB+SC", "2P"))


def _f2_grid(seed: int) -> list[Cell]:
    plan = f2_headline.plan(F2_SCALE)
    rows = list(dict.fromkeys(job.trace for job in plan))
    configs = tuple(dict.fromkeys(job.machine.name for job in plan))
    return _grouped(seed, rows, configs)


def _instrumented(seed: int) -> list[Cell]:
    specs = [TraceSpec.workload("stream", "small"),
             TraceSpec.workload("qsort", "tiny"),
             TraceSpec.scenario("iostorm", "tiny", seed=derive_seed(seed, 0))]
    return _grouped(seed, specs, ("1P", "1P-wide+LB+SC"))


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("port-bound",
             "most D-cache port uses per instruction, L1-resident; line "
             "buffer and load/store combining all active",
             "warm", _port_bound),
    Workload("control-bound",
             "branchy code and a 256 KB working set; the port mechanism is "
             "nearly idle, so port-model changes should not move it",
             "warm", _control_bound),
    Workload("fullsys-cold",
             "five OS scenarios built from empty trace tiers each pass; "
             "functional co-execution and contract checks dominate",
             "cold", _fullsys_cold),
    Workload("f2-grid",
             "the paper's 60-cell headline grid through the experiment "
             "engine with 2 workers, every cell a first run",
             "grid", _f2_grid),
    Workload("instrumented",
             "metrics, critpath, hotspots and invariant checker attached: "
             "the reference cycle loop the fast-loop numbers never see",
             "instrumented", _instrumented),
)}

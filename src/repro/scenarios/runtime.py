"""Building, running, and contract-checking scenario systems.

This module turns a :class:`~repro.scenarios.base.ScenarioSpec` into a
bootable mini-OS system, runs it on the functional interpreter, and
checks the run against the scenario's expected-results contract.
:func:`generate` produces the per-process sources alone — all a trace
cache key needs — and :func:`materialize` assembles them and runs the
expected-results model, so a cache hit never assembles.  It
deliberately does **not** import the workload suite — trace caching for
scenarios lives in :func:`repro.workloads.suite.build_scenario_trace`,
which layers the two-tier cache on top of :func:`run_scenario`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..func.exceptions import SimError
from ..isa import Program
from ..kernel import assemble_user, build_system
from ..kernel.image import System, SystemRunResult, boot
from .base import ExpectedResults, ScenarioSpec, sha256_bytes


@dataclass(frozen=True)
class ScenarioSource:
    """A scenario's generated per-process sources, before assembly."""

    name: str
    scale: str
    seed: int
    params: dict
    labels: tuple[str, ...]
    sources: tuple[str, ...]


@dataclass(frozen=True)
class ScenarioBuild:
    """A fully materialised scenario: programs + contract."""

    name: str
    scale: str
    seed: int
    params: dict
    labels: tuple[str, ...]
    sources: tuple[str, ...]
    programs: tuple[Program, ...]
    expected: ExpectedResults

    @property
    def timer_interval(self) -> int:
        return int(self.params["timer"])

    @property
    def max_instructions(self) -> int:
        return int(self.params["max_instructions"])


@dataclass
class ScenarioRun:
    """Outcome of one functional scenario run."""

    result: SystemRunResult
    system: System
    #: Architectural end-state digests of the functional run — the
    #: values a lock-step golden replay of the trace must reproduce.
    digests: dict[str, str]


def generate(spec: ScenarioSpec, scale: str, seed: int | None = None,
             overrides: dict | None = None) -> ScenarioSource:
    """Resolve a scenario's parameters (rejecting unknown *overrides*)
    and generate its per-process sources."""
    seed = spec.default_seed if seed is None else int(seed)
    params = spec.params(scale)
    if overrides:
        unknown = set(overrides) - set(params)
        if unknown:
            raise ValueError(f"scenario {spec.name!r} has no parameter(s) "
                             f"{sorted(unknown)}")
        params.update(overrides)
    generated = spec.programs(seed=seed, **params)
    return ScenarioSource(name=spec.name, scale=scale, seed=seed,
                          params=params,
                          labels=tuple(label for label, _ in generated),
                          sources=tuple(source for _, source in generated))


def materialize(spec: ScenarioSpec, scale: str, seed: int | None = None,
                overrides: dict | None = None,
                source: ScenarioSource | None = None) -> ScenarioBuild:
    """Generate and assemble a scenario's programs and contract.  A
    caller that already has the :func:`generate` result for these
    arguments passes it as *source*, which skips generation."""
    if source is None:
        source = generate(spec, scale, seed, overrides)
    programs = tuple(
        assemble_user(text, slot=slot, source_name=f"<{label}>")
        for slot, (label, text) in enumerate(zip(source.labels,
                                                  source.sources)))
    expected = spec.expected(seed=source.seed, **source.params)
    if len(expected.exit_codes) != len(programs):
        raise SimError(
            f"scenario {spec.name!r}: reference model predicts "
            f"{len(expected.exit_codes)} exit codes for {len(programs)} "
            f"processes")
    return ScenarioBuild(name=spec.name, scale=scale, seed=source.seed,
                         params=source.params, labels=source.labels,
                         sources=source.sources, programs=programs,
                         expected=expected)


def run_build(build: ScenarioBuild,
              collect_trace: bool = False) -> ScenarioRun:
    """Boot and run a materialised scenario on the functional
    interpreter; returns the run plus the live :class:`System` (for
    memory-region checks) and the end-state digests."""
    system = build_system(list(build.programs), build.timer_interval)
    result, interp = boot(system, build.max_instructions, collect_trace)
    digests = {"registers": interp.state.digest(),
               "memory": system.memory.content_digest()}
    return ScenarioRun(result=result, system=system, digests=digests)


def check_contract(build: ScenarioBuild, run: ScenarioRun) -> list[str]:
    """Compare a functional run against the scenario contract.

    Returns a list of human-readable violations (empty == pass).
    """
    expected = build.expected
    problems: list[str] = []
    actual_exits = tuple(run.result.process_exit_codes)
    if actual_exits != expected.exit_codes:
        problems.append(
            f"exit codes {list(actual_exits)} != expected "
            f"{list(expected.exit_codes)}")
    console = bytes(run.system.console.output)
    if expected.console_sha256 is not None:
        if len(console) != expected.console_length:
            problems.append(
                f"console length {len(console)} != expected "
                f"{expected.console_length}")
        elif sha256_bytes(console) != expected.console_sha256:
            problems.append("console bytes diverge from the reference "
                            "(length matches, content does not)")
    if expected.console_counts is not None:
        counts: dict[int, int] = {}
        for value in console:
            counts[value] = counts.get(value, 0) + 1
        if counts != expected.console_counts:
            problems.append(
                f"console byte histogram {_fmt_counts(counts)} != "
                f"expected {_fmt_counts(expected.console_counts)}")
    for region in expected.regions:
        data = run.system.memory.read_bytes(region.address, region.length)
        if sha256_bytes(data) != region.sha256:
            problems.append(
                f"memory region {region.name!r} "
                f"({region.address:#x}+{region.length}B) diverges from "
                f"the reference model")
    return problems


def _fmt_counts(counts: dict[int, int]) -> str:
    items = sorted(counts.items())
    body = ", ".join(f"{value:#04x}*{count}" for value, count in items[:8])
    if len(items) > 8:
        body += f", ... ({len(items)} byte values)"
    return "{" + body + "}"


def run_scenario(spec: ScenarioSpec, scale: str, seed: int | None = None,
                 overrides: dict | None = None,
                 collect_trace: bool = False,
                 check: bool = True) -> tuple[ScenarioBuild, ScenarioRun]:
    """Materialise, run, and (by default) contract-check a scenario.

    Raises :class:`SimError` on contract violations when *check* is
    set — a scenario whose reference model disagrees with its own
    execution must never produce a trace.
    """
    build = materialize(spec, scale, seed, overrides)
    run = run_build(build, collect_trace=collect_trace)
    if check:
        problems = check_contract(build, run)
        if problems:
            raise SimError(
                f"scenario {spec.name!r} ({scale}, seed {build.seed}) "
                f"violated its contract: " + "; ".join(problems))
    return build, run

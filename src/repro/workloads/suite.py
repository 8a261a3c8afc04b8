"""The workload suite: registry, trace building, and the OS mix.

Every workload is an assembly program that verifies its own result and
exits with a checksum; :func:`build_trace` runs it on the functional
simulator, asserts the checksum, and returns the dynamic trace the
timing core consumes.  Traces are cached in two tiers so a grid of
machine configurations reuses one functional run:

* an in-process dictionary (as before), and
* a persistent on-disk tier (``~/.cache/repro-traces`` by default,
  overridable with ``REPRO_TRACE_CACHE`` / ``repro ... --trace-cache``)
  shared by parallel experiment workers and by repeat runs — a warm
  cache skips functional simulation entirely.

Disk entries are keyed by (workload, scale, content digest, trace
format version): the digest covers the generated assembly source, the
build parameters and the source of the trace producer (assembler, ISA,
functional simulator, column gather), so editing a workload generator
or the producer, or bumping ``trace.io.FORMAT_VERSION``, invalidates
stale entries instead of silently serving them.  Disk I/O failures
degrade to memory-only caching, and an unreadable or malformed entry is
rebuilt; neither ever fails a run.

Both tiers hold :class:`~repro.trace.io.Trace` objects, and neither
does per-record work: a fresh build is the functional simulator's own
columnar trace (its records decode with their instructions), a disk hit
is the file's columns.
"""

from __future__ import annotations

import functools
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ..asm import assemble
from ..func.exceptions import SimError
from ..func.run import run_bare
from ..kernel import assemble_user, run_system
from ..obs import spans as obs_spans
from ..trace import io as trace_io
from ..trace.io import Trace
from ..trace.record import TraceRecord
from . import (
    bintree,
    compress,
    linkedlist,
    matmul,
    memops,
    qsort,
    spmv,
    stream,
    wordcount,
)

_MODULES = (stream, memops, qsort, compress, linkedlist, matmul,
            wordcount, bintree, spmv)


@dataclass(frozen=True)
class WorkloadSpec:
    """One registered workload."""

    name: str
    description: str
    tags: tuple[str, ...]
    source: Callable[..., str]
    expected_exit: Callable[..., int]
    #: Parameter presets, smallest first: "tiny" (tests), "small"
    #: (benchmarks), "full" (examples / longer runs).
    scales: dict[str, dict[str, int]] = field(default_factory=dict)

    def params(self, scale: str) -> dict[str, int]:
        try:
            return self.scales[scale]
        except KeyError:
            raise ValueError(
                f"workload {self.name!r} has no scale {scale!r}; "
                f"choose from {sorted(self.scales)}") from None


_SCALES: dict[str, dict[str, dict[str, int]]] = {
    "stream": {
        "tiny": {"n": 128, "reps": 3},
        "small": {"n": 512, "reps": 12},
        "full": {"n": 2048, "reps": 24},
    },
    "memops": {
        "tiny": {"n": 256, "reps": 2},
        "small": {"n": 1024, "reps": 8},
        "full": {"n": 4096, "reps": 16},
    },
    "qsort": {
        "tiny": {"n": 64},
        "small": {"n": 300},
        "full": {"n": 1200},
    },
    "compress": {
        "tiny": {"length": 300},
        "small": {"length": 1500},
        "full": {"length": 3500},
    },
    "linked": {
        "tiny": {"n": 64, "rounds": 3},
        "small": {"n": 512, "rounds": 6},
        "full": {"n": 2048, "rounds": 10},
    },
    "matmul": {
        "tiny": {"n": 8},
        "small": {"n": 16},
        "full": {"n": 28},
    },
    "wc": {
        "tiny": {"words": 150},
        "small": {"words": 600},
        "full": {"words": 2500},
    },
    "bintree": {
        "tiny": {"n": 64, "queries": 128},
        "small": {"n": 200, "queries": 500},
        "full": {"n": 1200, "queries": 4000},
    },
    "spmv": {
        "tiny": {"rows": 24, "per_row": 6},
        "small": {"rows": 64, "per_row": 8},
        "full": {"rows": 150, "per_row": 12},
    },
}


def _build_registry() -> dict[str, WorkloadSpec]:
    registry: dict[str, WorkloadSpec] = {}
    for module in _MODULES:
        name = module.NAME
        registry[name] = WorkloadSpec(
            name=name,
            description=module.DESCRIPTION,
            tags=tuple(module.TAGS),
            source=module.source,
            expected_exit=module.expected_exit,
            scales=_SCALES[name],
        )
    return registry


#: All registered single-program workloads, keyed by name.
WORKLOADS: dict[str, WorkloadSpec] = _build_registry()

#: The default evaluation suite, in presentation order.
SUITE_NAMES = ("compress", "wc", "qsort", "bintree", "linked", "spmv",
               "stream", "memops", "matmul")

_trace_cache: dict[tuple, Trace] = {}

#: Values of ``REPRO_TRACE_CACHE`` (or ``--trace-cache``) that disable
#: the disk tier.
_DISABLE_VALUES = frozenset({"", "0", "off", "none"})

#: Sentinel distinguishing "never configured" from "explicitly None".
_UNSET = object()

_disk_dir: object = _UNSET

_cache_stats = {"memory_hits": 0, "disk_hits": 0, "builds": 0}


def _default_cache_dir() -> Path | None:
    env = os.environ.get("REPRO_TRACE_CACHE")
    if env is not None:
        if env.strip().lower() in _DISABLE_VALUES:
            return None
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-traces"


def trace_cache_dir() -> Path | None:
    """The disk cache directory, or None when the disk tier is off."""
    global _disk_dir
    if _disk_dir is _UNSET:
        _disk_dir = _default_cache_dir()
    return _disk_dir  # type: ignore[return-value]


def set_trace_cache_dir(path: str | os.PathLike | None) -> Path | None:
    """Point the disk tier at *path* (None or an off-value disables it).

    Returns the resolved directory.  Parallel experiment workers call
    this so every process shares the parent's setting.
    """
    global _disk_dir
    if path is None or (isinstance(path, str)
                        and path.strip().lower() in _DISABLE_VALUES):
        _disk_dir = None
    else:
        _disk_dir = Path(path).expanduser()
    return _disk_dir


def trace_cache_stats() -> dict[str, int]:
    """Cache-tier counters since process start (copy): ``memory_hits``,
    ``disk_hits``, and ``builds`` (functional simulations performed)."""
    return dict(_cache_stats)


def clear_trace_cache() -> None:
    """Drop all in-memory cached traces (tests use this to bound
    memory).  The disk tier is unaffected."""
    _trace_cache.clear()


def content_digest(*parts: str) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()[:12]


@functools.lru_cache(maxsize=1)
def _kernel_fingerprint() -> str:
    """Digest of the mini-OS source.  Kernel instructions appear in
    every full-system trace, so kernel edits must invalidate cached
    os-mix and scenario traces."""
    from ..kernel.source import kernel_source
    return content_digest(kernel_source())


@functools.lru_cache(maxsize=1)
def _producer_fingerprint() -> str:
    """Digest of the trace producer's source — the assembler, the ISA,
    the functional simulator and the column gather — so an edit to it
    invalidates cached suite, os-mix and scenario traces (as the
    generator fingerprint does for synthetic ones)."""
    from .. import asm, func, isa
    paths = [path for package in (asm, func, isa)
             for path in sorted(Path(package.__file__).parent.glob("*.py"))]
    paths.append(Path(trace_io.__file__))
    return content_digest(*(path.read_text() for path in paths))


def cached_trace(label: str, digest: str,
                 build: Callable[[], Trace]) -> Trace:
    """Two-tier trace lookup: memory, then disk, then *build*.

    *label* names the entry (it becomes part of the filename); *digest*
    must cover everything that determines the trace's content.  New
    builds are written to the disk tier atomically so concurrent
    workers never observe a torn file.
    """
    key = (label, digest)
    cached = _trace_cache.get(key)
    if cached is not None:
        _cache_stats["memory_hits"] += 1
        return cached
    recorder = obs_spans.current()
    directory = trace_cache_dir()
    path = None
    if directory is not None:
        path = directory / \
            f"{label}-{digest}.v{trace_io.FORMAT_VERSION}.npz"
        try:
            if path.exists():
                if recorder is None:
                    trace = trace_io.load_trace(path)
                else:
                    with recorder.span("trace.load", "workload",
                                       label=label):
                        trace = trace_io.load_trace(path)
                _cache_stats["disk_hits"] += 1
                _trace_cache[key] = trace
                return trace
        except (OSError, ValueError):
            pass  # unreadable/stale entry: rebuild and overwrite
    if recorder is None:
        trace = build()
    else:
        with recorder.span("trace.build", "workload", label=label):
            trace = build()
    _cache_stats["builds"] += 1
    _trace_cache[key] = trace
    if path is not None:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if recorder is None:
                trace_io.save_trace_atomic(path, trace)
            else:
                with recorder.span("trace.save", "workload",
                                   label=label):
                    trace_io.save_trace_atomic(path, trace)
        except OSError:
            pass  # unwritable cache never fails the run
    return trace


def build_trace(name: str, scale: str = "small",
                max_instructions: int = 3_000_000) -> Trace:
    """Functionally execute a workload and return its verified trace."""
    spec = WORKLOADS[name]
    params = spec.params(scale)
    source = spec.source(**params)

    def build() -> Trace:
        program = assemble(source, source_name=f"<{name}>")
        result = run_bare(program, max_instructions=max_instructions,
                          collect_trace=True)
        expected = spec.expected_exit(**params)
        if result.exit_code != expected:
            raise SimError(
                f"workload {name!r} ({scale}) self-check failed: "
                f"exit {result.exit_code}, expected {expected}")
        return result.trace

    return cached_trace(f"{name}-{scale}",
                        content_digest(source, str(max_instructions),
                                       _producer_fingerprint()), build)


#: Workloads composing the multiprogrammed OS mix, with per-scale params.
OS_MIX_MEMBERS = ("compress", "qsort", "memops")

#: Timer interval (instructions between preemptions) per scale.
OS_MIX_TIMER = {"tiny": 300, "small": 1500, "full": 5000}


def build_os_mix_trace(scale: str = "small", members=OS_MIX_MEMBERS,
                       timer_interval: int | None = None,
                       max_instructions: int = 8_000_000) -> Trace:
    """A multiprogrammed mix under the mini-OS (kernel in the trace)."""
    interval = timer_interval if timer_interval is not None \
        else OS_MIX_TIMER[scale]
    members = tuple(members)
    sources = []
    expected = []
    for name in members:
        spec = WORKLOADS[name]
        params = spec.params(scale)
        sources.append(spec.source(**params))
        expected.append(spec.expected_exit(**params))

    def build() -> Trace:
        programs = [assemble_user(source, slot=slot,
                                  source_name=f"<{name}>")
                    for slot, (name, source) in
                    enumerate(zip(members, sources))]
        result = run_system(programs, timer_interval=interval,
                            max_instructions=max_instructions,
                            collect_trace=True)
        if result.process_exit_codes != expected:
            raise SimError(
                f"OS mix self-check failed: exits "
                f"{result.process_exit_codes}, expected {expected}")
        return result.trace

    digest = content_digest(*sources, ",".join(members), str(interval),
                            str(max_instructions), _kernel_fingerprint(),
                            _producer_fingerprint())
    return cached_trace(f"os-mix-{scale}", digest, build)


def build_scenario_trace(name: str, scale: str = "small",
                         seed: int | None = None,
                         overrides: dict[str, int] | None = None,
                         ) -> Trace:
    """Build (or fetch) the verified trace of one scenario-corpus entry.

    The cache key covers the scenario name, scale, **seed**, every
    resolved parameter, the generated per-process sources, and the
    kernel and producer fingerprints — the same scenario name with a
    different seed or knob override can never collide, and kernel or
    producer edits invalidate stale entries.  Only the sources are
    generated for the lookup: assembly and the expected-results model
    run on a miss.  The functional run is contract-checked (exit codes,
    memory regions, console) before the trace is cached.
    """
    from ..scenarios import SCENARIOS, runtime
    spec = SCENARIOS[name]
    source = runtime.generate(spec, scale, seed=seed, overrides=overrides)

    def build_fn() -> Trace:
        build = runtime.materialize(spec, scale, source=source)
        run = runtime.run_build(build, collect_trace=True)
        problems = runtime.check_contract(build, run)
        if problems:
            raise SimError(
                f"scenario {name!r} ({scale}, seed {build.seed}) violated "
                f"its contract: " + "; ".join(problems))
        return run.result.trace

    params = ",".join(f"{key}={value}"
                      for key, value in sorted(source.params.items()))
    digest = content_digest(*source.sources, name, scale, str(source.seed),
                            params, _kernel_fingerprint(),
                            _producer_fingerprint())
    return cached_trace(f"sc-{name}-{scale}-s{source.seed}", digest,
                        build_fn)


def trace_summary(trace: Sequence[TraceRecord]) -> dict[str, float]:
    """Static characteristics of a trace (for T1-style tables)."""
    flags = trace_io.as_trace(trace).flags
    total = len(flags)

    def fraction(bit: int) -> float:
        return int(np.count_nonzero(flags & bit)) / total if total else 0.0

    return {
        "instructions": total,
        "load_fraction": fraction(trace_io.F_LOAD),
        "store_fraction": fraction(trace_io.F_STORE),
        "branch_fraction": fraction(trace_io.F_CONTROL),
        "kernel_fraction": fraction(trace_io.F_KERNEL),
    }

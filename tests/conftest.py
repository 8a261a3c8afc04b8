"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.experiments.engine import TraceSpec
from repro.func import run_bare
from repro.trace import SyntheticConfig, Trace, load_trace, save_trace
from repro.workloads import (build_trace, clear_trace_cache,
                             set_trace_cache_dir, trace_cache_dir)


@pytest.fixture(scope="session", autouse=True)
def _isolated_trace_cache(tmp_path_factory):
    """Keep the persistent trace cache out of the user's home directory:
    the whole test session shares one throwaway cache directory."""
    set_trace_cache_dir(tmp_path_factory.mktemp("trace-cache"))
    yield
    set_trace_cache_dir("off")


def run_asm(body: str, collect_trace: bool = False, user_mode: bool = True,
            max_instructions: int = 500_000):
    """Assemble a ``.text`` body (entry ``main``) and run it bare."""
    return run_bare(assemble(body), collect_trace=collect_trace,
                    user_mode=user_mode, max_instructions=max_instructions)


@pytest.fixture(scope="session")
def stream_trace():
    """A small, memory-dense trace shared by timing tests."""
    return build_trace("stream", "tiny")


@pytest.fixture(scope="session")
def qsort_trace():
    """A branchy trace shared by timing tests."""
    return build_trace("qsort", "tiny")


#: One trace of each kind the workload suite caches.
TRACE_KINDS = {
    "workload": TraceSpec.workload("qsort", "tiny"),
    "os-mix": TraceSpec.os_mix("tiny"),
    "scenario": TraceSpec.scenario("iostorm", "tiny"),
    "synthetic": TraceSpec.from_synthetic(
        SyntheticConfig(instructions=3_000, seed=4)),
}


@pytest.fixture(scope="session", params=sorted(TRACE_KINDS))
def trace_forms(request, tmp_path_factory):
    """``(kind, fresh, wrapped, reloaded)``: one trace of each kind as
    the functional simulator's fresh record list (instructions
    attached, except on synthetic traces), ``Trace.from_records`` of
    that list, and its reload from disk."""
    directory = tmp_path_factory.mktemp(f"forms-{request.param}")
    previous = trace_cache_dir()
    set_trace_cache_dir(directory)
    clear_trace_cache()
    try:
        fresh = list(TRACE_KINDS[request.param].build())
    finally:
        clear_trace_cache()
        set_trace_cache_dir(previous if previous is not None else "off")
    path = directory / "trace.npz"
    save_trace(path, fresh)
    return request.param, fresh, Trace.from_records(fresh), load_trace(path)

"""Layer probes for the traced benchmark run.

The benchmark records spans in the repository's own
:class:`~repro.obs.spans.SpanRecorder`, but never activates it and never
hands it to the simulator: attaching it there selects the reference
cycle loop.  Calls the benchmark makes itself (trace builds,
``OoOCore.run``, ``Engine.execute``) are wrapped at the call site.
Calls the simulator makes on its behalf while building a trace
(assembly, the functional run, contract checks, trace save/load) are
wrapped by :func:`layer_probes`, which swaps each public function for a
recording wrapper in the module that looks it up, and restores it on
exit.  No probe touches the timing core, so a traced run takes the same
cycle loop as an untraced one.

A probe that records nothing reads as a layer the workload does not
use, so the benchmark checks every traced run against
:func:`expected_probes`: a probe a workload must hit and did not is a
failed operation.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator

from repro.obs.spans import SpanRecorder


def _retired(result) -> int:
    return result.retired


#: ``(module, attribute, span name, work count)`` for every public layer
#: call the simulator makes while building a trace.  Each is patched in
#: the module that looks it up at call time.
PROBES = (
    ("repro.workloads.suite", "assemble", "asm.assemble", None),
    ("repro.workloads.suite", "assemble_user", "asm.assemble", None),
    ("repro.scenarios.runtime", "assemble_user", "asm.assemble", None),
    ("repro.workloads.suite", "run_bare", "func.run", _retired),
    ("repro.workloads.suite", "run_system", "func.run", _retired),
    ("repro.scenarios.runtime", "run_build", "func.run",
     lambda run: run.result.retired),
    ("repro.scenarios.runtime", "materialize", "scenarios.materialize",
     None),
    ("repro.scenarios.runtime", "check_contract", "scenarios.contract",
     None),
    ("repro.trace.io", "save_trace_atomic", "trace.save", None),
    ("repro.trace.io", "load_trace", "trace.load", len),
    ("repro.experiments.engine", "generate", "trace.synthetic", len),
)

#: The probe spans one set-up from empty tiers plus one disk reload
#: record for each kind of trace.
KIND_PROBES = {
    "workload": {"asm.assemble", "func.run", "trace.save", "trace.load"},
    "os-mix": {"asm.assemble", "func.run", "trace.save", "trace.load"},
    "synthetic": {"trace.synthetic", "trace.save", "trace.load"},
    "scenario": {"scenarios.materialize", "asm.assemble", "func.run",
                 "scenarios.contract", "trace.save", "trace.load"},
}


def expected_probes(specs: Iterable) -> set[str]:
    """Probe span names a traced run over *specs* must record."""
    return set().union(*(KIND_PROBES[spec.kind] for spec in specs))


def _wrap(recorder: SpanRecorder, name: str, function: Callable,
          count: Callable | None) -> Callable:
    """*function* recording a *name* span per call; *count* maps the
    return value to the work done (the span's ``n`` argument)."""
    category = name.split(".", 1)[0]

    def traced(*args, **kwargs):
        recorder.begin(name, category)
        try:
            result = function(*args, **kwargs)
        except BaseException:
            recorder.end()
            raise
        recorder.end(**({"n": count(result)} if count else {}))
        return result
    return traced


@contextmanager
def layer_probes(recorder: SpanRecorder) -> Iterator[None]:
    """Record a span for every :data:`PROBES` call inside the block."""
    saved = []
    try:
        for module_name, attribute, name, count in PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            saved.append((module, attribute, original))
            setattr(module, attribute,
                    _wrap(recorder, name, original, count))
        yield
    finally:
        for module, attribute, original in reversed(saved):
            setattr(module, attribute, original)

"""Simulator self-profiling: where the *host's* time goes.

The run reports already record end-to-end host throughput
(``host.sim_ips``); this module breaks that time down by simulator
component, so the performance trajectory of the reproduction itself —
not just of the simulated machine — gets measured and archived
(``BENCH_*.json`` artefacts).

:class:`SelfProfiler` is a line sampler around any call::

    with SelfProfiler() as profiler:
        result = OoOCore(config).run(trace)
    profiler.write("BENCH_selfprofile.json")

While the block runs, ``ITIMER_PROF`` raises ``SIGPROF`` every
:data:`PERIOD_S` of process CPU time.  Each sample walks the
interrupted stack up to the cycle loop's frame —
:func:`~repro.core.fastpath.run_fast` or
:meth:`~repro.core.pipeline.OoOCore._run_loop`, whichever runs — and
charges the line that frame is executing to its component:

==============  ====================================================
``events``      FU/AGU completion events, cycle bookkeeping
``commit``      in-order retirement (incl. store write-buffer entry)
                and stall attribution
``lsq``         LSQ port scheduling and the D-cache port accesses
``writebuffer`` write-buffer drain into idle port cycles
``issue``       wakeup/select and FU allocation
``dispatch``    rename, dependence wiring, ROB/IQ/LSQ allocation
``fetch``       I-cache, branch prediction, redirect tracking
==============  ====================================================

The stage map is built once from the loops' source.  A line of
``run_fast`` belongs to the boxed region header above it (``# 1.
events`` … ``# 6. fetch``; see :data:`_FAST_REGIONS`), so those
headers are load-bearing.  A line of ``_run_loop`` belongs to the
stage method it calls (:data:`_REFERENCE_CALLS`).  Two more counts are
reported and never folded into a component: ``other``, samples on a
loop line in no stage (setup and write-back, the loop head, the idle
skip, the watchdog, ``cycle_end``), and ``unattributed``, samples with
no loop frame on the stack or no line number.

The core never sees the profiler, so a profiled run takes the cycle
loop a plain run takes.  Sampling needs the main thread (it installs
a signal handler).
"""

from __future__ import annotations

import functools
import inspect
import json
import signal
import time

from ..atomic import atomic_write

SELFPROFILE_SCHEMA = "repro.selfprofile/2"

#: The sampling period, in seconds of process CPU time.
PERIOD_S = 0.001

#: Stage-group components, in pipeline (reverse-stage) order.
COMPONENTS = ("events", "commit", "lsq", "writebuffer", "issue",
              "dispatch", "fetch")
OTHER = "other"
UNATTRIBUTED = "unattributed"

#: ``run_fast``'s region headers (the start of a boxed comment's first
#: line) and the component that owns the lines below each; any other
#: boxed header starts an ``other`` region.
_FAST_REGIONS = (
    ("begin-cycle bookkeeping", "events"),
    ("1. events", "events"),
    ("2. commit", "commit"),
    ("Stall attribution", "commit"),
    ("3a. memory", "lsq"),
    ("3b. memory", "writebuffer"),
    ("4. issue", "issue"),
    ("5. dispatch", "dispatch"),
    ("6. fetch", "fetch"),
    ("Idle-cycle skip", OTHER),
)

#: The methods ``_run_loop`` calls each cycle, by the component that
#: owns the call's lines.
_REFERENCE_CALLS = {
    "begin_cycle": "events",
    "_process_events": "events",
    "_commit_stage": "commit",
    "schedule": "lsq",
    "end_cycle": "writebuffer",
    "_issue_stage": "issue",
    "_dispatch_stage": "dispatch",
    "_fetch_stage": "fetch",
}


def _fast_lines(lines: list[str], first: int) -> dict[int, str]:
    """``{line: component}`` for ``run_fast``'s source *lines* (the
    first numbered *first*), by region header."""
    owners: dict[int, str] = {}
    owner = OTHER
    found = set()
    for index, text in enumerate(lines):
        text = text.strip()
        above = lines[index - 1].strip() if index else ""
        if (above.startswith("# ---") and text.startswith("# ")
                and not text.startswith("# ---")):
            title = text[2:]
            owner = OTHER
            for prefix, component in _FAST_REGIONS:
                if title.startswith(prefix):
                    owner = component
                    found.add(prefix)
        owners[first + index] = owner
    missing = [prefix for prefix, _ in _FAST_REGIONS if prefix not in found]
    if missing:
        raise RuntimeError(f"run_fast lacks the region headers "
                           f"{missing}")
    return owners


def _reference_lines(lines: list[str], first: int) -> dict[int, str]:
    """``{line: component}`` for the lines of ``_run_loop``'s source
    *lines* (the first numbered *first*) that call a stage method."""
    owners: dict[int, str] = {}
    found = set()
    for index, text in enumerate(lines):
        for name, component in _REFERENCE_CALLS.items():
            if f".{name}(" in text:
                owners[first + index] = component
                found.add(name)
    missing = sorted(set(_REFERENCE_CALLS) - found)
    if missing:
        raise RuntimeError(f"OoOCore._run_loop makes none of the calls "
                           f"{missing}")
    return owners


@functools.cache
def stage_map() -> dict[int, tuple[str, dict[int, str]]]:
    """``{id(loop code): (loop name, {bytecode offset: component})}``
    for both cycle loops; raises when a loop lacks a header or call the
    map expects.

    A sample records the loop frame's ``f_lasti``, and this map turns
    it into a component, so the signal handler neither computes a line
    number nor hashes a code object (which rehashes its constants and
    names: microseconds for ``run_fast``).  An instruction with no line
    is unattributed, and a line in no stage is ``other``."""
    from ..core.fastpath import run_fast
    from ..core.pipeline import OoOCore
    loops = {}
    for name, function, owners in (
            ("fast", run_fast, _fast_lines),
            ("reference", OoOCore._run_loop, _reference_lines)):
        lines = owners(*inspect.getsourcelines(function))
        code = function.__code__
        loops[id(code)] = (name, {
            offset: UNATTRIBUTED if line is None else lines.get(line, OTHER)
            for start, end, line in code.co_lines()
            for offset in range(start, end, 2)})
    return loops


class SelfProfiler:
    """Samples the cycle loop's line while its block runs; entering it
    again adds to the same profile."""

    def __init__(self) -> None:
        #: Samples per ``(id(loop code), bytecode offset)``; ``None``
        #: for a sample with no loop frame on the stack.
        self.hits: dict[tuple[int, int] | None, int] = {}
        self.wall_time_s = 0.0
        self._loops = stage_map()
        self._previous = None
        self._start = 0.0

    def _sample(self, signum, frame) -> None:
        loops = self._loops
        key = None
        while frame is not None:
            code = id(frame.f_code)
            if code in loops:
                key = (code, frame.f_lasti)
                break
            frame = frame.f_back
        self.hits[key] = self.hits.get(key, 0) + 1

    def __enter__(self) -> "SelfProfiler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.wall_time_s += time.perf_counter() - self._start

    # ------------------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Samples per component, then ``other`` and ``unattributed``."""
        counts = dict.fromkeys(COMPONENTS + (OTHER, UNATTRIBUTED), 0)
        for key, samples in self.hits.items():
            if key is None:
                counts[UNATTRIBUTED] += samples
            else:
                offsets = self._loops[key[0]][1]
                counts[offsets.get(key[1], UNATTRIBUTED)] += samples
        return counts

    @property
    def loop(self) -> str | None:
        """The sampled loop (``fast``, ``reference``, both joined by
        ``+``), or None when no sample found one."""
        names = sorted({self._loops[key[0]][0] for key in self.hits
                        if key is not None})
        return "+".join(names) or None

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        counts = self.counts()
        samples = sum(counts.values())
        return {
            "schema": SELFPROFILE_SCHEMA,
            "schema_version": 2,
            "loop": self.loop,
            "period_s": PERIOD_S,
            "samples": samples,
            "components": list(COMPONENTS),
            "counts": counts,
            "shares": {name: count / samples if samples else 0.0
                       for name, count in counts.items()},
            "wall_time_s": self.wall_time_s,
        }

    def write(self, path: str) -> None:
        """Persist the profile as a ``BENCH_*.json`` artefact."""
        with atomic_write(path) as handle:
            json.dump(self.as_dict(), handle, indent=2)
            handle.write("\n")

    def summary(self) -> str:
        """One human line: the sampled loop and the top components."""
        counts = self.counts()
        samples = sum(counts.values())
        if not samples:
            return "no samples taken"
        ranked = sorted(((counts[name], name) for name in COMPONENTS),
                        reverse=True)
        parts = [f"{name} {count / samples:.0%}"
                 for count, name in ranked[:3] if count]
        loop = self.loop or "no"
        return (f"{loop} loop, {samples} samples: {', '.join(parts)}; "
                f"other {counts[OTHER] / samples:.0%}, unattributed "
                f"{counts[UNATTRIBUTED] / samples:.0%}")

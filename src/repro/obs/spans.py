"""Hierarchical span tracing for the simulator's *own* wall-clock.

Where :mod:`repro.obs.tracer` records what the simulated machine did
(cycle-stamped events), this module records where the **host's** time
went while simulating: nested begin/end spans with a category and
arbitrary JSON-simple args, exported in the Chrome Trace Event Format
so a capture loads directly into Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.

The discipline matches the rest of the observability layer — zero
overhead when off:

* components that are handed a recorder explicitly (the experiment
  engine, ``repro simulate``) guard call sites with a single ``is
  None`` check, and wrap the timing core's ``run()`` in a ``core.run``
  span from the outside: the core never sees a recorder, so tracing
  does not change which cycle loop runs;
* components too far from the call chain to thread a parameter through
  (the workload suite's trace cache) consult the context-local
  *current recorder* (:func:`current`), which is ``None`` by default.

Each :class:`SpanRecorder` carries a ``(pid, tid)`` identity, so
per-worker recordings from a multiprocess experiment run merge into
one coherent fleet timeline: every worker records against a shared
epoch (``epoch_us``) and the parent concatenates the event lists
(:func:`merge_events`) into a single Perfetto-loadable document.

Event kinds used (the ``ph`` field):

==========  =========================================================
``B``/``E``  span begin / end (same ``name``, properly nested per tid)
``i``        instant event (thread-scoped)
``M``        metadata: ``process_name`` / ``thread_name`` labels
==========  =========================================================
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Iterator

from ..atomic import atomic_write

__all__ = [
    "NULL_SPANS",
    "Span",
    "SpanRecorder",
    "SpanTracer",
    "activate",
    "chrome_trace",
    "count_spans",
    "current",
    "merge_events",
    "parse_chrome_trace",
    "set_current",
    "timestamp_us",
    "write_chrome_trace",
]

#: ``ph`` values a capture may legally contain.
PHASES = frozenset({"B", "E", "i", "M"})


def timestamp_us() -> int:
    """Wall-clock microseconds (epoch-based, so values from different
    processes share one timeline)."""
    return time.time_ns() // 1_000


class SpanTracer:
    """Base tracer; also the disabled no-op implementation."""

    #: Class attribute so a guard is one LOAD_ATTR + jump.
    enabled = False

    def begin(self, name: str, cat: str = "sim", **args: object) -> None:
        """Open a nested span (no-op unless overridden)."""

    def end(self, **args: object) -> None:
        """Close the innermost open span."""

    def instant(self, name: str, cat: str = "sim",
                **args: object) -> None:
        """Record a zero-duration marker."""

    @contextmanager
    def span(self, name: str, cat: str = "sim",
             **args: object) -> Iterator["SpanTracer"]:
        self.begin(name, cat, **args)
        try:
            yield self
        finally:
            self.end()


#: The shared disabled tracer.
NULL_SPANS = SpanTracer()


class SpanRecorder(SpanTracer):
    """Records spans in memory; export with :func:`chrome_trace`.

    ``epoch_us`` anchors every timestamp: pass the parent's epoch to
    worker recorders so a merged trace shares one time origin.  ``pid``
    / ``tid`` default to the operating-system process id and thread 0
    — the experiment engine's workers therefore land on separate
    Perfetto tracks automatically.  ``clock`` is injectable for tests.
    """

    enabled = True

    def __init__(self, label: str | None = None, *,
                 pid: int | None = None, tid: int = 0,
                 epoch_us: int | None = None,
                 clock=timestamp_us) -> None:
        import os
        self.pid = os.getpid() if pid is None else pid
        self.tid = tid
        self.epoch_us = clock() if epoch_us is None else epoch_us
        self._clock = clock
        self._events: list[dict] = []
        self._stack: list[str] = []
        self._last_ts = 0
        if label is not None:
            self._meta("process_name", label)

    # ------------------------------------------------------------------
    def now_us(self) -> int:
        """Microseconds since the recorder's epoch."""
        return self._clock() - self.epoch_us

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    def _meta(self, name: str, value: str) -> None:
        self._events.append({"ph": "M", "name": name, "ts": 0,
                             "pid": self.pid, "tid": self.tid,
                             "args": {"name": value}})

    def add(self, ph: str, name: str, cat: str, ts: int,
            args: dict | None = None) -> None:
        """Low-level append, under :meth:`begin`, :meth:`end` and
        :meth:`instant`; *ts* may be computed after the fact.
        Timestamps are clamped monotonic per recorder so a capture
        always satisfies the exporter's invariants."""
        if ts < self._last_ts:
            ts = self._last_ts
        self._last_ts = ts
        event: dict = {"ph": ph, "name": name, "cat": cat, "ts": ts,
                       "pid": self.pid, "tid": self.tid}
        if ph == "i":
            event["s"] = "t"
        if args:
            event["args"] = args
        self._events.append(event)

    # ------------------------------------------------------------------
    def begin(self, name: str, cat: str = "sim", **args: object) -> None:
        self._stack.append(name)
        self.add("B", name, cat, self.now_us(), args or None)

    def end(self, **args: object) -> None:
        if not self._stack:
            raise RuntimeError("SpanRecorder.end() with no open span")
        name = self._stack.pop()
        self.add("E", name, "sim", self.now_us(), args or None)

    def instant(self, name: str, cat: str = "sim",
                **args: object) -> None:
        self.add("i", name, cat, self.now_us(), args or None)

    def events(self) -> list[dict]:
        """The recorded event list (shared, not a copy)."""
        return self._events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SpanRecorder(pid={self.pid}, tid={self.tid}, "
                f"events={len(self._events)}, open={self.depth})")


# ----------------------------------------------------------------------
# The context-local current recorder
# ----------------------------------------------------------------------
_current: ContextVar[SpanRecorder | None] = ContextVar(
    "repro_span_recorder", default=None)


def current() -> SpanRecorder | None:
    """The active recorder, or None (the default: tracing off)."""
    return _current.get()


def set_current(recorder: SpanRecorder | None) -> SpanRecorder | None:
    """Install *recorder* as the context's active recorder."""
    _current.set(recorder)
    return recorder


@contextmanager
def activate(recorder: SpanRecorder | None) -> Iterator[
        SpanRecorder | None]:
    """Scoped :func:`set_current`; restores the previous recorder."""
    token = _current.set(recorder)
    try:
        yield recorder
    finally:
        _current.reset(token)


# ----------------------------------------------------------------------
# Chrome Trace Event Format export
# ----------------------------------------------------------------------
def merge_events(*event_lists: list[dict]) -> list[dict]:
    """Concatenate per-recorder event lists into one stream.

    Each input list must be internally ordered (recorders guarantee
    it); streams from different ``(pid, tid)`` tracks need no global
    order.  Duplicate metadata events (a worker that recorded several
    jobs re-labels itself each time) are dropped.

    Recorders clamp their own timestamps, but the wall clock they read
    is not monotonic across recorders — a worker that runs two jobs
    creates two recorders on the same track, and a clock step between
    them would break the exporter's per-track ordering invariant.  The
    merge therefore re-clamps timestamps per ``(pid, tid)`` track.
    """
    merged: list[dict] = []
    seen_meta: set[tuple] = set()
    last_ts: dict[tuple, int] = {}
    for events in event_lists:
        for event in events:
            if event.get("ph") == "M":
                key = (event.get("pid"), event.get("tid"),
                       event.get("name"),
                       json.dumps(event.get("args"), sort_keys=True))
                if key in seen_meta:
                    continue
                seen_meta.add(key)
            else:
                track = (event.get("pid"), event.get("tid"))
                floor = last_ts.get(track, 0)
                if event["ts"] < floor:
                    event = dict(event, ts=floor)
                last_ts[track] = event["ts"]
            merged.append(event)
    return merged


def chrome_trace(events: list[dict]) -> dict:
    """Wrap an event list in the Chrome Trace Event Format envelope."""
    return {"traceEvents": list(events), "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, events: list[dict]) -> None:
    """Write a Perfetto-loadable JSON capture."""
    with atomic_write(path) as handle:
        json.dump(chrome_trace(events), handle, separators=(",", ":"))
        handle.write("\n")


def count_spans(events: list[dict]) -> int:
    """Number of spans (``B`` events) in an event list."""
    return sum(1 for event in events if event.get("ph") == "B")


# ----------------------------------------------------------------------
# Parsing (the round-trip half)
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One parsed span, with its nested children."""

    name: str
    cat: str
    ts: int
    dur: int
    pid: int
    tid: int
    args: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()


def _check_event(event: object, index: int) -> dict:
    if not isinstance(event, dict):
        raise ValueError(f"event {index}: not an object")
    for key in ("ph", "name", "ts", "pid", "tid"):
        if key not in event:
            raise ValueError(f"event {index}: missing key {key!r}")
    if event["ph"] not in PHASES:
        raise ValueError(f"event {index}: unknown ph {event['ph']!r}")
    if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
        raise ValueError(f"event {index}: bad ts {event['ts']!r}")
    return event


def parse_chrome_trace(document: dict | list,
                       ) -> dict[tuple[int, int], list[Span]]:
    """Parse a Chrome-trace document back into span trees per
    ``(pid, tid)`` track.

    Validates what the exporter guarantees — required keys, known
    ``ph`` values, per-track monotonic timestamps, and balanced
    nesting (every ``E`` matches the innermost open ``B``; nothing is
    left open) — and raises :class:`ValueError` on any violation.
    """
    events = document.get("traceEvents") if isinstance(document, dict) \
        else document
    if not isinstance(events, list):
        raise ValueError("no traceEvents list")
    roots: dict[tuple[int, int], list[Span]] = {}
    stacks: dict[tuple[int, int], list[Span]] = {}
    last_ts: dict[tuple[int, int], float] = {}
    for index, raw in enumerate(events):
        event = _check_event(raw, index)
        if event["ph"] == "M":
            continue
        track = (event["pid"], event["tid"])
        ts = event["ts"]
        if ts < last_ts.get(track, 0):
            raise ValueError(
                f"event {index}: ts {ts} goes backwards on track "
                f"{track} (last {last_ts[track]})")
        last_ts[track] = ts
        stack = stacks.setdefault(track, [])
        if event["ph"] == "B":
            span = Span(name=event["name"],
                        cat=event.get("cat", ""), ts=ts, dur=0,
                        pid=event["pid"], tid=event["tid"],
                        args=dict(event.get("args") or {}))
            (stack[-1].children if stack
             else roots.setdefault(track, [])).append(span)
            stack.append(span)
        elif event["ph"] == "E":
            if not stack:
                raise ValueError(f"event {index}: E with no open span "
                                 f"on track {track}")
            span = stack.pop()
            if span.name != event["name"]:
                raise ValueError(
                    f"event {index}: E {event['name']!r} closes "
                    f"B {span.name!r} on track {track}")
            span.dur = int(ts - span.ts)
            span.args.update(event.get("args") or {})
        else:  # instant: a zero-duration leaf
            span = Span(name=event["name"],
                        cat=event.get("cat", ""), ts=ts, dur=0,
                        pid=event["pid"], tid=event["tid"],
                        args=dict(event.get("args") or {}))
            (stack[-1].children if stack
             else roots.setdefault(track, [])).append(span)
    unbalanced = {track: [span.name for span in stack]
                  for track, stack in stacks.items() if stack}
    if unbalanced:
        raise ValueError(f"unbalanced spans left open: {unbalanced}")
    return roots

"""Structured event tracing: one JSON object per simulation event.

A :class:`Tracer` is a probe recorder (see :mod:`repro.obs.probe`): it
subscribes to the probe events that have a trace record and turns each
into one :meth:`Tracer.emit` call, so a run without a tracer formats
nothing.  Events carry ints; the tracer spells their codes out (a
load's source) and looks a redirecting branch's pc up by ``seq`` in the
trace's columns.  :class:`JsonlTracer` streams one compact JSON object per
event to a file (gzipped when the path ends in ``.gz``)::

    {"cycle": 412, "event": "wb.add", "line": 8197, "merged": true}

``cycle`` and ``event`` are always present; the remaining fields are
event-specific (schema in ``docs/OBSERVABILITY.md``).  The module also
provides the reader half used by ``repro events``:
:func:`iter_events` and :func:`summarize_events`.
"""

from __future__ import annotations

import gzip
import io
import json
from collections.abc import Callable, Collection, Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .probe import MEM_SOURCES

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..trace.io import Trace
    from .stall import StallCause


#: Every event a simulation can emit, mapped to the tuple of
#: event-specific field names (every record also carries ``cycle`` and
#: ``event``).  This is the authoritative schema: the table in
#: ``docs/OBSERVABILITY.md`` is cross-checked against it by the test
#: suite, and so is every event an instrumented run actually emits.
EVENT_SCHEMA: dict[str, tuple[str, ...]] = {
    "stall": ("cause", "lost"),
    "commit": ("n",),
    "fetch.mispredict": ("pc", "seq"),
    "branch.resolve": ("pc", "seq", "resume"),
    "lsq.load": ("seq", "line", "source", "ready"),
    "dcache.load": ("line", "source", "ready"),
    "dcache.store": ("line",),
    "dcache.fill": ("line", "ready", "victim"),
    "wb.add": ("line", "merged"),
    "wb.full": ("line",),
    "wb.drain": ("line", "occupancy"),
    "lb.insert": ("line", "evicted"),
    "validate.violation": ("check", "detail"),
}


def _emits(event: str) -> Callable[..., None]:
    """A probe-event handler whose arguments are the cycle and then
    *event*'s fields, in :data:`EVENT_SCHEMA` order."""
    fields = EVENT_SCHEMA[event]

    def handler(self: "Tracer", cycle: int, *values: object) -> None:
        self.emit(cycle, event, **dict(zip(fields, values, strict=True)))
    return handler


class Tracer:
    """Base tracer: maps probe events to :meth:`emit`, which discards
    them until a subclass overrides it."""

    def emit(self, cycle: int, event: str, **fields: object) -> None:
        """Record one event (no-op unless overridden)."""

    def close(self) -> None:
        """Flush and release any underlying resources."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- probe events (see repro.obs.probe) ------------------------------
    commit_count = _emits("commit")
    mispredict = _emits("fetch.mispredict")
    dcache_store = _emits("dcache.store")
    dcache_fill = _emits("dcache.fill")
    wb_add = _emits("wb.add")
    wb_full = _emits("wb.full")
    wb_drain = _emits("wb.drain")
    lb_insert = _emits("lb.insert")
    violation = _emits("validate.violation")

    def run_begin(self, core: object, trace: "Trace") -> None:
        self._pcs = trace.lists()["pc"]

    def stall(self, cycle: int, cause: "StallCause", lost: int,
              head: int) -> None:
        self.emit(cycle, "stall", cause=cause.value, lost=lost)

    def redirect(self, cycle: int, kind: str, seq: int,
                 resume: int) -> None:
        if kind == "branch":
            self.emit(cycle, "branch.resolve", pc=self._pcs[seq], seq=seq,
                      resume=resume)

    def load_serviced(self, cycle: int, seq: int, line: int, source: int,
                      block: int, ready: int) -> None:
        self.emit(cycle, "lsq.load", seq=seq, line=line,
                  source=MEM_SOURCES[source], ready=ready)

    def dcache_load(self, cycle: int, line: int, source: int,
                    ready: int) -> None:
        self.emit(cycle, "dcache.load", line=line,
                  source=MEM_SOURCES[source], ready=ready)


class JsonlTracer(Tracer):
    """Streams every event as JSON Lines to a path or file-like object;
    readers filter (:func:`iter_events`, ``repro events --event``)."""

    def __init__(self, destination: str | io.TextIOBase) -> None:
        self._owns_handle = isinstance(destination, str)
        if isinstance(destination, str):
            if destination.endswith(".gz"):
                self._handle = gzip.open(destination, "wt",
                                         encoding="utf-8")
            else:
                self._handle = open(destination, "w", encoding="utf-8")
        else:
            self._handle = destination
        self.emitted = 0

    def emit(self, cycle: int, event: str, **fields: object) -> None:
        record = {"cycle": cycle, "event": event}
        record.update(fields)
        self._handle.write(json.dumps(record, separators=(",", ":")))
        self._handle.write("\n")
        self.emitted += 1

    def close(self) -> None:
        if self._owns_handle:
            self._handle.close()
        else:
            self._handle.flush()


# ----------------------------------------------------------------------
# Reading captured streams
# ----------------------------------------------------------------------
def _open_stream(path: str):
    if path.endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, encoding="utf-8")


def iter_events(path: str, events: Collection[str] | None = None,
                since: int | None = None,
                until: int | None = None,
                pc: int | None = None,
                pc_range: tuple[int | None, int | None] | None = None) \
        -> Iterator[dict]:
    """Yield event dicts from a JSONL capture, optionally filtered by
    event name, ``since <= cycle <= until``, and the event's ``pc``
    field — ``pc`` matches exactly, ``pc_range`` is an inclusive
    ``(low, high)`` pair with either side open as ``None``.  Events
    without a ``pc`` field are dropped while a PC filter is active."""
    wanted = frozenset(events) if events else None
    with _open_stream(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if wanted is not None and record.get("event") not in wanted:
                continue
            cycle = record.get("cycle", 0)
            if since is not None and cycle < since:
                continue
            if until is not None and cycle > until:
                continue
            if pc is not None or pc_range is not None:
                record_pc = record.get("pc")
                if record_pc is None:
                    continue
                if pc is not None and record_pc != pc:
                    continue
                if pc_range is not None:
                    low, high = pc_range
                    if low is not None and record_pc < low:
                        continue
                    if high is not None and record_pc > high:
                        continue
            yield record


@dataclass
class EventSummary:
    """Aggregate view of a captured stream."""

    total: int = 0
    first_cycle: int | None = None
    last_cycle: int | None = None
    counts: dict[str, int] = field(default_factory=dict)

    def render(self) -> str:
        if not self.total:
            return "(no events)"
        lines = [f"{self.total} events over cycles "
                 f"{self.first_cycle}..{self.last_cycle}"]
        width = max(len(name) for name in self.counts)
        for name, count in sorted(self.counts.items(),
                                  key=lambda item: (-item[1], item[0])):
            lines.append(f"  {name:<{width}}  {count}")
        return "\n".join(lines)


def summarize_events(path: str, events: Collection[str] | None = None,
                     since: int | None = None,
                     until: int | None = None,
                     pc: int | None = None,
                     pc_range: tuple[int | None, int | None] | None = None) \
        -> EventSummary:
    """Per-event-type counts and the covered cycle span."""
    summary = EventSummary()
    for record in iter_events(path, events, since, until,
                              pc=pc, pc_range=pc_range):
        summary.total += 1
        name = record.get("event", "?")
        summary.counts[name] = summary.counts.get(name, 0) + 1
        cycle = record.get("cycle", 0)
        if summary.first_cycle is None or cycle < summary.first_cycle:
            summary.first_cycle = cycle
        if summary.last_cycle is None or cycle > summary.last_cycle:
            summary.last_cycle = cycle
    return summary

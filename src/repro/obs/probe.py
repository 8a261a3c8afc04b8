"""The probe: one event vocabulary, one slot, every recorder.

The timing core, the LSQ, the D-cache, its write and line buffers and
the memory hierarchy each hold one ``probe`` slot: ``None`` when nothing
listens (the default, and the only state in which the core takes the
fast loop), otherwise a :class:`Probe`.  Every hook site is::

    if self.probe is not None:
        self.probe.commit(uop.seq, cycle, times)

Events carry ints — sequence numbers, cycles, lines, counts and the
codes tabled here — never the core's objects: a recorder looks up what
an instruction *is* (pc, opclass, kernel bit, address, instruction) by
its ``seq`` in the trace that ``run_begin`` hands it, and what the
machine holds from the one occupancy sample ``cycle_end`` carries
(:data:`SAMPLE_FIELDS`).

A recorder — the tracer, interval metrics, the pipe trace, a validator,
the critical-path or the hotspot recorder — subscribes to an event by
defining a method with the event's name and arguments (:data:`EVENTS`),
and ignores every event it does not define.  :class:`Probe` binds each
event once: to the lone listener's method, to one loop over several
listeners in attachment order, or to a no-op.  A recorder whose
results describe one run declares ``served = False``; the begin event
refuses it once it has served a run.
"""

from __future__ import annotations

from typing import Callable, Iterable

#: Where a load's data came from, by code: ``Uop.mem_source`` and the
#: ``load_serviced``/``dcache_load`` events carry the index (0: not
#: serviced).  Both cycle loops use these codes.
MEM_SOURCES = (None, "sq", "wb", "lb", "hit", "miss", "secondary")
SRC_SQ, SRC_WB, SRC_LB, SRC_HIT, SRC_MISS, SRC_SECONDARY = range(1, 7)

#: Why the LSQ last skipped a load, by code (``Uop.lsq_block``; 0: not
#: blocked): memory order, a store-queue wait, a write-buffer conflict,
#: no free port, a bank conflict, every MSHR busy.
BLK_ORDER, BLK_SQ_WAIT, BLK_WB_CONFLICT, BLK_NO_PORT, BLK_BANK, \
    BLK_MSHR = range(1, 7)

#: The occupancy sample ``cycle_end`` carries, computed once per cycle:
#: instructions committed so far, then the entries held by the ROB,
#: issue queue, load and store queues and write buffer, the D-cache
#: ports used this cycle, and the MSHRs with a fill in flight.
SAMPLE_FIELDS = ("committed", "rob", "iq", "lq", "sq", "wb", "ports",
                 "mshr")

#: ``seq`` of "no instruction": a stall with an empty window, or a
#: D-cache access with no program context (a write-buffer drain).
NO_SEQ = -1

#: The event vocabulary.  The arguments of each event, and who fires
#: and hears it, are tabled in ``docs/OBSERVABILITY.md`` ("The probe").
EVENTS = ("run_begin", "run_end", "cycle_end", "dep_wired",
          "dispatch_block", "commit_block", "redirect", "mispredict",
          "commit", "commit_count", "stall", "lsq_wait", "load_serviced",
          "lsq_combine", "dcache_count", "port_use", "dcache_load",
          "dcache_store", "dcache_fill", "wb_add", "wb_full", "wb_drain",
          "lb_insert", "violation")


def _ignore(*args: object) -> None:
    """An event nobody listens to."""


def _bind(handlers: list[Callable[..., None]]) -> Callable[..., None]:
    if not handlers:
        return _ignore
    if len(handlers) == 1:
        return handlers[0]
    listeners = tuple(handlers)

    def fan_out(*args: object) -> None:
        for handler in listeners:
            handler(*args)
    return fan_out


class Probe:
    """Fans every event out to the recorders that define it."""

    def __init__(self, recorders: Iterable[object]) -> None:
        self.recorders = tuple(recorders)
        for event in EVENTS:
            handlers = [getattr(recorder, event)
                        for recorder in self.recorders
                        if hasattr(recorder, event)]
            if event == "run_begin":
                handlers.insert(0, self._claim)
            setattr(self, event, _bind(handlers))

    def listens(self, event: str) -> bool:
        """Whether any recorder defines *event* (so a hook site can skip
        building its arguments)."""
        return getattr(self, event) is not _ignore

    def _claim(self, core: object, trace: object) -> None:
        """Refuse a per-run recorder that already served a run."""
        for recorder in self.recorders:
            if getattr(recorder, "served", False):
                raise ValueError(f"a {type(recorder).__name__} serves "
                                 f"exactly one run")
        for recorder in self.recorders:
            if hasattr(recorder, "served"):
                recorder.served = True

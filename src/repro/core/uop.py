"""In-flight instruction state for the reference cycle loop.

A :class:`Uop` carries the instruction's ``seq`` — its position in the
trace, by which the loop and every recorder look up what the
instruction *is* in the trace's columns — plus the opclass index and
the dynamic state the pipeline moves it through.  Its memory-source and
LSQ-block fields hold the codes of :mod:`repro.obs.probe`, the table
the fast loop uses too.  The fast loop builds no per-instruction
object: there an instruction is its ``seq``, and each field here is a
list indexed by it (:mod:`repro.core.fastpath`).
"""

from __future__ import annotations

#: Sentinel "not yet" cycle.
NEVER = -1


class Uop:
    """One instruction travelling through the out-of-order machine.

    Plain attribute bag with ``__slots__``; the pipeline touches these
    millions of times per run.
    """

    __slots__ = (
        "seq", "opclass",
        "fetch_cycle", "dispatch_cycle", "issue_cycle", "addr_cycle",
        "completed", "complete_cycle",
        "num_waiting", "operands_ready", "consumers",
        "is_load", "is_store", "addr_known", "line", "chunk", "byte_mask",
        "data_waiting", "data_ready_cycle",
        "mem_done", "mem_source", "lsq_block",
        "mispredicted", "predicted_taken", "serialize", "issued",
    )

    def __init__(self, seq: int, opclass: int, is_load: bool = False,
                 is_store: bool = False) -> None:
        self.seq = seq
        #: Index into :data:`repro.trace.io.OPCLASSES`.
        self.opclass = opclass
        self.fetch_cycle = NEVER
        self.dispatch_cycle = NEVER
        self.issue_cycle = NEVER
        self.addr_cycle = NEVER
        self.completed = False
        self.complete_cycle = NEVER
        # Operand (issue-gating) dependences.
        self.num_waiting = 0
        self.operands_ready = 0
        self.consumers: list[tuple["Uop", bool]] = []  # (consumer, is_data)
        # Memory state.
        self.is_load = is_load
        self.is_store = is_store
        self.addr_known = False
        self.line = 0
        self.chunk = 0
        self.byte_mask = 0
        # Store-data dependence (tracked separately from the AGU operand).
        self.data_waiting = 0
        self.data_ready_cycle = 0
        self.mem_done = False   # load: cache/forward satisfied
        # Observability breadcrumbs for the stall-attribution model:
        # where the load's data came from (an SRC_* code) and why
        # the LSQ last skipped it (a BLK_* code); 0 is "none".
        self.mem_source = 0
        self.lsq_block = 0
        # Fetch/branch state.
        self.mispredicted = False
        self.predicted_taken = False
        self.serialize = False
        self.issued = False

    def times(self) -> tuple[int, int, int, int, int, int, int]:
        """The cycles the ``commit`` event carries: fetch, dispatch,
        operands ready, issue, address, store data ready and complete
        (:data:`NEVER` for a stage the instruction has not reached)."""
        return (self.fetch_cycle, self.dispatch_cycle, self.operands_ready,
                self.issue_cycle, self.addr_cycle, self.data_ready_cycle,
                self.complete_cycle)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "L" if self.is_load else "S" if self.is_store else \
            f"opclass {self.opclass}"
        return (f"Uop#{self.seq}({kind} completed={self.completed})")

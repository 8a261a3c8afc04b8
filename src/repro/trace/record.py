"""Dynamic instruction trace records.

One :class:`TraceRecord` describes one retired instruction.  Traces
are held as columns (:class:`repro.trace.io.Trace`) and decode their
records only when indexed or iterated — by the reference cycle loop,
the recorders, the checkers and the CLI; synthetic generators and tests
build record lists directly.  Records are deliberately plain and
slotted — a trace decodes hundreds of thousands of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import Instruction, OpClass


@dataclass(slots=True)
class TraceRecord:
    """One retired instruction on the correct path."""

    pc: int
    opclass: OpClass
    dest: int | None = None              # unified register index or None
    sources: tuple[int, ...] = ()
    mem_addr: int = 0                    # effective address (mem ops only)
    mem_size: int = 0                    # access size in bytes; 0 = not mem
    is_load: bool = False
    is_store: bool = False
    is_control: bool = False
    taken: bool = False                  # control: was the transfer taken
    next_pc: int = 0                     # address of the next retired instr
    kernel: bool = False                 # executed in kernel mode
    instr: Instruction | None = None     # optional back-reference
    # Timing hints persisted by ``trace.io`` so that instruction-less
    # (deserialised) records drive the timing core exactly like the
    # original instruction-bearing ones.  The defaults mean "unknown":
    # the core falls back to its heuristics, which is the historical
    # behaviour for synthetic traces.
    serializes: bool = False             # SYSCALL/ERET pipeline flush
    decode_redirect: bool = False        # J/JAL: target known at decode
    store_addr_count: int = -1           # sources[:n] address, rest data

    @property
    def is_mem(self) -> bool:
        return self.mem_size > 0

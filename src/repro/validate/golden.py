"""Golden-model differential checking.

The timing core is trace-driven: it never computes architectural
values, so its correctness claim is "I committed exactly the retirement
stream the functional interpreter produced, in order".  This module
checks that claim by replaying the commit stream against a **fresh**
:class:`repro.func.interp.Interpreter` instance running the same
program in lock step: at every commit the golden model must be at the
committed record's PC, agree on the decoded instruction (opclass,
destination, sources), on the effective address of memory operations,
and on branch direction; the golden model then steps, which also
replays syscalls in retirement order through its own host handler.

The first divergence is reported with full context (commit index,
expected/actual values, and the most recent commits); subsequent
commits are not checked — one wrong step invalidates everything after
it.

At drain the checker exposes architectural **digests** (registers+PC
and memory) computed from the golden state; these are by construction
the state after the last committed instruction, and match the digests
:func:`repro.func.run.run_bare` reports for the same program because
the final (never-traced) exit syscall does not mutate state.

:class:`GoldenChecker` replays bare user-mode traces.
:class:`SystemGoldenChecker` replays full-system (mini-OS) traces —
kernel instructions, syscalls, and timer interrupts included: it
rebuilds the same kernel+user image and, because interrupt delivery is
deterministic in retired-instruction counts and trap deliveries retire
nothing, the replayed commit stream lines up instruction for
instruction with the timing core's.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Sequence

from ..func.exceptions import SimError, SimHalted
from ..func.interp import _BRANCH_OPS, Interpreter, load_program
from ..func.memory import ConsoleDevice, Memory
from ..func.run import DEFAULT_STACK_TOP
from ..func.syscalls import HostSyscalls
from ..isa import Program, decode
from ..kernel.image import build_system
from ..isa.opcodes import OpClass
from ..trace.record import TraceRecord
from .base import Validator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import OoOCore
    from ..core.uop import Uop

_MASK64 = (1 << 64) - 1
_SP = 2
_CONTEXT = 6  # recent commits kept for divergence reports


class GoldenChecker(Validator):
    """Lock-step replay of the commit stream against the interpreter."""

    def __init__(self, program: Program,
                 trace: Sequence[TraceRecord] | None = None,
                 stack_top: int = DEFAULT_STACK_TOP,
                 strict: bool = False) -> None:
        super().__init__(strict=strict)
        self.memory = Memory()
        console = ConsoleDevice()
        self.memory.add_device(console)
        load_program(self.memory, program)
        self.interp = Interpreter(self.memory, entry=program.entry,
                                  syscall_handler=HostSyscalls(console))
        self.interp.state.status = 0  # user mode, like run_bare
        self.interp.state.write_reg(_SP, stack_top)
        self._init_tracking(trace)

    def _init_tracking(self,
                       trace: Sequence[TraceRecord] | None) -> None:
        self._expected = len(trace) if trace is not None else None
        self._commits = 0
        self._dead = False
        self._context: deque[str] = deque(maxlen=_CONTEXT)
        #: A next_pc mismatch is only a divergence if another commit
        #: follows — the final record of a flushed trace carries a
        #: synthesized (sequential) next_pc.
        self._pending_next: str | None = None

    # ------------------------------------------------------------------
    def commit(self, uop: "Uop", cycle: int) -> None:
        if self._dead:
            return
        record = uop.record
        self._commits += 1
        if self._pending_next is not None:
            detail, self._pending_next = self._pending_next, None
            self._diverge(cycle, "next_pc", detail)
            return
        state = self.interp.state
        if state.pc != record.pc:
            self._diverge(cycle, "pc",
                          f"golden model at pc {state.pc:#x}, core "
                          f"committed pc {record.pc:#x}")
            return
        if not self._check_decode(cycle, record):
            return
        try:
            self.interp.step()
        except SimHalted:
            self._diverge(cycle, "halt",
                          f"golden model halted at pc {record.pc:#x} but "
                          f"the record retired in the functional run")
            return
        except SimError as exc:
            self._diverge(cycle, "trap",
                          f"golden model faulted at pc {record.pc:#x}: "
                          f"{exc}")
            return
        # Interrupt deliveries are interpreter steps that retire nothing
        # and emit no trace record; the trace encodes them only as the
        # previous record's next_pc pointing at the trap vector.  Replay
        # any delivery due here so the pc chain lines up.  (Bare
        # user-mode runs never arm the timer, so this is a no-op for
        # plain GoldenChecker.)
        while self.interp._timer_pending():
            self.interp.step()
        if state.pc != record.next_pc:
            self._pending_next = (
                f"record at pc {record.pc:#x} says next_pc "
                f"{record.next_pc:#x}, golden model went to "
                f"{state.pc:#x}")
        self._context.append(f"#{self._commits} pc={record.pc:#x}")

    def _check_decode(self, cycle: int, record: TraceRecord) -> bool:
        """The committed record must describe the instruction the golden
        memory holds at its PC — catches trace corruption and
        self-modifying-code hazards alike."""
        state = self.interp.state
        try:
            instr = decode(self.memory.load(record.pc, 4))
        except Exception as exc:  # decode/load failures of any flavour
            self._diverge(cycle, "decode",
                          f"pc {record.pc:#x}: golden memory does not "
                          f"decode ({exc})")
            return False
        info = instr.info
        if info.opclass is not record.opclass or \
                instr.dest != record.dest or \
                instr.sources != tuple(record.sources):
            self._diverge(cycle, "decode",
                          f"pc {record.pc:#x}: record says "
                          f"{record.opclass.value} dest={record.dest} "
                          f"sources={tuple(record.sources)}, golden "
                          f"memory decodes {instr}")
            return False
        if info.is_mem:
            address = (state.regs[instr.rs1] + instr.imm) & _MASK64
            if address != record.mem_addr or info.mem_size != \
                    record.mem_size:
                self._diverge(cycle, "mem_addr",
                              f"pc {record.pc:#x}: record accesses "
                              f"{record.mem_addr:#x}/{record.mem_size}B, "
                              f"golden model computes {address:#x}/"
                              f"{info.mem_size}B")
                return False
        if info.opclass is OpClass.BRANCH:
            taken = _BRANCH_OPS[instr.opcode](state.regs[instr.rs1],
                                              state.regs[instr.rs2])
            if taken != record.taken:
                self._diverge(cycle, "branch",
                              f"pc {record.pc:#x}: record says "
                              f"taken={record.taken}, golden model "
                              f"evaluates taken={taken}")
                return False
        return True

    def _diverge(self, cycle: int, what: str, detail: str) -> None:
        self._dead = True
        context = "; ".join(self._context) or "none"
        self.report(cycle, f"golden.{what}",
                    f"{detail} (commit #{self._commits}; "
                    f"recent: {context})")

    # ------------------------------------------------------------------
    def run_end(self, core: "OoOCore", cycle: int,
                instructions: int) -> None:
        if self._dead:
            return
        self._pending_next = None  # final record: synthesized next_pc
        expected = self._expected if self._expected is not None \
            else len(core._trace)
        if self._commits != expected:
            self._diverge(cycle, "commit_count",
                          f"core committed {self._commits} of "
                          f"{expected} trace records")

    def digests(self) -> dict[str, str] | None:
        """Architectural end-state digests (None after a divergence —
        the golden state is no longer meaningful)."""
        if self._dead:
            return None
        return {"registers": self.interp.state.digest(),
                "memory": self.memory.content_digest()}


class SystemGoldenChecker(GoldenChecker):
    """Lock-step replay for full-system (mini-OS) traces.

    Rebuilds the same kernel+user image as the functional run that
    produced the trace and replays the commit stream through a fresh
    kernel-mode interpreter — kernel instructions, syscall dispatches
    and context switches are checked exactly like user instructions.
    Timer interrupts are deterministic in retired-instruction counts
    and their delivery retires nothing, so :meth:`commit`'s drain
    loop reproduces every delivery point without needing them in the
    trace.

    The end digests equal the functional run's (the final ``halt``
    never retires and never mutates state), so scenario contracts can
    compare them directly.
    """

    def __init__(self, programs: Sequence[Program],
                 timer_interval: int = 20_000,
                 trace: Sequence[TraceRecord] | None = None,
                 strict: bool = False) -> None:
        Validator.__init__(self, strict=strict)
        system = build_system(list(programs), timer_interval)
        self.memory = system.memory
        self.interp = Interpreter(self.memory, entry=system.entry,
                                  trap_vector=system.trap_vector)
        self._init_tracking(trace)

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

Each commit names its instruction by ``seq``; the checker reads the
committed instruction's columns (pc, opclass, operands, address, branch
direction, next pc) from the trace ``run_begin`` hands it.

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
from ..trace.io import F_TAKEN, NO_DEST, OPCLASSES, Trace
from .base import Validator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import OoOCore

_MASK64 = (1 << 64) - 1
_SP = 2
_CONTEXT = 6  # recent commits kept for divergence reports


class GoldenChecker(Validator):
    """Lock-step replay of the commit stream against the interpreter."""

    def __init__(self, program: Program,
                 trace: Sequence | None = None,
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
                       trace: Sequence | None) -> None:
        self._expected = len(trace) if trace is not None else None
        self._commits = 0
        self._dead = False
        self._context: deque[str] = deque(maxlen=_CONTEXT)
        #: A next_pc mismatch is only a divergence if another commit
        #: follows — the final record of a flushed trace carries a
        #: synthesized (sequential) next_pc.
        self._pending_next: str | None = None

    def run_begin(self, core: "OoOCore", trace: Trace) -> None:
        super().run_begin(core, trace)
        self._columns = trace.lists()
        if self._expected is None:
            self._expected = len(trace)

    # ------------------------------------------------------------------
    def commit(self, seq: int, cycle: int, times: tuple) -> None:
        if self._dead:
            return
        columns = self._columns
        pc = columns["pc"][seq]
        self._commits += 1
        if self._pending_next is not None:
            detail, self._pending_next = self._pending_next, None
            self._diverge(cycle, "next_pc", detail)
            return
        state = self.interp.state
        if state.pc != pc:
            self._diverge(cycle, "pc",
                          f"golden model at pc {state.pc:#x}, core "
                          f"committed pc {pc:#x}")
            return
        if not self._check_decode(cycle, seq):
            return
        try:
            self.interp.step()
        except SimHalted:
            self._diverge(cycle, "halt",
                          f"golden model halted at pc {pc:#x} but "
                          f"the record retired in the functional run")
            return
        except SimError as exc:
            self._diverge(cycle, "trap",
                          f"golden model faulted at pc {pc:#x}: "
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
        next_pc = columns["next_pc"][seq]
        if state.pc != next_pc:
            self._pending_next = (
                f"record at pc {pc:#x} says next_pc "
                f"{next_pc:#x}, golden model went to "
                f"{state.pc:#x}")
        self._context.append(f"#{self._commits} pc={pc:#x}")

    def _check_decode(self, cycle: int, seq: int) -> bool:
        """The committed record must describe the instruction the golden
        memory holds at its PC — catches trace corruption and
        self-modifying-code hazards alike."""
        columns = self._columns
        pc = columns["pc"][seq]
        state = self.interp.state
        try:
            instr = decode(self.memory.load(pc, 4))
        except Exception as exc:  # decode/load failures of any flavour
            self._diverge(cycle, "decode",
                          f"pc {pc:#x}: golden memory does not "
                          f"decode ({exc})")
            return False
        info = instr.info
        opclass = OPCLASSES[columns["opclass"][seq]]
        dest = columns["dest"][seq]
        dest = None if dest == NO_DEST else dest
        sources = tuple(columns["src"][seq][:columns["nsrc"][seq]])
        if info.opclass is not opclass or instr.dest != dest or \
                instr.sources != sources:
            self._diverge(cycle, "decode",
                          f"pc {pc:#x}: record says "
                          f"{opclass.value} dest={dest} "
                          f"sources={sources}, golden "
                          f"memory decodes {instr}")
            return False
        if info.is_mem:
            mem_addr = columns["mem_addr"][seq]
            mem_size = columns["mem_size"][seq]
            address = (state.regs[instr.rs1] + instr.imm) & _MASK64
            if address != mem_addr or info.mem_size != mem_size:
                self._diverge(cycle, "mem_addr",
                              f"pc {pc:#x}: record accesses "
                              f"{mem_addr:#x}/{mem_size}B, "
                              f"golden model computes {address:#x}/"
                              f"{info.mem_size}B")
                return False
        if info.opclass is OpClass.BRANCH:
            recorded = (columns["flags"][seq] & F_TAKEN) != 0
            taken = _BRANCH_OPS[instr.opcode](state.regs[instr.rs1],
                                              state.regs[instr.rs2])
            if taken != recorded:
                self._diverge(cycle, "branch",
                              f"pc {pc:#x}: record says "
                              f"taken={recorded}, golden model "
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
        if self._commits != self._expected:
            self._diverge(cycle, "commit_count",
                          f"core committed {self._commits} of "
                          f"{self._expected} trace records")

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
                 trace: Sequence | None = None,
                 strict: bool = False) -> None:
        Validator.__init__(self, strict=strict)
        system = build_system(list(programs), timer_interval)
        self.memory = system.memory
        self.interp = Interpreter(self.memory, entry=system.entry,
                                  trap_vector=system.trap_vector)
        self._init_tracking(trace)

"""Convenience runners that wire memory, console and interpreter together."""

from __future__ import annotations

from dataclasses import dataclass

from ..isa import Program
from ..trace.io import Trace
from .interp import Interpreter, load_program
from .memory import ConsoleDevice, Memory
from .syscalls import HostSyscalls

#: Default stack placement for bare runs (grows down).
DEFAULT_STACK_TOP = 0x400000
_SP = 2  # stack pointer register index


@dataclass
class RunResult:
    """Outcome of a functional run."""

    exit_code: int
    console: str
    retired: int
    kernel_retired: int
    loads: int
    stores: int
    traps_taken: int = 0
    timer_interrupts: int = 0
    #: The retired instructions (``collect_trace=True`` only).
    trace: Trace | None = None
    #: Architectural end-state digests (``compute_digests=True`` only);
    #: :func:`repro.validate.golden_check` compares a fresh run's with
    #: them.
    digests: dict[str, str] | None = None

    @property
    def user_retired(self) -> int:
        return self.retired - self.kernel_retired

    @classmethod
    def of(cls, interp: Interpreter, exit_code: int, console: str,
           **fields) -> "RunResult":
        """The outcome of *interp*'s finished run: its counters and, if
        it collected one, its trace gathered into columns."""
        return cls(exit_code=exit_code, console=console,
                   retired=interp.retired,
                   kernel_retired=interp.kernel_retired,
                   loads=interp.loads, stores=interp.stores,
                   traps_taken=interp.traps_taken,
                   timer_interrupts=interp.timer_interrupts,
                   trace=interp.trace(), **fields)


def run_bare(program: Program, max_instructions: int = 5_000_000,
             collect_trace: bool = False,
             stack_top: int = DEFAULT_STACK_TOP,
             user_mode: bool = True,
             compute_digests: bool = False) -> RunResult:
    """Run a single program without the mini-OS.

    Syscalls are serviced by the host; the trace (if collected) contains
    only user-mode instructions.  Pass ``user_mode=False`` for bare-metal
    programs that use privileged instructions (MFSR/MTSR/HALT).
    ``compute_digests`` hashes the final architectural state for
    differential comparison (see :mod:`repro.validate`).
    """
    memory = Memory()
    console = ConsoleDevice()
    memory.add_device(console)
    load_program(memory, program)
    interp = Interpreter(memory, entry=program.entry,
                         syscall_handler=HostSyscalls(console),
                         collect_trace=collect_trace)
    if user_mode:
        interp.state.status = 0
    interp.state.write_reg(_SP, stack_top)
    exit_code = interp.run(max_instructions)
    digests = None
    if compute_digests:
        digests = {"registers": interp.state.digest(),
                   "memory": memory.content_digest()}
    return RunResult.of(interp, exit_code, console.text(), digests=digests)

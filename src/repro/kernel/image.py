"""Building and running complete systems (kernel + user processes)."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from ..asm import assemble
from ..func.interp import Interpreter, load_program
from ..func.memory import ConsoleDevice, Memory
from ..func.run import RunResult
from ..isa import Program
from . import layout
from .source import kernel_source


@functools.lru_cache(maxsize=1)
def build_kernel() -> Program:
    """Assemble the mini-OS (cached — the kernel never changes)."""
    return assemble(kernel_source(), text_base=layout.KERNEL_TEXT_BASE,
                    data_base=layout.KERNEL_DATA_BASE, entry="_kstart",
                    source_name="<kernel>")


def assemble_user(source: str, slot: int, entry: str | int | None = None,
                  source_name: str = "<user>") -> Program:
    """Assemble a user program into process slot *slot*'s address window."""
    return assemble(source, text_base=layout.user_text_base(slot),
                    data_base=layout.user_data_base(slot), entry=entry,
                    source_name=source_name)


def _boot_descriptor(programs: list[Program], timer_interval: int) -> bytes:
    blob = bytearray()
    blob += len(programs).to_bytes(8, "little")
    blob += timer_interval.to_bytes(8, "little")
    for slot, program in enumerate(programs):
        blob += program.entry.to_bytes(8, "little")
        blob += layout.user_stack_top(slot).to_bytes(8, "little")
        blob += layout.user_brk(slot).to_bytes(8, "little")
    return bytes(blob)


@dataclass
class System:
    """A composed machine: kernel + user processes, ready to run."""

    memory: Memory
    console: ConsoleDevice
    kernel: Program
    programs: list[Program]
    timer_interval: int

    @property
    def entry(self) -> int:
        return self.kernel.entry

    @property
    def trap_vector(self) -> int:
        return self.kernel.text_base


def build_system(programs: list[Program], timer_interval: int = 20_000) -> System:
    """Compose kernel and user program images into one memory.

    *programs* must already be assembled into distinct process slots
    (use :func:`assemble_user`); at most :data:`layout.MAX_PROCS`.
    """
    if not programs:
        raise ValueError("need at least one user program")
    if len(programs) > layout.MAX_PROCS:
        raise ValueError(f"too many processes (max {layout.MAX_PROCS})")
    seen_bases = {p.text_base for p in programs}
    if len(seen_bases) != len(programs):
        raise ValueError("user programs must occupy distinct slots")
    kernel = build_kernel()
    memory = Memory()
    console = ConsoleDevice()
    memory.add_device(console)
    load_program(memory, kernel)
    for program in programs:
        load_program(memory, program)
    memory.write_bytes(layout.BOOTINFO_ADDR,
                       _boot_descriptor(programs, timer_interval))
    return System(memory=memory, console=console, kernel=kernel,
                  programs=programs, timer_interval=timer_interval)


@dataclass
class SystemRunResult(RunResult):
    """Outcome of a full-system run, with per-process exit codes."""

    process_exit_codes: list[int] = field(default_factory=list)


def run_system(programs: list[Program], timer_interval: int = 20_000,
               max_instructions: int = 20_000_000,
               collect_trace: bool = False) -> SystemRunResult:
    """Boot the mini-OS with *programs* and run to completion."""
    result, _ = boot(build_system(programs, timer_interval),
                     max_instructions, collect_trace)
    return result


def boot(system: System, max_instructions: int = 20_000_000,
         collect_trace: bool = False
         ) -> tuple[SystemRunResult, Interpreter]:
    """Run a composed *system* to completion; returns the result and the
    interpreter, whose end state is the run's architectural end state."""
    interp = Interpreter(system.memory, entry=system.entry,
                         trap_vector=system.trap_vector,
                         collect_trace=collect_trace)
    exit_code = interp.run(max_instructions)
    table = system.kernel.symbols["proctable"]
    exit_codes = [
        int(system.memory.load(table + slot * layout.PCB_SIZE
                               + layout.PCB_EXIT, 8))
        for slot in range(len(system.programs))
    ]
    return SystemRunResult.of(interp, exit_code, system.console.text(),
                              process_exit_codes=exit_codes), interp

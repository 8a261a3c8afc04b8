"""Functional (ISA-level) simulator with tracing.

The interpreter executes instructions out of simulated memory (so the
kernel and all user processes share one image) and delivers traps and
timer interrupts.  With ``collect_trace`` it records the retired stream
as columns, not records: the decode cache holds one static row per PC,
and each retired instruction appends only its row id, its kernel bit,
and (memory ops and branches) its effective address or direction;
:meth:`Interpreter.trace` gathers those into a columnar
:class:`repro.trace.io.Trace`.  ``next_pc`` of each record is the
address of the *actually* executed next instruction — on traps it
points into the trap vector, which is how the timing core learns about
pipeline redirects that are not ordinary branches.
"""

from __future__ import annotations

from collections.abc import Callable

from ..isa import (
    INSTRUCTION_BYTES,
    STATUS_INT_ENABLE,
    STATUS_KERNEL,
    Instruction,
    OpClass,
    Opcode,
    Program,
    SysReg,
    decode,
)
from ..trace.io import Trace
from .exceptions import SimError, SimHalted, TrapCause
from .memory import Memory, MemoryFault
from .state import ArchState, bits_to_float, float_to_bits, to_signed

_MASK64 = (1 << 64) - 1

#: Register the syscall number travels in (a7).
SYSCALL_REG = 17
#: First syscall argument / return value register (a0).
ARG_REG = 10

_STATUS = int(SysReg.STATUS)
_TIMER = int(SysReg.TIMER)


def load_program(memory: Memory, program: Program) -> None:
    """Write a program's text and data images into memory."""
    from ..isa.encoding import encode_program_text

    if program.text:
        memory.write_bytes(program.text_base,
                           encode_program_text(program.text))
    if program.data:
        memory.write_bytes(program.data_base, program.data)


class _Trap(Exception):
    """Internal: unwinds execution of a faulting instruction."""

    def __init__(self, cause: TrapCause, badaddr: int = 0) -> None:
        self.cause = cause
        self.badaddr = badaddr
        super().__init__(cause.name)


class Interpreter:
    """Executes the mini RISC ISA against a :class:`Memory`.

    Parameters
    ----------
    memory:
        Physical memory, already loaded with the program image(s).
    entry:
        Initial program counter.
    trap_vector:
        Address of the kernel trap entry point.  ``None`` runs in
        *bare mode*: syscalls are serviced by ``syscall_handler`` on the
        host side and faults raise :class:`SimError`.
    syscall_handler:
        Bare-mode syscall callback ``handler(interpreter) -> None``.
    collect_trace:
        Record the retired instructions for :meth:`trace`.
    """

    def __init__(self, memory: Memory, entry: int,
                 trap_vector: int | None = None,
                 syscall_handler: Callable[["Interpreter"], None] | None = None,
                 collect_trace: bool = False) -> None:
        self.memory = memory
        self.state = ArchState(pc=entry)
        self.trap_vector = trap_vector
        self.syscall_handler = syscall_handler
        #: The decode cache: PC -> static row ``(instruction, row id,
        #: is_load, is_store)``; row ids number PCs in decode order.
        self._rows: dict[int, tuple[Instruction, int, bool, bool]] = {}
        # Per retired instruction: row id and kernel bit; per retired
        # memory op its address, per retired branch its direction.
        # None unless collecting a trace.
        self._trace_rows: list[int] | None = [] if collect_trace else None
        self._trace_kernel: list[int] | None = [] if collect_trace else None
        self._trace_addr: list[int] | None = [] if collect_trace else None
        self._trace_taken: list[bool] | None = [] if collect_trace else None
        # Statistics.
        self.retired = 0
        self.kernel_retired = 0
        self.loads = 0
        self.stores = 0
        self.traps_taken = 0
        self.timer_interrupts = 0
        self._timer_count = 0

    # ------------------------------------------------------------------
    # Fetch / decode
    # ------------------------------------------------------------------
    def _decode(self, pc: int) -> tuple[Instruction, int, bool, bool]:
        """Decode the instruction at *pc* into its static row (a
        decode-cache miss)."""
        if pc % INSTRUCTION_BYTES:
            raise SimError(f"misaligned pc {pc:#x}")
        try:
            word = self.memory.load(pc, INSTRUCTION_BYTES)
        except MemoryFault as exc:
            raise SimError(f"instruction fetch fault: {exc}") from exc
        instr = decode(word)
        info = instr.info
        row = (instr, len(self._rows), info.is_load, info.is_store)
        self._rows[pc] = row
        return row

    def trace(self) -> Trace | None:
        """The instructions retired so far as a columnar trace, or None
        without ``collect_trace``."""
        if self._trace_rows is None:
            return None
        return Trace.gather({pc: row[0] for pc, row in self._rows.items()},
                            self._trace_rows, self._trace_kernel,
                            self._trace_addr, self._trace_taken)

    # ------------------------------------------------------------------
    # Trap delivery
    # ------------------------------------------------------------------
    def _take_trap(self, cause: TrapCause, epc: int, badaddr: int = 0) -> None:
        if self.trap_vector is None:
            raise SimError(f"trap {cause.name} at {epc:#x} with no kernel "
                           f"(badaddr={badaddr:#x})")
        state = self.state
        state.write_sysreg(SysReg.EPC, epc)
        state.write_sysreg(SysReg.CAUSE, int(cause))
        state.write_sysreg(SysReg.BADADDR, badaddr)
        state.enter_trap()
        state.pc = self.trap_vector
        self.traps_taken += 1

    def _timer_pending(self) -> bool:
        sysregs = self.state.sysregs
        interval = sysregs[_TIMER]
        return (interval > 0 and self._timer_count >= interval
                and sysregs[_STATUS] & STATUS_INT_ENABLE != 0)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_instructions: int | None = None) -> int:
        """Run until HALT or *max_instructions*; returns the exit code.

        Raises :class:`SimError` if the budget is exhausted first (a
        budget overrun almost always means a hung workload).
        """
        budget = max_instructions if max_instructions is not None else -1
        try:
            while budget != 0:
                self.step()
                if budget > 0:
                    budget -= 1
        except SimHalted as halt:
            return halt.exit_code
        raise SimError(
            f"instruction budget exhausted after {self.retired} instructions "
            f"(pc={self.state.pc:#x})")

    def step(self) -> None:
        """Execute one instruction (or deliver one pending interrupt)."""
        state = self.state
        if self._timer_pending():
            self._timer_count = 0
            self.timer_interrupts += 1
            self._take_trap(TrapCause.TIMER, state.pc)
            return
        pc = state.pc
        kernel = state.sysregs[_STATUS] & STATUS_KERNEL
        row = self._rows.get(pc)
        if row is None:
            row = self._decode(pc)
        try:
            next_pc = self._execute(row[0], pc)
        except _Trap as trap:
            epc = pc + INSTRUCTION_BYTES if trap.cause is TrapCause.SYSCALL \
                else pc
            if trap.cause is TrapCause.SYSCALL:
                # The syscall instruction itself retires before the trap.
                self._retire(row, kernel)
            self._take_trap(trap.cause, epc, trap.badaddr)
            return
        state.pc = next_pc
        self._retire(row, kernel)

    def _retire(self, row: tuple[Instruction, int, bool, bool],
                kernel: int) -> None:
        self.retired += 1
        self._timer_count += 1
        if kernel:
            self.kernel_retired += 1
        _, row_id, is_load, is_store = row
        if is_load:
            self.loads += 1
        elif is_store:
            self.stores += 1
        rows = self._trace_rows
        if rows is not None:
            rows.append(row_id)
            self._trace_kernel.append(kernel)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    # A memory op or branch retires exactly when _execute returns (a
    # fault raises instead), so the address and direction appends below
    # are retirement appends.
    def _execute(self, instr: Instruction, pc: int) -> int:
        op = instr.opcode
        state = self.state
        regs = state.regs
        handler = _ALU_OPS.get(op)
        if handler is not None:
            value = handler(regs[instr.rs1], regs[instr.rs2], instr.imm)
            state.write_reg(instr.rd, value)
            return pc + 4
        info = instr.info
        if info.is_mem:
            return self._execute_mem(instr, pc)
        if info.opclass is OpClass.BRANCH:
            taken = _BRANCH_OPS[op](regs[instr.rs1], regs[instr.rs2])
            if self._trace_taken is not None:
                self._trace_taken.append(taken)
            return pc + 4 * instr.imm if taken else pc + 4
        if info.opclass is OpClass.JUMP:
            if op is Opcode.J:
                return pc + 4 * instr.imm
            if op is Opcode.JAL:
                state.write_reg(instr.rd, pc + 4)
                return pc + 4 * instr.imm
            target = regs[instr.rs1]
            if op is Opcode.JALR:
                state.write_reg(instr.rd, pc + 4)
            if target % INSTRUCTION_BYTES:
                raise _Trap(TrapCause.MISALIGNED, target)
            return target
        handler = _FP_OPS.get(op)
        if handler is not None:
            self._execute_fp(instr, handler)
            return pc + 4
        return self._execute_system(instr, pc)

    def _execute_mem(self, instr: Instruction, pc: int) -> int:
        state = self.state
        info = instr.info
        address = (state.regs[instr.rs1] + instr.imm) & _MASK64
        size = info.mem_size
        if address % size:
            raise _Trap(TrapCause.MISALIGNED, address)
        try:
            if info.is_load:
                if info.mem_signed:
                    value = self.memory.load_signed(address, size)
                else:
                    value = self.memory.load(address, size)
                state.write_reg(instr.rd, value)
            else:
                self.memory.store(address, size, state.regs[instr.rs2])
        except MemoryFault as exc:
            raise _Trap(TrapCause.BADADDR, exc.address) from exc
        if self._trace_addr is not None:
            self._trace_addr.append(address)
        return pc + 4

    def _execute_fp(self, instr: Instruction,
                    handler: Callable[[float, float], float | int]) -> None:
        state = self.state
        op = instr.opcode
        if op is Opcode.FCVT_D_L:
            state.write_float(instr.rd, float(to_signed(state.regs[instr.rs1])))
            return
        if op is Opcode.FCVT_L_D:
            value = bits_to_float(state.regs[instr.rs1])
            state.write_reg(instr.rd, _clamp_to_int64(value))
            return
        if op is Opcode.FMOV:
            state.write_reg(instr.rd, state.regs[instr.rs1])
            return
        a = bits_to_float(state.regs[instr.rs1])
        b = bits_to_float(state.regs[instr.rs2])
        result = handler(a, b)
        if op in (Opcode.FEQ, Opcode.FLT, Opcode.FLE):
            state.write_reg(instr.rd, int(result))
        else:
            state.write_float(instr.rd, float(result))

    def _execute_system(self, instr: Instruction, pc: int) -> int:
        op = instr.opcode
        state = self.state
        if op is Opcode.NOP:
            return pc + 4
        if op is Opcode.HALT:
            if not state.kernel_mode:
                raise _Trap(TrapCause.ILLEGAL)
            raise SimHalted(to_signed(state.regs[ARG_REG]))
        if op is Opcode.SYSCALL:
            if self.trap_vector is None:
                if self.syscall_handler is None:
                    raise SimError(f"syscall at {pc:#x} with no handler")
                self.syscall_handler(self)
                return pc + 4
            raise _Trap(TrapCause.SYSCALL)
        # The remaining system ops are privileged.
        if not state.kernel_mode:
            raise _Trap(TrapCause.ILLEGAL)
        if op is Opcode.MFSR:
            if instr.imm == SysReg.CYCLES:
                state.write_reg(instr.rd, self.retired)
            else:
                state.write_reg(instr.rd, state.read_sysreg(instr.imm))
            return pc + 4
        if op is Opcode.MTSR:
            state.write_sysreg(instr.imm, state.regs[instr.rs1])
            if instr.imm == SysReg.TIMER:
                self._timer_count = 0
            return pc + 4
        if op is Opcode.ERET:
            target = state.read_sysreg(SysReg.EPC)
            state.leave_trap()
            if target % INSTRUCTION_BYTES:
                raise SimError(f"eret to misaligned pc {target:#x}")
            return target
        raise SimError(f"unhandled system opcode {op}")  # pragma: no cover


def _clamp_to_int64(value: float) -> int:
    if value != value:  # NaN
        return 0
    if value >= 2.0 ** 63:
        return (1 << 63) - 1
    if value <= -(2.0 ** 63):
        return 1 << 63  # -2^63 as unsigned
    return int(value) & _MASK64


def _fdiv(a: float, b: float) -> float:
    """IEEE-754 division: x/0 gives a signed infinity, 0/0 gives NaN."""
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0.0 or a != a:
            return float("nan")
        return float("inf") if (a > 0) == (_sign_bit(b) == 0) else float("-inf")


def _sign_bit(value: float) -> int:
    return float_to_bits(value) >> 63


def _sra(a: int, shift: int) -> int:
    return (to_signed(a) >> shift) & _MASK64


def _div(a: int, b: int) -> int:
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return _MASK64  # all ones, RISC-V convention
    quotient = abs(sa) // abs(sb)
    if (sa < 0) != (sb < 0):
        quotient = -quotient
    return quotient & _MASK64


def _rem(a: int, b: int) -> int:
    sa, sb = to_signed(a), to_signed(b)
    if sb == 0:
        return a
    magnitude = abs(sa) % abs(sb)
    return (-magnitude if sa < 0 else magnitude) & _MASK64


#: rs1_value, rs2_value, imm -> result (unsigned 64-bit).
_ALU_OPS: dict[Opcode, Callable[[int, int, int], int]] = {
    Opcode.ADD: lambda a, b, i: (a + b) & _MASK64,
    Opcode.SUB: lambda a, b, i: (a - b) & _MASK64,
    Opcode.AND: lambda a, b, i: a & b,
    Opcode.OR: lambda a, b, i: a | b,
    Opcode.XOR: lambda a, b, i: a ^ b,
    Opcode.NOR: lambda a, b, i: ~(a | b) & _MASK64,
    Opcode.SLL: lambda a, b, i: (a << (b & 63)) & _MASK64,
    Opcode.SRL: lambda a, b, i: a >> (b & 63),
    Opcode.SRA: lambda a, b, i: _sra(a, b & 63),
    Opcode.SLT: lambda a, b, i: int(to_signed(a) < to_signed(b)),
    Opcode.SLTU: lambda a, b, i: int(a < b),
    Opcode.ADDI: lambda a, b, i: (a + i) & _MASK64,
    Opcode.ANDI: lambda a, b, i: a & (i & _MASK64),
    Opcode.ORI: lambda a, b, i: a | (i & _MASK64),
    Opcode.XORI: lambda a, b, i: a ^ (i & _MASK64),
    Opcode.SLLI: lambda a, b, i: (a << (i & 63)) & _MASK64,
    Opcode.SRLI: lambda a, b, i: a >> (i & 63),
    Opcode.SRAI: lambda a, b, i: _sra(a, i & 63),
    Opcode.SLTI: lambda a, b, i: int(to_signed(a) < i),
    Opcode.SLTIU: lambda a, b, i: int(a < (i & _MASK64)),
    Opcode.LUI: lambda a, b, i: (i << 15) & _MASK64,
    Opcode.MUL: lambda a, b, i: (a * b) & _MASK64,
    Opcode.MULH: lambda a, b, i: ((to_signed(a) * to_signed(b)) >> 64) & _MASK64,
    Opcode.DIV: lambda a, b, i: _div(a, b),
    Opcode.REM: lambda a, b, i: _rem(a, b),
}

_BRANCH_OPS: dict[Opcode, Callable[[int, int], bool]] = {
    Opcode.BEQ: lambda a, b: a == b,
    Opcode.BNE: lambda a, b: a != b,
    Opcode.BLT: lambda a, b: to_signed(a) < to_signed(b),
    Opcode.BGE: lambda a, b: to_signed(a) >= to_signed(b),
    Opcode.BLTU: lambda a, b: a < b,
    Opcode.BGEU: lambda a, b: a >= b,
}

_FP_OPS: dict[Opcode, Callable[[float, float], float | int]] = {
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: a * b,
    Opcode.FDIV: lambda a, b: _fdiv(a, b),
    Opcode.FNEG: lambda a, b: -a,
    Opcode.FABS: lambda a, b: abs(a),
    Opcode.FMOV: lambda a, b: a,
    Opcode.FCVT_D_L: lambda a, b: a,   # handled specially
    Opcode.FCVT_L_D: lambda a, b: a,   # handled specially
    Opcode.FEQ: lambda a, b: a == b,
    Opcode.FLT: lambda a, b: a < b,
    Opcode.FLE: lambda a, b: a <= b,
}

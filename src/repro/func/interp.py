"""Functional (ISA-level) simulator with tracing.

The interpreter executes instructions out of simulated memory (so the
kernel and all user processes share one image) and delivers traps and
timer interrupts.  It runs threaded code: the first decode of a PC
builds that instruction's *execute closure*, with its operands, the
register list, the page table and the trace-column appends already
bound, and caches it with the PC's row id, its load and store flags and
whether it is a system op.  It never reads a PC's word again, which
is sound because loaded text is immutable: a store that overlaps it
faults (see :mod:`repro.func.memory`).  :meth:`Interpreter.run`
and :meth:`Interpreter.step` share one loop that calls the closure
(which returns the next pc) and retires the instruction, its counters
held in locals; a system op or a trap ends an inner pass so the mode
and timer bits are read again.  Each opcode's semantics is written
once: the integer ALU and branch expressions below are compiled into
closure factories at import, and the opcode tables are read at decode,
never per instruction.

With ``collect_trace`` it records the retired stream as columns, not
records: each retired instruction appends only its row id, its kernel
bit, and (memory ops and branches) its effective address or direction;
:meth:`Interpreter.trace` gathers those into a columnar
:class:`repro.trace.io.Trace`.  ``next_pc`` of each record is the
address of the *actually* executed next instruction — on traps it
points into the trap vector, which is how the timing core learns about
pipeline redirects that are not ordinary branches.
"""

from __future__ import annotations

import struct
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
from .memory import PAGE_MASK, PAGE_SHIFT, Memory, MemoryFault
from .state import ArchState, bits_to_float, float_to_bits, to_signed

_MASK64 = (1 << 64) - 1
#: XOR-ing the sign bit maps signed 64-bit order onto unsigned order.
_SIGN = 1 << 63
#: A timer count no run reaches: the timer is off or masked.
_NEVER = 1 << 64

#: Register the syscall number travels in (a7).
SYSCALL_REG = 17
#: First syscall argument / return value register (a0).
ARG_REG = 10

_STATUS = int(SysReg.STATUS)
_TIMER = int(SysReg.TIMER)

#: An execute closure: runs its instruction, returns the next pc.  A
#: system op's closure takes the interpreter as its one argument.
Execute = Callable[..., int]


def load_program(memory: Memory, program: Program) -> None:
    """Write a program's text and data images into memory; the text is
    immutable from then on (a store that overlaps it faults)."""
    from ..isa.encoding import encode_program_text

    if program.text:
        text = encode_program_text(program.text)
        memory.write_bytes(program.text_base, text)
        memory.add_text(program.text_base, len(text))
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
        #: The decode cache: PC -> ``(execute closure, row id, is_load,
        #: is_store, is_system)``; row ids number PCs in decode order.
        self._rows: dict[int, tuple[Execute, int, bool, bool, bool]] = {}
        #: PC -> decoded instruction, in decode order (a PC's position
        #: is its row id).
        self._instructions: dict[int, Instruction] = {}
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
        # User instructions retired at the last timer delivery: a
        # delivery that finds this unchanged found a quantum the kernel
        # spent entirely on its own trap path.
        self._timer_user = -1

    # ------------------------------------------------------------------
    # Fetch / decode
    # ------------------------------------------------------------------
    def _decode(self, pc: int) -> tuple[Execute, int, bool, bool, bool]:
        """Decode the instruction at *pc* and build its execute closure
        into its static row (a decode-cache miss)."""
        if pc % INSTRUCTION_BYTES:
            raise SimError(f"misaligned pc {pc:#x}")
        try:
            word = self.memory.load(pc, INSTRUCTION_BYTES)
        except MemoryFault as exc:
            raise SimError(f"instruction fetch fault: {exc}") from exc
        instr = decode(word)
        info = instr.info
        row = (_closure(self, instr, pc), len(self._instructions),
               info.is_load, info.is_store, info.opclass is OpClass.SYSTEM)
        self._instructions[pc] = instr
        self._rows[pc] = row
        return row

    def trace(self) -> Trace | None:
        """The instructions retired so far as a columnar trace, or None
        without ``collect_trace``."""
        if self._trace_rows is None:
            return None
        return Trace.gather(dict(self._instructions),
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

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_instructions: int | None = None) -> int:
        """Run until HALT or *max_instructions*; returns the exit code.

        Raises :class:`SimError` if the budget is exhausted first (a
        budget overrun almost always means a hung workload).
        """
        try:
            self._run(max_instructions if max_instructions is not None
                      else -1)
        except SimHalted as halt:
            return halt.exit_code
        raise SimError(
            f"instruction budget exhausted after {self.retired} instructions "
            f"(pc={self.state.pc:#x})")

    def step(self) -> None:
        """Execute one instruction (or deliver one pending interrupt)."""
        self._run(1)

    def _run(self, budget: int) -> None:
        """Take *budget* steps (a negative budget never runs out); each
        step retires one instruction, takes one trap or delivers one
        interrupt.  HALT raises :class:`SimHalted` out of it.

        The counters live in locals and reach the attributes on exit
        and before every system op, which reads ``retired`` (``MFSR
        CYCLES``, the host ``SYS_TIME``) and may reset the timer count
        (``MTSR TIMER``).  Only system ops and traps change the mode
        and timer bits, so each ends the inner loop to read them again.
        """
        state = self.state
        sysregs = state.sysregs
        decoded = self._rows
        trace_rows = self._trace_rows
        trace_kernel = self._trace_kernel
        pc = state.pc
        retired = self.retired
        kernel_retired = self.kernel_retired
        loads = self.loads
        stores = self.stores
        timer_count = self._timer_count
        try:
            while budget:
                status = sysregs[_STATUS]
                kernel = status & STATUS_KERNEL
                timer_at = sysregs[_TIMER] \
                    if status & STATUS_INT_ENABLE else 0
                if not timer_at:
                    timer_at = _NEVER
                while budget:
                    budget -= 1
                    if timer_count >= timer_at:
                        user = retired - kernel_retired
                        if user == self._timer_user:
                            raise SimError(
                                f"timer interrupt at pc {pc:#x} with no "
                                f"user instruction retired since the "
                                f"last one: the timer interval "
                                f"({timer_at}) is shorter than the "
                                f"kernel's trap path")
                        self._timer_user = user
                        timer_count = 0
                        self.timer_interrupts += 1
                        self._take_trap(TrapCause.TIMER, pc)
                        pc = state.pc
                        break
                    row = decoded.get(pc)
                    if row is None:
                        row = self._decode(pc)
                    execute, row_id, is_load, is_store, is_system = row
                    try:
                        if is_system:
                            state.pc = pc
                            self.retired = retired
                            self._timer_count = timer_count
                            next_pc = execute(self)
                            timer_count = self._timer_count
                        else:
                            next_pc = execute()
                    except _Trap as trap:
                        self._take_trap(trap.cause, pc, trap.badaddr)
                        pc = state.pc
                        break
                    retired += 1
                    timer_count += 1
                    if kernel:
                        kernel_retired += 1
                    if is_load:
                        loads += 1
                    elif is_store:
                        stores += 1
                    if trace_rows is not None:
                        trace_rows.append(row_id)
                        trace_kernel.append(kernel)
                    pc = next_pc
                    if is_system:
                        break
        finally:
            state.pc = pc
            self.retired = retired
            self.kernel_retired = kernel_retired
            self.loads = loads
            self.stores = stores
            self._timer_count = timer_count

    # ------------------------------------------------------------------
    # The helper system-op closures wrap
    # ------------------------------------------------------------------
    def _execute_system(self, instr: Instruction, pc: int) -> int:
        op = instr.opcode
        state = self.state
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
            # The syscall retires, then traps to the kernel, which
            # returns past it.
            self._take_trap(TrapCause.SYSCALL, pc + INSTRUCTION_BYTES)
            return self.trap_vector
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


# ----------------------------------------------------------------------
# Execute closures (built once per decoded PC)
# ----------------------------------------------------------------------
def _closure(interp: Interpreter, instr: Instruction, pc: int) -> Execute:
    """The execute closure of *instr* at *pc*: it runs the instruction
    against *interp*'s registers and memory, appends its address or
    direction to the trace columns, and returns the next pc (a fault
    raises :class:`_Trap`)."""
    op = instr.opcode
    regs = interp.state.regs
    next_pc = pc + INSTRUCTION_BYTES
    alu = _ALU_BUILDERS.get(op)
    if alu is not None:
        if instr.rd == 0:  # the hardwired zero: nothing to write
            return _jump_to(next_pc)
        return alu(regs, instr.rd, instr.rs1, instr.rs2, instr.imm, next_pc)
    branch = _BRANCH_BUILDERS.get(op)
    if branch is not None:
        taken = interp._trace_taken
        return branch(regs, instr.rs1, instr.rs2,
                      pc + INSTRUCTION_BYTES * instr.imm, next_pc,
                      None if taken is None else taken.append)
    info = instr.info
    if info.is_mem:
        return _memory_access(interp, instr, next_pc)
    if op is Opcode.J or op is Opcode.JAL:
        target = pc + INSTRUCTION_BYTES * instr.imm
        if op is Opcode.J or instr.rd == 0:
            return _jump_to(target)
        return _jump_and_link(regs, instr.rd, target, next_pc)
    if op is Opcode.JR or op is Opcode.JALR:
        link = instr.rd if op is Opcode.JALR else 0
        return _jump_register(regs, instr.rs1, link, next_pc)
    if op is Opcode.NOP:
        return _jump_to(next_pc)
    handler = _FP_OPS.get(op)
    if handler is not None:
        state = interp.state

        def execute() -> int:
            _execute_fp(state, instr, handler)
            return next_pc
        return execute

    # A system op reads and writes the interpreter's counters and mode,
    # so its closure takes the interpreter as an argument: no closure
    # holds the interpreter, which keeps it out of reference cycles.
    def execute_system(interp: Interpreter) -> int:
        return interp._execute_system(instr, pc)
    return execute_system


def _jump_to(target: int) -> Execute:
    def execute() -> int:
        return target
    return execute


def _jump_and_link(regs: list[int], rd: int, target: int,
                   next_pc: int) -> Execute:
    def execute() -> int:
        regs[rd] = next_pc
        return target
    return execute


def _jump_register(regs: list[int], rs1: int, link: int,
                   next_pc: int) -> Execute:
    """JR (``link == 0``) and JALR: the link is written before the
    target's alignment is checked."""
    def execute() -> int:
        target = regs[rs1]
        if link:
            regs[link] = next_pc
        if target % INSTRUCTION_BYTES:
            raise _Trap(TrapCause.MISALIGNED, target)
        return target
    return execute


#: (size, signed) -> unpacker of a little-endian scalar from a page.
_UNPACK = {(size, signed): struct.Struct(
    "<" + (code.lower() if signed else code)).unpack_from
    for size, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
    for signed in (False, True)}
#: size -> packer of a little-endian unsigned scalar into a page.
_PACK = {size: struct.Struct("<" + code).pack_into
         for size, code in ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))}


def _memory_access(interp: Interpreter, instr: Instruction,
                   next_pc: int) -> Execute:
    """A load or store closure.  An aligned access to an already-mapped
    page above the null guard reads or writes the page directly when no
    device overlaps the page and, for a store, no loaded text does;
    every other access (first touch, device and text pages, the null
    guard, faults) goes through :meth:`Memory.load` /
    :meth:`Memory.store`, whose :class:`MemoryFault` (a store to text
    among them) becomes a BADADDR trap."""
    regs = interp.state.regs
    memory = interp.memory
    pages = memory._pages
    guard = memory.null_guard
    info = instr.info
    size = info.mem_size
    align = size - 1
    rs1, imm = instr.rs1, instr.imm
    trace_addr = interp._trace_addr
    record = None if trace_addr is None else trace_addr.append

    if info.is_load:
        rd = instr.rd
        signed = info.mem_signed
        unpack = _UNPACK[size, signed]
        slow = memory.load_signed if signed else memory.load
        device_pages = memory._device_pages

        def execute() -> int:
            address = (regs[rs1] + imm) & _MASK64
            if address & align:
                raise _Trap(TrapCause.MISALIGNED, address)
            number = address >> PAGE_SHIFT
            page = pages.get(number)
            if page is None or number in device_pages or address < guard:
                try:
                    value = slow(address, size)
                except MemoryFault as exc:
                    raise _Trap(TrapCause.BADADDR, exc.address) from exc
            else:
                value = unpack(page, address & PAGE_MASK)[0]
                if signed:
                    value &= _MASK64
            if rd:
                regs[rd] = value
            if record is not None:
                record(address)
            return next_pc
        return execute

    rs2 = instr.rs2
    mask = (1 << (8 * size)) - 1
    pack = _PACK[size]
    store = memory.store
    store_pages = memory._store_pages

    def execute() -> int:
        address = (regs[rs1] + imm) & _MASK64
        if address & align:
            raise _Trap(TrapCause.MISALIGNED, address)
        number = address >> PAGE_SHIFT
        page = pages.get(number)
        if page is None or number in store_pages or address < guard:
            try:
                store(address, size, regs[rs2])
            except MemoryFault as exc:
                raise _Trap(TrapCause.BADADDR, exc.address) from exc
        else:
            pack(page, address & PAGE_MASK, regs[rs2] & mask)
        if record is not None:
            record(address)
        return next_pc
    return execute


# ----------------------------------------------------------------------
# Semantics
# ----------------------------------------------------------------------
def _execute_fp(state: ArchState, instr: Instruction,
                handler: Callable[[float, float], float | int]) -> None:
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


#: Integer ALU semantics: the value written to rd (unsigned 64-bit) as
#: an expression of {a} (rs1's value), {b} (rs2's value), {i} (the
#: immediate) and {u} (the immediate as unsigned 64-bit).
_ALU_SEMANTICS: dict[Opcode, str] = {
    Opcode.ADD: "({a} + {b}) & _MASK64",
    Opcode.SUB: "({a} - {b}) & _MASK64",
    Opcode.AND: "{a} & {b}",
    Opcode.OR: "{a} | {b}",
    Opcode.XOR: "{a} ^ {b}",
    Opcode.NOR: "~({a} | {b}) & _MASK64",
    Opcode.SLL: "({a} << ({b} & 63)) & _MASK64",
    Opcode.SRL: "{a} >> ({b} & 63)",
    Opcode.SRA: "_sra({a}, {b} & 63)",
    Opcode.SLT: "int(({a} ^ _SIGN) < ({b} ^ _SIGN))",
    Opcode.SLTU: "int({a} < {b})",
    Opcode.ADDI: "({a} + {i}) & _MASK64",
    Opcode.ANDI: "{a} & {u}",
    Opcode.ORI: "{a} | {u}",
    Opcode.XORI: "{a} ^ {u}",
    Opcode.SLLI: "({a} << ({i} & 63)) & _MASK64",
    Opcode.SRLI: "{a} >> ({i} & 63)",
    Opcode.SRAI: "_sra({a}, {i} & 63)",
    Opcode.SLTI: "int(({a} ^ _SIGN) < ({u} ^ _SIGN))",
    Opcode.SLTIU: "int({a} < {u})",
    Opcode.LUI: "({i} << 15) & _MASK64",
    Opcode.MUL: "({a} * {b}) & _MASK64",
    Opcode.MULH: "((to_signed({a}) * to_signed({b})) >> 64) & _MASK64",
    Opcode.DIV: "_div({a}, {b})",
    Opcode.REM: "_rem({a}, {b})",
}

#: Branch conditions, as expressions of {a} (rs1's value) and {b}
#: (rs2's value).
_BRANCH_SEMANTICS: dict[Opcode, str] = {
    Opcode.BEQ: "{a} == {b}",
    Opcode.BNE: "{a} != {b}",
    Opcode.BLT: "({a} ^ _SIGN) < ({b} ^ _SIGN)",
    Opcode.BGE: "({a} ^ _SIGN) >= ({b} ^ _SIGN)",
    Opcode.BLTU: "{a} < {b}",
    Opcode.BGEU: "{a} >= {b}",
}

_ALU_TEMPLATE = """
def build(regs, rd, rs1, rs2, imm, next_pc):
    uimm = imm & _MASK64
    def execute():
        regs[rd] = {value}
        return next_pc
    return execute
"""

_BRANCH_TEMPLATE = """
def build(regs, rs1, rs2, target, next_pc, record):
    if record is None:
        def execute():
            if {condition}:
                return target
            return next_pc
    else:
        def execute():
            if {condition}:
                record(True)
                return target
            record(False)
            return next_pc
    return execute
"""

_OPERANDS = {"a": "regs[rs1]", "b": "regs[rs2]", "i": "imm", "u": "uimm"}


def _compile(source: str, name: str) -> Callable:
    namespace = {"_MASK64": _MASK64, "_SIGN": _SIGN, "_sra": _sra,
                 "_div": _div, "_rem": _rem, "to_signed": to_signed}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


#: Opcode -> ``build(regs, rd, rs1, rs2, imm, next_pc)`` of its closure.
_ALU_BUILDERS = {op: _compile(_ALU_TEMPLATE.format(
    value=value.format(**_OPERANDS)), "build")
    for op, value in _ALU_SEMANTICS.items()}

#: Opcode -> ``build(regs, rs1, rs2, target, next_pc, record)`` of its
#: closure; *record* appends the direction to the trace, or is None.
_BRANCH_BUILDERS = {op: _compile(_BRANCH_TEMPLATE.format(
    condition=condition.format(**_OPERANDS)), "build")
    for op, condition in _BRANCH_SEMANTICS.items()}

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

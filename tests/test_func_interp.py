"""Instruction-semantics tests for the functional interpreter.

Each test assembles a tiny program that computes into ``a0`` and exits
through the host syscall, checking the returned (signed) exit code.
"""

import pytest

from repro.asm import assemble
from repro.func import (
    PAGE_SIZE,
    ConsoleDevice,
    Interpreter,
    Memory,
    SimError,
    TrapCause,
    load_program,
    make_console_memory,
    run_bare,
)
from repro.isa import SysReg
from repro.isa.encoding import encode_program_text
from tests.conftest import run_asm


def run_expr(body: str, **kwargs) -> int:
    source = f".text\nmain:\n{body}\nli a7, 1\nsyscall 0\n"
    return run_asm(source, **kwargs).exit_code


class TestIntArithmetic:
    def test_add_sub(self):
        assert run_expr("li t0, 7\nli t1, 5\nadd a0, t0, t1") == 12
        assert run_expr("li t0, 7\nli t1, 5\nsub a0, t1, t0") == -2

    def test_add_wraps_64_bits(self):
        assert run_expr("li t0, -1\nli t1, 2\nadd a0, t0, t1") == 1

    def test_logic_ops(self):
        assert run_expr("li t0, 0xf0\nli t1, 0x0f\nor a0, t0, t1") == 0xFF
        assert run_expr("li t0, 0xf0\nli t1, 0xff\nand a0, t0, t1") == 0xF0
        assert run_expr("li t0, 0xf0\nli t1, 0xff\nxor a0, t0, t1") == 0x0F
        assert run_expr("li t0, -1\nli t1, 0\nnor a0, t0, t1") == 0

    def test_shifts(self):
        assert run_expr("li t0, 1\nli t1, 12\nsll a0, t0, t1") == 4096
        assert run_expr("li t0, 4096\nli t1, 5\nsrl a0, t0, t1") == 128
        assert run_expr("li t0, -64\nli t1, 3\nsra a0, t0, t1") == -8
        assert run_expr("li t0, -64\nsrai a0, t0, 3") == -8
        assert run_expr("li t0, -1\nsrli a0, t0, 60") == 15

    def test_shift_amount_masked_to_63(self):
        assert run_expr("li t0, 1\nli t1, 64\nsll a0, t0, t1") == 1

    def test_set_less_than(self):
        assert run_expr("li t0, -1\nli t1, 1\nslt a0, t0, t1") == 1
        assert run_expr("li t0, -1\nli t1, 1\nsltu a0, t0, t1") == 0
        assert run_expr("li t0, 5\nslti a0, t0, 6") == 1
        assert run_expr("li t0, 5\nsltiu a0, t0, 5") == 0

    def test_lui_shifts_by_15(self):
        assert run_expr("lui a0, 2") == 2 << 15
        assert run_expr("lui a0, -1") == -(1 << 15)

    def test_li_64_bit_constant(self):
        assert run_expr("li a0, 0x123456789abcdef0") == 0x123456789ABCDEF0
        assert run_expr("li a0, -0x123456789abcdef0") == -0x123456789ABCDEF0

    def test_mul(self):
        assert run_expr("li t0, 123\nli t1, -3\nmul a0, t0, t1") == -369

    def test_mulh(self):
        assert run_expr("li t0, 1 << 40\nli t1, 1 << 40\nmulh a0, t0, t1") \
            == 1 << 16

    def test_div_rem(self):
        assert run_expr("li t0, 17\nli t1, 5\ndiv a0, t0, t1") == 3
        assert run_expr("li t0, -17\nli t1, 5\ndiv a0, t0, t1") == -3
        assert run_expr("li t0, 17\nli t1, 5\nrem a0, t0, t1") == 2
        assert run_expr("li t0, -17\nli t1, 5\nrem a0, t0, t1") == -2

    def test_div_by_zero_is_all_ones(self):
        assert run_expr("li t0, 9\nli t1, 0\ndiv a0, t0, t1") == -1
        assert run_expr("li t0, 9\nli t1, 0\nrem a0, t0, t1") == 9


class TestMemoryOps:
    def test_byte_sign_extension(self):
        body = ("la t0, buf\nli t1, 0x80\nsb t1, 0(t0)\n"
                "lb a0, 0(t0)")
        source = f".data\nbuf: .space 8\n.text\nmain:\n{body}\n" \
                 "li a7, 1\nsyscall 0"
        assert run_asm(source).exit_code == -128

    def test_byte_zero_extension(self):
        body = ("la t0, buf\nli t1, 0x80\nsb t1, 0(t0)\nlbu a0, 0(t0)")
        source = f".data\nbuf: .space 8\n.text\nmain:\n{body}\n" \
                 "li a7, 1\nsyscall 0"
        assert run_asm(source).exit_code == 128

    def test_half_and_word(self):
        source = """
.data
buf: .space 8
.text
main:
    la t0, buf
    li t1, 0xabcd
    sh t1, 0(t0)
    lh t2, 0(t0)
    lhu t3, 0(t0)
    sub a0, t3, t2
    li a7, 1
    syscall 0
"""
        # 0xabcd sign-extends negative: t3 - t2 = 0x10000
        assert run_asm(source).exit_code == 0x10000

    def test_word_sign_extension(self):
        source = """
.data
buf: .space 8
.text
main:
    la t0, buf
    li t1, 0x80000000
    sw t1, 0(t0)
    lw t2, 0(t0)
    lwu a0, 0(t0)
    add a0, a0, t2
    li a7, 1
    syscall 0
"""
        assert run_asm(source).exit_code == 0

    def test_misaligned_load_faults_in_bare_mode(self):
        source = """
.text
main:
    li t0, 0x2001
    ld a0, 0(t0)
    li a7, 1
    syscall 0
"""
        with pytest.raises(SimError, match="MISALIGNED"):
            run_asm(source)

    def test_null_access_faults(self):
        source = ".text\nmain:\nld a0, 0(zero)\nli a7, 1\nsyscall 0"
        with pytest.raises(SimError, match="BADADDR"):
            run_asm(source)

    def test_data_section_initialised(self):
        source = """
.data
v: .dword 77
.text
main:
    la t0, v
    ld a0, 0(t0)
    li a7, 1
    syscall 0
"""
        assert run_asm(source).exit_code == 77


class TestControlFlow:
    def test_taken_and_not_taken_branches(self):
        source = """
.text
main:
    li a0, 0
    li t0, 1
    li t1, 2
    beq t0, t1, skip     # not taken
    addi a0, a0, 1
skip:
    bne t0, t1, skip2    # taken
    addi a0, a0, 100
skip2:
    li a7, 1
    syscall 0
"""
        assert run_asm(source).exit_code == 1

    def test_signed_vs_unsigned_branches(self):
        source = """
.text
main:
    li a0, 0
    li t0, -1
    li t1, 1
    blt t0, t1, s1
    addi a0, a0, 1
s1:
    bltu t0, t1, s2      # -1 unsigned is huge: not taken
    addi a0, a0, 2
s2:
    bge t1, t0, s3
    addi a0, a0, 4
s3:
    bgeu t0, t1, s4
    addi a0, a0, 8
s4:
    li a7, 1
    syscall 0
"""
        assert run_asm(source).exit_code == 2

    def test_jal_links_and_jr_returns(self):
        source = """
.text
main:
    li a0, 0
    jal func
    addi a0, a0, 1
    li a7, 1
    syscall 0
func:
    addi a0, a0, 10
    ret
"""
        assert run_asm(source).exit_code == 11

    def test_jalr_indirect_call(self):
        source = """
.text
main:
    la t0, func
    li a0, 5
    jalr t0
    li a7, 1
    syscall 0
func:
    slli a0, a0, 1
    ret
"""
        assert run_asm(source).exit_code == 10

    def test_jr_to_misaligned_target_faults(self):
        source = ".text\nmain:\nli t0, 0x1001\njr t0"
        with pytest.raises(SimError, match="MISALIGNED"):
            run_asm(source)


class TestFloatingPoint:
    def test_basic_arithmetic(self):
        source = """
.data
a: .double 2.5
b: .double 4.0
.text
main:
    la t0, a
    fld f0, 0(t0)
    fld f1, 8(t0)
    fadd f2, f0, f1     # 6.5
    fmul f3, f2, f1     # 26.0
    fsub f3, f3, f0     # 23.5
    fcvt.l.d a0, f3     # truncates to 23
    li a7, 1
    syscall 0
"""
        assert run_asm(source).exit_code == 23

    def test_division_and_compare(self):
        source = """
.data
a: .double 1.0
b: .double 3.0
.text
main:
    la t0, a
    fld f0, 0(t0)
    fld f1, 8(t0)
    fdiv f2, f0, f1
    flt a0, f2, f0      # 1/3 < 1 -> 1
    fle t1, f1, f1      # 1
    feq t2, f0, f1      # 0
    add a0, a0, t1
    add a0, a0, t2
    li a7, 1
    syscall 0
"""
        assert run_asm(source).exit_code == 2

    def test_int_float_conversions(self):
        source = """
.text
main:
    li t0, -7
    fcvt.d.l f0, t0
    fabs f1, f0
    fneg f2, f1
    fcvt.l.d t1, f1      # 7
    fcvt.l.d t2, f2      # -7
    add a0, t1, t2
    addi a0, a0, 100
    li a7, 1
    syscall 0
"""
        assert run_asm(source).exit_code == 100

    def test_fmov_copies_bits(self):
        source = """
.data
a: .double 1.5
.text
main:
    la t0, a
    fld f0, 0(t0)
    fmov f1, f0
    feq a0, f0, f1
    li a7, 1
    syscall 0
"""
        assert run_asm(source).exit_code == 1


class TestSystem:
    def test_halt_requires_kernel_mode(self):
        source = ".text\nmain:\nli a0, 9\nhalt"
        assert run_asm(source, user_mode=False).exit_code == 9
        with pytest.raises(SimError, match="ILLEGAL"):
            run_asm(source, user_mode=True)

    def test_privileged_ops_fault_in_user_mode(self):
        with pytest.raises(SimError, match="ILLEGAL"):
            run_asm(".text\nmain:\nmfsr t0, epc\nli a7, 1\nsyscall 0")

    def test_mfsr_mtsr_round_trip(self):
        source = """
.text
main:
    li t0, 0x1234
    mtsr scratch, t0
    mfsr a0, scratch
    halt
"""
        assert run_asm(source, user_mode=False).exit_code == 0x1234

    def test_mfsr_cycles_counts_retired(self):
        source = """
.text
main:
    nop
    nop
    mfsr a0, cycles
    halt
"""
        assert run_asm(source, user_mode=False).exit_code == 2

    def test_syscall_without_handler_errors(self):
        program = assemble(".text\nmain:\nsyscall 0")
        memory = Memory()
        load_program(memory, program)
        interp = Interpreter(memory, entry=program.entry)
        with pytest.raises(SimError, match="no handler"):
            interp.run(10)


class TestRunBare:
    def test_budget_exhaustion_raises(self):
        source = ".text\nmain:\nloop: j loop"
        with pytest.raises(SimError, match="budget"):
            run_asm(source, max_instructions=100)

    def test_write_syscall_reaches_console(self):
        result = run_asm("""
.data
msg: .ascii "ping"
.text
main:
    la a0, msg
    li a1, 4
    li a7, 2
    syscall 0
    li a0, 0
    li a7, 1
    syscall 0
""")
        assert result.console == "ping"
        assert result.exit_code == 0

    def test_brk_getpid_time_yield(self):
        result = run_asm("""
.text
main:
    li a7, 4
    syscall 0            # yield
    li a7, 5
    syscall 0            # getpid -> 1
    mv s0, a0
    li a7, 6
    syscall 0            # time (retired count, nonzero)
    snez t0, a0
    add a0, s0, t0
    li a7, 1
    syscall 0
""")
        assert result.exit_code == 2

    def test_stats_count_loads_and_stores(self):
        result = run_asm("""
.data
buf: .space 16
.text
main:
    la t0, buf
    sd t0, 0(t0)
    ld t1, 0(t0)
    li a0, 0
    li a7, 1
    syscall 0
""")
        assert result.loads == 1
        assert result.stores == 1

    def test_trace_next_pc_chain(self):
        result = run_asm("""
.text
main:
    li t0, 3
loop:
    subi t0, t0, 1
    bnez t0, loop
    li a0, 0
    li a7, 1
    syscall 0
""", collect_trace=True)
        trace = result.trace
        for prev, nxt in zip(trace, trace[1:]):
            assert prev.next_pc == nxt.pc


def run_machine(source: str, trap_vector: str | None = None,
                premap: int | None = None, max_instructions: int = 10_000):
    """Assemble *source* and run it in kernel mode on memory with a
    console, with its *trap_vector* label (if any) as the trap entry and
    the page at *premap* (if any) mapped first.  Returns the program,
    the interpreter, its memory, the console and the exit code."""
    program = assemble(source)
    memory, console = make_console_memory()
    load_program(memory, program)
    if premap is not None:
        memory.write_bytes(premap, bytes(8))
    vector = None if trap_vector is None else program.symbols[trap_vector]
    interp = Interpreter(memory, entry=program.entry, trap_vector=vector)
    exit_code = interp.run(max_instructions)
    return program, interp, memory, console, exit_code


class TestMemoryFallbacks:
    """Accesses the loads' and stores' page fast path hands to
    :meth:`Memory.load` / :meth:`Memory.store`, driven through run()."""

    @pytest.mark.parametrize("premapped", (False, True))
    def test_store_to_console_page_reaches_console(self, premapped):
        # A console page mapped as backing store is still a device page.
        base = ConsoleDevice.DEFAULT_BASE
        source = f"""
.text
main:
    li t0, {base}
    li t1, 0x6968
    sh t1, 0(t0)
    sb t1, 2(t0)
    halt
"""
        _, _, memory, console, _ = run_machine(
            source, premap=base if premapped else None)
        assert console.text() == "hih"
        assert memory.read_bytes(base, 8) == bytes(8)

    def test_load_from_untouched_page_reads_zero_and_maps_it(self):
        source = """
.text
main:
    li t0, 0x300000
    ld a0, 8(t0)
    lbu t1, 9(t0)
    add a0, a0, t1
    halt
"""
        program = assemble(source)
        memory = Memory()
        load_program(memory, program)
        mapped, digest = memory.mapped_bytes, memory.content_digest()
        assert Interpreter(memory, entry=program.entry).run(100) == 0
        assert memory.mapped_bytes == mapped + PAGE_SIZE
        assert memory.content_digest() == digest

    @pytest.mark.parametrize("access, cause, badaddr", [
        ("ld a0, 8(zero)", TrapCause.BADADDR, 8),
        ("sd t0, 16(zero)", TrapCause.BADADDR, 16),
        ("lw a0, 2(t1)", TrapCause.MISALIGNED, 0x100002),
        ("sh t0, 1(t1)", TrapCause.MISALIGNED, 0x100001),
        ("ld a0, 8(t2)", TrapCause.MISALIGNED, 0x7FFF0001 + 8),
        ("lb a0, 0(t3)", TrapCause.BADADDR, ConsoleDevice.DEFAULT_BASE),
    ])
    def test_faults_trap_with_cause_and_badaddr(self, access, cause,
                                                badaddr):
        source = f"""
.data
word: .dword 0
.text
main:
    li t0, 5
    la t1, word
    li t2, 0x7fff0001
    li t3, {ConsoleDevice.DEFAULT_BASE}
fault:
    {access}
    halt
handler:
    halt
"""
        program, interp, _, _, _ = run_machine(source, trap_vector="handler")
        assert program.data_base == 0x100000
        sysregs = interp.state.sysregs
        assert sysregs[SysReg.CAUSE] == cause
        assert sysregs[SysReg.BADADDR] == badaddr
        assert sysregs[SysReg.EPC] == program.symbols["fault"]
        assert interp.traps_taken == 1
        # The faulting access retires nothing.
        assert interp.retired == (program.symbols["fault"]
                                  - program.entry) // 4


class TestImmutableText:
    """A store that overlaps loaded text faults; the text page is always
    mapped, so only the store fast path's set test keeps it off the
    page."""

    @pytest.mark.parametrize("access, offset", [("sw t0, 0(t4)", 0),
                                                ("sb t0, 3(t4)", 3)])
    def test_store_to_text_traps(self, access, offset):
        source = f"""
.text
main:
    li t0, 5
    la t4, main
fault:
    {access}
    halt
handler:
    halt
"""
        program, interp, memory, _, _ = run_machine(
            source, trap_vector="handler")
        sysregs = interp.state.sysregs
        assert sysregs[SysReg.CAUSE] == TrapCause.BADADDR
        assert sysregs[SysReg.BADADDR] == program.entry + offset
        assert sysregs[SysReg.EPC] == program.symbols["fault"]
        text = encode_program_text(program.text)
        assert memory.read_bytes(program.text_base, len(text)) == text

    def test_bare_mode_store_to_text_is_an_error(self):
        program = assemble(".text\nmain:\n    la t0, main\n"
                           "    sw zero, 4(t0)\n    li a7, 1\n"
                           "    syscall 0\n")
        with pytest.raises(SimError, match=f"BADADDR .*badaddr="
                                           f"{program.entry + 4:#x}"):
            run_bare(program)

    def test_data_sharing_a_text_page_still_stores(self):
        program = assemble("""
.data
word: .dword 0
.text
main:
    la t0, word
    li t1, 42
    sd t1, 0(t0)
    ld a0, 0(t0)
    halt
""", data_base=0x1800)
        assert program.data_base >> 12 == program.text_base >> 12
        memory = Memory()
        load_program(memory, program)
        assert Interpreter(memory, entry=program.entry).run(100) == 42


class TestLiveCounters:
    """System ops read and reset the counters the run loop keeps."""

    def test_mfsr_cycles_mid_run(self):
        source = """
.text
main:
    li t0, 10
loop:
    subi t0, t0, 1
    bnez t0, loop
    mfsr s0, cycles
    nop
    nop
    mfsr s1, cycles
    sub a0, s1, s0
    halt
"""
        _, interp, _, _, exit_code = run_machine(source)
        assert interp.state.regs[8] == 1 + 2 * 10  # s0
        assert exit_code == 3
        assert interp.retired == 1 + 2 * 10 + 5

    def test_host_time_syscall_mid_run(self):
        result = run_asm("""
.text
main:
    li t0, 10
loop:
    subi t0, t0, 1
    bnez t0, loop
    li a7, 6
    syscall 0
    li a7, 1
    syscall 0
""")
        assert result.exit_code == 1 + 2 * 10 + 1

    def test_mtsr_timer_restarts_the_count_mid_run(self):
        # Fifty loop trips run with the timer off; arming it must
        # restart the count, so the interrupt lands four instructions
        # after the arm, not at once.
        source = """
.text
main:
    li t0, 50
loop:
    subi t0, t0, 1
    bnez t0, loop
    li t1, 3
    mtsr status, t1
    li t1, 5
    mtsr timer, t1
spin:
    j spin
handler:
    mfsr a0, cycles
    halt
"""
        program, interp, _, _, exit_code = run_machine(
            source, trap_vector="handler")
        assert exit_code == 1 + 2 * 50 + 3 + 1 + 4
        assert interp.timer_interrupts == 1
        assert interp.state.sysregs[SysReg.CAUSE] == TrapCause.TIMER
        assert interp.state.sysregs[SysReg.EPC] == program.symbols["spin"]

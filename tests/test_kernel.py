"""Integration tests for the mini operating system."""

import pytest

from repro import abi
from repro.func import SimError
from repro.kernel import assemble_user, build_kernel, build_system, layout, run_system


def user_program(body: str, slot: int = 0):
    return assemble_user(f".text\nmain:\n{body}\n", slot=slot)


def exit_program(code: int, slot: int = 0):
    return user_program(
        f"li a0, {code}\nli a7, {abi.SYS_EXIT}\nsyscall 0", slot=slot)


class TestKernelImage:
    def test_kernel_assembles(self):
        kernel = build_kernel()
        assert kernel.text_base == layout.KERNEL_TEXT_BASE
        assert kernel.entry == kernel.symbols["_kstart"]
        assert "proctable" in kernel.symbols

    def test_trap_vector_is_first_instruction(self):
        kernel = build_kernel()
        assert kernel.symbols["_trap"] == layout.KERNEL_TEXT_BASE


class TestBuildSystem:
    def test_rejects_empty_process_list(self):
        with pytest.raises(ValueError, match="at least one"):
            build_system([])

    def test_rejects_too_many_processes(self):
        programs = [exit_program(0, slot) for slot in range(layout.MAX_PROCS)]
        programs.append(exit_program(0, 0))
        with pytest.raises(ValueError):
            build_system(programs)

    def test_rejects_duplicate_slots(self):
        with pytest.raises(ValueError, match="distinct slots"):
            build_system([exit_program(0, 0), exit_program(1, 0)])


class TestSyscalls:
    def test_exit_code_collected(self):
        result = run_system([exit_program(42)])
        assert result.process_exit_codes == [42]
        assert result.exit_code == 0

    def test_write_reaches_console(self):
        program = assemble_user(f"""
.data
msg: .ascii "hello from user"
.text
main:
    la a0, msg
    li a1, 15
    li a7, {abi.SYS_WRITE}
    syscall 0
    mv s0, a0
    li a0, 0
    li a7, {abi.SYS_EXIT}
    syscall 0
""", slot=0)
        result = run_system([program])
        assert result.console == "hello from user"

    def test_write_returns_length(self):
        program = assemble_user(f"""
.data
msg: .ascii "abc"
.text
main:
    la a0, msg
    li a1, 3
    li a7, {abi.SYS_WRITE}
    syscall 0
    li a7, {abi.SYS_EXIT}
    syscall 0
""", slot=0)
        assert run_system([program]).process_exit_codes == [3]

    def test_getpid_is_slot_plus_one(self):
        programs = [user_program(
            f"li a7, {abi.SYS_GETPID}\nsyscall 0\n"
            f"li a7, {abi.SYS_EXIT}\nsyscall 0", slot=slot)
            for slot in range(3)]
        result = run_system(programs)
        assert result.process_exit_codes == [1, 2, 3]

    def test_brk_query_and_set(self):
        program = user_program(f"""
    li a0, 0
    li a7, {abi.SYS_BRK}
    syscall 0            # query
    mv s0, a0
    addi a0, s0, 4096
    li a7, {abi.SYS_BRK}
    syscall 0            # set
    sub a0, a0, s0
    li a7, {abi.SYS_EXIT}
    syscall 0
""")
        assert run_system([program]).process_exit_codes == [4096]

    def test_time_returns_nonzero(self):
        program = user_program(f"""
    li a7, {abi.SYS_TIME}
    syscall 0
    snez a0, a0
    li a7, {abi.SYS_EXIT}
    syscall 0
""")
        assert run_system([program]).process_exit_codes == [1]

    def test_unknown_syscall_kills_process(self):
        program = user_program(
        f"li a7, 999\nsyscall 0\nli a0, 7\nli a7, {abi.SYS_EXIT}\nsyscall 0")
        result = run_system([program])
        # killed with 128 + cause(SYSCALL=1)
        assert result.process_exit_codes == [129]


class TestFaultHandling:
    def test_null_dereference_kills_process(self):
        result = run_system([user_program("ld t0, 0(zero)")])
        assert result.process_exit_codes == [128 + 5]  # BADADDR

    def test_privileged_instruction_kills_process(self):
        result = run_system([user_program("halt")])
        assert result.process_exit_codes == [128 + 3]  # ILLEGAL

    def test_misaligned_access_kills_process(self):
        result = run_system([user_program("li t0, 0x2001\nld t1, 0(t0)")])
        assert result.process_exit_codes == [128 + 4]  # MISALIGNED

    def test_other_processes_survive_a_fault(self):
        programs = [user_program("ld t0, 0(zero)", slot=0),
                    exit_program(5, slot=1)]
        result = run_system(programs)
        assert result.process_exit_codes == [133, 5]


class TestScheduling:
    def _spin_program(self, iters: int, slot: int):
        return user_program(f"""
    li t0, {iters}
spin:
    subi t0, t0, 1
    bnez t0, spin
    li a0, {slot + 100}
    li a7, {abi.SYS_EXIT}
    syscall 0
""", slot=slot)

    def test_preemption_interleaves_processes(self):
        programs = [self._spin_program(4000, slot) for slot in range(3)]
        result = run_system(programs, timer_interval=200,
                            collect_trace=True)
        assert result.process_exit_codes == [100, 101, 102]
        assert result.timer_interrupts >= 10
        # Interleaving: user pcs from different slots alternate.
        regions = []
        for record in result.trace:
            if record.kernel:
                continue
            region = record.pc // layout.USER_REGION_SIZE
            if not regions or regions[-1] != region:
                regions.append(region)
        assert len(regions) > 4  # switched back and forth

    def test_timer_shorter_than_the_trap_path_fails_at_once(self):
        # Each quantum expires inside the kernel before its ERET, so no
        # user instruction ever retires: an error, not a spent budget.
        programs = [self._spin_program(200, 0), exit_program(0, slot=1)]
        with pytest.raises(SimError, match=r"timer interval \(50\)"):
            run_system(programs, timer_interval=50,
                       max_instructions=200_000)

    def test_no_timer_runs_to_completion_in_order(self):
        programs = [self._spin_program(500, slot) for slot in range(2)]
        result = run_system(programs, timer_interval=0)
        assert result.process_exit_codes == [100, 101]
        assert result.timer_interrupts == 0

    def test_yield_switches_processes(self):
        looper = user_program(f"""
    li s0, 3
again:
    li a7, {abi.SYS_YIELD}
    syscall 0
    subi s0, s0, 1
    bnez s0, again
    li a0, 1
    li a7, {abi.SYS_EXIT}
    syscall 0
""", slot=0)
        other = exit_program(2, slot=1)
        result = run_system([looper, other], timer_interval=0)
        assert result.process_exit_codes == [1, 2]

    def test_kernel_instructions_in_trace(self):
        result = run_system([exit_program(0)], collect_trace=True)
        kernel_records = [r for r in result.trace if r.kernel]
        assert kernel_records, "boot and syscall path must be traced"
        assert result.kernel_retired == len(kernel_records)

    def test_fp_state_preserved_across_switches(self):
        # Two processes keep values in f1 and check them after being
        # preempted many times; a broken FP context switch corrupts one.
        def fp_program(value: int, slot: int):
            return user_program(f"""
    li t0, {value}
    fcvt.d.l f1, t0
    li s0, 3000
loop:
    subi s0, s0, 1
    bnez s0, loop
    fcvt.l.d t1, f1
    li t2, {value}
    beq t1, t2, good
    li a0, 1
    li a7, {abi.SYS_EXIT}
    syscall 0
good:
    li a0, 0
    li a7, {abi.SYS_EXIT}
    syscall 0
""", slot=slot)
        programs = [fp_program(111, 0), fp_program(222, 1)]
        result = run_system(programs, timer_interval=150)
        assert result.process_exit_codes == [0, 0]
        assert result.timer_interrupts > 5

"""The golden check, the core's commit-order half, and the text rule.

A clean trace must pass :func:`golden_check` with the producer's
digests; every class of trace corruption must be reported once, at the
first bad record, with a ``golden.*`` violation; a core that commits
fewer records than its trace, or commits out of order, must break the
invariant checker's ``drain.commit_count`` or ``rob.order``.  Each
fault class is checked on a bare user-mode trace
(:class:`TestDivergenceDetection`) and on a full-system one
(:class:`TestFullSystemTraces`).  A store to loaded program text faults
in the producer: a :class:`SimError` in bare mode, a killed process
under the mini-OS.
"""

import dataclasses

import numpy as np
import pytest

from repro.asm import assemble
from repro.core import OoOCore
from repro.func import SimError, TrapCause, run_bare
from repro.func import interp as interp_module
from repro.isa import ZERO, OpClass, Opcode, Program, encode
from repro.kernel import assemble_user, run_system
from repro.presets import CONFIG_NAMES, machine
from repro.scenarios import SCENARIOS, run_scenario
from repro.scenarios.runtime import run_build
from repro.trace import Trace
from repro.trace.io import F_KERNEL, F_STORE, F_TAKEN, NO_DEST, OPCLASSES
from repro.validate import (InvariantChecker, differential_views,
                            golden_check, result_view)

SOURCE = """
.equ SYS_EXIT, 1

.data
buf: .space 64

.text
main:
    la s0, buf
    li t0, 7
    li t1, 35
    add t2, t0, t1
    sd t2, 0(s0)
    ld t3, 0(s0)
    beq t2, t3, done
    addi t3, t3, 1
done:
    li t0, 3
loop:
    subi t0, t0, 1
    bnez t0, loop
    li a0, 0
    li a7, SYS_EXIT
    syscall 0
"""

#: Overwrites ``addi t1, t1, 1`` with the same-shape ``addi t1, t1,
#: 100`` after the first of three passes: fetch-after-store semantics
#: would exit 201, a decode cache that never rereads the word exits 3.
REWRITE_SOURCE = """
.text
main:
    li t0, 3
    li t1, 0
    la t2, target
    la t3, patch
    lwu t4, 0(t3)
loop:
target:
    addi t1, t1, 1
    sw t4, 0(t2)
    subi t0, t0, 1
    bnez t0, loop
    mv a0, t1
    li a7, 1
    syscall 0
patch:
    addi t1, t1, 100
"""


@pytest.fixture(scope="module")
def bare_case():
    program = assemble(SOURCE)
    func = run_bare(program, collect_trace=True, compute_digests=True)
    return program, func.trace, func.digests


@pytest.fixture(scope="module")
def system_case():
    build, run = run_scenario(SCENARIOS["syspipe"], "tiny",
                              collect_trace=True)
    return build, run.result.trace, run.digests


def _tampered(trace, seq, column, value):
    """A copy of *trace* whose *column* holds *value* at *seq*."""
    columns = {name: array.copy() for name, array in trace.columns.items()}
    columns[column][seq] = value
    return Trace(columns)


def _pick(trace, mask):
    """A seq where *mask* holds: the first from a third of the way in,
    else the first anywhere."""
    seqs = np.flatnonzero(mask)
    later = seqs[seqs >= len(trace) // 3]
    return int(later[0] if len(later) else seqs[0])


def _drop_last_commits(monkeypatch, count):
    """Make every core's reference loop stop *count* records short of
    its trace."""
    run_loop = OoOCore._run_loop

    def short(core):
        core._trace = core._trace[:-count]
        return run_loop(core)
    monkeypatch.setattr(OoOCore, "_run_loop", short)


def _swap_one_commit_pair(monkeypatch):
    """Make every core commit one pair of neighbours out of order: the
    first time the ROB's two oldest uops are completed and touch no
    memory, they trade places."""
    commit_stage = OoOCore._commit_stage

    def swapped(core, cycle):
        rob = core._rob
        if not getattr(core, "_swapped", False) and len(rob) >= 2 \
                and all(uop.completed and not (uop.is_load or uop.is_store)
                        for uop in (rob[0], rob[1])):
            rob[0], rob[1] = rob[1], rob[0]
            core._swapped = True
        return commit_stage(core, cycle)
    monkeypatch.setattr(OoOCore, "_commit_stage", swapped)


def _checked_run(trace, config="1P"):
    checker = InvariantChecker()
    OoOCore(machine(config), validator=checker).run(trace)
    return checker.violations


class TestCleanRuns:
    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_no_divergence_on_any_config(self, config, bare_case):
        program, trace, digests = bare_case
        assert golden_check(trace, program, digests) == []
        assert _checked_run(trace, config) == []

    @pytest.mark.parametrize("config", ("1P", "2P", "1P-wide+LB+SC"))
    def test_digests_match_functional_run(self, config, bare_case):
        # The producer's digests match a fresh run's; a checked timing
        # run on any config reports none of its own (its view is a bare
        # run's).
        program, trace, digests = bare_case
        assert golden_check(trace, program, digests) == []
        checked = OoOCore(machine(config),
                          validator=InvariantChecker()).run(trace)
        assert result_view(checked) == differential_views(config, trace)[0]

    def test_record_list_is_checked_like_its_trace(self, bare_case):
        program, trace, digests = bare_case
        records = [dataclasses.replace(record) for record in trace]
        assert golden_check(records, program, digests) == []
        records[3].pc += 4
        [violation] = golden_check(records, program, digests)
        assert violation.check == "golden.pc"
        assert violation.detail.startswith("seq 3 ")


def test_code_run_from_data_has_no_instruction():
    # Only loaded text is immutable, so only it may run: a program that
    # jumps into instruction words it keeps in .data runs, but its trace
    # fails the decoder comparison at the first data PC.
    exit_text = assemble(".text\nmain:\n    li a0, 5\n    li a7, 1\n"
                         "    syscall 0\n").text
    program = assemble(f"""
.text
main:
    la t0, code
    jr t0
.data
code:
    .word {", ".join(str(encode(instr)) for instr in exit_text)}
""")
    func = run_bare(program, collect_trace=True, compute_digests=True)
    assert func.exit_code == 5
    code = program.symbols["code"]
    [violation] = golden_check(func.trace, program, func.digests)
    assert violation.check == "golden.decode"
    seq = int(np.argmax(func.trace.pc == code))
    assert violation.detail.startswith(f"seq {seq} (pc {code:#x}): the "
                                       f"loaded image holds no instruction")


class TestDivergenceDetection:
    """Every fault class on a bare user-mode trace; the full-system
    subclass below reruns each on a mini-OS trace."""

    @pytest.fixture
    def case(self, bare_case):
        return bare_case

    def _first_check(self, case, trace):
        source, _, digests = case
        violations = golden_check(trace, source, digests)
        assert violations
        return violations[0]

    def test_clean_trace_and_digests(self, case):
        source, trace, digests = case
        assert golden_check(trace, source, digests) == []
        assert _checked_run(trace) == []

    def test_wrong_digests(self, case):
        source, trace, digests = case
        [violation] = golden_check(trace, source,
                                   {**digests, "memory": "0" * 64})
        assert violation.check == "golden.digests"
        assert violation.detail.endswith("in memory")

    def test_wrong_pc(self, case):
        trace = case[1]
        seq = len(trace) // 2
        violation = self._first_check(
            case, _tampered(trace, seq, "pc", trace.pc[seq] + 4))
        assert violation.check == "golden.pc"
        assert violation.detail.startswith(f"seq {seq} ")

    def test_wrong_dest_register(self, case):
        trace = case[1]
        seq = _pick(trace, trace.dest != NO_DEST)
        dest = (int(trace.dest[seq]) + 1) % 32
        violation = self._first_check(
            case, _tampered(trace, seq, "dest", dest))
        assert violation.check == "golden.decode"
        assert f"dest: trace {dest}, isa.decode" in violation.detail

    def test_wrong_memory_address(self, case):
        trace = case[1]
        seq = _pick(trace, (trace.flags & F_STORE) != 0)
        violation = self._first_check(
            case, _tampered(trace, seq, "mem_addr", trace.mem_addr[seq] + 8))
        assert violation.check == "golden.mem_addr"
        assert violation.detail.startswith(f"seq {seq} ")

    def test_wrong_branch_direction(self, case):
        trace = case[1]
        branch = OPCLASSES.index(OpClass.BRANCH)
        seq = _pick(trace, (trace.opclass == branch)
                    & ((trace.flags & F_TAKEN) != 0))
        violation = self._first_check(
            case, _tampered(trace, seq, "flags", trace.flags[seq] ^ F_TAKEN))
        assert violation.check == "golden.branch"

    def test_wrong_kernel_bit(self, case):
        trace = case[1]
        seq = len(trace) // 2
        violation = self._first_check(
            case, _tampered(trace, seq, "flags",
                            trace.flags[seq] ^ F_KERNEL))
        assert violation.check == "golden.decode"
        assert "flags: trace" in violation.detail

    def test_wrong_next_pc_mid_trace(self, case):
        trace = case[1]
        seq = len(trace) // 2
        violation = self._first_check(
            case, _tampered(trace, seq, "next_pc", trace.next_pc[seq] + 4))
        assert violation.check == "golden.next_pc"
        assert violation.detail.startswith(f"seq {seq} ")

    def test_tampered_final_next_pc_is_caught(self, case):
        # The final record's next_pc falls through in the producer and
        # in the fresh run alike, so it is compared like any other.
        trace = case[1]
        seq = len(trace) - 1
        violation = self._first_check(
            case, _tampered(trace, seq, "next_pc", 0xDEAD_0000))
        assert violation.check == "golden.next_pc"
        assert violation.detail.startswith(f"seq {seq} ")

    def test_trace_shorter_than_a_fresh_run(self, case):
        source, trace, digests = case
        [violation] = golden_check(trace[:-2], source, digests)
        assert violation.check == "golden.length"
        assert f"{len(trace) - 2} records" in violation.detail

    def test_missing_commits_counted_at_drain(self, case, monkeypatch):
        trace = case[1]
        _drop_last_commits(monkeypatch, 2)
        violations = _checked_run(trace)
        assert [v.check for v in violations] == ["drain.commit_count"]
        assert f"committed {len(trace) - 2} of {len(trace)}" in \
            violations[0].detail

    def test_out_of_order_commit_is_caught(self, case, monkeypatch):
        _swap_one_commit_pair(monkeypatch)
        violations = _checked_run(case[1])
        assert [v.check for v in violations] == ["rob.order"]

    def test_report_carries_context(self, case):
        trace = case[1]
        seq = max(5, len(trace) // 2)
        pc = int(trace.pc[seq])
        violation = self._first_check(
            case, _tampered(trace, seq, "pc", pc + 4))
        recent = ", ".join(f"{p:#x}" for p in trace.pc[seq - 4:seq].tolist())
        assert violation.detail == (
            f"seq {seq} (pc {pc + 4:#x}): pc: trace {pc + 4:#x}, fresh run "
            f"{pc:#x}; recent: {recent}")
        assert str(violation).startswith("[trace] golden.pc: ")

    def test_corruption_at_an_already_replayed_pc(self, case):
        # Each PC decodes once; a record corrupted at a PC that earlier
        # records of the trace passed is still caught there.
        trace = case[1]
        writes = trace.dest != NO_DEST
        pcs, counts = np.unique(trace.pc[writes], return_counts=True)
        pc = pcs[np.argmax(counts)]
        visits = np.flatnonzero(trace.pc == pc)
        assert len(visits) >= 3
        seq = int(visits[1])
        violation = self._first_check(
            case, _tampered(trace, seq, "dest", (int(trace.dest[seq]) + 1)
                            % 32))
        assert violation.check == "golden.decode"
        assert violation.detail.startswith(f"seq {seq} ")
        assert "isa.decode" in violation.detail

    def test_decode_fault_the_fresh_run_repeats(self, case, monkeypatch):
        # A producer that decodes ``add`` with its sources swapped
        # computes the same values, so a fresh run agrees with its trace
        # column for column and digest for digest; only the ISA decoder
        # sees the swap.
        source, trace, _ = case
        decode = interp_module.decode

        def swapped(word):
            instr = decode(word)
            if instr.opcode is Opcode.ADD and instr.rs1 != instr.rs2 \
                    and ZERO not in (instr.rs1, instr.rs2):
                return dataclasses.replace(instr, rs1=instr.rs2,
                                           rs2=instr.rs1)
            return instr
        monkeypatch.setattr(interp_module, "decode", swapped)
        if isinstance(source, Program):
            run = run_bare(source, collect_trace=True, compute_digests=True)
            faulty, digests = run.trace, run.digests
        else:
            run = run_build(source, collect_trace=True)
            faulty, digests = run.result.trace, run.digests
        assert not np.array_equal(faulty.src, trace.src)
        [violation] = golden_check(faulty, source, digests)
        assert violation.check == "golden.decode"
        assert "src0: trace" in violation.detail
        assert "isa.decode" in violation.detail

    def test_checking_stops_after_first_divergence(self, case):
        source, trace, digests = case
        seq = len(trace) // 2
        columns = {name: array.copy()
                   for name, array in trace.columns.items()}
        columns["pc"][seq:seq + 3] += 4
        violations = golden_check(Trace(columns), source, digests)
        assert len(violations) == 1
        assert violations[0].detail.startswith(f"seq {seq} ")

    def test_code_rewritten_after_its_first_replay(self):
        # The loop overwrites its own first instruction after one pass:
        # the producer faults the store, so no trace of it exists.
        program = assemble(REWRITE_SOURCE)
        target = program.symbols["target"]
        with pytest.raises(SimError, match=f"badaddr={target:#x}"):
            run_bare(program)


class TestFullSystemTraces(TestDivergenceDetection):
    """The same fault classes on a mini-OS trace (kernel instructions,
    syscalls and timer interrupts included)."""

    @pytest.fixture
    def case(self, system_case):
        return system_case

    def test_code_rewritten_after_its_first_replay(self):
        # Under the mini-OS the store is a BADADDR trap: the kernel
        # kills the process, and its sibling finishes.
        rewriter = assemble_user(REWRITE_SOURCE, slot=0)
        sibling = assemble_user("""
.data
msg: .ascii "ok"
.text
main:
    la a0, msg
    li a1, 2
    li a7, 2
    syscall 0
    li a0, 7
    li a7, 1
    syscall 0
""", slot=1)
        result = run_system([rewriter, sibling])
        assert result.process_exit_codes == [128 + TrapCause.BADADDR, 7]
        assert result.console == "ok"

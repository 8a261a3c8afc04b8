"""The functional simulator's columnar trace against a per-record one.

The interpreter records each retired instruction as a row id plus its
kernel bit, effective address and branch direction, and gathers those
into the ten trace columns.  :class:`ReferenceEmitter` keeps the logic
that producer replaced: one :class:`TraceRecord` per retired
instruction, built from the decoded instruction and the architectural
state before it executes, its ``next_pc`` chained to the next retired
record and the last one falling through.  On every suite workload at
tiny, the os-mix, the five scenario families, their user-only views and
a kernel program that takes a syscall trap, timer interrupts and a
fault, the gathered columns must equal ``Trace.from_records`` of the
reference records (dtype, shape and values), and the records they
decode must equal the reference records, instructions included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import abi
from repro.asm import assemble
from repro.func import run as func_run
from repro.func.interp import _BRANCH_OPS, Interpreter
from repro.isa import INSTRUCTION_BYTES, OpClass
from repro.kernel import assemble_user, image as kernel_image, run_system
from repro.scenarios import SCENARIO_NAMES, SCENARIOS
from repro.scenarios.runtime import materialize, run_build
from repro.trace import Trace, TraceRecord
from repro.trace.io import F_KERNEL
from repro.workloads import (SUITE_NAMES, WORKLOADS, build_os_mix_trace,
                             build_scenario_trace, build_trace,
                             clear_trace_cache, set_trace_cache_dir,
                             trace_cache_dir)
from repro.workloads.suite import OS_MIX_MEMBERS, OS_MIX_TIMER

_MASK64 = (1 << 64) - 1


class ReferenceEmitter(Interpreter):
    """An interpreter that also emits one record per retired
    instruction, the way the functional simulator once did."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.records: list[TraceRecord] = []
        self._pending: TraceRecord | None = None

    def step(self) -> None:
        state = self.state
        pc, kernel, regs = state.pc, state.kernel_mode, state.regs[:]
        retired = self.retired
        super().step()
        if self.retired == retired:
            return  # an interrupt delivery or a fault: nothing retired
        instr = self._rows[pc][0]
        info = instr.info
        record = TraceRecord(pc=pc, opclass=info.opclass, dest=instr.dest,
                             sources=instr.sources, is_load=info.is_load,
                             is_store=info.is_store,
                             is_control=info.is_control, kernel=kernel,
                             instr=instr)
        if info.is_mem:
            record.mem_addr = (regs[instr.rs1] + instr.imm) & _MASK64
            record.mem_size = info.mem_size
        if info.opclass is OpClass.BRANCH:
            record.taken = _BRANCH_OPS[instr.opcode](regs[instr.rs1],
                                                     regs[instr.rs2])
        elif info.opclass is OpClass.JUMP:
            record.taken = True
        if self._pending is not None:
            self._pending.next_pc = pc
            self.records.append(self._pending)
        self._pending = record

    def run(self, max_instructions: int | None = None) -> int:
        try:
            return super().run(max_instructions)
        finally:
            if self._pending is not None:
                self._pending.next_pc = self._pending.pc + INSTRUCTION_BYTES
                self.records.append(self._pending)
                self._pending = None


def reference_records(monkeypatch, run, *args, **kwargs) -> list[TraceRecord]:
    """The records the reference emitter gives for ``run(*args)``, a
    runner that builds its interpreter in ``repro.func.run`` or
    ``repro.kernel.image``."""
    emitters: list[ReferenceEmitter] = []

    class Emitter(ReferenceEmitter):
        def __init__(self, *a, **k) -> None:
            super().__init__(*a, **k)
            emitters.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(func_run, "Interpreter", Emitter)
        patch.setattr(kernel_image, "Interpreter", Emitter)
        run(*args, **kwargs)
    [emitter] = emitters
    return emitter.records


@pytest.fixture
def fresh_builds(tmp_path):
    """Suite builds from empty cache tiers, so each is a functional run."""
    previous = trace_cache_dir()
    set_trace_cache_dir(tmp_path)
    clear_trace_cache()
    yield
    clear_trace_cache()
    set_trace_cache_dir(previous if previous is not None else "off")


def assert_matches(trace: Trace, reference: list[TraceRecord]) -> None:
    assert isinstance(trace, Trace) and trace._records is None
    for produced, expected in ((trace, reference),
                               (trace.user_only(),
                                [r for r in reference if not r.kernel])):
        encoded = Trace.from_records(expected)
        for name, column in encoded.columns.items():
            got = produced.columns[name]
            assert got.dtype == column.dtype, name
            assert got.shape == column.shape, name
            assert np.array_equal(got, column), name
        assert produced.records == expected
        assert all(record.instr is not None for record in produced)


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_workload(name, fresh_builds, monkeypatch):
    spec = WORKLOADS[name]
    program = assemble(spec.source(**spec.params("tiny")))
    reference = reference_records(monkeypatch, func_run.run_bare, program,
                                  max_instructions=3_000_000)
    assert_matches(build_trace(name, "tiny"), reference)


def test_os_mix(fresh_builds, monkeypatch):
    programs = []
    for slot, name in enumerate(OS_MIX_MEMBERS):
        spec = WORKLOADS[name]
        programs.append(assemble_user(spec.source(**spec.params("tiny")),
                                      slot=slot))
    reference = reference_records(monkeypatch, run_system, programs,
                                  timer_interval=OS_MIX_TIMER["tiny"],
                                  max_instructions=8_000_000)
    trace = build_os_mix_trace("tiny")
    assert 0 < int(np.count_nonzero(trace.flags & F_KERNEL)) < len(trace)
    assert_matches(trace, reference)


@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_scenario_family(name, fresh_builds, monkeypatch):
    build = materialize(SCENARIOS[name], "tiny")
    reference = reference_records(monkeypatch, run_build, build)
    assert_matches(build_scenario_trace(name, "tiny"), reference)


def test_kernel_program_with_trap_interrupt_and_fault(monkeypatch):
    faulting = assemble_user(f""".text
main:
    li a7, {abi.SYS_GETPID}
    syscall 0
    li t0, 400
spin:
    subi t0, t0, 1
    bnez t0, spin
fault:
    ld t1, 0(zero)
    li a0, 0
    li a7, {abi.SYS_EXIT}
    syscall 0
""", slot=0)
    other = assemble_user(f""".text
main:
    li a0, 7
    li a7, {abi.SYS_EXIT}
    syscall 0
""", slot=1)
    programs = [faulting, other]
    result = run_system(programs, timer_interval=300, collect_trace=True)
    assert result.process_exit_codes == [128 + 5, 7]  # 5: BADADDR
    assert result.timer_interrupts > 0
    fault_pc = faulting.symbols["fault"]
    assert fault_pc not in result.trace.pc.tolist()
    reference = reference_records(monkeypatch, run_system, programs,
                                  timer_interval=300)
    assert_matches(result.trace, reference)

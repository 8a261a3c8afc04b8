"""Golden-model differential checker tests.

A clean run must replay with zero divergences and produce digests equal
to the functional run's; every class of trace corruption must be caught
at the first bad commit with a ``golden.*`` violation.
"""

import pytest

from repro.asm import assemble
from repro.core import OoOCore
from repro.func import run_bare
from repro.presets import CONFIG_NAMES, machine
from repro.validate import GoldenChecker, ValidationError

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
    li a0, 0
    li a7, SYS_EXIT
    syscall 0
"""


def _golden_run(config="1P", tamper=None, strict=False, truncate=0):
    program = assemble(SOURCE)
    func = run_bare(program, collect_trace=True, compute_digests=True)
    trace = list(func.trace)  # records: what a tamper edits, the core encodes
    if tamper is not None:
        tamper(trace)
    checker = GoldenChecker(program, trace=trace, strict=strict)
    core_trace = trace[:-truncate] if truncate else trace
    OoOCore(machine(config), validator=checker).run(core_trace)
    return func, checker


class TestCleanRuns:
    @pytest.mark.parametrize("config", CONFIG_NAMES)
    def test_no_divergence_on_any_config(self, config):
        func, checker = _golden_run(config)
        assert checker.ok, checker.violations

    @pytest.mark.parametrize("config", ("1P", "2P", "1P-wide+LB+SC"))
    def test_digests_match_functional_run(self, config):
        func, checker = _golden_run(config)
        assert checker.digests() == func.digests

    def test_final_record_synthesized_next_pc_tolerated(self):
        # The last record of a flushed trace carries next_pc = pc + 4,
        # which the golden model (sitting at the exit syscall) cannot
        # confirm; it must not be reported as a divergence.
        def tamper(trace):
            trace[-1].next_pc = 0xDEAD_0000
        func, checker = _golden_run(tamper=tamper)
        assert checker.ok, checker.violations


class TestDivergenceDetection:
    def _first_check(self, tamper, **kwargs):
        _, checker = _golden_run(tamper=tamper, **kwargs)
        assert not checker.ok
        return checker.violations[0]

    def test_wrong_pc(self):
        def tamper(trace):
            trace[3].pc += 4
        violation = self._first_check(tamper)
        assert violation.check in ("golden.pc", "golden.decode")

    def test_wrong_dest_register(self):
        def tamper(trace):
            record = next(r for r in trace if r.dest is not None)
            record.dest = (record.dest + 1) % 32
        assert self._first_check(tamper).check == "golden.decode"

    def test_wrong_memory_address(self):
        def tamper(trace):
            record = next(r for r in trace if r.is_store)
            record.mem_addr += 8
        assert self._first_check(tamper).check == "golden.mem_addr"

    def test_wrong_branch_direction(self):
        def tamper(trace):
            record = next(r for r in trace if r.is_control and r.taken)
            record.taken = False
        assert self._first_check(tamper).check == "golden.branch"

    def test_wrong_next_pc_mid_trace(self):
        # next_pc divergences are deferred one commit (only the final
        # record's next_pc is synthesized), so a mid-trace lie is still
        # caught — on the following commit.
        def tamper(trace):
            trace[2].next_pc += 4
        assert self._first_check(tamper).check == "golden.next_pc"

    def test_missing_commits_counted_at_drain(self):
        _, checker = _golden_run(truncate=2)
        assert not checker.ok
        assert checker.violations[0].check == "golden.commit_count"

    def test_report_carries_context(self):
        def tamper(trace):
            trace[4].pc += 4
        violation = self._first_check(tamper)
        assert "commit #" in violation.detail
        assert "recent:" in violation.detail

    def test_digests_none_after_divergence(self):
        def tamper(trace):
            trace[3].pc += 4
        _, checker = _golden_run(tamper=tamper)
        assert checker.digests() is None

    def test_checking_stops_after_first_divergence(self):
        def tamper(trace):
            for record in trace[3:6]:
                record.pc += 4
        _, checker = _golden_run(tamper=tamper)
        assert len(checker.violations) == 1


class TestStrictMode:
    def test_raises_on_first_divergence(self):
        def tamper(trace):
            trace[3].pc += 4
        with pytest.raises(ValidationError, match="golden"):
            _golden_run(tamper=tamper, strict=True)

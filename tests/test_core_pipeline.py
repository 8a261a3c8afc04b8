"""Behavioural tests for the out-of-order timing core."""

import pytest

from repro.core import OoOCore, simulate
from repro.isa import OpClass
from repro.presets import machine
from repro.trace.record import TraceRecord

_BASE_PC = 0x1_0000


class TraceBuilder:
    """Builds well-formed sequential micro-traces."""

    def __init__(self):
        self.records: list[TraceRecord] = []
        self.pc = _BASE_PC

    def _push(self, record: TraceRecord) -> TraceRecord:
        if self.records and not self.records[-1].is_control:
            self.records[-1].next_pc = record.pc
        self.records.append(record)
        return record

    def alu(self, dest=None, sources=()):
        record = TraceRecord(pc=self.pc, opclass=OpClass.ALU, dest=dest,
                             sources=tuple(sources), next_pc=self.pc + 4)
        self.pc += 4
        return self._push(record)

    def mul(self, dest, sources=()):
        record = TraceRecord(pc=self.pc, opclass=OpClass.MUL, dest=dest,
                             sources=tuple(sources), next_pc=self.pc + 4)
        self.pc += 4
        return self._push(record)

    def load(self, dest, addr, sources=(), size=8):
        record = TraceRecord(pc=self.pc, opclass=OpClass.LOAD, dest=dest,
                             sources=tuple(sources), mem_addr=addr,
                             mem_size=size, is_load=True,
                             next_pc=self.pc + 4)
        self.pc += 4
        return self._push(record)

    def store(self, addr, sources=(), size=8):
        record = TraceRecord(pc=self.pc, opclass=OpClass.STORE,
                             sources=tuple(sources), mem_addr=addr,
                             mem_size=size, is_store=True,
                             next_pc=self.pc + 4)
        self.pc += 4
        return self._push(record)

    def branch(self, taken, target=None, sources=()):
        if taken and target is None:
            target = self.pc + 8  # skip one slot forward
        next_pc = target if taken else self.pc + 4
        record = TraceRecord(pc=self.pc, opclass=OpClass.BRANCH,
                             sources=tuple(sources), is_control=True,
                             taken=taken, next_pc=next_pc)
        self.pc = next_pc
        return self._push(record)

    def build(self):
        return self.records


def run_trace(records, config_name="2P", **kwargs):
    return simulate(records, machine(config_name, **kwargs))


class TestBasics:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            run_trace([])

    def test_single_instruction(self):
        tb = TraceBuilder()
        tb.alu(dest=5)
        result = run_trace(tb.build())
        assert result.instructions == 1
        assert result.cycles >= 3  # fetch + decode + issue + commit

    def test_all_instructions_commit(self):
        tb = TraceBuilder()
        for i in range(100):
            tb.alu(dest=5 + i % 8)
        result = run_trace(tb.build())
        assert result.instructions == 100
        assert result.stats["core.committed"] == 100

    def test_determinism(self):
        tb = TraceBuilder()
        for i in range(64):
            tb.load(dest=5, addr=0x1000 + 16 * i)
            tb.alu(dest=6, sources=(5,))
        records = tb.build()
        first = run_trace(records, "1P+LB")
        second = run_trace(records, "1P+LB")
        assert first.cycles == second.cycles


def looped(body, iterations=60):
    """Repeat *body(tb)* as a loop with a taken back edge (keeps the
    instruction footprint tiny so the I-cache stays warm)."""
    tb = TraceBuilder()
    top = tb.pc
    for _ in range(iterations):
        body(tb)
        tb.branch(taken=True, target=top)
        tb.pc = top
    return tb.build()


class TestThroughput:
    def test_independent_alu_reaches_high_ipc(self):
        records = looped(
            lambda tb: [tb.alu(dest=5 + i % 8) for i in range(15)])
        result = run_trace(records)
        assert result.ipc > 2.3  # 4-wide, no dependences, 1 branch/16

    def test_dependency_chain_limits_to_one(self):
        def body(tb):
            for _ in range(15):
                tb.alu(dest=5, sources=(5,))
        result = run_trace(looped(body))
        assert 0.8 < result.ipc < 1.25

    def test_mul_chain_pays_latency(self):
        def body(tb):
            for _ in range(15):
                tb.mul(dest=5, sources=(5,))
        result = run_trace(looped(body))
        # MUL latency is 4: chain IPC ~ 16/60
        assert result.ipc < 0.45

    def test_load_use_chain_pays_cache_latency(self):
        def chained_body(tb):
            for _ in range(8):
                tb.load(dest=5, addr=0x2000, sources=(5,))

        def independent_body(tb):
            for i in range(8):
                tb.load(dest=5 + i, addr=0x2000)
        chained = run_trace(looped(chained_body))
        independent = run_trace(looped(independent_body))
        assert independent.ipc > 1.5 * chained.ipc


class TestBranches:
    def test_predictable_loop_runs_fast(self):
        tb = TraceBuilder()
        loop_top = tb.pc
        for _ in range(200):
            tb.alu(dest=5)
            tb.alu(dest=6)
            tb.alu(dest=7)
            tb.branch(taken=True, target=loop_top)
        result = run_trace(tb.build())
        # After BTB warmup the loop is perfectly predicted.
        accuracy = result.stats["bpred.correct"] / \
            result.stats["bpred.branches"]
        assert accuracy > 0.95
        assert result.ipc > 2.0

    def test_random_branches_hurt(self):
        import random
        rng = random.Random(3)

        def noisy_body(tb):
            # Four hammocks: branch either skips one slot or executes it.
            for _ in range(4):
                tb.alu(dest=5)
                skip_target = tb.pc + 8
                if rng.random() < 0.5:
                    tb.branch(taken=True, target=skip_target)
                else:
                    tb.branch(taken=False)
                    tb.alu(dest=6)  # the skippable slot

        def steady_body(tb):
            for _ in range(4):
                tb.alu(dest=5)
                tb.branch(taken=False)
                tb.alu(dest=6)
        noisy = run_trace(looped(noisy_body, iterations=80))
        steady = run_trace(looped(steady_body, iterations=80))
        assert steady.ipc > 1.3 * noisy.ipc

    def test_mispredict_count_matches_trace_surprises(self):
        tb = TraceBuilder()
        for _ in range(50):
            tb.alu(dest=5)
            tb.branch(taken=False)   # two-bit init predicts taken... but
            # taken prediction without a BTB target falls through, so
            # these resolve as correct fall-through fetches.
        result = run_trace(tb.build())
        assert result.stats["bpred.mispredicts"] == 0


class TestSerialisation:
    def test_trap_style_redirect_flushes(self):
        tb = TraceBuilder()
        for _ in range(20):
            tb.alu(dest=5)
        # A non-control record that jumps (trap/interrupt style).
        redirect = tb.alu(dest=6)
        target = 0x2_0000
        redirect.next_pc = target
        tb.pc = target
        for _ in range(20):
            tb.alu(dest=7)
        result = run_trace(tb.build())
        assert result.instructions == 41
        assert result.stats["fetch.serialize_redirects"] == 1
        assert result.stats["fetch.stall_serialize_cycles"] > 0


class TestStores:
    def test_store_stream_commits(self):
        tb = TraceBuilder()
        for i in range(200):
            tb.store(addr=0x3000 + 8 * i, sources=(5,))
        result = run_trace(tb.build(), "1P")
        assert result.instructions == 200

    def test_tiny_write_buffer_does_not_deadlock(self):
        tb = TraceBuilder()
        for i in range(100):
            tb.store(addr=0x3000 + 64 * i, sources=(5,))
        result = run_trace(tb.build(), "1P", write_buffer_depth=1)
        assert result.instructions == 100

    def test_no_write_buffer_direct_stores(self):
        tb = TraceBuilder()
        for i in range(50):
            tb.store(addr=0x3000 + 8 * i, sources=(5,))
            tb.alu(dest=5)
        result = run_trace(tb.build(), "1P", write_buffer_depth=0)
        assert result.instructions == 100
        assert result.stats["wb.drains"] == 0

    def test_store_to_load_forwarding_end_to_end(self):
        tb = TraceBuilder()
        tb.alu(dest=5)
        for i in range(50):
            tb.store(addr=0x4000, sources=(6, 5))
            tb.load(dest=7, addr=0x4000)
        result = run_trace(tb.build(), "1P")
        assert result.stats["lsq.sq_forwards"] > 0


class TestStructuralLimits:
    def test_smaller_rob_is_never_faster(self):
        tb = TraceBuilder()
        for i in range(300):
            if i % 5 == 0:
                tb.load(dest=5 + i % 4, addr=0x2000 + 32 * i)
            else:
                tb.alu(dest=5 + i % 4)
        records = tb.build()
        big = simulate(records, machine("1P"))
        small_machine = machine("1P")
        from dataclasses import replace
        small_machine = replace(
            small_machine,
            core=replace(small_machine.core, rob_size=8))
        small = simulate(records, small_machine)
        assert small.cycles >= big.cycles
        assert small.stats["core.dispatch_rob_full"] > 0

    def test_issue_never_exceeds_width(self):
        tb = TraceBuilder()
        for i in range(200):
            tb.alu(dest=5 + i % 16)
        result = run_trace(tb.build())
        assert result.stats["core.issued"] == 200
        # With width 4 and 200 instructions at least 50 cycles of issue.
        assert result.cycles >= 50


class TestAgainstRealTraces:
    def test_stream_trace_runs_on_all_configs(self, stream_trace):
        from repro.presets import CONFIG_NAMES
        for name in CONFIG_NAMES:
            result = simulate(stream_trace, machine(name))
            assert result.instructions == len(stream_trace)
            assert 0.1 < result.ipc < 4.0

    def test_qsort_trace_commits_fully(self, qsort_trace):
        result = simulate(qsort_trace, machine("1P"))
        assert result.instructions == len(qsort_trace)

    def test_port_uses_bounded_by_cycles_times_ports(self, stream_trace):
        for name, ports in (("1P", 1), ("2P", 2)):
            result = simulate(stream_trace, machine(name))
            assert result.stats["dcache.port_uses"] <= ports * result.cycles


class TestWatchdog:
    """The zero-progress watchdog must scale with the machine: a flat
    bound trips on configurations whose legitimate commit-to-commit
    gap exceeds it (deep buffering, very slow memory)."""

    @staticmethod
    def _slow_memory_machine(memory_latency):
        from dataclasses import replace
        base = machine("1P")
        mem = base.mem
        return replace(base, mem=replace(
            mem, next_level=replace(mem.next_level,
                                    memory_latency=memory_latency)))

    def test_limit_scales_with_machine(self):
        from repro.core.pipeline import _WATCHDOG_FLOOR, watchdog_limit
        small = watchdog_limit(machine("1P"))
        assert small >= _WATCHDOG_FLOOR
        slow = watchdog_limit(self._slow_memory_machine(60_000))
        assert slow > 60_000, "limit must exceed one memory round-trip"
        assert slow > small

    @pytest.mark.parametrize("fastpath", [False, True])
    def test_pathological_but_progressing_config_completes(
            self, fastpath, monkeypatch):
        # One cold load miss takes > 50_000 cycles to fill: the old
        # flat _WATCHDOG_CYCLES = 50_000 bound called this a deadlock.
        from repro.core import pipeline as pipeline_module
        monkeypatch.setattr(pipeline_module, "_ENV_VALIDATE", False)
        tb = TraceBuilder()
        tb.load(dest=5, addr=0x4000)
        tb.alu(dest=6, sources=(5,))
        config = self._slow_memory_machine(60_000)
        core = OoOCore(config, fastpath=fastpath)
        result = core.run(tb.build())
        assert core.used_fastpath == fastpath
        assert result.instructions == 2
        assert result.cycles > 50_000

    @staticmethod
    def _deadlock_report(fastpath):
        """The watchdog's message for a cold load held past a forced low
        limit: the I-cache miss is served in time, but it keeps the L2
        busy for 2,000 cycles, so the load waits at the ROB head."""
        from dataclasses import replace
        from repro import SimError
        base = machine("1P")
        mem = base.mem
        config = replace(base, mem=replace(
            mem, next_level=replace(mem.next_level, occupancy=2_000)))
        tb = TraceBuilder()
        tb.load(dest=5, addr=0x4000)
        tb.alu(dest=6, sources=(5,))
        core = OoOCore(config, fastpath=fastpath)
        core._watchdog_limit = 100
        with pytest.raises(SimError, match="no progress") as caught:
            core.run(tb.build())
        assert core.used_fastpath == fastpath
        return str(caught.value)

    def test_trip_leaves_the_reference_loops_counters(self, monkeypatch):
        # At the trip the head divide is issued, the second divide is
        # blocked on the one unpipelined divider, an ALU op waits on
        # the first and the rest have issued behind the head: the fast
        # loop's counters, FU op counts included, must read as the
        # reference loop's.
        from dataclasses import replace
        from repro import SimError
        from repro.core import pipeline as pipeline_module
        monkeypatch.setattr(pipeline_module, "_ENV_VALIDATE", False)
        base = machine("1P")
        mem = base.mem
        config = replace(base, mem=replace(mem, next_level=replace(
            mem.next_level, hit_latency=2, memory_latency=2)))
        tb = TraceBuilder()
        tb.alu(dest=1)
        for dest in (2, 3):
            tb._push(TraceRecord(pc=tb.pc, opclass=OpClass.DIV, dest=dest,
                                 sources=(1,), next_pc=tb.pc + 4))
            tb.pc += 4
        tb.alu(dest=4, sources=(2,))
        tb.alu(dest=5)
        tb.mul(dest=6, sources=(5,))
        counters, ledgers, cycles = [], [], []
        for fastpath in (False, True):
            core = OoOCore(config, fastpath=fastpath)
            core._watchdog_limit = 8
            with pytest.raises(SimError, match="no progress"):
                core.run(tb.build())
            counters.append(core.stats.as_dict())
            # The trip cycle ran: both loops count it in the ledger and
            # leave the core's cycle at it.
            assert core.ledger.check_conservation()
            ledgers.append(core.ledger.as_dict())
            cycles.append(core._cycle)
        assert counters[1] == counters[0]
        assert ledgers[1] == ledgers[0]
        assert cycles[1] == cycles[0] == ledgers[0]["cycles"] - 1
        assert counters[1]["fu.div.ops"] == 1
        assert counters[1]["fu.div.structural_stalls"] > 0
        assert counters[1]["core.issued"] == 4

    @pytest.mark.parametrize("fastpath", [False, True])
    def test_forced_low_limit_fires(self, fastpath, monkeypatch):
        # Both loops trip at the same cycle and report the same
        # occupancy and head, in the reference loop's words.
        from repro.core import pipeline as pipeline_module
        monkeypatch.setattr(pipeline_module, "_ENV_VALIDATE", False)
        report = self._deadlock_report(fastpath)
        assert "head=Uop#0(L completed=False)" in report
        assert report == self._deadlock_report(False)

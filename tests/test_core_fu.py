"""Unit tests for the functional unit pool."""

from repro.core import FUPool
from repro.core.config import FUSpec
from repro.isa import OpClass
from repro.trace.io import OPCLASSES

#: Opclass indices, which the pool is indexed by.
ALU, MUL, DIV = (OPCLASSES.index(opclass)
                 for opclass in (OpClass.ALU, OpClass.MUL, OpClass.DIV))


def make_pool(**overrides):
    specs = {opclass: FUSpec(count=1, latency=1) for opclass in OpClass}
    specs.update(overrides)
    return FUPool(specs)


class TestPipelined:
    def test_completion_time(self):
        pool = make_pool()
        pool.begin_cycle(5)
        assert pool.try_issue(ALU, 5) == 6

    def test_per_cycle_count_limit(self):
        pool = FUPool({OpClass.ALU: FUSpec(count=2, latency=1)})
        pool.begin_cycle(0)
        assert pool.try_issue(ALU, 0) is not None
        assert pool.try_issue(ALU, 0) is not None
        assert pool.try_issue(ALU, 0) is None

    def test_limit_resets_next_cycle(self):
        pool = FUPool({OpClass.ALU: FUSpec(count=1, latency=1)})
        pool.begin_cycle(0)
        assert pool.try_issue(ALU, 0) is not None
        assert pool.try_issue(ALU, 0) is None
        pool.begin_cycle(1)
        assert pool.try_issue(ALU, 1) is not None

    def test_pipelined_accepts_every_cycle_despite_latency(self):
        pool = FUPool({OpClass.MUL: FUSpec(count=1, latency=4)})
        for cycle in range(3):
            pool.begin_cycle(cycle)
            assert pool.try_issue(MUL, cycle) == cycle + 4


class TestUnpipelined:
    def test_busy_for_full_latency(self):
        pool = FUPool({OpClass.DIV: FUSpec(count=1, latency=10,
                                           pipelined=False)})
        pool.begin_cycle(0)
        assert pool.try_issue(DIV, 0) == 10
        pool.begin_cycle(1)
        assert pool.try_issue(DIV, 1) is None
        pool.begin_cycle(10)
        assert pool.try_issue(DIV, 10) == 20

    def test_two_units_overlap(self):
        pool = FUPool({OpClass.DIV: FUSpec(count=2, latency=10,
                                           pipelined=False)})
        pool.begin_cycle(0)
        assert pool.try_issue(DIV, 0) is not None
        pool.begin_cycle(1)
        assert pool.try_issue(DIV, 1) is not None
        pool.begin_cycle(2)
        assert pool.try_issue(DIV, 2) is None


class TestStats:
    def test_ops_and_stalls_counted(self):
        pool = FUPool({OpClass.ALU: FUSpec(count=1, latency=1)})
        pool.begin_cycle(0)
        pool.try_issue(ALU, 0)
        pool.try_issue(ALU, 0)
        assert pool.stats["fu.alu.ops"] == 1
        assert pool.stats["fu.alu.structural_stalls"] == 1

"""Unit tests for branch prediction structures."""

import pytest

from repro.core import BTB, BranchPredictor, GShare, TwoBitCounters
from repro.core.config import CoreConfig


class TestTwoBit:
    def test_initial_state_weakly_taken(self):
        predictor = TwoBitCounters(4)
        assert predictor.predict(0x1000)

    def test_single_not_taken_flips_weak_counter(self):
        predictor = TwoBitCounters(4)
        predictor.update(0x1000, False)
        assert not predictor.predict(0x1000)

    def test_hysteresis_when_saturated(self):
        predictor = TwoBitCounters(4)
        predictor.update(0x1000, True)   # now strongly taken (3)
        predictor.update(0x1000, False)  # back to weakly taken (2)
        assert predictor.predict(0x1000)

    def test_saturation_bounds(self):
        predictor = TwoBitCounters(4)
        for _ in range(10):
            predictor.update(0x1000, True)
        assert predictor.table[predictor._index(0x1000)] == 3
        for _ in range(10):
            predictor.update(0x1000, False)
        assert predictor.table[predictor._index(0x1000)] == 0

    def test_aliasing_by_table_size(self):
        predictor = TwoBitCounters(2)  # 4 entries, indexed by pc>>2
        for _ in range(3):
            predictor.update(0x1000, False)
        # 0x1010 aliases 0x1000 in a 4-entry table.
        assert not predictor.predict(0x1010)


class TestGShare:
    def test_history_shifts_in_outcomes(self):
        predictor = GShare(8, 4)
        predictor.update(0x1000, True)
        predictor.update(0x1000, False)
        assert predictor.history == 0b10

    def test_history_disambiguates_same_pc(self):
        predictor = GShare(8, 2)
        # Alternating pattern TNTN at one pc: a plain 2-bit counter
        # stays confused, gshare learns it once the history separates
        # the two contexts.
        for _ in range(20):
            predictor.update(0x1000, predictor.history & 1 == 0)
        correct = 0
        for _ in range(20):
            prediction = predictor.predict(0x1000)
            actual = predictor.history & 1 == 0
            correct += prediction == actual
            predictor.update(0x1000, actual)
        assert correct >= 18


class TestBTB:
    def test_miss_then_hit(self):
        btb = BTB(16)
        assert btb.lookup(0x1000) is None
        btb.update(0x1000, 0x2000)
        assert btb.lookup(0x1000) == 0x2000

    def test_tag_prevents_false_hit(self):
        btb = BTB(16)
        btb.update(0x1000, 0x2000)
        assert btb.lookup(0x1000 + 16 * 4) is None  # same index, wrong tag

    def test_conflict_replaces(self):
        btb = BTB(16)
        btb.update(0x1000, 0x2000)
        btb.update(0x1000 + 64, 0x3000)
        assert btb.lookup(0x1000) is None

    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            BTB(12)


class TestFacade:
    def _predictor(self, kind="twobit"):
        return BranchPredictor(kind)

    def test_taken_without_btb_target_falls_through(self):
        predictor = self._predictor()
        taken, target = predictor.predict_branch(0x1000)
        assert not taken and target is None  # direction said taken, no BTB

    def test_taken_with_btb_target(self):
        predictor = self._predictor()
        predictor.resolve_branch(0x1000, True, 0x2000, False, False)
        taken, target = predictor.predict_branch(0x1000)
        assert taken and target == 0x2000

    def test_accounting(self):
        predictor = self._predictor()
        predictor.resolve_branch(0x1000, True, 0x2000, True, True)
        predictor.resolve_branch(0x1000, False, 0x2000, True, False)
        assert predictor.stats["bpred.branches"] == 2
        assert predictor.stats["bpred.correct"] == 1
        assert predictor.stats["bpred.mispredicts"] == 1

    def test_jump_prediction_and_training(self):
        predictor = self._predictor()
        assert predictor.predict_jump(0x1000) is None
        predictor.resolve_jump(0x1000, 0x4000, False)
        assert predictor.predict_jump(0x1000) == 0x4000
        assert predictor.stats["bpred.jump_mispredicts"] == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CoreConfig(predictor="oracle")
        with pytest.raises(ValueError):
            BranchPredictor("oracle")

"""Branch prediction: direction predictors and a branch target buffer.

The table sizes and redirect penalties are fixed: no experiment varies
them.  Only the direction predictor's kind is a setting
(``CoreConfig.predictor``), which B1 turns.
"""

from __future__ import annotations

from ..stats.counters import Stats

#: Direction predictor kinds (``CoreConfig.predictor``).
PREDICTOR_KINDS = ("twobit", "gshare")
#: 2^TABLE_BITS two-bit counters; gshare's global history length.
TABLE_BITS = 11
HISTORY_BITS = 8
BTB_ENTRIES = 512
#: Extra fetch-stall cycles after a mispredict resolves, and after the
#: decode-time redirect of a direct jump that missed in the BTB.
MISPREDICT_REDIRECT = 1
BTB_MISS_REDIRECT = 1


class TwoBitCounters:
    """A table of classic 2-bit saturating counters indexed by pc."""

    def __init__(self, table_bits: int) -> None:
        self.mask = (1 << table_bits) - 1
        self.table = [2] * (1 << table_bits)  # init weakly taken

    def _index(self, pc: int) -> int:
        return (pc >> 2) & self.mask

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self.table[index]
        if taken:
            if counter < 3:
                self.table[index] = counter + 1
        elif counter > 0:
            self.table[index] = counter - 1


class GShare:
    """Global-history-xor-pc indexed 2-bit counters."""

    def __init__(self, table_bits: int, history_bits: int) -> None:
        self.mask = (1 << table_bits) - 1
        self.history_mask = (1 << history_bits) - 1
        self.table = [2] * (1 << table_bits)
        self.history = 0

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self.history) & self.mask

    def predict(self, pc: int) -> bool:
        return self.table[self._index(pc)] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = self._index(pc)
        counter = self.table[index]
        if taken:
            if counter < 3:
                self.table[index] = counter + 1
        elif counter > 0:
            self.table[index] = counter - 1
        self.history = ((self.history << 1) | int(taken)) & self.history_mask


class BTB:
    """Direct-mapped branch target buffer with tags."""

    def __init__(self, entries: int) -> None:
        if entries & (entries - 1):
            raise ValueError("BTB entries must be a power of two")
        self.mask = entries - 1
        self._targets: list[tuple[int, int] | None] = [None] * entries

    def lookup(self, pc: int) -> int | None:
        entry = self._targets[(pc >> 2) & self.mask]
        if entry is not None and entry[0] == pc:
            return entry[1]
        return None

    def update(self, pc: int, target: int) -> None:
        self._targets[(pc >> 2) & self.mask] = (pc, target)


class BranchPredictor:
    """Direction predictor + BTB with prediction accounting.

    ``predict`` returns ``(taken, target)`` where ``target`` is None on
    a BTB miss — the fetch unit cannot redirect without a target even
    when the direction says taken.
    """

    def __init__(self, kind: str = "twobit",
                 stats: Stats | None = None) -> None:
        self.stats = stats if stats is not None else Stats()
        if kind == "twobit":
            self.direction = TwoBitCounters(TABLE_BITS)
        elif kind == "gshare":
            self.direction = GShare(TABLE_BITS, HISTORY_BITS)
        else:
            raise ValueError(f"unknown predictor kind {kind!r}")
        self.btb = BTB(BTB_ENTRIES)

    def predict_branch(self, pc: int) -> tuple[bool, int | None]:
        """Predict a conditional branch."""
        taken = self.direction.predict(pc)
        target = self.btb.lookup(pc) if taken else None
        if taken and target is None:
            # Direction says taken but no target: fall through (and pay
            # for it at resolution if the branch really was taken).
            return False, None
        return taken, target

    def predict_jump(self, pc: int) -> int | None:
        """Predict an unconditional transfer's target (None = BTB miss)."""
        return self.btb.lookup(pc)

    def resolve_branch(self, pc: int, taken: bool, target: int,
                       predicted_taken: bool, correct: bool) -> None:
        """Train after a conditional branch resolves."""
        self.direction.update(pc, taken)
        if taken:
            self.btb.update(pc, target)
        self.stats.inc("bpred.branches")
        if correct:
            self.stats.inc("bpred.correct")
        else:
            self.stats.inc("bpred.mispredicts")

    def resolve_jump(self, pc: int, target: int, correct: bool) -> None:
        """Train after an unconditional transfer resolves."""
        self.btb.update(pc, target)
        self.stats.inc("bpred.jumps")
        if correct:
            self.stats.inc("bpred.jump_correct")
        else:
            self.stats.inc("bpred.jump_mispredicts")

"""Unit tests for the line buffer and the write buffer."""

import pytest

from repro.mem import LineBuffer, WriteBuffer
from repro.stats import Stats


class TestLineBuffer:
    def test_needs_capacity(self):
        with pytest.raises(ValueError):
            LineBuffer(0)

    def test_miss_then_hit(self):
        lb = LineBuffer(1)
        assert not lb.lookup(7)
        lb.insert(7)
        assert lb.lookup(7)

    def test_single_entry_replacement(self):
        lb = LineBuffer(1)
        lb.insert(1)
        lb.insert(2)
        assert not lb.lookup(1)
        assert lb.lookup(2)

    def test_lru_with_multiple_entries(self):
        lb = LineBuffer(2)
        lb.insert(1)
        lb.insert(2)
        lb.lookup(1)      # 1 becomes MRU
        lb.insert(3)      # evicts 2
        assert lb.lookup(1) and lb.lookup(3) and not lb.lookup(2)

    def test_reinsert_refreshes(self):
        lb = LineBuffer(2)
        lb.insert(1)
        lb.insert(2)
        lb.insert(1)
        lb.insert(3)
        assert not lb.lookup(2)

    def test_store_update_policy_keeps_entry(self):
        lb = LineBuffer(1)
        lb.insert(4)
        lb.note_store(4)
        assert lb.lookup(4)

    def test_store_to_absent_line_is_noop(self):
        lb = LineBuffer(1)
        lb.insert(4)
        lb.note_store(9)
        assert lb.lookup(4)

    def test_explicit_invalidate(self):
        lb = LineBuffer(2)
        lb.insert(4)
        lb.invalidate(4)
        assert not lb.lookup(4)

    def test_stats(self):
        stats = Stats()
        lb = LineBuffer(1, name="lb", stats=stats)
        lb.lookup(1)
        lb.insert(1)
        lb.lookup(1)
        assert stats["lb.misses"] == 1
        assert stats["lb.hits"] == 1
        assert stats["lb.fills"] == 1


class TestWriteBufferBasics:
    def _wb(self, depth=4, combine=False):
        return WriteBuffer(depth, combine, line_size=32)

    def test_mask_for(self):
        wb = self._wb()
        assert wb.mask_for(0, 8) == 0xFF
        assert wb.mask_for(8, 4) == 0xF << 8
        with pytest.raises(ValueError):
            wb.mask_for(28, 8)

    def test_fifo_order(self):
        wb = self._wb()
        wb.add(1, 0xFF)
        wb.add(2, 0xFF)
        assert wb.pop().line == 1
        assert wb.pop().line == 2

    def test_full_rejects(self):
        wb = self._wb(depth=2)
        assert wb.add(1, 1)
        assert wb.add(2, 1)
        assert not wb.add(3, 1)
        assert len(wb) == 2

    def test_depth_zero_always_full(self):
        wb = self._wb(depth=0)
        assert wb.full
        assert not wb.add(1, 1)

    def test_head_and_empty(self):
        wb = self._wb()
        assert wb.head() is None
        assert wb.empty
        wb.add(5, 1)
        assert wb.head().line == 5
        assert not wb.empty


class TestWriteBufferCombining:
    def test_same_line_merges(self):
        wb = WriteBuffer(4, True, line_size=32)
        wb.add(1, 0x0F)
        wb.add(1, 0xF0)
        assert len(wb) == 1
        assert wb.head().byte_mask == 0xFF

    def test_merge_works_even_when_full(self):
        wb = WriteBuffer(1, True, line_size=32)
        wb.add(1, 0x0F)
        assert wb.add(1, 0xF0)     # merge, no new entry
        assert not wb.add(2, 1)    # new line rejected

    def test_no_combining_duplicates_lines(self):
        wb = WriteBuffer(4, False, line_size=32)
        wb.add(1, 0x0F)
        wb.add(1, 0xF0)
        assert len(wb) == 2

    def test_combining_stats(self):
        stats = Stats()
        wb = WriteBuffer(4, True, line_size=32, name="wb", stats=stats)
        wb.add(1, 1)
        wb.add(1, 2)
        assert stats["wb.combined"] == 1
        assert stats["wb.entries_allocated"] == 1


class TestWriteBufferLoadCheck:
    def test_no_overlap_is_miss(self):
        wb = WriteBuffer(4, False, line_size=32)
        wb.add(1, 0x0F)
        assert wb.load_check(1, 0xF0) == "miss"
        assert wb.load_check(2, 0x0F) == "miss"

    def test_full_coverage_forwards(self):
        wb = WriteBuffer(4, False, line_size=32)
        wb.add(1, 0xFF)
        assert wb.load_check(1, 0x0F) == "forward"

    def test_partial_overlap_conflicts(self):
        wb = WriteBuffer(4, False, line_size=32)
        wb.add(1, 0x0F)
        assert wb.load_check(1, 0xFF) == "conflict"

    def test_newest_entry_wins(self):
        wb = WriteBuffer(4, False, line_size=32)
        wb.add(1, 0xFF)       # old entry covers
        wb.add(1, 0x01)       # newer entry only covers byte 0
        assert wb.load_check(1, 0x0F) == "conflict"
        assert wb.load_check(1, 0x01) == "forward"

    def test_combined_entry_forwards_union(self):
        wb = WriteBuffer(4, True, line_size=32)
        wb.add(1, 0x0F)
        wb.add(1, 0xF0)
        assert wb.load_check(1, 0x3C) == "forward"


class TestValidationProbes:
    """The non-counting probes used by ``repro.validate`` must agree
    with the real lookups without perturbing stats or LRU state."""

    def test_wb_covers_matches_forwarding(self):
        wb = WriteBuffer(4, False, line_size=32)
        wb.add(1, 0xFF)
        assert wb.covers(1, 0x0F)
        assert not wb.covers(1, 0x100)   # byte 8 not buffered
        assert not wb.covers(2, 0x0F)    # different line

    def test_wb_covers_does_not_count(self):
        stats = Stats()
        wb = WriteBuffer(4, False, line_size=32, stats=stats)
        wb.add(1, 0xFF)
        wb.covers(1, 0x0F)
        assert stats["wb.load_forwards"] == 0

    def test_wb_zero_depth_covers_nothing(self):
        wb = WriteBuffer(0, True, line_size=32)
        assert not wb.covers(1, 1)

    def test_lb_contains_matches_lookup(self):
        lb = LineBuffer(2)
        lb.insert(7)
        assert lb.contains(7)
        assert not lb.contains(8)

    def test_lb_contains_does_not_refresh_lru(self):
        lb = LineBuffer(2)
        lb.insert(1)
        lb.insert(2)
        lb.contains(1)      # must NOT make 1 the MRU entry
        lb.insert(3)        # evicts 1, the true LRU
        assert not lb.contains(1)
        assert lb.contains(2) and lb.contains(3)

    def test_lb_contains_does_not_count(self):
        stats = Stats()
        lb = LineBuffer(1, name="lb",
                        stats=stats)
        lb.insert(1)
        lb.contains(1)
        lb.contains(9)
        assert stats["lb.hits"] == 0
        assert stats["lb.misses"] == 0

    def test_lb_len(self):
        lb = LineBuffer(2)
        assert len(lb) == 0
        lb.insert(1)
        lb.insert(2)
        lb.insert(3)
        assert len(lb) == 2


class TestWriteBufferDcacheEdges:
    """Edge cases at the D-cache boundary: coalescing into in-flight
    fills, draining on idle port cycles (the barrier/commit-stall
    path), and the zero-entry configuration."""

    def _dcache(self, **overrides):
        from tests.test_mem_dcache import make_dcache
        return make_dcache(**overrides)

    def test_store_coalesces_into_in_flight_fill(self):
        dcache = self._dcache(ports=2)
        dcache.store_access(5)            # miss: starts a fill
        busy = dcache.mshrs_busy()
        dcache.begin_cycle(1)
        dcache.store_access(5)            # fill still in flight: merge
        assert dcache.stats["dcache.store_mshr_merges"] == 1
        assert dcache.mshrs_busy() == busy

    def test_drain_empties_buffer_on_idle_ports(self):
        # With commit stalled (e.g. at a serialising barrier) nothing
        # competes for ports, so repeated drain calls must empty the
        # buffer completely.
        dcache = self._dcache(ports=1, write_buffer_depth=4, mshrs=4)
        for line in (1, 2, 3):
            assert dcache.buffer_store(line, 0xFF)
        cycle = 0
        while not dcache.write_buffer.empty:
            cycle += 1
            dcache.begin_cycle(cycle)
            dcache.drain_write_buffer()
            assert cycle < 500, "write buffer never drained"
        assert dcache.stats["wb.drains"] == 3

    def test_drain_yields_to_demand_traffic(self):
        dcache = self._dcache(ports=1)
        dcache.buffer_store(1, 0xFF)
        dcache.load_access(2)             # demand load takes the port
        dcache.drain_write_buffer()       # no port left: nothing drains
        assert len(dcache.write_buffer) == 1

    def test_zero_depth_buffer_rejects_all_stores(self):
        dcache = self._dcache(write_buffer_depth=0)
        assert not dcache.buffer_store(1, 0xFF)
        assert dcache.write_buffer.full
        assert dcache.write_buffer.empty

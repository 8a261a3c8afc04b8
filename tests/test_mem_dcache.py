"""Unit tests for the D-cache port subsystem (the paper's mechanism)."""

import pytest

from repro.mem import (
    AccessStatus,
    CacheGeometry,
    DataCacheSystem,
    DCacheConfig,
    LineBufferFill,
    NextLevel,
    NextLevelConfig,
)
from repro.stats import Stats


def make_dcache(**overrides):
    defaults = dict(
        geometry=CacheGeometry(size=1024, line_size=32, assoc=2),
        ports=1, port_width=8, mshrs=2, write_buffer_depth=4,
    )
    defaults.update(overrides)
    config = DCacheConfig(**defaults)
    stats = Stats()
    next_level = NextLevel(NextLevelConfig(
        geometry=CacheGeometry(size=8 * 1024, line_size=32, assoc=4),
        hit_latency=10, memory_latency=50, occupancy=2), stats=stats)
    dcache = DataCacheSystem(config, next_level, stats=stats)
    dcache.begin_cycle(0)
    return dcache


class TestConfigValidation:
    def test_port_width_cannot_exceed_line(self):
        with pytest.raises(ValueError):
            DCacheConfig(port_width=64,
                         geometry=CacheGeometry(line_size=32))

    def test_needs_a_port(self):
        with pytest.raises(ValueError):
            DCacheConfig(ports=0)


class TestAddressHelpers:
    def test_line_chunk_mask(self):
        dcache = make_dcache(port_width=16)
        assert dcache.line_of(0x40) == 2
        assert dcache.chunk_of(0x48) == 4
        assert dcache.byte_mask(0x48, 8) == 0xFF << 8


class TestPorts:
    def test_single_port_exhausts(self):
        dcache = make_dcache(ports=1)
        assert dcache.load_access(0x100).ok
        result = dcache.load_access(0x101)
        assert result.status is AccessStatus.NO_PORT
        assert dcache.ports_free() == 0

    def test_ports_reset_each_cycle(self):
        dcache = make_dcache(ports=1)
        dcache.load_access(0x100)
        dcache.begin_cycle(1)
        assert dcache.ports_free() == 1
        assert dcache.load_access(0x100).ok

    def test_dual_port_allows_two(self):
        dcache = make_dcache(ports=2)
        assert dcache.load_access(1).ok
        assert dcache.load_access(2).ok
        assert dcache.load_access(3).status is AccessStatus.NO_PORT

    def test_port_uses_counted(self):
        dcache = make_dcache(ports=2)
        dcache.load_access(1)
        dcache.store_access(2)
        assert dcache.stats["dcache.port_uses"] == 2


class TestLoadPath:
    def test_miss_then_hit_latency(self):
        dcache = make_dcache()
        miss = dcache.load_access(4)
        assert miss.ok and miss.ready == 60  # cold: L2 miss to memory
        dcache.begin_cycle(100)
        hit = dcache.load_access(4)
        assert hit.ok and hit.ready == 101   # hit latency 1

    def test_l2_hit_latency_after_l1_eviction(self):
        dcache = make_dcache(
            geometry=CacheGeometry(size=64, line_size=32, assoc=1))
        first = dcache.load_access(0)        # cold: memory
        dcache.begin_cycle(first.ready + 1)
        dcache.load_access(2)                # same set: evicts line 0
        dcache.begin_cycle(300)
        again = dcache.load_access(0)        # L1 miss, L2 hit
        assert again.ready == 300 + 10

    def test_cold_miss_goes_to_memory(self):
        dcache = make_dcache()
        result = dcache.load_access(4)
        # L2 is cold too: hit latency + memory latency
        assert result.ready == 60

    def test_secondary_miss_merges(self):
        dcache = make_dcache()
        first = dcache.load_access(4)
        dcache.begin_cycle(1)
        second = dcache.load_access(4)
        assert second.ok
        assert second.ready == first.ready
        assert dcache.stats["dcache.load_secondary_misses"] == 1
        assert dcache.stats["dcache.load_misses"] == 1

    def test_mshr_full_rejects_but_spends_port(self):
        dcache = make_dcache(mshrs=2, ports=4)
        dcache.load_access(4)
        dcache.load_access(100)
        result = dcache.load_access(200)
        assert result.status is AccessStatus.MSHR_FULL
        assert dcache.stats["dcache.port_uses"] == 3

    def test_mshrs_free_after_fill_completes(self):
        dcache = make_dcache(mshrs=1)
        first = dcache.load_access(4)
        dcache.begin_cycle(first.ready + 1)
        assert dcache.load_access(999).ok


class TestLineBufferIntegration:
    def _lb_dcache(self, fill=LineBufferFill.ON_ACCESS):
        return make_dcache(line_buffer_entries=1, line_buffer_fill=fill,
                           ports=2)

    def test_load_access_fills_line_buffer(self):
        dcache = self._lb_dcache()
        assert not dcache.line_buffer_hit(4)
        result = dcache.load_access(4)
        dcache.begin_cycle(result.ready + 1)
        assert dcache.line_buffer_hit(4)

    def test_line_buffer_hit_hidden_while_fill_pending(self):
        dcache = self._lb_dcache()
        dcache.load_access(4)          # miss; line captured but in flight
        dcache.begin_cycle(1)
        assert not dcache.line_buffer_hit(4)

    def test_on_fill_policy_ignores_hits(self):
        dcache = self._lb_dcache(fill=LineBufferFill.ON_FILL)
        first = dcache.load_access(4)          # miss -> captured
        dcache.begin_cycle(first.ready + 1)
        second = dcache.load_access(9)         # miss -> captured, evicts 4
        dcache.begin_cycle(second.ready + 1)
        dcache.load_access(4)                  # L1 hit: must NOT recapture
        assert dcache.line_buffer_hit(9)
        assert not dcache.line_buffer_hit(4)

    def test_store_updates_line_buffer_by_policy(self):
        # A store to a buffered line updates the entry in place: later
        # loads to the line still bypass the ports.
        dcache = self._lb_dcache()
        ready = dcache.load_access(4).ready
        dcache.begin_cycle(ready + 1)
        assert dcache.line_buffer_hit(4)
        dcache.store_access(4)
        assert dcache.stats["lb.store_updates"] == 1
        assert dcache.line_buffer_hit(4)

    def test_eviction_invalidates_line_buffer(self):
        dcache = make_dcache(
            geometry=CacheGeometry(size=64, line_size=32, assoc=1),
            line_buffer_entries=4, line_buffer_fill=LineBufferFill.ON_ACCESS,
            ports=4, mshrs=4)
        ready = dcache.load_access(0).ready
        dcache.begin_cycle(ready + 1)
        assert dcache.line_buffer_hit(0)
        # line 2 maps to the same (single) set of the 2-set cache: evicts 0
        dcache.load_access(2 * 32)
        assert not dcache.line_buffer_hit(0)


class TestStorePath:
    def test_store_hit_marks_dirty(self):
        dcache = make_dcache(ports=2)
        ready = dcache.load_access(4).ready
        dcache.begin_cycle(ready + 1)
        assert dcache.store_access(4).ok
        assert dcache.stats["dcache.store_hits"] == 1

    def test_store_miss_allocates(self):
        dcache = make_dcache()
        assert dcache.store_access(4).ok
        assert dcache.stats["dcache.store_misses"] == 1

    def test_store_merges_into_pending_fill(self):
        dcache = make_dcache(ports=2)
        dcache.load_access(4)
        dcache.begin_cycle(1)
        assert dcache.store_access(4).ok
        assert dcache.stats["dcache.store_mshr_merges"] == 1

    def test_dirty_eviction_writes_back(self):
        dcache = make_dcache(
            geometry=CacheGeometry(size=64, line_size=32, assoc=1),
            ports=4, mshrs=4)
        dcache.store_access(0)
        dcache.begin_cycle(200)
        dcache.load_access(2 * 32)     # same set, evicts dirty line 0
        assert dcache.stats["dcache.writebacks"] == 1


class TestWriteBufferDrain:
    def test_drain_uses_idle_ports(self):
        dcache = make_dcache(ports=1)
        dcache.buffer_store(4, 0xFF)
        dcache.drain_write_buffer()
        assert dcache.write_buffer.empty
        assert dcache.stats["dcache.port_uses"] == 1

    def test_drain_blocked_by_busy_port(self):
        dcache = make_dcache(ports=1)
        dcache.load_access(100)        # consumes the only port
        dcache.buffer_store(4, 0xFF)
        dcache.drain_write_buffer()
        assert not dcache.write_buffer.empty

    def test_drain_stops_on_mshr_full(self):
        dcache = make_dcache(mshrs=1, ports=4)
        dcache.load_access(100)              # occupies the only MSHR
        dcache.buffer_store(4, 0xFF)         # store will miss
        dcache.drain_write_buffer()
        assert not dcache.write_buffer.empty
        assert dcache.stats["dcache.store_mshr_full"] == 1

    def test_forwarding_check_delegates_to_buffer(self):
        dcache = make_dcache()
        dcache.buffer_store(4, 0x0F)
        assert dcache.write_buffer_check(4, 0x0F) == "forward"
        assert dcache.write_buffer_check(4, 0xFF) == "conflict"
        assert dcache.write_buffer_check(9, 0x0F) == "miss"


class TestBanking:
    def test_same_bank_conflicts(self):
        dcache = make_dcache(ports=2, banks=4)
        assert dcache.load_access(0).ok
        result = dcache.load_access(4)   # 4 % 4 == 0: same bank
        assert result.status is AccessStatus.BANK_CONFLICT
        assert dcache.stats["dcache.bank_conflicts"] == 1

    def test_conflict_spends_no_port(self):
        dcache = make_dcache(ports=2, banks=4)
        dcache.load_access(0)
        dcache.load_access(4)            # conflict
        assert dcache.ports_free() == 1
        assert dcache.load_access(1).ok  # different bank still fine

    def test_different_banks_proceed(self):
        dcache = make_dcache(ports=2, banks=4)
        assert dcache.load_access(0).ok
        assert dcache.load_access(1).ok

    def test_banks_reset_each_cycle(self):
        dcache = make_dcache(ports=2, banks=4)
        dcache.load_access(0)
        dcache.begin_cycle(1)
        assert dcache.load_access(4).ok

    def test_monolithic_cache_has_no_conflicts(self):
        dcache = make_dcache(ports=2, banks=1)
        assert dcache.load_access(0).ok
        assert dcache.load_access(4).ok

    def test_bank_of_interleaving(self):
        dcache = make_dcache(banks=4)
        assert dcache.bank_of(0) == 0
        assert dcache.bank_of(5) == 1
        assert dcache.bank_of(7) == 3

    def test_store_bank_conflict(self):
        dcache = make_dcache(ports=2, banks=2)
        dcache.load_access(0)
        assert dcache.store_access(2).status is AccessStatus.BANK_CONFLICT

    def test_bank_count_power_of_two(self):
        with pytest.raises(ValueError):
            make_dcache(banks=3)


class TestPrefetch:
    def test_demand_miss_prefetches_next_line(self):
        dcache = make_dcache(prefetch_next_line=True, mshrs=4)
        dcache.load_access(10)
        assert dcache.stats["dcache.prefetches"] == 1
        dcache.begin_cycle(500)
        result = dcache.load_access(11)
        assert result.ok and result.ready == 501  # prefetched: now a hit

    def test_no_prefetch_when_disabled(self):
        dcache = make_dcache(prefetch_next_line=False)
        dcache.load_access(10)
        assert dcache.stats["dcache.prefetches"] == 0

    def test_prefetch_skips_resident_lines(self):
        dcache = make_dcache(prefetch_next_line=True, mshrs=4)
        first = dcache.load_access(11)
        dcache.begin_cycle(first.ready + 1)
        dcache.load_access(10)  # miss; next line (11) already resident
        assert dcache.stats["dcache.prefetches"] == 1  # only 12 from 11

    def test_prefetch_respects_mshr_limit(self):
        dcache = make_dcache(prefetch_next_line=True, mshrs=1)
        dcache.load_access(10)  # uses the only MSHR
        assert dcache.stats["dcache.prefetches"] == 0

    def test_prefetch_needs_no_port(self):
        dcache = make_dcache(prefetch_next_line=True, ports=1, mshrs=4)
        dcache.load_access(10)
        assert dcache.stats["dcache.port_uses"] == 1
        assert dcache.stats["dcache.prefetches"] == 1

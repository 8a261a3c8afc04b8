"""Unit tests for the load/store queue port scheduler."""

from repro.core.config import CoreConfig
from repro.core.lsq import LoadStoreQueue
from repro.core.uop import Uop
from repro.isa import OpClass
from repro.mem import (
    CacheGeometry,
    DataCacheSystem,
    DCacheConfig,
    NextLevel,
    NextLevelConfig,
)
from repro.stats import Stats
from repro.trace.io import OPCLASSES


def make_lsq(combine=False, ports=1, port_width=8, line_buffer=False,
             max_combine=4):
    stats = Stats()
    next_level = NextLevel(NextLevelConfig(), stats=stats)
    dconfig = DCacheConfig(
        geometry=CacheGeometry(size=4 * 1024, line_size=32, assoc=2),
        ports=ports, port_width=port_width, combine_loads=combine,
        line_buffer_entries=1 if line_buffer else 0)
    dcache = DataCacheSystem(dconfig, next_level, stats=stats)
    core = CoreConfig(max_combine=max_combine)
    lsq = LoadStoreQueue(core, dcache, stats=stats)
    dcache.begin_cycle(0)
    return lsq, dcache


def mem_uop(seq, addr, size=8, is_load=True, addr_known=True,
            lsq=None):
    opclass = OPCLASSES.index(OpClass.LOAD if is_load else OpClass.STORE)
    uop = Uop(seq, opclass, is_load=is_load, is_store=not is_load)
    if addr_known and lsq is not None:
        lsq.resolve_address(uop, addr, size)
    return uop


class _Completions:
    def __init__(self):
        self.done: dict[int, int] = {}

    def __call__(self, uop, ready):
        self.done[uop.seq] = ready


class TestBasicScheduling:
    def test_load_uses_port(self):
        lsq, dcache = make_lsq()
        done = _Completions()
        load = mem_uop(0, 0x100, lsq=lsq)
        lsq.add_load(load)
        lsq.schedule(0, done)
        assert load.mem_done
        assert 0 in done.done
        assert dcache.stats["lsq.port_loads"] == 1

    def test_unresolved_address_waits(self):
        lsq, _ = make_lsq()
        done = _Completions()
        load = mem_uop(0, 0x100, addr_known=False)
        lsq.add_load(load)
        lsq.schedule(0, done)
        assert not load.mem_done

    def test_port_exhaustion_leaves_younger_loads(self):
        lsq, _ = make_lsq(ports=1)
        done = _Completions()
        loads = [mem_uop(i, 0x100 + 64 * i, lsq=lsq) for i in range(3)]
        for load in loads:
            lsq.add_load(load)
        lsq.schedule(0, done)
        assert loads[0].mem_done
        assert not loads[1].mem_done and not loads[2].mem_done

    def test_oldest_load_gets_the_port(self):
        lsq, _ = make_lsq(ports=1)
        done = _Completions()
        young = mem_uop(5, 0x500, lsq=lsq)
        old = mem_uop(1, 0x100, lsq=lsq)
        lsq.add_load(old)
        lsq.add_load(young)
        lsq.schedule(0, done)
        assert old.mem_done and not young.mem_done


class TestOrdering:
    def test_load_blocked_by_unknown_older_store_address(self):
        lsq, _ = make_lsq()
        done = _Completions()
        store = mem_uop(0, 0x100, is_load=False, addr_known=False)
        load = mem_uop(1, 0x200, lsq=lsq)
        lsq.add_store(store)
        lsq.add_load(load)
        lsq.schedule(0, done)
        assert not load.mem_done
        assert lsq.stats["lsq.order_stalls"] == 1

    def test_load_older_than_store_proceeds(self):
        lsq, _ = make_lsq()
        done = _Completions()
        load = mem_uop(0, 0x200, lsq=lsq)
        store = mem_uop(1, 0x100, is_load=False, addr_known=False)
        lsq.add_load(load)
        lsq.add_store(store)
        lsq.schedule(0, done)
        assert load.mem_done


class TestForwarding:
    def _store_with_data(self, lsq, seq, addr, size=8, data_ready=True):
        store = mem_uop(seq, addr, size=size, is_load=False, lsq=lsq)
        store.data_waiting = 0 if data_ready else 1
        return store

    def test_full_coverage_forwards_without_port(self):
        lsq, dcache = make_lsq()
        done = _Completions()
        store = self._store_with_data(lsq, 0, 0x100)
        load = mem_uop(1, 0x100, lsq=lsq)
        lsq.add_store(store)
        lsq.add_load(load)
        lsq.schedule(0, done)
        assert load.mem_done
        assert done.done[1] == 1
        assert dcache.stats["lsq.sq_forwards"] == 1
        assert dcache.stats["dcache.port_uses"] == 0

    def test_forward_waits_for_store_data(self):
        lsq, _ = make_lsq()
        done = _Completions()
        store = self._store_with_data(lsq, 0, 0x100, data_ready=False)
        load = mem_uop(1, 0x100, lsq=lsq)
        lsq.add_store(store)
        lsq.add_load(load)
        lsq.schedule(0, done)
        assert not load.mem_done
        assert lsq.stats["lsq.sq_waits"] == 1

    def test_partial_overlap_waits(self):
        lsq, _ = make_lsq()
        done = _Completions()
        store = self._store_with_data(lsq, 0, 0x100, size=4)
        load = mem_uop(1, 0x100, size=8, lsq=lsq)
        lsq.add_store(store)
        lsq.add_load(load)
        lsq.schedule(0, done)
        assert not load.mem_done

    def test_newest_matching_store_forwards(self):
        lsq, _ = make_lsq()
        done = _Completions()
        old_store = self._store_with_data(lsq, 0, 0x100, data_ready=False)
        new_store = self._store_with_data(lsq, 1, 0x100)
        load = mem_uop(2, 0x100, lsq=lsq)
        lsq.add_store(old_store)
        lsq.add_store(new_store)
        lsq.add_load(load)
        lsq.schedule(0, done)
        assert load.mem_done  # newest store has its data

    def test_write_buffer_forward_and_conflict(self):
        lsq, dcache = make_lsq()
        done = _Completions()
        dcache.buffer_store(dcache.line_of(0x100),
                            dcache.byte_mask(0x100, 8))
        covered = mem_uop(0, 0x100, lsq=lsq)
        partial = mem_uop(1, 0x104, size=4, lsq=lsq)  # covered too
        lsq.add_load(covered)
        lsq.add_load(partial)
        lsq.schedule(0, done)
        assert covered.mem_done and partial.mem_done
        assert dcache.stats["lsq.wb_forwards"] == 2


class TestLineBuffer:
    def test_lb_hit_skips_port(self):
        lsq, dcache = make_lsq(line_buffer=True, ports=1)
        done = _Completions()
        first = mem_uop(0, 0x100, lsq=lsq)
        lsq.add_load(first)
        lsq.schedule(0, done)           # captures the line (miss)
        ready = done.done[0]
        dcache.begin_cycle(ready + 1)
        second = mem_uop(1, 0x108, lsq=lsq)   # same line
        third = mem_uop(2, 0x400, lsq=lsq)    # different line
        lsq.loads.clear()
        lsq.add_load(second)
        lsq.add_load(third)
        lsq.schedule(ready + 1, done)
        assert second.mem_done and third.mem_done
        assert dcache.stats["lsq.lb_loads"] == 1


class TestCombining:
    def _ready_loads(self, lsq, addrs, start_seq=0):
        loads = []
        for offset, addr in enumerate(addrs):
            load = mem_uop(start_seq + offset, addr, lsq=lsq)
            lsq.add_load(load)
            loads.append(load)
        return loads

    def test_same_chunk_loads_share_one_port(self):
        lsq, dcache = make_lsq(combine=True, port_width=16, ports=1)
        done = _Completions()
        loads = self._ready_loads(lsq, [0x100, 0x108])
        lsq.schedule(0, done)
        assert all(load.mem_done for load in loads)
        assert dcache.stats["dcache.port_uses"] == 1
        assert dcache.stats["lsq.combined_loads"] == 1

    def test_different_chunks_need_two_ports(self):
        lsq, dcache = make_lsq(combine=True, port_width=16, ports=1)
        done = _Completions()
        loads = self._ready_loads(lsq, [0x100, 0x110])
        lsq.schedule(0, done)
        assert loads[0].mem_done and not loads[1].mem_done

    def test_no_combining_without_flag(self):
        lsq, dcache = make_lsq(combine=False, port_width=16, ports=1)
        done = _Completions()
        loads = self._ready_loads(lsq, [0x100, 0x108])
        lsq.schedule(0, done)
        assert loads[0].mem_done and not loads[1].mem_done

    def test_max_combine_splits_batches(self):
        lsq, dcache = make_lsq(combine=True, port_width=32, ports=2,
                               max_combine=2)
        done = _Completions()
        self._ready_loads(lsq, [0x100, 0x108, 0x110, 0x118])
        lsq.schedule(0, done)
        assert dcache.stats["dcache.port_uses"] == 2
        assert dcache.stats["lsq.port_loads"] == 4

    def test_combined_loads_get_same_ready_time(self):
        lsq, _ = make_lsq(combine=True, port_width=16, ports=1)
        done = _Completions()
        self._ready_loads(lsq, [0x100, 0x108])
        lsq.schedule(0, done)
        assert done.done[0] == done.done[1]


class TestOccupancy:
    def test_queue_capacity_flags(self):
        lsq, _ = make_lsq()
        assert not lsq.lq_full and not lsq.sq_full
        for seq in range(lsq.config.lq_size):
            lsq.add_load(mem_uop(seq, 0x100 + 8 * seq))
        assert lsq.lq_full

    def test_retire_frees_slots(self):
        lsq, _ = make_lsq()
        load = mem_uop(0, 0x100)
        store = mem_uop(1, 0x200, is_load=False)
        lsq.add_load(load)
        lsq.add_store(store)
        lsq.retire_load(load)
        lsq.retire_store(store)
        assert not lsq.loads and not lsq.stores

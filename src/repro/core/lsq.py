"""The load/store queue and its cache-port scheduler.

This module implements the processor-side half of the paper's
techniques.  Every cycle :meth:`LoadStoreQueue.schedule` decides, for
each load whose address is known, where its data comes from — in order
of cost:

1. **In-flight store forwarding** — an older, not-yet-committed store
   in the SQ fully covers the load's bytes: forward, no port.
2. **Write buffer forwarding** — a retired store waiting to drain fully
   covers the load: forward, no port.
3. **Line buffer** — the load's line sits in the line buffer: serviced
   there, no cache port (the headline "extra buffering" win).
4. **Cache port** — the load needs a real port.  With *access
   combining* enabled, ready loads whose data falls in the same aligned
   port-width chunk share a single port access (the "wider cache port"
   win), up to ``max_combine`` per access.

Loads behind an older store with an unknown address wait (conservative
memory disambiguation, the common choice for this era): every store a
load's forwarding check sees has a known address.

A load's source and its last block reason are the int codes of
:mod:`repro.obs.probe`, and the probe events fired here carry ints
(``seq``, line, codes, cycles), not queue entries.
"""

from __future__ import annotations

from collections.abc import Callable

from ..mem.config import LB_LATENCY
from ..mem.dcache import AccessStatus, DataCacheSystem
from ..obs.probe import (BLK_BANK, BLK_MSHR, BLK_NO_PORT, BLK_ORDER,
                         BLK_SQ_WAIT, BLK_WB_CONFLICT, SRC_LB, SRC_SQ,
                         SRC_WB, Probe)
from ..stats.counters import Stats
from .config import CoreConfig
from .uop import Uop

_INFINITY = float("inf")

#: schedule() reports a load's data-ready cycle through this callback.
CompleteLoad = Callable[[Uop, int], None]

#: Block code of an LSQ wait -> (probe counter, ``lsq.*`` statistic).
_WAITS = {block: (counter, f"lsq.{counter}") for block, counter in (
    (BLK_ORDER, "order_stalls"), (BLK_SQ_WAIT, "sq_waits"),
    (BLK_WB_CONFLICT, "wb_conflicts"))}


class LoadStoreQueue:
    """Age-ordered load and store queues."""

    def __init__(self, config: CoreConfig, dcache: DataCacheSystem,
                 stats: Stats | None = None,
                 probe: Probe | None = None) -> None:
        self.config = config
        self.dcache = dcache
        self.stats = stats if stats is not None else Stats()
        self.probe = probe
        self.loads: list[Uop] = []
        self.stores: list[Uop] = []
        self._cycle = 0

    # ------------------------------------------------------------------
    # Occupancy (dispatch gating)
    # ------------------------------------------------------------------
    @property
    def lq_full(self) -> bool:
        return len(self.loads) >= self.config.lq_size

    @property
    def sq_full(self) -> bool:
        return len(self.stores) >= self.config.sq_size

    def add_load(self, uop: Uop) -> None:
        self.loads.append(uop)

    def add_store(self, uop: Uop) -> None:
        self.stores.append(uop)

    def retire_load(self, uop: Uop) -> None:
        self.loads.remove(uop)

    def retire_store(self, uop: Uop) -> None:
        self.stores.remove(uop)

    # ------------------------------------------------------------------
    # Address resolution (called by the pipeline's AGU event)
    # ------------------------------------------------------------------
    def resolve_address(self, uop: Uop, address: int, size: int) -> None:
        """Fill in line/chunk/byte-mask once the AGU produces the
        *size*-byte access at *address*."""
        dcache = self.dcache
        uop.line = dcache.line_of(address)
        uop.chunk = dcache.chunk_of(address)
        uop.byte_mask = dcache.byte_mask(address, size)
        uop.addr_known = True

    # ------------------------------------------------------------------
    # The per-cycle memory stage
    # ------------------------------------------------------------------
    def schedule(self, cycle: int, complete: CompleteLoad) -> None:
        """Service ready loads; see the module docstring for the policy."""
        self._cycle = cycle
        port_requests = self._classify_loads(cycle, complete)
        if port_requests:
            self._schedule_ports(port_requests, complete)

    def _classify_loads(self, cycle: int,
                        complete: CompleteLoad) -> list[Uop]:
        """Route each ready load to forwarding/line-buffer/port."""
        dcache = self.dcache
        stats = self.stats
        lb_reads = 0
        lb_cap = self.config.max_combine
        barrier = self._oldest_unknown_store_seq()
        port_requests: list[Uop] = []
        for load in self.loads:
            if not load.addr_known or load.mem_done:
                continue
            if load.seq > barrier:
                self._wait(load, BLK_ORDER)
                continue
            action = self._store_forwarding(load, cycle)
            if action == "forward":
                stats.inc("lsq.sq_forwards")
                self._finish(load, cycle + 1, complete, SRC_SQ)
                continue
            if action == "wait":
                self._wait(load, BLK_SQ_WAIT)
                continue
            wb_action = dcache.write_buffer_check(load.line, load.byte_mask)
            if wb_action == "forward":
                stats.inc("lsq.wb_forwards")
                self._finish(load, cycle + 1, complete, SRC_WB)
                continue
            if wb_action == "conflict":
                self._wait(load, BLK_WB_CONFLICT)
                continue
            if lb_reads < lb_cap and dcache.line_buffer_hit(load.line):
                lb_reads += 1
                stats.inc("lsq.lb_loads")
                self._finish(load, cycle + LB_LATENCY, complete, SRC_LB)
                continue
            port_requests.append(load)
        return port_requests

    def _wait(self, load: Uop, block: int) -> None:
        """*load* waits this cycle for reason *block*: bump its
        ``lsq.*`` counter, note why."""
        counter, stat = _WAITS[block]
        self.stats.inc(stat)
        load.lsq_block = block
        if self.probe is not None:
            self.probe.lsq_wait(load.seq, counter)

    def _schedule_ports(self, requests: list[Uop],
                        complete: CompleteLoad) -> None:
        """Send loads to the cache ports, combining within chunks."""
        dcache = self.dcache
        stats = self.stats
        if dcache.config.combine_loads:
            groups: dict[int, list[Uop]] = {}
            for load in requests:
                groups.setdefault(load.chunk, []).append(load)
            batches: list[list[Uop]] = []
            limit = self.config.max_combine
            for group in groups.values():
                for start in range(0, len(group), limit):
                    batches.append(group[start:start + limit])
        else:
            batches = [[load] for load in requests]
        for index, batch in enumerate(batches):
            # Per-access D-cache counters land on the batch leader.
            result = dcache.load_access(batch[0].line, batch[0].seq)
            if result.status is AccessStatus.NO_PORT:
                for blocked in batches[index:]:
                    for load in blocked:
                        load.lsq_block = BLK_NO_PORT
                return
            if result.status is AccessStatus.BANK_CONFLICT:
                for load in batch:
                    load.lsq_block = BLK_BANK
                continue  # bank busy, no port spent; try other batches
            if result.status is AccessStatus.MSHR_FULL:
                for load in batch:
                    load.lsq_block = BLK_MSHR
                continue  # the port is spent; these loads retry next cycle
            stats.inc("lsq.port_loads", len(batch))
            if len(batch) > 1:
                stats.inc("lsq.combined_loads", len(batch) - 1)
                stats.inc("lsq.combined_accesses")
                if self.probe is not None:
                    self.probe.lsq_combine([load.seq for load in batch])
            for load in batch:
                self._finish(load, result.ready, complete, result.source)

    def _finish(self, load: Uop, ready: int, complete: CompleteLoad,
                source: int) -> None:
        if self.probe is not None:
            # The block reason names the wait between address-ready
            # and this grant.
            self.probe.load_serviced(self._cycle, load.seq, load.line,
                                     source, load.lsq_block, ready)
        load.mem_done = True
        load.mem_source = source
        load.lsq_block = 0
        complete(load, ready)

    # ------------------------------------------------------------------
    # Memory-ordering helpers
    # ------------------------------------------------------------------
    def _oldest_unknown_store_seq(self) -> float:
        for store in self.stores:
            if not store.addr_known:
                return store.seq
        return _INFINITY

    def _store_forwarding(self, load: Uop, cycle: int) -> str:
        """Check the SQ for an older store supplying the load's bytes.

        Returns ``"forward"``, ``"wait"`` (overlap but not usable yet),
        or ``"none"``.  The newest older matching store wins.
        """
        for store in reversed(self.stores):
            if store.seq >= load.seq:
                continue
            if store.line != load.line:
                continue
            overlap = store.byte_mask & load.byte_mask
            if not overlap:
                continue
            if overlap == load.byte_mask:
                if store.data_waiting == 0 and \
                        store.data_ready_cycle <= cycle:
                    return "forward"
                return "wait"   # data not produced yet
            return "wait"       # partial overlap: wait for the store
        return "none"

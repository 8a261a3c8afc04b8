"""The L1 data cache with its port subsystem — the paper's contribution.

Everything the paper varies lives here:

* ``ports`` physical cache ports, each ``port_width`` bytes wide — one
  port services one aligned ``port_width`` chunk per cycle;
* the **line buffer** (loads hitting it bypass the ports entirely);
* the **write buffer** with store combining (stores drain into idle
  port cycles, merged per line);
* non-blocking misses through a bounded set of MSHRs with secondary
  miss merging.

The load/store *selection* (which LSQ entries go to which port, wide
port access combining) is processor-side logic and lives in
:mod:`repro.core.lsq`; this module provides the port-accurate cache
side.

Every wait this module can impose maps onto a critical-path edge
class in :mod:`repro.obs.critpath` (via the LSQ's block annotations):
``NO_PORT``/``BANK_CONFLICT`` → ``dcache_port``, ``MSHR_FULL`` →
``mshr``, a line-buffer service → ``line_buffer``, a write-buffer
drain or full stall → ``write_buffer``, and a next-level fill →
``next_level`` — so ``repro critpath`` can say which of these
actually bounded the run rather than merely occurred.

Probe events fired here carry ints: the line, cycles, the
:mod:`repro.obs.probe` source code of a load access, and the ``seq`` of
the instruction an access serves (:attr:`DataCacheSystem.access_context`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..obs.probe import NO_SEQ, SRC_HIT, SRC_MISS, SRC_SECONDARY, Probe
from ..stats.counters import Stats
from .cache import SetAssocCache
from .config import (L1_HIT_LATENCY, VICTIM_LATENCY, DCacheConfig,
                     LineBufferFill)
from .linebuffer import LineBuffer
from .nextlevel import NextLevel
from .victim import VictimCache
from .writebuffer import WriteBuffer


class AccessStatus(enum.Enum):
    """Outcome of one port access attempt."""

    OK = "ok"
    NO_PORT = "no_port"      # every port already claimed this cycle
    MSHR_FULL = "mshr_full"  # tag-checked, missed, no MSHR free (port spent)
    BANK_CONFLICT = "bank_conflict"  # target bank busy; no port spent


@dataclass(frozen=True)
class AccessResult:
    status: AccessStatus
    ready: int = 0           # cycle the data is available (loads)
    #: Where the data came from on an OK load access (``SRC_HIT``,
    #: ``SRC_MISS`` or ``SRC_SECONDARY``; 0 otherwise) — feeds the
    #: stall-attribution model.
    source: int = 0

    @property
    def ok(self) -> bool:
        return self.status is AccessStatus.OK


class DataCacheSystem:
    """Port-accurate L1 D-cache front end."""

    def __init__(self, config: DCacheConfig, next_level: NextLevel,
                 stats: Stats | None = None,
                 probe: Probe | None = None) -> None:
        self.config = config
        self.next_level = next_level
        self.stats = stats if stats is not None else Stats()
        self.probe = probe
        self.cache = SetAssocCache(config.geometry, name="dcache",
                                   stats=self.stats)
        self.line_size = config.geometry.line_size
        self.line_shift = self.line_size.bit_length() - 1
        self.port_width = config.port_width
        self.chunk_shift = config.port_width.bit_length() - 1
        self.line_buffer: LineBuffer | None = None
        if config.has_line_buffer:
            self.line_buffer = LineBuffer(config.line_buffer_entries,
                                          name="lb", stats=self.stats,
                                          probe=probe)
        self.write_buffer = WriteBuffer(config.write_buffer_depth,
                                        config.combine_stores,
                                        self.line_size, name="wb",
                                        stats=self.stats, probe=probe)
        self.victim_cache: VictimCache | None = None
        if config.victim_entries:
            self.victim_cache = VictimCache(config.victim_entries,
                                            stats=self.stats)
        self._pending: dict[int, int] = {}   # line -> fill-ready cycle
        self._cycle = 0
        self._ports_used = 0
        self._bank_mask = config.banks - 1
        self._banks_used: set[int] = set()
        #: ``seq`` of the instruction the port access in progress serves
        #: (the LSQ batch leader or the committing store; ``NO_SEQ`` for
        #: a write-buffer drain), which probe counter events name.
        self.access_context = NO_SEQ

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def line_of(self, address: int) -> int:
        return address >> self.line_shift

    def chunk_of(self, address: int) -> int:
        """Aligned port-width chunk number containing *address*."""
        return address >> self.chunk_shift

    def byte_mask(self, address: int, size: int) -> int:
        """Byte mask of an access within its line."""
        offset = address & (self.line_size - 1)
        return self.write_buffer.mask_for(offset, size)

    # ------------------------------------------------------------------
    # Cycle bookkeeping
    # ------------------------------------------------------------------
    def bank_of(self, line: int) -> int:
        """Line-interleaved bank index."""
        return line & self._bank_mask

    def bank_free(self, line: int) -> bool:
        """Would an access to *line* hit a free bank this cycle?"""
        return self._bank_mask == 0 or self.bank_of(line) not in \
            self._banks_used

    def begin_cycle(self, cycle: int) -> None:
        self._cycle = cycle
        self._ports_used = 0
        self._banks_used.clear()
        # The buffers fire their own probe events; keep their clocks in
        # step (two attribute stores — cheaper than threading `cycle`
        # through every call).
        self.write_buffer.cycle = cycle
        if self.line_buffer is not None:
            self.line_buffer.cycle = cycle
        if len(self._pending) > 2 * self.config.mshrs:
            self._pending = {line: ready for line, ready
                             in self._pending.items() if ready > cycle}

    def ports_free(self) -> int:
        return self.config.ports - self._ports_used

    @property
    def ports_used(self) -> int:
        """Ports already claimed this cycle (telemetry sampling)."""
        return self._ports_used

    def mshrs_busy(self) -> int:
        """MSHRs with a fill still in flight this cycle."""
        cycle = self._cycle
        return sum(1 for ready in self._pending.values() if ready > cycle)

    def _count(self, counter: str) -> None:
        """Bump ``dcache.<counter>`` for the access in progress."""
        self.stats.inc(f"dcache.{counter}")
        if self.probe is not None:
            self.probe.dcache_count(self.access_context, counter)

    def _claim_port(self, line: int) -> AccessStatus:
        if self._ports_used >= self.config.ports:
            return AccessStatus.NO_PORT
        if not self.bank_free(line):
            self._count("bank_conflicts")
            return AccessStatus.BANK_CONFLICT
        self._ports_used += 1
        if self._bank_mask:
            self._banks_used.add(self.bank_of(line))
        self.stats.inc("dcache.port_uses")
        if self.probe is not None:
            self.probe.port_use(self.access_context, self._ports_used - 1)
        return AccessStatus.OK

    # ------------------------------------------------------------------
    # Processor-side probes (consume no port)
    # ------------------------------------------------------------------
    def line_buffer_hit(self, line: int) -> bool:
        """Can a load to *line* be serviced from the line buffer now?"""
        if self.line_buffer is None:
            return False
        if self._pending.get(line, 0) > self._cycle:
            return False  # captured line is still in flight
        return self.line_buffer.lookup(line)

    def write_buffer_check(self, line: int, byte_mask: int) -> str:
        """Forwarding check against buffered retired stores."""
        return self.write_buffer.load_check(line, byte_mask)

    def fill_pending(self, line: int) -> bool:
        """Is a fill for *line* still in flight this cycle?"""
        return self._pending.get(line, 0) > self._cycle

    # ------------------------------------------------------------------
    # Port-consuming accesses
    # ------------------------------------------------------------------
    def load_access(self, line: int, context: int = NO_SEQ) -> AccessResult:
        """One load port access covering one chunk of *line*, made for
        instruction ``seq`` *context* (see :attr:`access_context`)."""
        self.access_context = context
        claim = self._claim_port(line)
        if claim is not AccessStatus.OK:
            self._count("load_no_port")
            return AccessResult(claim)
        cycle = self._cycle
        pending_ready = self._pending.get(line, 0)
        if pending_ready > cycle:
            self._count("load_secondary_misses")
            ready = pending_ready
            source = SRC_SECONDARY
        elif self.cache.lookup(line):
            self._count("load_hits")
            ready = cycle + L1_HIT_LATENCY
            source = SRC_HIT
        else:
            if self.mshrs_busy() >= self.config.mshrs:
                self._count("load_mshr_full")
                return AccessResult(AccessStatus.MSHR_FULL)
            self._count("load_misses")
            ready = self._start_fill(line)
            source = SRC_MISS
            self._maybe_prefetch(line + 1)
        if self.line_buffer is not None and \
                self.config.line_buffer_fill is LineBufferFill.ON_ACCESS:
            self.line_buffer.insert(line)
        if self.probe is not None:
            self.probe.dcache_load(cycle, line, source, ready)
        return AccessResult(AccessStatus.OK, ready, source)

    def store_access(self, line: int, context: int = NO_SEQ) -> AccessResult:
        """Write one (possibly combined) line's worth of store data for
        instruction ``seq`` *context* (``NO_SEQ``: a write-buffer
        drain)."""
        self.access_context = context
        claim = self._claim_port(line)
        if claim is not AccessStatus.OK:
            self._count("store_no_port")
            return AccessResult(claim)
        cycle = self._cycle
        pending_ready = self._pending.get(line, 0)
        if pending_ready > cycle:
            # Merge into the in-flight fill; data lands with the line.
            self._count("store_mshr_merges")
            self.cache.mark_dirty(line)
        elif self.cache.lookup(line):
            self._count("store_hits")
            self.cache.mark_dirty(line)
        else:
            if self.mshrs_busy() >= self.config.mshrs:
                self._count("store_mshr_full")
                return AccessResult(AccessStatus.MSHR_FULL)
            self._count("store_misses")
            self._start_fill(line, dirty=True)
        if self.line_buffer is not None:
            self.line_buffer.note_store(line)
        if self.probe is not None:
            self.probe.dcache_store(cycle, line)
        return AccessResult(AccessStatus.OK, cycle + 1)

    def _maybe_prefetch(self, line: int) -> None:
        """Next-line prefetch on a demand miss: free, port-less, but it
        consumes an MSHR and L2 bandwidth (the realistic cost)."""
        if not self.config.prefetch_next_line:
            return
        if self._pending.get(line, 0) > self._cycle:
            return
        if self.cache.lookup(line, touch=False):
            return
        if self.mshrs_busy() >= self.config.mshrs:
            return
        self._count("prefetches")
        self._start_fill(line)

    def _start_fill(self, line: int, dirty: bool = False) -> int:
        """Source the line (victim cache or L2), install the tag, and
        dispose of the displaced L1 line."""
        recovered = None if self.victim_cache is None else \
            self.victim_cache.extract(line)
        if recovered is not None:
            if self.probe is not None:  # the victim cache counts the hit
                self.probe.dcache_count(self.access_context, "victim_hits")
            ready = self._cycle + VICTIM_LATENCY
            dirty = dirty or recovered
        else:
            ready = self.next_level.request(line, self._cycle)
        self._pending[line] = ready
        if self.probe is not None:
            self.probe.dcache_fill(self._cycle, line, ready,
                                   recovered is not None)
        victim = self.cache.fill(line, dirty=dirty)
        if victim is not None:
            self._dispose_victim(*victim)
        if self.config.line_buffer_fill is LineBufferFill.ON_FILL and \
                self.line_buffer is not None:
            self.line_buffer.insert(line)
        return ready

    def _dispose_victim(self, victim_line: int, victim_dirty: bool) -> None:
        if self.line_buffer is not None:
            self.line_buffer.invalidate(victim_line)
        if self.victim_cache is not None:
            pushed_out = self.victim_cache.insert(victim_line, victim_dirty)
            if pushed_out is None or not pushed_out[1]:
                return
            victim_line, victim_dirty = pushed_out  # overflow writes back
        if victim_dirty:
            self._count("writebacks")
            self.next_level.writeback(victim_line, self._cycle)

    # ------------------------------------------------------------------
    # Write buffer interface
    # ------------------------------------------------------------------
    def buffer_store(self, line: int, byte_mask: int) -> bool:
        """Commit-side: park a retired store; False = stall commit."""
        return self.write_buffer.add(line, byte_mask)

    def drain_write_buffer(self) -> None:
        """Spend leftover port cycles emptying the write buffer (retired
        stores drain with no program context)."""
        while self.ports_free() > 0:
            entry = self.write_buffer.head()
            if entry is None:
                return
            result = self.store_access(entry.line)
            if result.status is AccessStatus.OK:
                self.write_buffer.pop()
            else:
                # MSHR_FULL (port spent) or BANK_CONFLICT (head-of-queue
                # blocking on a busy bank): retry next cycle.
                return

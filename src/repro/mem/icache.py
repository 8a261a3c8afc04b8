"""L1 instruction cache: one wide read port feeding the fetch unit."""

from __future__ import annotations

from ..stats.counters import Stats
from .cache import SetAssocCache
from .config import ICacheConfig
from .nextlevel import NextLevel


class ICacheSystem:
    """Single-ported instruction cache.

    The fetch unit performs at most one access per cycle for an aligned
    ``fetch_bytes`` block; the returned value is the cycle the block's
    instructions are available for decode.
    """

    def __init__(self, config: ICacheConfig, next_level: NextLevel,
                 stats: Stats | None = None) -> None:
        self.config = config
        self.next_level = next_level
        self.stats = stats if stats is not None else Stats()
        self.cache = SetAssocCache(config.geometry, name="icache",
                                   stats=self.stats)
        self.fetch_bytes = config.fetch_bytes
        self._pending: dict[int, int] = {}

    def block_of(self, address: int) -> int:
        """Aligned fetch-block number containing *address*."""
        return address // self.fetch_bytes

    def fetch(self, address: int, cycle: int) -> int:
        """Access the block containing *address*.

        Returns the cycle the block is fetchable: *cycle* itself on a
        hit, the pending fill's ready cycle on a line already being
        filled, or the fill-ready cycle on a miss.
        """
        line = self.cache.line_of(address)
        self.stats.inc("icache.accesses")
        pending_ready = self._pending.get(line, 0)
        if pending_ready > cycle:
            self.stats.inc("icache.pending_hits")
            return pending_ready
        if self.cache.lookup(line):
            self.stats.inc("icache.hits")
            return cycle
        self.stats.inc("icache.misses")
        ready = self.next_level.request(line, cycle)
        self._pending[line] = ready
        victim = self.cache.fill(line)
        if victim is not None and victim[1]:  # pragma: no cover - I-lines
            self.next_level.writeback(victim[0], cycle)
        if len(self._pending) > 64:
            self._pending = {ln: rd for ln, rd in self._pending.items()
                             if rd > cycle}
        return ready

"""Facade wiring the I-cache, D-cache and shared next level together."""

from __future__ import annotations

from ..obs.probe import Probe
from ..stats.counters import Stats
from .config import MemSystemConfig
from .dcache import DataCacheSystem
from .icache import ICacheSystem
from .nextlevel import NextLevel


class MemorySystem:
    """One processor's complete memory hierarchy."""

    def __init__(self, config: MemSystemConfig,
                 stats: Stats | None = None,
                 probe: Probe | None = None) -> None:
        self.config = config
        self.stats = stats if stats is not None else Stats()
        self.next_level = NextLevel(config.next_level, stats=self.stats)
        self.dcache = DataCacheSystem(config.dcache, self.next_level,
                                      stats=self.stats, probe=probe)
        self.icache = ICacheSystem(config.icache, self.next_level,
                                   stats=self.stats)

    def begin_cycle(self, cycle: int) -> None:
        self.dcache.begin_cycle(cycle)

    def end_cycle(self) -> None:
        """Late-cycle work: drain stores into ports loads didn't use."""
        self.dcache.drain_write_buffer()

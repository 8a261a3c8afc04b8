"""Facade wiring the I-cache, D-cache and shared next level together."""

from __future__ import annotations

from ..obs.probe import Probe
from ..obs.spans import SpanRecorder
from ..stats.counters import Stats
from .config import MemSystemConfig, NextLevelConfig
from .dcache import DataCacheSystem
from .icache import ICacheSystem
from .nextlevel import NextLevel


class _SpannedNextLevel(NextLevel):
    """Next level that marks every refill/writeback on the span
    timeline, so Perfetto shows where simulated memory traffic lands
    inside each pipeline chunk.  Only constructed when span tracing is
    on — the plain :class:`NextLevel` pays nothing."""

    def __init__(self, config: NextLevelConfig, stats: Stats,
                 spans: SpanRecorder) -> None:
        super().__init__(config, stats=stats)
        self._spans = spans

    def request(self, line: int, cycle: int) -> int:
        ready = super().request(line, cycle)
        self._spans.instant("mem.refill", "mem", line=line, cycle=cycle,
                            latency=ready - cycle)
        return ready

    def writeback(self, line: int, cycle: int) -> None:
        super().writeback(line, cycle)
        self._spans.instant("mem.writeback", "mem", line=line,
                            cycle=cycle)


class MemorySystem:
    """One processor's complete memory hierarchy."""

    def __init__(self, config: MemSystemConfig,
                 stats: Stats | None = None,
                 probe: Probe | None = None,
                 spans: SpanRecorder | None = None) -> None:
        self.config = config
        self.stats = stats if stats is not None else Stats()
        if spans is not None:
            self.next_level: NextLevel = _SpannedNextLevel(
                config.next_level, self.stats, spans)
        else:
            self.next_level = NextLevel(config.next_level,
                                        stats=self.stats)
        self.dcache = DataCacheSystem(config.dcache, self.next_level,
                                      stats=self.stats, probe=probe)
        self.icache = ICacheSystem(config.icache, self.next_level,
                                   stats=self.stats)

    def begin_cycle(self, cycle: int) -> None:
        self.dcache.begin_cycle(cycle)

    def end_cycle(self) -> None:
        """Late-cycle work: drain stores into ports loads didn't use."""
        self.dcache.drain_write_buffer()

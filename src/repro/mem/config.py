"""Configuration dataclasses for the memory hierarchy.

The D-cache port subsystem knobs here are the paper's experimental
variables: number of ports, port width, line buffer policy, write
buffer depth and store combining.  The L1 hit, line-buffer and
victim-cache latencies are fixed, named once below; the next level's
latencies and occupancy stay settable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


def _power_of_two(value: int, what: str) -> None:
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{what} must be a positive power of two, got {value}")


#: Cycles from a D-cache port grant to data ready on an L1 hit.
L1_HIT_LATENCY = 1
#: Cycles from a line-buffer read to data ready (no port used).
LB_LATENCY = 1
#: Cycles from a victim-cache hit to data ready, instead of the L2 trip.
VICTIM_LATENCY = 2


class LineBufferFill(enum.Enum):
    """When the line buffer captures a line."""

    ON_ACCESS = "access"   # every load port-access captures its whole line
    ON_FILL = "fill"       # only miss fills from L2 land in the buffer


@dataclass(frozen=True)
class CacheGeometry:
    """Size/shape of one cache array."""

    size: int = 32 * 1024
    line_size: int = 32
    assoc: int = 2

    def __post_init__(self) -> None:
        _power_of_two(self.size, "cache size")
        _power_of_two(self.line_size, "line size")
        if self.assoc <= 0:
            raise ValueError("associativity must be positive")
        if self.size % (self.line_size * self.assoc):
            raise ValueError("size must be divisible by line_size * assoc")

    @property
    def num_sets(self) -> int:
        return self.size // (self.line_size * self.assoc)


@dataclass(frozen=True)
class DCacheConfig:
    """L1 data cache and its port subsystem.

    ``line_buffer_entries`` alone says whether a line buffer exists
    (0: none); ``line_buffer_fill`` applies only when one does.  A store
    to a buffered line updates the entry in place.
    """

    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    ports: int = 1
    port_width: int = 8            # bytes returned per port access
    mshrs: int = 8                 # outstanding misses (distinct lines)
    combine_loads: bool = False    # wide-port access combining in the LSQ
    line_buffer_entries: int = 0
    line_buffer_fill: LineBufferFill = LineBufferFill.ON_ACCESS
    write_buffer_depth: int = 8
    combine_stores: bool = False   # merge same-line stores in the write buffer
    #: Line-interleaved single-ported banks (1 = a monolithic array).
    #: With banks > 1, ``ports`` is the number of address paths: two
    #: accesses can proceed per cycle only if they hit different banks —
    #: the era's cheap alternative to true multi-porting.
    banks: int = 1
    #: On a demand miss, also fetch the next sequential line into a free
    #: MSHR (no port cost; uses L2 bandwidth).
    prefetch_next_line: bool = False
    #: Fully-associative victim cache capturing L1 evictions (0 = none);
    #: misses that hit it pay ``VICTIM_LATENCY`` instead of the L2 trip.
    victim_entries: int = 0

    def __post_init__(self) -> None:
        _power_of_two(self.port_width, "port width")
        _power_of_two(self.banks, "bank count")
        if self.ports < 1:
            raise ValueError("need at least one port")
        if self.port_width > self.geometry.line_size:
            raise ValueError("port width cannot exceed the line size")
        if self.mshrs < 1:
            raise ValueError("need at least one MSHR")
        if self.line_buffer_entries < 0:
            raise ValueError("line buffer entries cannot be negative")
        if self.write_buffer_depth < 0:
            raise ValueError("write buffer depth cannot be negative")
        if self.victim_entries < 0:
            raise ValueError("victim cache entries cannot be negative")

    @property
    def has_line_buffer(self) -> bool:
        return self.line_buffer_entries > 0


@dataclass(frozen=True)
class ICacheConfig:
    """L1 instruction cache (always a single wide port); a hit is
    fetchable in the cycle it is made."""

    geometry: CacheGeometry = field(default_factory=CacheGeometry)
    fetch_bytes: int = 16          # aligned bytes delivered per access

    def __post_init__(self) -> None:
        _power_of_two(self.fetch_bytes, "fetch width")


@dataclass(frozen=True)
class NextLevelConfig:
    """Unified L2 plus main memory behind it."""

    geometry: CacheGeometry = field(
        default_factory=lambda: CacheGeometry(size=512 * 1024, line_size=32,
                                              assoc=4))
    hit_latency: int = 10          # L1-miss-to-data latency on an L2 hit
    memory_latency: int = 60       # additional latency on an L2 miss
    occupancy: int = 2             # cycles one request keeps the L2 busy

    def __post_init__(self) -> None:
        if self.hit_latency < 1 or self.memory_latency < 0:
            raise ValueError("latencies must be positive")
        if self.occupancy < 1:
            raise ValueError("occupancy must be at least 1")


@dataclass(frozen=True)
class MemSystemConfig:
    """Everything below the core."""

    dcache: DCacheConfig = field(default_factory=DCacheConfig)
    icache: ICacheConfig = field(default_factory=ICacheConfig)
    next_level: NextLevelConfig = field(default_factory=NextLevelConfig)

    def __post_init__(self) -> None:
        if self.dcache.geometry.line_size != self.icache.geometry.line_size:
            # Not fundamental, but the shared L2 assumes one line size.
            raise ValueError("L1 I and D line sizes must match")
        if self.next_level.geometry.line_size != \
                self.dcache.geometry.line_size:
            raise ValueError("L2 line size must match L1 line size")

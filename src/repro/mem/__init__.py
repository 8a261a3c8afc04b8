"""Memory hierarchy: caches, line buffer, write buffer, ports, L2."""

from .cache import SetAssocCache
from .config import (
    CacheGeometry,
    DCacheConfig,
    ICacheConfig,
    LineBufferFill,
    MemSystemConfig,
    NextLevelConfig,
)
from .dcache import AccessResult, AccessStatus, DataCacheSystem
from .hierarchy import MemorySystem
from .icache import ICacheSystem
from .linebuffer import LineBuffer
from .nextlevel import NextLevel
from .victim import VictimCache
from .writebuffer import WriteBuffer, WriteBufferEntry

__all__ = [
    "SetAssocCache",
    "CacheGeometry",
    "DCacheConfig",
    "ICacheConfig",
    "LineBufferFill",
    "MemSystemConfig",
    "NextLevelConfig",
    "AccessResult",
    "AccessStatus",
    "DataCacheSystem",
    "MemorySystem",
    "ICacheSystem",
    "LineBuffer",
    "NextLevel",
    "VictimCache",
    "WriteBuffer",
    "WriteBufferEntry",
]

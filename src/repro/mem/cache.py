"""Tag-only set-associative cache model with true-LRU replacement.

The timing simulator never needs cached *data* (values come from the
functional trace), so a cache here is a tag array: lookups, fills and
dirty tracking.  Addresses are managed at line granularity: callers pass
*line numbers* (``address >> line_shift``).
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict

from ..stats.counters import Stats
from .config import CacheGeometry


class SetAssocCache:
    """A set-associative tag array.

    Each set is an :class:`OrderedDict` from line number to dirty flag,
    maintained in LRU order (least recently used first).  ``_sets`` maps
    a set index to its set and creates the set when a line first maps
    to it (most of a large cache's sets see no line in a short run), so
    indexing it, as the fast cycle loop does, never misses.
    """

    def __init__(self, geometry: CacheGeometry, name: str = "cache",
                 stats: Stats | None = None) -> None:
        self.geometry = geometry
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self.line_shift = geometry.line_size.bit_length() - 1
        self._set_mask = geometry.num_sets - 1
        self._sets: defaultdict[int, OrderedDict[int, bool]] = \
            defaultdict(OrderedDict)

    # ------------------------------------------------------------------
    def line_of(self, address: int) -> int:
        """Line number containing byte *address*."""
        return address >> self.line_shift

    def _set_for(self, line: int) -> OrderedDict[int, bool]:
        return self._sets[line & self._set_mask]

    # ------------------------------------------------------------------
    def lookup(self, line: int, touch: bool = True) -> bool:
        """Tag check for *line*; updates LRU order on a hit if *touch*."""
        cache_set = self._set_for(line)
        if line in cache_set:
            if touch:
                cache_set.move_to_end(line)
            return True
        return False

    def fill(self, line: int, dirty: bool = False) -> tuple[int, bool] | None:
        """Install *line*, returning the evicted ``(line, dirty)`` if any.

        Filling a line that is already present just refreshes its LRU
        position (and ORs in the dirty flag).
        """
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set[line] = cache_set[line] or dirty
            cache_set.move_to_end(line)
            return None
        victim: tuple[int, bool] | None = None
        if len(cache_set) >= self.geometry.assoc:
            victim = cache_set.popitem(last=False)
            self.stats.inc(f"{self.name}.evictions")
            if victim[1]:
                self.stats.inc(f"{self.name}.dirty_evictions")
        cache_set[line] = dirty
        return victim

    def mark_dirty(self, line: int) -> None:
        """Set the dirty bit of a resident line (no-op if absent)."""
        cache_set = self._set_for(line)
        if line in cache_set:
            cache_set[line] = True
            cache_set.move_to_end(line)

    def invalidate(self, line: int) -> bool:
        """Drop *line*; returns whether it was present."""
        cache_set = self._set_for(line)
        return cache_set.pop(line, None) is not None

    # ------------------------------------------------------------------
    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets.values())

    def contents(self) -> set[int]:
        """All resident line numbers (for tests)."""
        return {line for s in self._sets.values() for line in s}

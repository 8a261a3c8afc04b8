"""The line buffer — one of the paper's two buffering techniques.

A small fully-associative buffer of recently read cache lines kept in
the processor, next to the load/store unit.  A load whose line is in the
buffer is serviced from it *without consuming a cache port* — this is
the "load all of the line" idea: the data array reads a full line
internally anyway, so latching that line lets subsequent spatially-local
loads reuse it for free.

Stores keep the buffer coherent by updating a matching entry in place
(the store's data is merged as it is written to the cache); an entry
leaves only by LRU replacement or when its L1 line is replaced.
"""

from __future__ import annotations

from collections import OrderedDict

from ..obs.probe import Probe
from ..stats.counters import Stats


class LineBuffer:
    """Fully-associative LRU buffer of line numbers."""

    def __init__(self, entries: int, name: str = "lb",
                 stats: Stats | None = None,
                 probe: Probe | None = None) -> None:
        if entries < 1:
            raise ValueError("line buffer needs at least one entry")
        self.entries = entries
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self.probe = probe
        #: Kept in step by the owning cache's ``begin_cycle``.
        self.cycle = 0
        self._lines: OrderedDict[int, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._lines)

    def contains(self, line: int) -> bool:
        """Non-mutating probe: no LRU refresh, no stats (validation)."""
        return line in self._lines

    def lookup(self, line: int) -> bool:
        """Probe for *line*; refreshes LRU position on hit."""
        if line in self._lines:
            self._lines.move_to_end(line)
            self.stats.inc(f"{self.name}.hits")
            return True
        self.stats.inc(f"{self.name}.misses")
        return False

    def insert(self, line: int) -> None:
        """Capture *line* (evicting the LRU entry if full)."""
        if line in self._lines:
            self._lines.move_to_end(line)
            return
        evicted = None
        if len(self._lines) >= self.entries:
            evicted = self._lines.popitem(last=False)[0]
        self._lines[line] = None
        self.stats.inc(f"{self.name}.fills")
        if self.probe is not None:
            self.probe.lb_insert(self.cycle, line, evicted)

    def note_store(self, line: int) -> None:
        """A store wrote *line*: update a matching entry in place (it
        becomes the MRU entry)."""
        if line in self._lines:
            self._lines.move_to_end(line)
            self.stats.inc(f"{self.name}.store_updates")

    def invalidate(self, line: int) -> None:
        """Drop *line* (e.g. because the L1 copy was replaced)."""
        self._lines.pop(line, None)

    def contents(self) -> list[int]:
        """Resident lines in LRU order (for tests)."""
        return list(self._lines)

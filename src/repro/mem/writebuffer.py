"""The write buffer — the paper's second buffering technique.

Retired stores enter the write buffer instead of taking a cache port on
the commit path; the buffer drains into idle port cycles.  With *store
combining* enabled, a store to a line that already has a buffered entry
merges into it, so several stores cost a single port access when the
entry finally drains.

Entries track which bytes of the line they hold (a byte mask), which
lets loads forward from the buffer when fully covered, and forces a
drain when a load partially overlaps buffered data.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.probe import Probe
from ..stats.counters import Stats


@dataclass
class WriteBufferEntry:
    """One buffered (possibly merged) line's worth of store data."""

    line: int
    byte_mask: int  # bit i set = byte i of the line is buffered


class WriteBuffer:
    """FIFO store buffer with optional same-line combining."""

    def __init__(self, depth: int, combine: bool, line_size: int,
                 name: str = "wb", stats: Stats | None = None,
                 probe: Probe | None = None) -> None:
        if depth < 0:
            raise ValueError("depth cannot be negative")
        self.depth = depth
        self.combine = combine
        self.line_size = line_size
        self.name = name
        self.stats = stats if stats is not None else Stats()
        self.probe = probe
        #: Kept in step by the owning cache's ``begin_cycle`` so probe
        #: events carry the simulation cycle.
        self.cycle = 0
        self._entries: list[WriteBufferEntry] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.depth

    @property
    def empty(self) -> bool:
        return not self._entries

    def mask_for(self, offset: int, size: int) -> int:
        """Byte mask of an access at *offset* within the line."""
        if offset + size > self.line_size:
            raise ValueError("access crosses the line boundary")
        return ((1 << size) - 1) << offset

    # ------------------------------------------------------------------
    def add(self, line: int, byte_mask: int) -> bool:
        """Buffer a retired store; False means full (commit must stall).

        With combining, a store to an already-buffered line always
        merges — even when the buffer is otherwise full — because it
        needs no new entry.
        """
        if self.combine:
            for entry in self._entries:
                if entry.line == line:
                    entry.byte_mask |= byte_mask
                    self.stats.inc(f"{self.name}.combined")
                    if self.probe is not None:
                        self.probe.wb_add(self.cycle, line, True)
                    return True
        if self.full:
            self.stats.inc(f"{self.name}.full_stalls")
            if self.probe is not None:
                self.probe.wb_full(self.cycle, line)
            return False
        self._entries.append(WriteBufferEntry(line, byte_mask))
        self.stats.inc(f"{self.name}.entries_allocated")
        if self.probe is not None:
            self.probe.wb_add(self.cycle, line, False)
        return True

    def head(self) -> WriteBufferEntry | None:
        """Oldest entry (the next to drain), or None."""
        return self._entries[0] if self._entries else None

    def pop(self) -> WriteBufferEntry:
        """Remove and return the oldest entry."""
        self.stats.inc(f"{self.name}.drains")
        entry = self._entries.pop(0)
        if self.probe is not None:
            self.probe.wb_drain(self.cycle, entry.line, len(self._entries))
        return entry

    # ------------------------------------------------------------------
    def covers(self, line: int, byte_mask: int) -> bool:
        """Non-counting probe: would a load at (*line*, *byte_mask*)
        forward from a buffered entry?  Used by the validation layer,
        which must not perturb the ``load_check`` statistics."""
        return any(entry.line == line and
                   entry.byte_mask & byte_mask == byte_mask
                   for entry in self._entries)

    def load_check(self, line: int, byte_mask: int) -> str:
        """How a load at (*line*, *byte_mask*) interacts with the buffer.

        Returns ``"miss"`` (no overlap), ``"forward"`` (some entry fully
        covers the bytes — newest match wins), or ``"conflict"``
        (partial overlap: the load must wait for the buffer to drain).
        """
        for entry in reversed(self._entries):
            if entry.line != line:
                continue
            overlap = entry.byte_mask & byte_mask
            if not overlap:
                continue
            if overlap == byte_mask:
                self.stats.inc(f"{self.name}.load_forwards")
                return "forward"
            self.stats.inc(f"{self.name}.load_conflicts")
            return "conflict"
        return "miss"

    def contents(self) -> list[WriteBufferEntry]:
        """Entries oldest-first (for tests)."""
        return list(self._entries)

"""Live fleet progress for the parallel experiment engine.

One single-line TTY display, repainted in place (``\\r``) as
started/finished/failed events arrive from the worker fleet: cells
done/total (the engine simulates each distinct (trace, machine) cell
once, however many jobs plan it), how many are in flight, an ETA
extrapolated from the throughput so far, the aggregate simulation rate
(kilo-instructions simulated per host second, summed over finished
cells), and the trace cache hit ratio for this run.

The display is inert unless the output stream is a TTY (or ``force``
is set, which tests and ``--progress`` on a pipe use); either way a
one-line summary is printed when the run closes, so a CI log still
records the fleet outcome.
"""

from __future__ import annotations

import sys
import time
from typing import TextIO

from ..workloads import suite

__all__ = ["ProgressDisplay"]


def _format_eta(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"{seconds:.0f}s"


class ProgressDisplay:
    """Accumulates fleet events and repaints one status line."""

    def __init__(self, total: int, stream: TextIO | None = None,
                 force: bool = False, clock=time.monotonic) -> None:
        self.total = total
        self.done = 0
        self.failed = 0
        self.running = 0
        self.instructions = 0
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._start = clock()
        self._cache_before = suite.trace_cache_stats()
        self._live = force or bool(getattr(self._stream, "isatty",
                                           lambda: False)())
        self._width = 0

    # ------------------------------------------------------------------
    # Event sinks (called by the engine, directly or off the queue)
    # ------------------------------------------------------------------
    def job_started(self, key: str) -> None:
        self.running += 1
        self._paint()

    def job_finished(self, key: str, wall_s: float,
                     instructions: int) -> None:
        self.running = max(0, self.running - 1)
        self.done += 1
        self.instructions += instructions
        self._paint()

    def job_failed(self, key: str) -> None:
        self.running = max(0, self.running - 1)
        self.done += 1
        self.failed += 1
        self._paint()

    # ------------------------------------------------------------------
    def _cache_ratio(self) -> float | None:
        now = suite.trace_cache_stats()
        hits = (now["memory_hits"] - self._cache_before["memory_hits"]
                + now["disk_hits"] - self._cache_before["disk_hits"])
        lookups = hits + now["builds"] - self._cache_before["builds"]
        return hits / lookups if lookups else None

    def status_line(self) -> str:
        elapsed = max(self._clock() - self._start, 1e-9)
        parts = [f"cells {self.done}/{self.total}"]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.running:
            parts.append(f"{self.running} running")
        if 0 < self.done < self.total:
            remaining = (self.total - self.done) * elapsed / self.done
            parts.append(f"ETA {_format_eta(remaining)}")
        if self.instructions:
            parts.append(f"{self.instructions / 1000 / elapsed:.0f} kIPS")
        ratio = self._cache_ratio()
        if ratio is not None:
            parts.append(f"cache {ratio:.0%}")
        return "[engine] " + "  ".join(parts)

    def _paint(self) -> None:
        if not self._live:
            return
        line = self.status_line()
        pad = max(0, self._width - len(line))
        self._stream.write("\r" + line + " " * pad)
        self._stream.flush()
        self._width = len(line)

    def close(self) -> None:
        """Final summary line (always printed, newline-terminated)."""
        line = self.status_line()
        elapsed = self._clock() - self._start
        summary = f"{line}  in {elapsed:.1f}s"
        if self._live:
            pad = max(0, self._width - len(summary))
            self._stream.write("\r" + summary + " " * pad + "\n")
        else:
            self._stream.write(summary + "\n")
        self._stream.flush()

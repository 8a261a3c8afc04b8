"""Simulator self-profiling: where the *host's* time goes.

The run reports already record end-to-end host throughput
(``host.sim_ips``); this module breaks that wall-clock down by
simulator component, per sampling interval, so the performance
trajectory of the reproduction itself — not just of the simulated
machine — gets measured and archived (``BENCH_*.json`` artefacts).

When a :class:`SelfProfiler` is attached, the timing core switches to
an instrumented run loop that brackets each pipeline stage group with
``perf_counter`` and charges the elapsed time to one component:

==============  ====================================================
``events``      FU/AGU completion events, cycle bookkeeping
``commit``      in-order retirement (incl. store write-buffer entry)
``lsq``         LSQ port scheduling and the D-cache port accesses
``writebuffer`` write-buffer drain into idle port cycles
``issue``       wakeup/select and FU allocation
``dispatch``    rename, dependence wiring, ROB/IQ/LSQ allocation
``fetch``       I-cache, branch prediction, redirect tracking
==============  ====================================================

``other`` (reported, not a component) is the loop's untimed residue:
``wall_time - sum(components)``.  Profiling is opt-in; the default run
loop is untouched and pays nothing.

The profiler is also the pipeline's **span instrumentation layer**:
hand it a :class:`~repro.obs.spans.SpanRecorder` and every completed
sampling interval is emitted as one ``pipeline.chunk`` span whose
children are the per-component slices — the same attribution the
report carries, on a Perfetto timeline (see ``repro simulate
--spans``).  The report output is unchanged either way.
"""

from __future__ import annotations

import json

from ..atomic import atomic_write
from .metrics import DEFAULT_METRICS_INTERVAL
from .spans import SpanRecorder

SELFPROFILE_SCHEMA = "repro.selfprofile/1"

#: Stage-group components, in pipeline (reverse-stage) order.
COMPONENTS = ("events", "commit", "lsq", "writebuffer", "issue",
              "dispatch", "fetch")


class SelfProfiler:
    """Per-interval host-seconds accounting, one bucket list per
    component."""

    def __init__(self, interval: int = DEFAULT_METRICS_INTERVAL,
                 spans: SpanRecorder | None = None) -> None:
        if interval < 1:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.seconds: dict[str, list[float]] = {name: []
                                                for name in COMPONENTS}
        self.cycles = 0
        self.wall_time_s = 0.0
        self.spans = spans
        self._span_bucket: int | None = None
        self._span_start_us = 0
        self._span_first_cycle = 0

    # ------------------------------------------------------------------
    def add_cycle(self, cycle: int, samples: tuple[float, ...]) -> None:
        """Charge one cycle's per-component stage timings (seconds,
        ordered as :data:`COMPONENTS`)."""
        bucket = cycle // self.interval
        if self.spans is not None and bucket != self._span_bucket:
            if self._span_bucket is not None:
                self._flush_span_chunk()
            self._span_bucket = bucket
            self._span_first_cycle = cycle
            self._span_start_us = self.spans.now_us()
        for name, elapsed in zip(COMPONENTS, samples):
            series = self.seconds[name]
            while len(series) <= bucket:
                series.append(0.0)
            series[bucket] += elapsed
        self.cycles += 1

    def _flush_span_chunk(self) -> None:
        """Emit the finished interval as a ``pipeline.chunk`` span with
        one child slice per component, laid out back-to-back from the
        chunk's host start time (component durations come from the
        stage brackets, so the slices always fit inside the chunk)."""
        recorder = self.spans
        bucket = self._span_bucket
        start = self._span_start_us
        recorder.add("B", "pipeline.chunk", "pipeline", start,
                     {"first_cycle": self._span_first_cycle,
                      "interval": self.interval})
        cursor = start
        for name in COMPONENTS:
            series = self.seconds[name]
            duration = int(series[bucket] * 1e6) \
                if bucket < len(series) else 0
            recorder.add("B", name, "pipeline", cursor)
            recorder.add("E", name, "pipeline", cursor + duration)
            cursor += duration
        recorder.add("E", "pipeline.chunk", "pipeline",
                     max(cursor, recorder.now_us()))

    def finish(self) -> None:
        """Flush the trailing (possibly partial) span chunk; called by
        the timing core when the run loop drains.  A profiler without a
        recorder ignores this."""
        if self.spans is not None and self._span_bucket is not None:
            self._flush_span_chunk()
            self._span_bucket = None

    def component_total(self, name: str) -> float:
        return sum(self.seconds[name])

    @property
    def accounted_s(self) -> float:
        return sum(self.component_total(name) for name in COMPONENTS)

    @property
    def other_s(self) -> float:
        """Wall time the stage brackets did not capture (loop overhead,
        timer cost, result assembly)."""
        return max(0.0, self.wall_time_s - self.accounted_s)

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        n_buckets = max((len(series) for series in self.seconds.values()),
                        default=0)
        for series in self.seconds.values():
            while len(series) < n_buckets:
                series.append(0.0)
        return {
            "schema": SELFPROFILE_SCHEMA,
            "schema_version": 1,
            "interval": self.interval,
            "cycles": self.cycles,
            "n_intervals": n_buckets,
            "components": list(COMPONENTS),
            "seconds": {name: list(series)
                        for name, series in self.seconds.items()},
            "totals": {name: self.component_total(name)
                       for name in COMPONENTS},
            "wall_time_s": self.wall_time_s,
            "accounted_s": self.accounted_s,
            "other_s": self.other_s,
            "cycles_per_second": (self.cycles / self.wall_time_s
                                  if self.wall_time_s else None),
        }

    def write(self, path: str) -> None:
        """Persist the profile as a ``BENCH_*.json`` artefact."""
        with atomic_write(path) as handle:
            json.dump(self.as_dict(), handle, indent=2)
            handle.write("\n")

    def summary(self) -> str:
        """One human line: the top components by share."""
        total = self.accounted_s
        if not total:
            return "no host time recorded"
        ranked = sorted(((self.component_total(name), name)
                         for name in COMPONENTS), reverse=True)
        parts = [f"{name} {seconds / total:.0%}"
                 for seconds, name in ranked[:3] if seconds > 0]
        return f"host time: {', '.join(parts)} of {total:.3f}s staged"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SelfProfiler(interval={self.interval}, "
                f"cycles={self.cycles}, wall={self.wall_time_s:.3f}s)")

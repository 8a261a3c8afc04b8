"""Interval time-series telemetry: how the run behaved *over time*.

End-of-run counters answer "how much"; this module answers "when".
When enabled, the collector listens to the timing core's probe (see
:mod:`repro.obs.probe`), keeps the occupancy sample every ``cycle_end``
carries and:

* folds each interval's samples of structure occupancies (ROB, IQ, LQ,
  SQ, write buffer), cache ports in use, and busy MSHRs into exact
  run-level :class:`~repro.stats.histogram.Histogram`\\ s when the
  interval closes;
* closes an **interval** every ``interval`` cycles, recording the
  committed-instruction delta (→ interval IPC), the per-port D-cache
  utilization, the deltas of a tracked counter set (line-buffer /
  write-buffer / victim hit activity, port uses, forwards), and the
  interval's mean occupancies.

The collector is *conservation-exact* by construction — every interval
series is a partition of the end-of-run value:

* ``sum(cycles per interval) == total cycles``
* ``sum(committed per interval) == retired instructions``
* ``sum(counter delta per interval) == final counter value`` for every
  tracked counter
* every occupancy histogram holds exactly one sample per cycle, and the
  ports histogram's weighted sum equals ``dcache.port_uses``

:meth:`check_conservation` verifies all of this and the test suite
asserts it over the full F2 headline grid.  Telemetry is off by
default, and a run with no recorder attached takes the fast loop.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..stats.counters import Stats
from ..stats.histogram import Histogram
from .probe import SAMPLE_FIELDS

#: Default sampling interval, in cycles (matches the stall ledger).
DEFAULT_METRICS_INTERVAL = 1024

#: Counters tracked as per-interval deltas.  The set covers the paper's
#: techniques end to end: port pressure, line-buffer/write-buffer/victim
#: behaviour, and the LSQ's routing decisions.
TRACKED_COUNTERS = (
    "dcache.port_uses",
    "dcache.load_hits",
    "dcache.load_misses",
    "dcache.load_secondary_misses",
    "dcache.bank_conflicts",
    "lb.hits",
    "lb.misses",
    "lsq.lb_loads",
    "lsq.port_loads",
    "lsq.combined_loads",
    "lsq.sq_forwards",
    "lsq.wb_forwards",
    "wb.combined",
    "wb.drains",
    "wb.full_stalls",
    "wb.load_forwards",
    "victim.hits",
    "victim.misses",
)

#: Structures whose occupancy is sampled every cycle: the fields after
#: ``committed`` of the probe's ``cycle_end`` sample.
OCCUPANCY_STRUCTURES = SAMPLE_FIELDS[1:]


@dataclass
class Interval:
    """One closed sampling window."""

    index: int
    start_cycle: int
    cycles: int
    committed: int
    #: Tracked-counter deltas over this window.
    counters: dict[str, float]
    #: Mean occupancy per structure over this window.
    occupancy: dict[str, float]

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


class IntervalMetrics:
    """Per-interval telemetry collector (one per simulation run)."""

    def __init__(self, stats: Stats, ports: int,
                 interval: int = DEFAULT_METRICS_INTERVAL) -> None:
        if interval < 1:
            raise ValueError("interval must be positive")
        if ports < 1:
            raise ValueError("ports must be positive")
        self.stats = stats
        self.ports = ports
        self.interval = interval
        self.intervals: list[Interval] = []
        self.histograms = {name: Histogram(name)
                           for name in OCCUPANCY_STRUCTURES}
        self._snapshot = {name: 0.0 for name in TRACKED_COUNTERS}
        self._committed_at_close = 0
        self._start_cycle = 0
        #: The open interval's ``cycle_end`` samples.
        self._samples: list[tuple[int, ...]] = []

    # ------------------------------------------------------------------
    def cycle_end(self, cycle: int, sample: tuple[int, ...]) -> None:
        """Probe event: keep one finished cycle's occupancy sample
        (committed so far, then :data:`OCCUPANCY_STRUCTURES`)."""
        samples = self._samples
        samples.append(sample)
        if len(samples) == self.interval:
            self._close(sample[0])

    def run_end(self, core: object, cycles: int, instructions: int) -> None:
        """Probe event: close the trailing interval."""
        self.finalize(instructions)

    def finalize(self, committed: int) -> None:
        """Close the trailing partial interval (end of run)."""
        if self._samples:
            self._close(committed)

    def _close(self, committed: int) -> None:
        samples = self._samples
        cycles = len(samples)
        deltas: dict[str, float] = {}
        stats = self.stats
        for name in TRACKED_COUNTERS:
            value = stats.get(name)
            deltas[name] = value - self._snapshot[name]
            self._snapshot[name] = value
        occupancy = {}
        columns = zip(*samples)
        next(columns)  # committed
        for name, column in zip(OCCUPANCY_STRUCTURES, columns):
            hist = self.histograms[name]
            for value, count in Counter(column).items():
                hist.record(value, count)
            occupancy[name] = sum(column) / cycles
        self.intervals.append(Interval(
            index=len(self.intervals),
            start_cycle=self._start_cycle,
            cycles=cycles,
            committed=committed - self._committed_at_close,
            counters=deltas,
            occupancy=occupancy,
        ))
        self._committed_at_close = committed
        self._start_cycle += cycles
        self._samples = []

    # ------------------------------------------------------------------
    @property
    def total_cycles(self) -> int:
        return sum(interval.cycles for interval in self.intervals)

    @property
    def total_committed(self) -> int:
        return sum(interval.committed for interval in self.intervals)

    def port_utilization(self, interval: Interval) -> float:
        """Fraction of this window's port-cycles actually used."""
        return interval.counters.get("dcache.port_uses", 0.0) / \
            (self.ports * interval.cycles) if interval.cycles else 0.0

    def series(self, counter: str) -> list[float]:
        """Per-interval deltas of one tracked counter."""
        return [interval.counters.get(counter, 0.0)
                for interval in self.intervals]

    # ------------------------------------------------------------------
    def check_conservation(self, cycles: int,
                           instructions: int) -> list[str]:
        """Reconcile every interval series against the end-of-run
        counters; returns a list of problems (empty = conserved)."""
        problems: list[str] = []
        if self.total_cycles != cycles:
            problems.append(
                f"interval cycles sum to {self.total_cycles}, "
                f"run has {cycles}")
        if self.total_committed != instructions:
            problems.append(
                f"interval committed sums to {self.total_committed}, "
                f"run retired {instructions}")
        for name in TRACKED_COUNTERS:
            total = sum(self.series(name))
            final = self.stats.get(name)
            if total != final:
                problems.append(
                    f"counter {name}: interval deltas sum to {total}, "
                    f"final value is {final}")
        for name, hist in self.histograms.items():
            if hist.total != cycles:
                problems.append(
                    f"occupancy {name}: {hist.total} samples for "
                    f"{cycles} cycles")
        ports_hist = self.histograms["ports"]
        weighted = sum(value * count
                       for value, count in ports_hist.as_dict().items())
        port_uses = self.stats.get("dcache.port_uses")
        if weighted != port_uses:
            problems.append(
                f"ports histogram weighs {weighted} uses, "
                f"dcache.port_uses is {port_uses}")
        return problems

    # ------------------------------------------------------------------
    def as_dict(self) -> dict[str, object]:
        """Column-oriented JSON snapshot for the run report."""
        intervals = self.intervals

        def integral(value: float) -> object:
            return int(value) if float(value).is_integer() else value

        return {
            "interval": self.interval,
            "ports": self.ports,
            "n_intervals": len(intervals),
            "start_cycle": [i.start_cycle for i in intervals],
            "cycles": [i.cycles for i in intervals],
            "committed": [i.committed for i in intervals],
            "ipc": [i.ipc for i in intervals],
            "port_util": [self.port_utilization(i) for i in intervals],
            "counters": {name: [integral(i.counters[name])
                                for i in intervals]
                         for name in TRACKED_COUNTERS},
            "occupancy_mean": {name: [i.occupancy[name] for i in intervals]
                               for name in OCCUPANCY_STRUCTURES},
            "occupancy": {name: {
                "samples": hist.total,
                "mean": hist.mean,
                "p50": hist.percentile_or(0.5),
                "p90": hist.percentile_or(0.9),
                "max": hist.max if hist.total else 0,
            } for name, hist in self.histograms.items()},
        }

    def summary(self) -> str:
        """One human line for the CLI."""
        if not self.intervals:
            return "no intervals recorded"
        utils = [self.port_utilization(i) for i in self.intervals]
        ipcs = [i.ipc for i in self.intervals]
        return (f"{len(self.intervals)} intervals of {self.interval} "
                f"cycles; IPC {min(ipcs):.2f}..{max(ipcs):.2f}, "
                f"port util {min(utils):.1%}..{max(utils):.1%}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"IntervalMetrics(interval={self.interval}, "
                f"n={len(self.intervals)})")

#!/usr/bin/env python3
"""End-to-end benchmark of the simulator, one workload per run.

    python3 benchmarks/e2e/run.py --workload port-bound --seed 1 --seconds 10 --trace 0

A run measures three kinds of sample, all in this one process
(``f2-grid`` adds the experiment engine's worker pool):

* **set-up** — from empty memory and disk trace tiers (a fresh
  directory), build every trace the workload needs: assemble, run
  functionally, check, save.  ``setup_s`` is the median of
  :data:`SETUP_REPEATS`.
* **reload** — clear the memory tier and reload every trace from the
  disk tier.  ``trace_load_s`` is the median of :data:`RELOADS`.
* **pass** — simulate every cell once.  Passes run back to back in a
  closed loop for ``--seconds``; ``kips`` is the median over passes of
  committed simulated instructions per host second.

One set-up and one reload come first.  Then every cell's expected
result is fixed: the pin in ``expected.json`` for seed-independent
cells, a run of the other cycle loop for seeded ones; ``warm`` and
``instrumented`` workloads run one untimed warm-up pass.  The remaining
set-ups and reloads are spread between the timed passes.  Every sample
is timed in segments (a build, a load, a cell, an engine run), each
normalised by the host slowdown the :func:`calibration` loop measures
around it (see :meth:`Run.timing`).

Every simulated result is checked against its expected one; a mismatch,
or a build or simulation that raises, is a failed operation.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 1`` (or
``--trace PATH``) the metrics are the per-layer ones instead: timed
passes alternate between untraced and traced, spans are written as
Chrome-trace JSON, and a per-layer self-time table is printed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"

# The simulator reads these when it is imported: a benchmark run must not
# inherit a validator, a worker count or a trace-cache directory from
# the caller's environment.
for _variable in ("REPRO_VALIDATE", "REPRO_JOBS", "REPRO_TRACE_CACHE"):
    os.environ.pop(_variable, None)
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

try:
    from repro.core.pipeline import OoOCore
    from repro.experiments import f2_headline
    from repro.experiments.engine import Engine, EngineJobError, SimJob
    from repro.obs.critpath import CritPathRecorder
    from repro.obs.hotspots import HotspotRecorder
    from repro.obs.spans import (SpanRecorder, parse_chrome_trace,
                                 write_chrome_trace)
    from repro.obs.stall import CAUSE_ORDER
    from repro.presets import machine as preset_machine
    from repro.validate.invariants import InvariantChecker
    from repro.workloads import suite
except ImportError as exc:
    sys.exit(f"e2e: cannot import the simulator from {SRC}: {exc}")

from cells import F2_SCALE, WORKLOADS, Cell, trace_label  # noqa: E402
from tracing import expected_probes, layer_probes  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Disk-tier reloads per run; ``trace_load_s`` is their median.
RELOADS = 5
#: Interval of the metrics recorder on ``instrumented``, in cycles.
METRICS_INTERVAL = 1000
#: Engine workers on ``f2-grid``: two, or one on a single-CPU host.
JOBS = min(2, os.cpu_count() or 1)
WORK_ROOT = HERE / ".work"
SPANS_DIR = HERE / "out"
EXPECTED_PATH = HERE / "expected.json"
#: Iterations of the calibration loop (about 7 ms on the reference host,
#: short enough to run after every build and every cell).
CALIBRATION_LOOPS = 100_000
#: Median time of the calibration loop on the reference host (2-vCPU
#: x86-64 VM, CPython 3.11) when nothing else loads it; every timed
#: segment is reported as if the host had run at this speed while it ran
#: (see README.md).
CALIBRATION_NOMINAL_S = 0.0069
#: Pause between the calibrations taken while worker processes run.
SAMPLE_INTERVAL_S = 0.1
#: The paper's headline: the techniques reach 91% of a dual port.
PAPER_TECH_VS_2P = 0.91
F2_MEAN_ROWS = ("MEAN (all)", "MEAN (memory-intensive)", "MEAN (scenarios)")
F2_COLUMNS = ("1P/2P", "tech/2P", "1P/2P+SC", "tech/2P+SC")

#: End-to-end metrics (untraced run) and their units.  ``success_rate``
#: is 1 - fail_rate: a bound is a share of the parent's median, which a
#: metric that is always 0 does not have.
END_TO_END = {"kips": "kIPS", "setup_s": "s", "trace_load_s": "s",
              "peak_rss_mb": "MB", "success_rate": "ratio"}

#: Recorder sets of the ``instrumented`` workload's overhead probe, each
#: timed alone on the reference loop.
RECORDER_PROBES = {
    "core.ref_run_s": lambda: {},
    "obs.metrics_overhead": lambda: {"metrics_interval": METRICS_INTERVAL},
    "obs.critpath_overhead": lambda: {"critpath": CritPathRecorder()},
    "obs.hotspots_overhead": lambda: {"hotspots": HotspotRecorder()},
    "validate.invariants_overhead":
        lambda: {"validator": InvariantChecker()},
}

#: Per-layer metrics (traced run) and their units.  A workload that does
#: not exercise a layer reports 0 for it (see README.md).
PER_LAYER = {
    "asm.assemble_s": "s",
    "func.run_s": "s",
    "func.kips": "kIPS",
    "scenarios.contract_s": "s",
    "trace.save_s": "s",
    "trace.load_s": "s",
    "trace.load_us_per_record": "us",
    "trace.npz_mb": "MB",
    "workloads.cache_builds": "count",
    "workloads.cache_disk_hits": "count",
    "workloads.cache_memory_hits": "count",
    "workloads.bytes_per_record": "B",
    "core.run_s": "s",
    "core.host_us_per_instr": "us",
    "core.host_us_per_cycle": "us",
    "core.first_run_s": "s",
    "core.precompute_s": "s",
    "core.fastpath_frac": "ratio",
    "core.ipc": "instr/cycle",
    **{f"core.stall.{cause.value}": "slots" for cause in CAUSE_ORDER},
    "mem.port_uses_per_instr": "ratio",
    "mem.port_util": "ratio",
    "mem.load_miss_rate": "ratio",
    "mem.lb_hit_rate": "ratio",
    "mem.combined_loads_frac": "ratio",
    "mem.wb_combine_rate": "ratio",
    "mem.no_port_stalls": "count",
    "experiments.execute_s": "s",
    "experiments.worker_util": "ratio",
    "experiments.queue_wait_s": "s",
    "experiments.jobs_per_s": "1/s",
    "core.ref_run_s": "s",
    "obs.metrics_overhead": "ratio",
    "obs.critpath_overhead": "ratio",
    "obs.hotspots_overhead": "ratio",
    "validate.invariants_overhead": "ratio",
    "obs.conservation_s": "s",
    "bench.tracing_overhead": "ratio",
}


def fingerprint(result) -> dict:
    """Cycles, instructions and a sha256 over the stats and stall ledger:
    everything a simulator-only change must leave identical."""
    blob = json.dumps({"stats": result.stats.as_dict(),
                       "ledger": result.ledger.as_dict()}, sort_keys=True)
    return {"cycles": result.cycles, "instructions": result.instructions,
            "sha256": hashlib.sha256(blob.encode()).hexdigest()}


def f2_means(results: dict) -> dict:
    """The F2 table's mean rows, from ``{(row, config): CoreResult}``."""
    table = f2_headline.tabulate(F2_SCALE, results)
    return {row: {column: float(table.cell(row, column))
                  for column in F2_COLUMNS} for row in F2_MEAN_ROWS}


def calibration() -> int:
    """A fixed pure-Python loop, independent of the simulator.

    The host shares its CPUs with other machines, and its speed drifts
    over minutes by more than the bounds this benchmark sets.  Timing
    this loop around every timed segment measures that drift so the
    end-to-end times can be normalised by it; no change to the simulator
    can move it.
    """
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return total


def cpu_calibrations(stop: threading.Event, readings: list[float]) -> None:
    """Append the calibration loop's thread CPU time to *readings* every
    :data:`SAMPLE_INTERVAL_S` until *stop* is set."""
    while not stop.wait(SAMPLE_INTERVAL_S):
        start = time.thread_time()
        calibration()
        readings.append(time.thread_time() - start)


@lru_cache(maxsize=None)
def machine(config: str):
    return preset_machine(config)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child (``ru_maxrss`` is
    in KiB on Linux)."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak * 1024 / 1e6


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high - low


def self_times(roots: list, runs=lambda run: True) -> dict[str, list]:
    """``{name: [self seconds, span count, summed n]}`` over the parsed
    span trees whose root's run id satisfies *runs*.  A span's self time
    is its duration minus its children's."""
    totals: dict[str, list] = {}
    for root in roots:
        if not runs(root.args.get("run", "")):
            continue
        for span in root.walk():
            entry = totals.setdefault(span.name, [0.0, 0, 0])
            entry[0] += (span.dur - sum(child.dur for child in span.children)
                         ) / 1e6
            entry[1] += 1
            entry[2] += span.args.get("n", 0)
    return totals


def conservation_problems(result, recorders: dict) -> list[str]:
    """Every attached recorder's exact-conservation check, plus the
    invariant checker's violations."""
    problems = list(result.metrics.check_conservation(
        result.cycles, result.instructions))
    checks = (("critpath", recorders["critpath"].check_conservation),
              ("hotspots",
               lambda: recorders["hotspots"].check_conservation(result)))
    for name, check in checks:
        try:
            check()
        except AssertionError as exc:
            problems.append(f"{name}: {exc}")
    violations = recorders["validator"].violations
    if violations:
        problems.append(f"{len(violations)} invariant violations, first: "
                        f"{violations[0]}")
    return problems


@dataclass
class Result:
    """What one run measured and checked."""

    workload: str
    seed: int
    traced: bool
    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, tuple[float, str]]
    notes: list[str] = field(default_factory=list)
    #: ``{cell label: {used_fastpath values seen}}`` over timed passes.
    fastpath: dict[str, set] = field(default_factory=dict)

    @property
    def fail_rate(self) -> float:
        return _ratio(self.failed, self.attempted)

    def summary(self) -> dict:
        return {"correct": self.failed == 0 and self.attempted > 0,
                "attempted": self.attempted, "failed": self.failed,
                "metrics": {name: {"value": value, "unit": unit}
                            for name, (value, unit) in self.metrics.items()}}


@dataclass
class Timed:
    """Host time of one sample (see :meth:`Run.timing`)."""

    #: Host seconds spent in the sample's segments.
    seconds: float = 0.0
    #: The same, each segment divided by the host slowdown around it.
    nominal_s: float = 0.0


@dataclass
class Pass:
    """One timed pass: its host-time accounting.  Its results are
    checked and dropped (see :meth:`Run.timed`)."""

    index: int
    traced: bool
    timed: Timed
    instructions: int
    cache: dict
    summary: dict | None = None


class Run:
    """One benchmark run of one workload (see the module docstring)."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 traced: bool, expected: dict, cells: list[Cell] | None,
                 run_dir: Path) -> None:
        self.workload = WORKLOADS[workload]
        self.mode = self.workload.mode
        self.seed = seed
        self.seconds = seconds
        self.expected = expected
        self.cells = list(cells) if cells is not None \
            else self.workload.cells(seed)
        #: The F2 mean rows are pinned only for the whole grid.
        self.full_grid = self.mode == "grid" and cells is None
        self.specs = list(dict.fromkeys(cell.spec for cell in self.cells))
        self.run_dir = run_dir
        #: The disk tier of the last set-up, which later phases read.
        self.tier: Path | None = None
        #: Set-up and reload samples, normalised to the nominal host.
        self.setup_s: list[float] = []
        self.reload_s: list[float] = []
        #: The sample being timed, and the last calibration time in it.
        self._timed: Timed | None = None
        self._calibrated = 0.0
        self.slowdowns: list[float] = []
        #: Never activated and never handed to the simulator (see
        #: tracing.py); microsecond timestamps from a monotonic clock.
        self.spans = SpanRecorder(
            f"e2e {workload}",
            clock=lambda: time.perf_counter_ns() // 1000) if traced else None
        self._tracing = False
        self.traces: dict = {}
        self.reference: dict[str, dict | None] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fastpath: dict[str, set] = {}
        #: ``used_fastpath`` of every timed cell, in order.
        self.used_fastpath: list[bool] = []
        #: The first timed pass's ``(cell, result, None)`` outcomes, the
        #: only results kept after their checks.
        self.first_outcomes: list = []
        self.conservation_s: list[float] = []
        self.notes: list[str] = []

    # -- bookkeeping ---------------------------------------------------
    def _op(self, ok: bool, problem: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)
        return ok

    def span(self, name: str, **args):
        """A span while tracing; phase spans pass their ``run`` id, which
        tags every span nested in them."""
        if self._tracing:
            return self.spans.span(name, name.split(".", 1)[0], **args)
        return nullcontext()

    @contextmanager
    def traced(self, on: bool = True):
        """Record spans (and probe the layer calls) inside the block."""
        if not on or self.spans is None:
            yield
            return
        self._tracing = True
        try:
            with layer_probes(self.spans):
                yield
        finally:
            self._tracing = False

    def _fresh_tiers(self, name: str) -> Path:
        directory = self.run_dir / name
        suite.set_trace_cache_dir(directory)
        suite.clear_trace_cache()
        return directory

    def _build(self, spec):
        """One trace build (an op); ``None`` when it raised."""
        try:
            with self.segment(), \
                    self.span("workloads.build", trace=trace_label(spec)):
                trace = spec.build()
        except Exception as exc:  # a broken layer fails the op, not the run
            self._op(False, f"build {trace_label(spec)}: "
                            f"{type(exc).__name__}: {exc}")
            return None
        self._op(True)
        return trace

    def _core(self, cell: Cell, other_loop: bool = False):
        """A core for *cell* on the workload's cycle loop, or with
        *other_loop* on the other one; returns ``(core, recorders)``.

        The workload's loop is the fast one, except on ``instrumented``,
        whose recorders select the reference loop.
        """
        instrumented = self.mode == "instrumented"
        if instrumented and not other_loop:
            recorders = {"critpath": CritPathRecorder(),
                         "hotspots": HotspotRecorder(),
                         "validator": InvariantChecker()}
            return OoOCore(machine(cell.config),
                           metrics_interval=METRICS_INTERVAL,
                           **recorders), recorders
        fastpath = False if other_loop and not instrumented else None
        return OoOCore(machine(cell.config), fastpath=fastpath), None

    def _simulate(self, cell: Cell, trace, other_loop: bool = False):
        """``(cell, result, recorders)``; result is ``None`` when the
        simulation raised (counted as a failed op)."""
        try:
            with self.segment():
                core, recorders = self._core(cell, other_loop)
                with self.span("core.run", cell=cell.label):
                    result = core.run(trace)
        except Exception as exc:  # a broken layer fails the op, not the run
            self._op(False, f"simulate {cell.label}: "
                            f"{type(exc).__name__}: {exc}")
            return cell, None, None
        return cell, result, recorders

    @staticmethod
    def calibrate() -> float:
        """Seconds the fixed calibration loop takes now."""
        start = time.perf_counter()
        calibration()
        return time.perf_counter() - start

    @contextmanager
    def timing(self):
        """Time one sample: the :meth:`segment` blocks inside this one.

        Host contention comes in bursts shorter than a pass, so the
        calibration loop runs before the first segment and after every
        segment (one trace build or one cell), and each segment's time is
        divided by the host slowdown on its two sides: the mean of the
        two calibration times over the nominal one (> 1 when the host ran
        slow).  A segment whose work runs in worker processes is
        normalised by calibrations taken while it runs instead (see
        :meth:`segment`).  Yields the sample's :class:`Timed`.
        """
        gc.collect()
        self._timed = timed = Timed()
        self._calibrated = self.calibrate()
        try:
            yield timed
        finally:
            self._timed = None
        self.slowdowns.append(_ratio(timed.seconds, timed.nominal_s))

    @contextmanager
    def segment(self, workers: bool = False):
        """One timed segment of the open sample; outside a sample (the
        untimed checks) it times nothing.

        With *workers* the segment's work runs in worker processes while
        this process waits.  A calibration on either side would then miss
        what the host does to the workers over seconds, and the one just
        after it competes with the exiting pool, so a thread of this
        process times the loop every :data:`SAMPLE_INTERVAL_S` while the
        segment runs, in thread CPU time (the time slices the workers
        take from it do not count), and the segment's slowdown is the
        mean of those readings.
        """
        if self._timed is None:
            yield
            return
        readings: list[float] = []
        stop = threading.Event()
        sampler = threading.Thread(target=cpu_calibrations,
                                   args=(stop, readings)) if workers else None
        if sampler is not None:
            sampler.start()
        start = time.perf_counter()
        try:
            yield
        finally:
            if sampler is not None:
                stop.set()
                sampler.join()
        seconds = time.perf_counter() - start
        after = self.calibrate()
        if readings:
            slowdown = statistics.mean(readings) / CALIBRATION_NOMINAL_S
        else:
            slowdown = (self._calibrated + after) \
                / (2 * CALIBRATION_NOMINAL_S)
        self._calibrated = after
        self._timed.seconds += seconds
        self._timed.nominal_s += seconds / slowdown

    # -- phases --------------------------------------------------------
    def setup_sample(self) -> None:
        """One set-up from empty memory and disk tiers."""
        index = len(self.setup_s)
        self.tier = self._fresh_tiers(f"setup-{index}")
        broken = []
        with self.timing() as timed, \
                self.span("bench.setup", run=f"setup-{index}"):
            for spec in self.specs:
                if self._build(spec) is None:
                    broken.append(spec)
        self.setup_s.append(timed.nominal_s)
        suite.clear_trace_cache()
        for cell in [cell for cell in self.cells if cell.spec in broken]:
            self._op(False, f"{cell.label}: not run, its trace failed to "
                            f"build")
            self.cells.remove(cell)
        self.specs = [spec for spec in self.specs if spec not in broken]

    def reload_sample(self) -> None:
        """One reload of every trace from the disk tier, memory tier
        empty.  The first reload's traces are the ones passes run."""
        index = len(self.reload_s)
        suite.set_trace_cache_dir(self.tier)
        suite.clear_trace_cache()
        before = suite.trace_cache_stats()["disk_hits"]
        traces = {}
        with self.timing() as timed, \
                self.span("bench.reload", run=f"reload-{index}"):
            for spec in self.specs:
                with self.segment():
                    traces[spec] = spec.build()
        self.reload_s.append(timed.nominal_s)
        hits = suite.trace_cache_stats()["disk_hits"] - before
        self._op(hits == len(self.specs),
                 f"reload {index}: only {hits} of {len(self.specs)} traces "
                 f"came from the disk tier")
        if index == 0:
            self.traces = traces
        suite.clear_trace_cache()

    def samples_between_passes(self, with_setup: bool) -> None:
        """Spread the set-up and reload samples over the timed phase, so
        each metric's median sees the same stretch of host time."""
        with self.traced():
            if with_setup and len(self.setup_s) < SETUP_REPEATS:
                self.setup_sample()
            if len(self.reload_s) < RELOADS:
                self.reload_sample()

    def check_setup(self) -> None:
        """Fix every cell's expected result before anything is timed."""
        with self.span("bench.check", run="check"):
            for cell in self.cells:
                if cell.pinned:
                    pin = self.expected.get("cells", {}).get(cell.label)
                    self._op(pin is not None,
                             f"{cell.label}: no pin in expected.json")
                    self.reference[cell.label] = pin
                    continue
                _, result, _ = self._simulate(
                    cell, self.traces[cell.spec], other_loop=True)
                if result is not None:
                    self._op(True)
                    self.reference[cell.label] = fingerprint(result)

    def check(self, outcomes: list) -> None:
        """Check a pass's results against the expected ones (untimed)."""
        fast = self.mode != "instrumented"
        spent = 0.0
        for cell, result, recorders in outcomes:
            if result is None:
                continue
            problems = []
            if fingerprint(result) != self.reference.get(cell.label):
                problems.append("result differs from its "
                                + ("pin" if cell.pinned else
                                   "other-loop reference"))
            if result.used_fastpath != fast:
                problems.append(f"used_fastpath={result.used_fastpath}")
            if not result.ledger.check_conservation():
                problems.append("stall ledger does not conserve slots")
            if recorders is not None:
                start = time.perf_counter()
                problems.extend(conservation_problems(result, recorders))
                spent += time.perf_counter() - start
            self._op(not problems, f"{cell.label}: " + "; ".join(problems))
        if self.mode == "instrumented":
            self.conservation_s.append(spent)
        if self.full_grid and outcomes:
            means = f2_means({(cell.spec.name, cell.config): result
                              for cell, result, _ in outcomes})
            self._op(means == self.expected.get("f2_means"),
                     f"F2 mean rows {means} differ from their pins")

    def one_pass(self, index: int) -> Pass:
        cache_before = suite.trace_cache_stats()
        directory = None
        summary = None
        with self.timing() as timed, \
                self.span("bench.pass", run=f"pass-{index}"):
            if self.mode == "grid":
                outcomes, summary = self._grid_pass()
            else:
                if self.mode == "cold":
                    directory = self._fresh_tiers(f"cold-{index}")
                    self.traces = {spec: self._build(spec)
                                   for spec in self.specs}
                outcomes = [self._simulate(cell, self.traces[cell.spec])
                            for cell in self.cells
                            if self.traces[cell.spec] is not None]
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
        cache_after = suite.trace_cache_stats()
        cache = {key: cache_after[key] - cache_before[key]
                 for key in cache_after}
        instructions = sum(result.instructions
                           for _, result, _ in outcomes if result is not None)
        return Pass(index, self._tracing, timed, instructions, cache,
                    summary), outcomes

    def _grid_pass(self):
        # Each pass is a fresh ``repro experiment f2 --jobs 2``: the
        # memory tier is empty and the disk tier warm.
        suite.clear_trace_cache()
        engine = Engine(jobs=JOBS, trace_cache=self.tier)
        jobs = [SimJob((cell.spec.name, cell.config), cell.spec,
                       machine(cell.config)) for cell in self.cells]
        try:
            with self.segment(workers=JOBS > 1), \
                    self.span("experiments.execute", jobs=len(jobs)):
                results = engine.execute(jobs)
        except EngineJobError as exc:
            for failure in exc.failures:
                self._op(False, f"engine job {failure['key']}: "
                                f"{failure['error']}")
            return [], engine.last_summary
        return [(cell, results[job.key], None)
                for cell, job in zip(self.cells, jobs)], engine.last_summary

    def timed(self) -> list[Pass]:
        """Closed loop of passes for ``seconds`` of pass time, with the
        remaining set-up and reload samples between them.

        Only the first pass's results are kept once checked: results
        and recorders held across passes would grow the heap, and with
        it the cost of every later garbage collection inside a sample.
        """
        passes: list[Pass] = []
        minimum = 2 if self.spans is not None else 1
        while len(passes) < minimum \
                or sum(p.timed.seconds for p in passes) < self.seconds:
            with self.traced(self.spans is not None
                             and len(passes) % 2 == 1):
                record, outcomes = self.one_pass(len(passes))
            self.check(outcomes)
            for cell, result, _ in outcomes:
                if result is not None:
                    self.fastpath.setdefault(cell.label, set()).add(
                        result.used_fastpath)
                    self.used_fastpath.append(result.used_fastpath)
            if not passes:
                self.first_outcomes = [(cell, result, None)
                                       for cell, result, _ in outcomes]
            del outcomes
            passes.append(record)
            self.samples_between_passes(with_setup=len(passes) % 2 == 1)
        while len(self.setup_s) < SETUP_REPEATS \
                or len(self.reload_s) < RELOADS:
            self.samples_between_passes(with_setup=True)
        return passes

    # -- the run -------------------------------------------------------
    def execute(self) -> Result:
        with self.traced():
            self.setup_sample()
            self.reload_sample()
            self.check_setup()
        if self.mode in ("warm", "instrumented"):
            self.check([self._simulate(cell, self.traces[cell.spec])
                        for cell in self.cells])
        if self.mode == "grid":
            self.traces = {}  # the engine holds its own copy, per pass
        passes = self.timed()
        untraced = [self._kips(p) for p in passes if not p.traced]
        setup, reload = self.setup_s, self.reload_s
        self.notes.append(
            f"kips: median of {len(untraced)} passes, IQR "
            f"{_iqr(untraced):.3f}; setup_s: median of {len(setup)}, IQR "
            f"{_iqr(setup):.4f}; trace_load_s: median of {len(reload)}, "
            f"IQR {_iqr(reload):.4f}")
        self.notes.append(
            f"host slowdown: median {_median(self.slowdowns):.4f}, "
            f"{min(self.slowdowns):.4f}-{max(self.slowdowns):.4f} over "
            f"{len(self.slowdowns)} samples (nominal calibration "
            f"{CALIBRATION_NOMINAL_S * 1e3:.2f} ms)")
        if self.full_grid and self.first_outcomes:
            tech = f2_means({(cell.spec.name, cell.config): result
                             for cell, result, _ in self.first_outcomes}
                            )["MEAN (all)"]["tech/2P"]
            self.notes.append(
                f"F2 {F2_SCALE} MEAN (all) tech/2P = {tech:.3f} beside the "
                f"paper's {PAPER_TECH_VS_2P}; the model is unvalidated "
                f"against hardware, so no error figure is claimed")
        if self.spans is None:
            metrics = {"kips": _median(untraced),
                       "setup_s": _median(setup),
                       "trace_load_s": _median(reload),
                       "peak_rss_mb": peak_rss_mb(),
                       "success_rate": 1 - _ratio(self.failed,
                                                  self.attempted)}
            units = END_TO_END
        else:
            metrics = self._layer_metrics(passes)
            units = PER_LAYER
        return Result(self.workload.name, self.seed, self.spans is not None,
                      self.attempted, self.failed, self.problems,
                      {name: (float(metrics[name]), unit)
                       for name, unit in units.items()},
                      self.notes, self.fastpath)

    @staticmethod
    def _kips(record: Pass) -> float:
        """The pass's kIPS, normalised to the nominal host."""
        return _ratio(record.instructions, record.timed.nominal_s) / 1000

    # -- the traced run's layer metrics --------------------------------
    def _layer_metrics(self, passes: list[Pass]) -> dict[str, float]:
        # Probes read the set-up's disk tier (a cold pass points it away).
        suite.set_trace_cache_dir(self.tier)
        records = sum(len(self._trace(spec)) for spec in self.specs)
        npz = sum(path.stat().st_size for path in self.tier.glob("*.npz"))
        metrics = {name: 0.0 for name in PER_LAYER}
        with self.traced():
            with self.span("bench.probe", run="probe"):
                metrics.update(self._probe_first_runs())
                if self.mode == "instrumented":
                    metrics.update(self._probe_recorders())
        # Untraced: tracemalloc slows the loads it measures.
        metrics["workloads.bytes_per_record"] = self._probe_memory()

        roots = [root for track in
                 parse_chrome_trace(self.spans.events()).values()
                 for root in track]
        setup = self_times(roots, lambda run: run.startswith("setup-"))

        def per_setup(name: str) -> float:
            return setup.get(name, [0.0])[0] / SETUP_REPEATS

        metrics.update({
            "asm.assemble_s": per_setup("asm.assemble"),
            "func.run_s": per_setup("func.run"),
            "func.kips": _ratio(setup.get("func.run", [0, 0, 0])[2],
                                setup.get("func.run", [0.0])[0]) / 1000,
            "scenarios.contract_s": per_setup("scenarios.contract"),
            "trace.save_s": per_setup("trace.save"),
        })
        loads = [self_times(roots, lambda run, i=i: run == f"reload-{i}")
                 .get("trace.load", [0.0])[0]
                 for i in range(len(self.reload_s))]
        metrics.update({
            "trace.load_s": _median(loads),
            "trace.load_us_per_record": _ratio(_median(loads), records) * 1e6,
            "trace.npz_mb": npz / 1e6,
        })
        for key in ("builds", "disk_hits", "memory_hits"):
            metrics[f"workloads.cache_{key}"] = _median(
                [p.cache[key] for p in passes])

        self._core_metrics(metrics, passes, roots)
        untraced = [self._kips(p) for p in passes if not p.traced]
        traced = [self._kips(p) for p in passes if p.traced]
        metrics["bench.tracing_overhead"] = \
            _ratio(_median(untraced), _median(traced)) - 1 if traced else 0.0
        metrics["obs.conservation_s"] = _median(self.conservation_s)
        self._span_report(roots, untraced, traced)
        return metrics

    def _trace(self, spec):
        """The trace passes ran, or (on ``f2-grid``, which holds none)
        the suite's copy."""
        return self.traces.get(spec) or spec.build()

    def _core_metrics(self, metrics: dict, passes: list[Pass],
                      roots: list) -> None:
        """Core, memory and engine metrics of the timed passes."""
        core_s = []
        for record in passes:
            if record.summary is not None:
                core_s.append(sum(worker["busy_s"]
                                  for worker in record.summary["workers"]))
            elif record.traced:
                core_s.append(self_times(
                    roots, lambda run, r=record: run == f"pass-{r.index}")
                    .get("core.run", [0.0])[0])
        results = [result for result in
                   (r for _, r, _ in self.first_outcomes) if result is not None]
        stats = [result.stats for result in results]
        instructions = sum(result.instructions for result in results)
        cycles = sum(result.cycles for result in results)
        ports = sum(machine(cell.config).mem.dcache.ports * result.cycles
                    for cell, result, _ in self.first_outcomes
                    if result is not None)

        def total(*names: str) -> float:
            return sum(s.get(name) for s in stats for name in names)

        used = self.used_fastpath
        port_loads = total("dcache.load_hits", "dcache.load_misses",
                           "dcache.load_secondary_misses")
        metrics.update({
            "core.run_s": _median(core_s),
            "core.host_us_per_instr":
                _ratio(_median(core_s), instructions) * 1e6,
            "core.host_us_per_cycle": _ratio(_median(core_s), cycles) * 1e6,
            "core.fastpath_frac": _ratio(sum(used), len(used)),
            "core.ipc": _ratio(instructions, cycles),
            "mem.port_uses_per_instr":
                _ratio(total("dcache.port_uses"), instructions),
            "mem.port_util": _ratio(total("dcache.port_uses"), ports),
            "mem.load_miss_rate": _ratio(
                total("dcache.load_misses", "dcache.load_secondary_misses"),
                port_loads),
            "mem.lb_hit_rate": _ratio(total("lb.hits"),
                                      total("lb.hits", "lb.misses")),
            "mem.combined_loads_frac": _ratio(total("lsq.combined_loads"),
                                              total("fu.load.ops")),
            "mem.wb_combine_rate": _ratio(
                total("wb.combined"),
                total("wb.combined", "wb.entries_allocated")),
            "mem.no_port_stalls": total("dcache.load_no_port",
                                        "dcache.store_no_port"),
        })
        for cause in CAUSE_ORDER:
            metrics[f"core.stall.{cause.value}"] = sum(
                result.ledger.lost[cause] for result in results)
        summaries = [p.summary for p in passes if p.summary is not None]
        if summaries:
            execute_s = _median([s["elapsed_s"] for s in summaries])
            metrics.update({
                "experiments.execute_s": execute_s,
                "experiments.worker_util": _median([
                    statistics.mean(w["utilization"] for w in s["workers"])
                    for s in summaries]),
                "experiments.queue_wait_s": _median(
                    [s["queue_wait_s"]["mean"] for s in summaries]),
                "experiments.jobs_per_s": _ratio(len(self.cells), execute_s),
            })

    def _probe_first_runs(self) -> dict[str, float]:
        """First run of each trace (fresh identity, so the fast loop's
        precompute memo misses) against a warm rerun of the same list."""
        first = warm = 0.0
        for spec in self.specs:
            cell = next(cell for cell in self.cells if cell.spec == spec)
            trace = list(self._trace(spec))
            for repeat in range(2):
                core, _ = self._core(cell)
                start = time.perf_counter()
                with self.span("core.run", cell=cell.label):
                    core.run(trace)
                elapsed = time.perf_counter() - start
                if repeat == 0:
                    first += elapsed
                else:
                    warm += elapsed
        return {"core.first_run_s": first, "core.precompute_s": first - warm}

    def _probe_memory(self) -> float:
        """Heap bytes per trace record held, over one reload."""
        suite.clear_trace_cache()
        gc.collect()
        tracemalloc.start()
        try:
            traces = [spec.build() for spec in self.specs]
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return _ratio(held, sum(len(trace) for trace in traces))

    def _probe_recorders(self) -> dict[str, float]:
        """Each recorder alone on the reference loop, against the bare
        reference loop (``core.ref_run_s``)."""
        totals = dict.fromkeys(RECORDER_PROBES, 0.0)
        for cell in self.cells:
            trace = self.traces[cell.spec]
            for name, recorders in RECORDER_PROBES.items():
                core = OoOCore(machine(cell.config), fastpath=False,
                               **recorders())
                start = time.perf_counter()
                core.run(trace)
                totals[name] += time.perf_counter() - start
        ref = totals["core.ref_run_s"]
        return {name: (seconds if name == "core.ref_run_s"
                       else _ratio(seconds, ref))
                for name, seconds in totals.items()}

    def _span_report(self, roots: list, untraced: list[float],
                     traced: list[float]) -> None:
        """Self-time table, tracing overhead, and the probe and fast-path
        checks."""
        totals = self_times(roots)
        wall = (max(root.ts + root.dur for root in roots)
                - min(root.ts for root in roots)) / 1e6
        self_sum = sum(entry[0] for entry in totals.values())
        self.notes.append(f"{'layer':<24} {'self s':>10} {'spans':>7}")
        for name, (seconds, count, _) in sorted(
                totals.items(), key=lambda item: -item[1][0]):
            self.notes.append(f"{name:<24} {seconds:>10.4f} {count:>7}")
        self.notes.append(f"self times sum to {self_sum:.3f} s of "
                          f"{wall:.3f} s traced wall time")
        self._op(self_sum <= wall + 1e-6,
                 f"span self times sum to {self_sum} s, more than the "
                 f"traced wall time {wall} s")
        self.notes.append(
            f"tracing overhead: {_median(untraced):.2f} kIPS untraced vs "
            f"{_median(traced):.2f} kIPS traced")
        missing = sorted(expected_probes(self.specs) - set(totals))
        self._op(not missing, f"layer probes recorded no span for {missing}")
        mixed = sorted(label for label, seen in self.fastpath.items()
                       if len(seen) > 1)
        self._op(not mixed, f"used_fastpath differs between traced and "
                            f"untraced passes on {mixed}")


def run_workload(workload: str, seed: int = 1, seconds: float = 10.0,
                 trace: bool = False, cells: list[Cell] | None = None,
                 expected: dict | None = None,
                 work_root: Path = WORK_ROOT,
                 spans_path: Path | None = None) -> Result:
    """Run one workload and return what it measured.  *cells* replaces
    the workload's cell list (tests pass a reduced one); *expected*
    replaces ``expected.json``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{sorted(WORKLOADS)}")
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text())
    work_root.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    bench = Run(workload, seed, seconds, trace, expected, cells, run_dir)
    try:
        result = bench.execute()
    finally:
        suite.set_trace_cache_dir(None)
        suite.clear_trace_cache()
        shutil.rmtree(run_dir, ignore_errors=True)
    if bench.spans is not None and spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(str(spans_path), bench.spans.events())
        result.notes.append(f"spans written to {spans_path}")
    return result


def report_lines(result: Result) -> list[str]:
    """The human-readable report: notes, every metric with its unit, the
    failure rate and the first problems."""
    lines = [f"e2e {result.workload} seed={result.seed} "
             f"trace={int(result.traced)}"]
    lines += [f"  {note}" for note in result.notes]
    lines += [f"  {name:<32} {value:>16.6f} {unit}"
              for name, (value, unit) in result.metrics.items()]
    lines.append(f"  {'fail_rate':<32} {result.fail_rate:>16.6f} ratio "
                 f"({result.failed} failed of {result.attempted} ops)")
    lines += [f"  FAIL {problem}" for problem in result.problems[:10]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end simulator benchmark (one workload per run).")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="length of the timed phase")
    parser.add_argument("--trace", default="0",
                        help="0: end-to-end metrics; 1: per-layer metrics, "
                             "spans to out/; any other value: per-layer "
                             "metrics, spans to that path")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    traced = args.trace != "0"
    spans_path = None
    if traced:
        spans_path = (SPANS_DIR / f"spans-{args.workload}-seed{args.seed}"
                      f".json" if args.trace == "1" else Path(args.trace))
    result = run_workload(args.workload, args.seed, args.seconds, traced,
                          spans_path=spans_path)
    for line in report_lines(result):
        print(line)
    print(json.dumps(result.summary()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

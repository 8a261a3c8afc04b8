"""Process-parallel grid execution for the experiment harness.

An experiment is a grid of independent timing simulations — (workload,
scale, machine configuration) cells — followed by a pure tabulation
step.  This module runs the grid:

* :class:`TraceSpec` names a trace without materialising it, so a job
  can cross a process boundary as a small picklable description; each
  worker rebuilds the trace through the workload suite's two-tier
  cache (memory, then the persistent disk tier).
* :class:`SimJob` pairs a :class:`TraceSpec` with a complete
  :class:`~repro.core.config.MachineConfig` and a hashable result key.
* :class:`Engine` executes a job list — inline for ``jobs=1``, across
  a process pool otherwise — and merges results in
  **insertion order**, so the result dict (and the run reports on
  ``last_reports``) is identical whatever the completion order or
  worker count.  Simulated cycles, counters, and rendered tables are
  byte-identical between ``jobs=1`` and ``jobs=N``.
* Jobs that plan the same trace on the same machine are one **cell**:
  the engine simulates each distinct cell once and files its result
  and run report under every key that planned it, so a caller may
  join several experiments' grids into one ``execute`` call.

Every distinct trace is warmed once in the parent before the fan-out:
forked workers inherit the in-memory cache, spawned workers load the
disk tier, and no worker ever repeats a functional simulation.

Fleet observability (all opt-in, all free when off):

* ``collect_spans=True`` records host-time spans — the parent's trace
  warm-up, and each worker's cells with the ``core.run`` inside each —
  against one shared epoch; after ``execute`` the merged,
  Perfetto-loadable event stream is on ``Engine.span_events``.  The
  core is never handed the recorder, so every job takes the cycle
  loop a plain run takes.
* ``progress=True`` (or a stream) drives a live single-line display
  from per-cell started/finished/failed events the workers push
  through a queue (see :mod:`repro.experiments.progress`).
* ``Engine.last_summary`` carries the post-run fleet summary — jobs
  planned and cells simulated, per-worker utilisation, queue wait,
  the slowest cells, and any failures — which ``repro experiment
  --json`` embeds in the manifest's ``engine`` block.

A cell that raises inside a worker no longer surfaces as a bare
multiprocessing traceback: the engine wraps it in
:class:`EngineJobError` carrying, for every key that planned the cell,
the job key, configuration name, trace identity and generator seed,
and records it in the run summary.  A worker process that dies
(killed by a signal, or crashed) fails every cell that had not
finished, through the same error, instead of leaving the engine
waiting for results that never come.
"""

from __future__ import annotations

import functools
import inspect
import multiprocessing
import os
import time
import traceback
from collections.abc import Sequence
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from queue import Empty

from ..core.config import MachineConfig
from ..core.pipeline import CoreResult, OoOCore
from ..obs import spans as obs_spans
from ..obs.report import build_run_report
from ..obs.spans import SpanRecorder, merge_events
from ..trace import synthetic
from ..trace.io import Trace
from ..trace.synthetic import SyntheticConfig, generate
from ..workloads import suite
from .progress import ProgressDisplay

__all__ = ["Engine", "EngineJobError", "SimJob", "TraceSpec"]


@dataclass(frozen=True)
class TraceSpec:
    """A picklable description of a trace (not the trace itself)."""

    kind: str                            # workload | os-mix | os-mix-user
    name: str | None = None              # ... | scenario[-user] | synthetic
    scale: str | None = None
    synthetic: SyntheticConfig | None = None
    scenario_seed: int | None = None

    @staticmethod
    def workload(name: str, scale: str) -> "TraceSpec":
        """A suite workload by name; ``"os-mix"`` selects the mix."""
        if name == "os-mix":
            return TraceSpec("os-mix", name, scale)
        return TraceSpec("workload", name, scale)

    @staticmethod
    def os_mix(scale: str, user_only: bool = False) -> "TraceSpec":
        """The multiprogrammed mix; ``user_only`` filters out kernel
        records (the classic user-only-trace methodology)."""
        kind = "os-mix-user" if user_only else "os-mix"
        return TraceSpec(kind, "os-mix", scale)

    @staticmethod
    def scenario(name: str, scale: str, seed: int | None = None,
                 user_only: bool = False) -> "TraceSpec":
        """A scenario-corpus entry (:mod:`repro.scenarios`) at *scale*;
        ``seed=None`` uses the scenario's default seed.  ``user_only``
        filters out kernel records, like :meth:`os_mix`."""
        kind = "scenario-user" if user_only else "scenario"
        return TraceSpec(kind, name, scale, scenario_seed=seed)

    @staticmethod
    def from_synthetic(config: SyntheticConfig) -> "TraceSpec":
        return TraceSpec("synthetic", "synthetic", None, config)

    @property
    def seed(self) -> int | None:
        """The generator seed, for synthetic and scenario traces."""
        if self.synthetic is not None:
            return self.synthetic.seed
        return self.scenario_seed

    def report_identity(self) -> dict[str, object]:
        """Workload identity stamped into run reports — the user-only
        mix is a different trace than the full mix, so it gets a
        distinct workload name."""
        if self.kind == "workload":
            return {"workload": self.name, "scale": self.scale,
                    "seed": None}
        if self.kind in ("os-mix", "os-mix-user"):
            return {"workload": self.kind, "scale": self.scale,
                    "seed": None}
        if self.kind in ("scenario", "scenario-user"):
            name = self.name if self.kind == "scenario" \
                else f"{self.name}-user"
            return {"workload": name, "scale": self.scale,
                    "seed": self.scenario_seed}
        if self.kind == "synthetic":
            return {"workload": "synthetic", "scale": None,
                    "seed": self.seed}
        return {"workload": None, "scale": self.scale,
                "seed": self.seed}

    def describe(self) -> str:
        """Compact human identity (failure reports, summaries)."""
        label = f"{self.kind}:{self.name}" if self.name else self.kind
        if self.scale:
            label += f"@{self.scale}"
        if self.seed is not None:
            label += f" seed={self.seed}"
        return label

    def build(self) -> Trace:
        """Materialise the trace through the suite's two-tier cache."""
        if self.kind == "workload":
            return suite.build_trace(self.name, self.scale)
        if self.kind == "os-mix":
            return suite.build_os_mix_trace(self.scale)
        if self.kind == "os-mix-user":
            return suite.build_os_mix_trace(self.scale).user_only()
        if self.kind == "scenario":
            return suite.build_scenario_trace(self.name, self.scale,
                                              seed=self.scenario_seed)
        if self.kind == "scenario-user":
            return suite.build_scenario_trace(
                self.name, self.scale, seed=self.scenario_seed).user_only()
        if self.kind == "synthetic":
            config = self.synthetic
            return suite.cached_trace(
                f"synthetic-seed{config.seed}",
                suite.content_digest(repr(config),
                                     _generator_fingerprint()),
                lambda: Trace.from_records(generate(config)))
        raise ValueError(f"unknown trace kind {self.kind!r}")


@functools.lru_cache(maxsize=1)
def _generator_fingerprint() -> str:
    """Digest of the synthetic generator's source, so an edit to it
    invalidates cached synthetic traces (as the kernel fingerprint does
    for full-system ones)."""
    return suite.content_digest(inspect.getsource(synthetic))


@dataclass(frozen=True)
class SimJob:
    """One grid job: simulate *trace* on *machine*, file the result
    under *key* (any hashable, unique within one ``execute`` call)."""

    key: object
    trace: TraceSpec
    machine: MachineConfig


class EngineJobError(RuntimeError):
    """A grid job failed; the message carries the job's identity —
    key, configuration name, trace (and seed) — plus the original
    traceback, instead of a bare multiprocessing dump, and names every
    other failed job.  ``failures`` holds one context dict per failed
    job."""

    def __init__(self, failures: list[dict]) -> None:
        first = failures[0]
        seed = first.get("seed")
        lines = [
            f"{len(failures)} engine job(s) failed; first: "
            f"job {first['key']} (config {first['config']}, "
            f"trace {first['trace']}"
            + (f", seed {seed}" if seed is not None else "")
            + f") raised {first['error']}"]
        if len(failures) > 1:
            lines.append("also failed: " + ", ".join(
                f"job {failure['key']} (config {failure['config']})"
                for failure in failures[1:]))
        if first.get("traceback"):
            lines.append("worker traceback:")
            lines.append(first["traceback"].rstrip())
        super().__init__("\n".join(lines))
        self.failures = failures


def _default_jobs() -> int:
    """Worker count when none is given: ``REPRO_JOBS`` or 1."""
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _job_context(job: SimJob) -> dict[str, object]:
    return {"key": str(job.key), "config": job.machine.name,
            "trace": job.trace.describe(), "seed": job.trace.seed}


def _run_job_outcome(job: SimJob, metrics_interval: int | None,
                     recorder: SpanRecorder | None) -> dict:
    """Simulate one job, catching any failure into the outcome."""
    outcome: dict = {"pid": os.getpid(), "started": time.time()}
    depth = recorder.depth if recorder is not None else 0
    try:
        if recorder is not None:
            recorder.begin("job", "engine", key=str(job.key),
                           config=job.machine.name)
        trace = job.trace.build()
        if recorder is not None:
            recorder.begin("core.run", "sim", config=job.machine.name,
                           records=len(trace))
        start = time.perf_counter()
        result = OoOCore(job.machine,
                         metrics_interval=metrics_interval).run(trace)
        wall = time.perf_counter() - start
        if recorder is not None:
            recorder.end(cycles=result.cycles,
                         instructions=result.instructions)
            recorder.end(instructions=result.instructions,
                         cycles=result.cycles)
        report = build_run_report(result, job.machine, wall_time=wall,
                                  **job.trace.report_identity())
        outcome.update(ok=True, result=result, wall=wall, report=report)
    except Exception as exc:
        if recorder is not None:
            while recorder.depth > depth:
                recorder.end()
        outcome.update(ok=False,
                       error={"type": type(exc).__name__,
                              "message": str(exc),
                              "traceback": traceback.format_exc()})
    outcome["finished"] = time.time()
    return outcome


# Per-worker-process state, installed by the pool initializer.
_worker_state: dict = {"queue": None, "epoch": None}


def _init_worker(cache_dir: object, progress_queue, epoch_us) -> None:
    suite.set_trace_cache_dir(cache_dir)
    _worker_state["queue"] = progress_queue
    _worker_state["epoch"] = epoch_us


def _run_job(job: SimJob, metrics_interval: int | None) -> dict:
    queue = _worker_state["queue"]
    key = str(job.key)
    if queue is not None:
        queue.put(("started", key))
    recorder = None
    if _worker_state["epoch"] is not None:
        recorder = SpanRecorder(f"engine worker {os.getpid()}",
                                epoch_us=_worker_state["epoch"])
    with obs_spans.activate(recorder):
        outcome = _run_job_outcome(job, metrics_interval, recorder)
    if recorder is not None:
        outcome["spans"] = recorder.events()
    if queue is not None:
        if outcome["ok"]:
            queue.put(("finished", key, outcome["wall"],
                       outcome["result"].instructions))
        else:
            queue.put(("failed", key))
    return outcome


def _pool_outcome(future: Future) -> dict:
    """The outcome a pool future carries or, when a worker process
    died before the cell finished, a failure saying so.  Such a cell
    has no ``pid`` or host times: nothing of it was timed."""
    try:
        return future.result()
    except BrokenProcessPool:
        return {"ok": False,
                "error": {"type": "BrokenProcessPool",
                          "message": "a worker process died (killed by "
                                     "a signal, or crashed) before the "
                                     "job finished",
                          "traceback": ""}}


def _feed_display(display: ProgressDisplay, event: tuple) -> None:
    kind = event[0]
    if kind == "started":
        display.job_started(event[1])
    elif kind == "finished":
        display.job_finished(event[1], event[2], event[3])
    elif kind == "failed":
        display.job_failed(event[1])


class Engine:
    """Executes experiment grids, optionally across worker processes.

    ``jobs`` defaults to the ``REPRO_JOBS`` environment variable (or
    1).  ``trace_cache`` redirects the persistent trace cache for this
    process and every worker — a directory path, or ``"off"``/``None``
    semantics per :func:`repro.workloads.set_trace_cache_dir`; leaving
    it unset keeps the current (default) cache directory.
    ``metrics_interval`` turns on per-cell interval telemetry: every
    simulation in the grid samples :mod:`repro.obs.metrics` series at
    that cycle interval and the run reports carry them, in the same
    deterministic job order, whatever the worker count.

    ``progress`` turns on the live fleet display (``True`` writes to
    stderr; a stream object redirects it).  ``collect_spans`` records
    a host-time span timeline across the parent and every worker;
    after ``execute`` the merged event stream is on ``span_events``
    (export with :func:`repro.obs.spans.write_chrome_trace`).  Each
    ``execute`` also leaves a fleet summary on ``last_summary`` and
    every job's run report on ``last_reports``.
    """

    def __init__(self, jobs: int | None = None,
                 trace_cache: str | os.PathLike | None = None,
                 metrics_interval: int | None = None,
                 progress: object = False,
                 collect_spans: bool = False) -> None:
        self.jobs = max(1, jobs) if jobs is not None else _default_jobs()
        self.metrics_interval = metrics_interval
        self.progress = progress
        self.collect_spans = collect_spans
        self.span_events: list[dict] | None = None
        self.last_summary: dict | None = None
        self.last_reports: dict[object, dict] | None = None
        # One recorder and epoch for the engine's lifetime, so several
        # execute() calls land on a single coherent timeline.
        self._recorder: SpanRecorder | None = None
        self._epoch: int | None = None
        self._worker_events: list[list[dict]] = []
        if collect_spans:
            self._epoch = obs_spans.timestamp_us()
            self._recorder = SpanRecorder("engine", epoch_us=self._epoch)
        if trace_cache is not None:
            suite.set_trace_cache_dir(trace_cache)

    # ------------------------------------------------------------------
    def _make_display(self, total: int) -> ProgressDisplay | None:
        if not self.progress:
            return None
        if hasattr(self.progress, "write"):
            return ProgressDisplay(total, stream=self.progress,
                                   force=True)
        return ProgressDisplay(total)

    def execute(self, sim_jobs: Sequence[SimJob],
                ) -> dict[object, CoreResult]:
        """Run every job; returns ``{job.key: CoreResult}`` in job
        order and leaves ``{job.key: run report}`` on ``last_reports``
        in the same order.  Jobs that plan an equal trace on an equal
        machine are one cell: it is simulated once, and its result and
        report (the same objects) are filed under every key that
        planned it.  Raises :class:`EngineJobError` if any cell failed,
        naming every key that planned it (after every cell has run, or
        its worker died, and ``last_summary`` has recorded the
        failures)."""
        jobs = list(sim_jobs)
        keys = [job.key for job in jobs]
        if len(set(keys)) != len(keys):
            raise ValueError("SimJob keys must be unique within a grid")
        # A MachineConfig is unhashable (its ``fu_specs`` is a dict);
        # equal reprs are equal machines, name included.
        owners: dict[tuple, int] = {}
        cells: list[SimJob] = []
        cell_of: list[int] = []
        for job in jobs:
            identity = (job.trace, repr(job.machine))
            if identity not in owners:
                owners[identity] = len(cells)
                cells.append(job)
            cell_of.append(owners[identity])
        recorder = self._recorder
        display = self._make_display(len(cells))
        fanout_start = time.time()
        # Warm every distinct trace once, in the parent: forked workers
        # inherit the in-memory tier, spawned workers read the disk
        # tier, and tabulate() helpers get cache hits.
        with obs_spans.activate(recorder):
            specs = dict.fromkeys(cell.trace for cell in cells)
            if recorder is not None:
                recorder.begin("engine.warm", "engine",
                               traces=len(specs))
            for spec in specs:
                try:
                    spec.build()
                except Exception:
                    # Warm-up is an optimisation only; the owning cell
                    # will hit the same error and report it with
                    # full context (key, config, trace, seed).
                    pass
            if recorder is not None:
                recorder.end()
        if self.jobs <= 1 or len(cells) <= 1:
            outcomes = self._execute_inline(cells, recorder, display)
        else:
            outcomes = self._execute_pool(cells, self._epoch, display)
        elapsed = time.time() - fanout_start
        if display is not None:
            display.close()
        results: dict[object, CoreResult] = {}
        reports: dict[object, dict] = {}
        failures: list[dict] = []
        for job, cell in zip(jobs, cell_of):
            outcome = outcomes[cell]
            if outcome["ok"]:
                results[job.key] = outcome["result"]
                reports[job.key] = outcome["report"]
            else:
                error = outcome["error"]
                failures.append({**_job_context(job),
                                 "error": f"{error['type']}: "
                                          f"{error['message']}",
                                 "traceback": error["traceback"]})
        self.last_reports = reports
        self.last_summary = self._build_summary(len(jobs), cells,
                                                outcomes, fanout_start,
                                                elapsed, failures)
        if self.collect_spans:
            self._worker_events.extend(
                outcome["spans"] for outcome in outcomes
                if outcome.get("spans"))
            self.span_events = merge_events(recorder.events(),
                                            *self._worker_events)
        if failures:
            raise EngineJobError(failures)
        return results

    def _execute_inline(self, cells: list[SimJob],
                        recorder: SpanRecorder | None,
                        display: ProgressDisplay | None) -> list[dict]:
        outcomes = []
        with obs_spans.activate(recorder):
            for cell in cells:
                if display is not None:
                    display.job_started(str(cell.key))
                outcome = _run_job_outcome(cell, self.metrics_interval,
                                           recorder)
                outcomes.append(outcome)
                if display is None:
                    continue
                if outcome["ok"]:
                    display.job_finished(str(cell.key), outcome["wall"],
                                         outcome["result"].instructions)
                else:
                    display.job_failed(str(cell.key))
        return outcomes

    def _execute_pool(self, cells: list[SimJob], epoch: int | None,
                      display: ProgressDisplay | None) -> list[dict]:
        workers = min(self.jobs, len(cells))
        queue = multiprocessing.Queue() if display is not None else None
        with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker,
                initargs=(suite.trace_cache_dir(), queue, epoch)) as pool:
            futures = [pool.submit(_run_job, cell, self.metrics_interval)
                       for cell in cells]
            if display is not None:
                while True:
                    try:
                        _feed_display(display, queue.get(timeout=0.05))
                    except Empty:
                        if all(future.done() for future in futures):
                            break
                while True:
                    try:
                        _feed_display(display, queue.get_nowait())
                    except Empty:
                        break
            # Results are read in submission order, so the merge in
            # execute() is deterministic whichever worker finishes
            # first.  A dead worker breaks the pool, which fails every
            # unfinished future at once.
            outcomes = [_pool_outcome(future) for future in futures]
        if display is not None:
            for cell, outcome in zip(cells, outcomes):
                if "pid" not in outcome:
                    display.job_failed(str(cell.key))
        return outcomes

    @staticmethod
    def _build_summary(planned: int, cells: list[SimJob],
                       outcomes: list[dict], fanout_start: float,
                       elapsed: float, failures: list[dict]) -> dict:
        """The post-run ``engine`` summary: jobs planned and cells
        simulated, per-worker utilisation, queue wait, slowest cells,
        failures.  Host-time content — the manifest's ``engine``
        subtree is ignored by ``repro compare`` by default, like
        ``host``."""
        workers: dict[int, dict] = {}
        waits = []
        timed = []
        for cell, outcome in zip(cells, outcomes):
            if "pid" not in outcome:
                continue  # lost with its worker: nothing was timed
            worker = workers.setdefault(
                outcome["pid"], {"pid": outcome["pid"], "jobs": 0,
                                 "busy_s": 0.0})
            worker["jobs"] += 1
            waits.append(max(0.0, outcome["started"] - fanout_start))
            busy = outcome["finished"] - outcome["started"]
            worker["busy_s"] += busy
            if outcome["ok"]:
                timed.append({"key": str(cell.key),
                              "wall_s": outcome["wall"]})
        for worker in workers.values():
            worker["utilization"] = (worker["busy_s"] / elapsed
                                     if elapsed > 0 else None)
        timed.sort(key=lambda entry: -entry["wall_s"])
        return {
            "elapsed_s": elapsed,
            "jobs": {"total": planned,
                     "simulated": len(cells),
                     "ok": planned - len(failures),
                     "failed": len(failures)},
            "workers": sorted(workers.values(),
                              key=lambda worker: worker["pid"]),
            "queue_wait_s": ({"mean": sum(waits) / len(waits),
                              "max": max(waits)} if waits else None),
            "slowest": timed[:5],
            "failed": [{key: value for key, value in failure.items()
                        if key != "traceback"} for failure in failures],
        }

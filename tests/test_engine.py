"""Tests for the parallel experiment engine and the trace cache.

The contract under test: a grid executed with ``jobs=N`` produces the
same result dict, the same rendered table, and the same run reports
(modulo host wall-time fields) as the serial path; jobs that plan one
trace on one machine are simulated once; and the persistent trace
cache turns repeat grid runs into zero functional simulations.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro
from repro.experiments import engine as engine_module
from repro.experiments import f2_headline, run_all
from repro.experiments.engine import Engine, EngineJobError, SimJob, TraceSpec
from repro.experiments.runner import mean
from repro.presets import machine
from repro.trace import SyntheticConfig, load_trace
from repro.trace import io as trace_io
from repro.workloads import (build_trace, clear_trace_cache,
                             set_trace_cache_dir, trace_cache_dir,
                             trace_cache_stats)
from repro.workloads import suite as suite_module

#: The directory holding the ``repro`` package, for child interpreters.
SRC_DIR = os.path.dirname(os.path.dirname(repro.__file__))


def _corrupt(path, fault: str) -> None:
    """Damage the ``.npz`` cache entry at *path* in the way *fault*
    names."""
    if fault == "truncated":
        path.write_bytes(path.read_bytes()[:path.stat().st_size // 2])
    elif fault == "empty":
        path.write_bytes(b"")
    else:
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        if fault == "short-column":
            arrays["mem_addr"] = arrays["mem_addr"][:-1]
        else:
            arrays["version"] = np.array([trace_io.FORMAT_VERSION + 1])
        np.savez_compressed(path, **arrays)


def _strip_host(report: dict) -> dict:
    """Run reports minus the inherently nondeterministic host fields."""
    return {key: value for key, value in report.items() if key != "host"}


class TestTraceSpec:
    def test_workload_spec_builds_the_suite_trace(self):
        spec = TraceSpec.workload("stream", "tiny")
        assert [r.pc for r in spec.build()] == \
            [r.pc for r in build_trace("stream", "tiny")]

    def test_os_mix_dispatch(self):
        assert TraceSpec.workload("os-mix", "tiny").kind == "os-mix"
        full = TraceSpec.os_mix("tiny").build()
        user = TraceSpec.os_mix("tiny", user_only=True).build()
        assert 0 < len(user) < len(full)
        assert not any(r.kernel for r in user)

    def test_synthetic_spec_is_cached(self):
        spec = TraceSpec.from_synthetic(SyntheticConfig(instructions=200,
                                                        seed=3))
        assert spec.build() is spec.build()  # memory-tier hit

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            TraceSpec("nonsense").build()


@pytest.fixture(scope="module")
def f2_runs():
    """F2's tiny grid run serially and on four workers:
    ``{jobs: (engine, results)}``."""
    runs = {}
    for jobs in (1, 4):
        engine = Engine(jobs=jobs)
        runs[jobs] = engine, engine.execute(f2_headline.plan("tiny"))
    return runs


class TestEngineDeterminism:
    def test_parallel_f2_table_and_reports_match_serial(self, f2_runs):
        (serial, serial_results), (parallel, results) = f2_runs[1], \
            f2_runs[4]
        assert f2_headline.tabulate("tiny", serial_results).render() == \
            f2_headline.tabulate("tiny", results).render()
        assert len(parallel.last_reports) == len(results)
        assert [_strip_host(r) for r in serial.last_reports.values()] == \
            [_strip_host(r) for r in parallel.last_reports.values()]

    def test_result_keys_preserve_job_order(self, f2_runs):
        engine, results = f2_runs[4]
        keys = [job.key for job in f2_headline.plan("tiny")]
        assert list(results) == keys
        assert list(engine.last_reports) == keys

    def test_duplicate_keys_rejected(self):
        job = SimJob("same", TraceSpec.workload("stream", "tiny"),
                     machine("1P"))
        with pytest.raises(ValueError, match="unique"):
            Engine(jobs=1).execute([job, job])

    def test_jobs_floor_is_one(self):
        assert Engine(jobs=0).jobs == 1
        assert Engine(jobs=-3).jobs == 1

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "6")
        assert Engine().jobs == 6
        monkeypatch.setenv("REPRO_JOBS", "junk")
        assert Engine().jobs == 1

    def test_run_all_accepts_engine(self, f2_runs):
        _, results = f2_runs[1]
        engine = Engine(jobs=2)
        tables = run_all("tiny", engine=engine, ids=["F2"])
        assert list(tables) == ["F2"]
        assert tables["F2"].render() == \
            f2_headline.tabulate("tiny", results).render()
        assert list(engine.last_reports) == \
            [("F2", job.key) for job in f2_headline.plan("tiny")]


class TestSharedCells:
    """Jobs that plan one trace on one machine are one simulation."""

    @staticmethod
    def _twins():
        spec = TraceSpec.workload("stream", "tiny")
        return [SimJob("first", spec, machine("1P")),
                SimJob(("second", 2), spec, machine("1P"))]

    def test_one_cell_serves_every_key(self):
        import io
        stream = io.StringIO()
        engine = Engine(jobs=2, progress=stream)
        results = engine.execute(self._twins())
        assert list(results) == ["first", ("second", 2)]
        assert engine.last_summary["jobs"] == \
            {"total": 2, "simulated": 1, "ok": 2, "failed": 0}
        assert results["first"] is results[("second", 2)]
        assert list(engine.last_reports) == ["first", ("second", 2)]
        assert engine.last_reports["first"] == \
            engine.last_reports[("second", 2)]
        assert sum(worker["jobs"]
                   for worker in engine.last_summary["workers"]) == 1
        assert "cells 1/1" in stream.getvalue()

    def test_machines_differing_only_by_name_are_two_cells(self):
        from dataclasses import replace
        first, second = self._twins()
        second = replace(second, machine=replace(second.machine,
                                                 name="renamed"))
        engine = Engine(jobs=1)
        engine.execute([first, second])
        assert engine.last_summary["jobs"]["simulated"] == 2
        assert engine.last_reports[second.key]["config"]["name"] == \
            "renamed"

    def test_failing_cell_fails_every_key_that_planned_it(self):
        broken = TraceSpec("nonsense")
        jobs = [SimJob("a", broken, machine("1P")),
                SimJob("b", broken, machine("1P")),
                SimJob("ok", TraceSpec.workload("stream", "tiny"),
                       machine("1P"))]
        engine = Engine(jobs=1)
        with pytest.raises(EngineJobError) as excinfo:
            engine.execute(jobs)
        assert [failure["key"] for failure in excinfo.value.failures] == \
            ["a", "b"]
        assert engine.last_summary["jobs"] == \
            {"total": 3, "simulated": 2, "ok": 1, "failed": 2}
        assert list(engine.last_reports) == ["ok"]


class TestTraceCache:
    @pytest.fixture()
    def cache_dir(self, tmp_path):
        previous = trace_cache_dir()
        set_trace_cache_dir(tmp_path)
        clear_trace_cache()
        yield tmp_path
        clear_trace_cache()
        set_trace_cache_dir(previous if previous is not None else "off")

    def test_cold_build_then_disk_hit(self, cache_dir):
        before = trace_cache_stats()
        build_trace("stream", "tiny")
        after_cold = trace_cache_stats()
        assert after_cold["builds"] == before["builds"] + 1
        assert list(cache_dir.glob("stream-tiny-*.npz")), \
            "cold build did not persist to the disk tier"
        clear_trace_cache()  # drop the memory tier only
        build_trace("stream", "tiny")
        after_warm = trace_cache_stats()
        assert after_warm["builds"] == after_cold["builds"]
        assert after_warm["disk_hits"] == after_cold["disk_hits"] + 1

    def test_memory_hit_preferred(self, cache_dir):
        build_trace("stream", "tiny")
        before = trace_cache_stats()
        build_trace("stream", "tiny")
        after = trace_cache_stats()
        assert after["memory_hits"] == before["memory_hits"] + 1
        assert after["disk_hits"] == before["disk_hits"]

    def test_format_version_keys_the_cache(self, cache_dir, monkeypatch):
        from repro.trace import io as trace_io
        build_trace("stream", "tiny")
        clear_trace_cache()
        monkeypatch.setattr(trace_io, "FORMAT_VERSION",
                            trace_io.FORMAT_VERSION + 1)
        before = trace_cache_stats()
        build_trace("stream", "tiny")
        after = trace_cache_stats()
        assert after["builds"] == before["builds"] + 1, \
            "a format bump must invalidate the old cache entry"
        assert after["disk_hits"] == before["disk_hits"]

    def test_reloaded_trace_is_equivalent(self, cache_dir):
        from repro.core import simulate
        fresh = build_trace("qsort", "tiny")
        clear_trace_cache()
        loaded = build_trace("qsort", "tiny")  # disk tier, instr-less
        assert loaded[0].instr is None and fresh[0].instr is not None
        for config in ("1P", "1P-wide+LB+SC", "2P"):
            assert simulate(fresh, machine(config)).cycles == \
                simulate(loaded, machine(config)).cycles

    @pytest.mark.parametrize("fault", ["truncated", "empty", "short-column",
                                       "wrong-version"])
    def test_corrupt_entry_is_rebuilt(self, cache_dir, fault):
        fresh = build_trace("stream", "tiny")
        [path] = cache_dir.glob("stream-tiny-*.npz")
        _corrupt(path, fault)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_trace(path)
        clear_trace_cache()
        before = trace_cache_stats()
        rebuilt = build_trace("stream", "tiny")
        after = trace_cache_stats()
        assert after["builds"] == before["builds"] + 1
        assert after["disk_hits"] == before["disk_hits"]
        for name, column in fresh.columns.items():
            assert np.array_equal(rebuilt.columns[name], column), name
        assert len(load_trace(path)) == len(fresh)  # rewritten whole

    def test_generator_edit_invalidates_synthetic_entries(self, cache_dir,
                                                          monkeypatch):
        spec = TraceSpec.from_synthetic(SyntheticConfig(instructions=200,
                                                        seed=3))
        spec.build()
        clear_trace_cache()
        before = trace_cache_stats()
        spec.build()
        assert trace_cache_stats()["disk_hits"] == before["disk_hits"] + 1
        clear_trace_cache()
        monkeypatch.setattr(engine_module, "_generator_fingerprint",
                            lambda: "edited")
        before = trace_cache_stats()
        spec.build()
        assert trace_cache_stats()["builds"] == before["builds"] + 1

    @pytest.mark.parametrize("spec", [
        TraceSpec.workload("stream", "tiny"),
        TraceSpec.os_mix("tiny"),
        TraceSpec.scenario("iostorm", "tiny"),
    ], ids=["workload", "os-mix", "scenario"])
    def test_producer_edit_invalidates_entries(self, cache_dir, monkeypatch,
                                               spec):
        spec.build()
        clear_trace_cache()
        before = trace_cache_stats()
        spec.build()
        assert trace_cache_stats()["disk_hits"] == before["disk_hits"] + 1
        clear_trace_cache()
        monkeypatch.setattr(suite_module, "_producer_fingerprint",
                            lambda: "edited")
        before = trace_cache_stats()
        spec.build()
        after = trace_cache_stats()
        assert after["builds"] == before["builds"] + 1
        assert after["disk_hits"] == before["disk_hits"]

    @pytest.mark.parametrize("module", ["repro.asm.assembler",
                                        "repro.isa.encoding",
                                        "repro.func.interp",
                                        "repro.trace.io"])
    def test_producer_fingerprint_covers_the_producer(self, monkeypatch,
                                                      module):
        import importlib
        from pathlib import Path
        edited = Path(importlib.import_module(module).__file__)
        fingerprint = suite_module._producer_fingerprint()
        read_text = Path.read_text
        monkeypatch.setattr(Path, "read_text", lambda path: read_text(path)
                            + ("# edit" if path == edited else ""))
        suite_module._producer_fingerprint.cache_clear()
        try:
            assert suite_module._producer_fingerprint() != fingerprint
        finally:
            suite_module._producer_fingerprint.cache_clear()

    def test_off_disables_disk_tier(self, cache_dir):
        set_trace_cache_dir("off")
        assert trace_cache_dir() is None
        build_trace("stream", "tiny")
        assert not list(cache_dir.glob("*.npz"))

    def test_warm_grid_performs_no_builds(self, cache_dir):
        grid = f2_headline.plan("tiny")
        Engine(jobs=1).execute(grid)
        clear_trace_cache()  # fresh process simulation: disk tier only
        before = trace_cache_stats()
        Engine(jobs=2).execute(grid)
        after = trace_cache_stats()
        assert after["builds"] == before["builds"], \
            "warm-cache rerun repeated a functional simulation"


class TestRunnerRegressions:
    def test_mean_of_empty_sequence_raises(self):
        with pytest.raises(ValueError, match="empty"):
            mean([])
        assert mean([2.0, 4.0]) == 3.0


class TestFleetObservability:
    """Spans, progress, failure wrapping, and the engine summary."""

    @staticmethod
    def _two_jobs():
        return [
            SimJob("a", TraceSpec.workload("stream", "tiny"),
                   machine("1P")),
            SimJob("b", TraceSpec.workload("qsort", "tiny"),
                   machine("2P")),
        ]

    def test_merged_spans_count_is_sum_of_per_worker_spans(self):
        from repro.obs.spans import (chrome_trace, count_spans,
                                     parse_chrome_trace)
        engine = Engine(jobs=2, collect_spans=True)
        engine.execute(self._two_jobs())
        events = engine.span_events
        assert events is not None
        per_track: dict[tuple, int] = {}
        for event in events:
            if event.get("ph") == "B":
                track = (event["pid"], event["tid"])
                per_track[track] = per_track.get(track, 0) + 1
        assert count_spans(events) == sum(per_track.values())
        assert len(per_track) == 3  # parent + two workers
        # The merged document is loadable and well-nested.
        tracks = parse_chrome_trace(chrome_trace(events))
        names = {span.name for roots in tracks.values()
                 for root in roots for span in root.walk()}
        assert {"engine.warm", "job", "core.run"} <= names

    def test_spanned_jobs_take_the_fast_loop(self, monkeypatch):
        from repro.core import pipeline
        from repro.obs.spans import chrome_trace, parse_chrome_trace
        monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
        engine = Engine(jobs=1, collect_spans=True)
        results = engine.execute(self._two_jobs())
        assert [report["fastpath"]
                for report in engine.last_reports.values()] == \
            [{"used": True, "rejected_reason": None}] * 2
        tracks = parse_chrome_trace(chrome_trace(engine.span_events))
        jobs = [root for roots in tracks.values() for root in roots
                if root.name == "job"]
        assert [job.args["key"] for job in jobs] == ["a", "b"]
        for job in jobs:
            (run,) = [child for child in job.children
                      if child.name == "core.run"]
            result = results[job.args["key"]]
            assert run.args["config"] == job.args["config"]
            assert run.args["records"] == result.instructions
            assert run.args["cycles"] == result.cycles

    def test_spans_accumulate_across_execute_calls(self):
        from repro.obs.spans import count_spans
        engine = Engine(jobs=1, collect_spans=True)
        engine.execute(self._two_jobs()[:1])
        first = count_spans(engine.span_events)
        engine.execute(self._two_jobs()[1:])
        assert count_spans(engine.span_events) > first

    def test_spans_off_leaves_no_trace(self):
        engine = Engine(jobs=2)
        engine.execute(self._two_jobs())
        assert engine.span_events is None

    def test_summary_covers_every_worker_and_job(self):
        engine = Engine(jobs=2)
        engine.execute(self._two_jobs())
        summary = engine.last_summary
        assert summary["jobs"] == \
            {"total": 2, "simulated": 2, "ok": 2, "failed": 0}
        assert sum(worker["jobs"] for worker in summary["workers"]) == 2
        for worker in summary["workers"]:
            assert 0.0 <= worker["utilization"] <= 1.0
        assert summary["queue_wait_s"]["max"] >= \
            summary["queue_wait_s"]["mean"] >= 0.0
        assert [entry["key"] for entry in summary["slowest"]] \
            and summary["failed"] == []

    def test_worker_failure_carries_job_context(self):
        jobs = self._two_jobs()
        # A config that passes construction but yields an empty trace,
        # so the failure happens inside the worker's simulation.
        broken_config = SyntheticConfig(instructions=1, seed=17)
        object.__setattr__(broken_config, "instructions", 0)
        jobs.append(SimJob(
            "broken", TraceSpec.from_synthetic(broken_config),
            machine("1P")))
        engine = Engine(jobs=2)
        with pytest.raises(EngineJobError) as excinfo:
            engine.execute(jobs)
        message = str(excinfo.value)
        assert "broken" in message and "1P" in message
        assert "seed=17" in message or "seed 17" in message
        (failure,) = excinfo.value.failures
        assert failure["key"] == "broken"
        assert failure["config"] == "1P"
        assert failure["seed"] == 17
        assert failure["traceback"]
        # The two healthy jobs still ran and the summary recorded all 3.
        assert engine.last_summary["jobs"] == \
            {"total": 3, "simulated": 3, "ok": 2, "failed": 1}
        assert engine.last_summary["failed"][0]["key"] == "broken"
        assert "traceback" not in engine.last_summary["failed"][0]

    def test_inline_failure_matches_parallel_contract(self):
        engine = Engine(jobs=1)
        with pytest.raises(EngineJobError):
            engine.execute([SimJob("bad", TraceSpec("nonsense"),
                                   machine("1P"))])
        assert engine.last_summary["jobs"]["failed"] == 1

    def test_killed_worker_raises_instead_of_hanging(self, tmp_path):
        # The engine runs in a child interpreter in its own session, so
        # a parent that waits forever fails the test at the timeout and
        # the whole process group, pool workers included, is killed.
        script = textwrap.dedent("""
            import io, json, multiprocessing, os, signal
            from repro.experiments.engine import (Engine, EngineJobError,
                                                  SimJob, TraceSpec)
            from repro.presets import machine

            class KillsItsWorker(TraceSpec):
                def build(self):
                    if multiprocessing.parent_process() is None:
                        raise RuntimeError("only a pool worker builds it")
                    os.kill(os.getpid(), signal.SIGKILL)

            jobs = [
                SimJob("a", TraceSpec.workload("stream", "tiny"),
                       machine("1P")),
                SimJob("killer", KillsItsWorker("workload", "stream",
                                                "tiny"), machine("1P")),
                SimJob("c", TraceSpec.workload("stream", "tiny"),
                       machine("2P")),
            ]
            for progress in (False, io.StringIO()):
                engine = Engine(jobs=2, progress=progress)
                try:
                    engine.execute(jobs)
                except EngineJobError as exc:
                    print(json.dumps({
                        "message": str(exc),
                        "failed": [failure["key"]
                                   for failure in exc.failures],
                        "jobs": engine.last_summary["jobs"],
                        "children": len(multiprocessing.active_children()),
                    }))
        """)
        env = dict(os.environ, REPRO_TRACE_CACHE=str(tmp_path),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [SRC_DIR, os.environ.get("PYTHONPATH")])))
        child = subprocess.Popen([sys.executable, "-c", script], env=env,
                                 stdout=subprocess.PIPE, text=True,
                                 start_new_session=True)
        try:
            out, _ = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("Engine.execute still waiting 60 s after a "
                        "worker died")
        assert child.returncode == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert len(reports) == 2  # with and without the progress display
        for report in reports:
            assert "killer" in report["failed"]
            assert "worker process died" in report["message"]
            assert report["jobs"]["total"] == 3
            assert report["jobs"]["failed"] == len(report["failed"])
            assert report["children"] == 0

    def test_progress_stream_sees_every_job(self):
        import io
        stream = io.StringIO()
        engine = Engine(jobs=2, progress=stream)
        engine.execute(self._two_jobs())
        output = stream.getvalue()
        assert "cells 2/2" in output
        assert "kIPS" in output

    def test_progress_inline_path(self):
        import io
        stream = io.StringIO()
        engine = Engine(jobs=1, progress=stream)
        engine.execute(self._two_jobs())
        assert "cells 2/2" in stream.getvalue()


class TestProgressDisplay:
    def test_status_line_and_eta(self):
        import io

        from repro.experiments.progress import ProgressDisplay
        ticks = iter(range(0, 100, 10))
        display = ProgressDisplay(4, stream=io.StringIO(), force=True,
                                  clock=lambda: next(ticks))
        display.job_started("a")
        display.job_started("b")
        line = display.status_line()
        assert "cells 0/4" in line and "2 running" in line
        display.job_finished("a", 1.0, 50_000)
        display.job_failed("b")
        line = display.status_line()
        assert "cells 2/4" in line and "1 failed" in line
        assert "ETA" in line and "kIPS" in line

    def test_close_always_prints_summary(self):
        import io

        from repro.experiments.progress import ProgressDisplay
        stream = io.StringIO()
        display = ProgressDisplay(1, stream=stream)  # not a TTY
        display.job_started("a")
        display.job_finished("a", 0.5, 1000)
        assert stream.getvalue() == ""  # inert while running
        display.close()
        assert "cells 1/1" in stream.getvalue()

"""Tests for the parallel experiment engine and the trace cache.

The contract under test: a grid executed with ``jobs=N`` produces the
same result dict, the same rendered table, and the same captured run
reports (modulo host wall-time fields) as the serial path, and the
persistent trace cache turns repeat grid runs into zero functional
simulations.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.experiments import engine as engine_module
from repro.experiments import f2_headline, run_all
from repro.experiments.engine import Engine, SimJob, TraceSpec, execute
from repro.experiments.runner import capture_reports, mean, run_configs
from repro.presets import DUAL_PORT, STRONG_DUAL_PORT, machine
from repro.trace import SyntheticConfig, load_trace
from repro.trace import io as trace_io
from repro.workloads import (build_trace, clear_trace_cache,
                             set_trace_cache_dir, trace_cache_dir,
                             trace_cache_stats)
from repro.workloads import suite as suite_module


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


class TestEngineDeterminism:
    def test_parallel_f2_table_and_reports_match_serial(self):
        grid = f2_headline.plan("tiny")
        with capture_reports() as serial_runs:
            serial = f2_headline.tabulate(
                "tiny", execute(grid, Engine(jobs=1)))
        with capture_reports() as parallel_runs:
            parallel = f2_headline.tabulate(
                "tiny", execute(grid, Engine(jobs=4)))
        assert serial.render() == parallel.render()
        assert len(parallel_runs) == len(grid)
        assert [_strip_host(r) for r in serial_runs] == \
            [_strip_host(r) for r in parallel_runs]

    def test_result_keys_preserve_job_order(self):
        jobs = f2_headline.plan("tiny")
        results = execute(jobs, Engine(jobs=4))
        assert list(results) == [job.key for job in jobs]

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

    def test_run_all_accepts_engine(self):
        import inspect
        assert "engine" in inspect.signature(run_all).parameters
        table = f2_headline.run("tiny", engine=Engine(jobs=2))
        assert table.render() == f2_headline.run("tiny").render()


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
        execute(grid, Engine(jobs=1))
        clear_trace_cache()  # fresh process simulation: disk tier only
        before = trace_cache_stats()
        execute(grid, Engine(jobs=2))
        after = trace_cache_stats()
        assert after["builds"] == before["builds"], \
            "warm-cache rerun repeated a functional simulation"


class TestRunnerRegressions:
    def test_mean_of_empty_sequence_raises(self):
        with pytest.raises(ValueError, match="empty"):
            mean([])
        assert mean([2.0, 4.0]) == 3.0

    def test_reference_configs_ignore_sweep_overrides(self, stream_trace):
        plain = run_configs(stream_trace, ("1P", DUAL_PORT,
                                           STRONG_DUAL_PORT))
        swept = run_configs(stream_trace, ("1P", DUAL_PORT,
                                           STRONG_DUAL_PORT),
                            dcache_overrides={"write_buffer_depth": 0})
        for reference in (DUAL_PORT, STRONG_DUAL_PORT):
            assert swept[reference].cycles == plain[reference].cycles, \
                f"{reference} must not absorb sweep overrides"
        assert swept["1P"].cycles != plain["1P"].cycles

    def test_explicit_override_scope_is_validated(self, stream_trace):
        with pytest.raises(ValueError, match="override_scope"):
            run_configs(stream_trace, ("1P",),
                        dcache_overrides={"write_buffer_depth": 4},
                        override_scope=("2P",))


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
        assert {"engine.warm", "job", "core.run",
                "pipeline.chunk"} <= names

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
        assert summary["jobs"] == {"total": 2, "ok": 2, "failed": 0}
        assert sum(worker["jobs"] for worker in summary["workers"]) == 2
        for worker in summary["workers"]:
            assert 0.0 <= worker["utilization"] <= 1.0
        assert summary["queue_wait_s"]["max"] >= \
            summary["queue_wait_s"]["mean"] >= 0.0
        assert [entry["key"] for entry in summary["slowest"]] \
            and summary["failed"] == []

    def test_worker_failure_carries_job_context(self):
        from repro.experiments.engine import EngineJobError
        from repro.trace import SyntheticConfig
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
            {"total": 3, "ok": 2, "failed": 1}
        assert engine.last_summary["failed"][0]["key"] == "broken"
        assert "traceback" not in engine.last_summary["failed"][0]

    def test_inline_failure_matches_parallel_contract(self):
        from repro.experiments.engine import EngineJobError
        engine = Engine(jobs=1)
        with pytest.raises(EngineJobError):
            engine.execute([SimJob("bad", TraceSpec("nonsense"),
                                   machine("1P"))])
        assert engine.last_summary["jobs"]["failed"] == 1

    def test_progress_stream_sees_every_job(self):
        import io
        stream = io.StringIO()
        engine = Engine(jobs=2, progress=stream)
        engine.execute(self._two_jobs())
        output = stream.getvalue()
        assert "jobs 2/2" in output
        assert "kIPS" in output

    def test_progress_inline_path(self):
        import io
        stream = io.StringIO()
        engine = Engine(jobs=1, progress=stream)
        engine.execute(self._two_jobs())
        assert "jobs 2/2" in stream.getvalue()


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
        assert "jobs 0/4" in line and "2 running" in line
        display.job_finished("a", 1.0, 50_000)
        display.job_failed("b")
        line = display.status_line()
        assert "jobs 2/4" in line and "1 failed" in line
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
        assert "jobs 1/1" in stream.getvalue()

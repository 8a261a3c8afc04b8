"""Tests for simulator self-profiling (``repro.obs.selfprof``)."""

import inspect
import json
import signal

import pytest

from repro.core import OoOCore, pipeline
from repro.core.fastpath import run_fast
from repro.obs import SELFPROFILE_SCHEMA, SelfProfiler
from repro.obs.selfprof import (COMPONENTS, OTHER, UNATTRIBUTED,
                                _fast_lines, _reference_lines, stage_map)
from repro.presets import machine
from repro.workloads import build_trace


@pytest.fixture(autouse=True)
def _bare_core(monkeypatch):
    """The tests name the loop a bare run takes, so the implicit
    ``REPRO_VALIDATE`` checker stays off."""
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)


def _profile(config, trace, samples=20, **recorders):
    """Sample fresh runs of *trace* on *config* until *samples* samples
    are in; returns the profiler and the last result."""
    with SelfProfiler() as profiler:
        while sum(profiler.hits.values()) < samples:
            result = OoOCore(config, **recorders).run(trace)
    return profiler, result


class TestStageMap:
    def test_every_component_owns_lines_of_both_loops(self):
        owners = {name: set(lines.values())
                  for name, lines in stage_map().values()}
        assert sorted(owners) == ["fast", "reference"]
        for components in owners.values():
            assert set(COMPONENTS) <= components

    def test_fast_loop_headers_are_load_bearing(self):
        lines, first = inspect.getsourcelines(run_fast)
        renamed = [line.replace("# 4. issue", "# 4. select")
                   for line in lines]
        with pytest.raises(RuntimeError, match="4. issue"):
            _fast_lines(renamed, first)
        dropped = [line for line in lines
                   if "# 3b. memory" not in line]
        with pytest.raises(RuntimeError, match="3b. memory"):
            _fast_lines(dropped, first)

    def test_reference_loop_needs_every_stage_call(self):
        lines, first = inspect.getsourcelines(OoOCore._run_loop)
        renamed = [line.replace("self._fetch_stage(", "self._front_end(")
                   for line in lines]
        with pytest.raises(RuntimeError, match="_fetch_stage"):
            _reference_lines(renamed, first)

    def test_reference_calls_are_stage_lines(self):
        source, first = inspect.getsourcelines(OoOCore._run_loop)
        lines = _reference_lines(source, first)
        for offset, text in enumerate(source):
            if "self._commit_stage(cycle)" in text:
                assert lines[first + offset] == "commit"
            if "self._watchdog(cycle)" in text:
                assert first + offset not in lines  # other


class TestProfilerUnit:
    def test_other_is_unaccounted_residue(self):
        profiler = SelfProfiler()
        fast = id(run_fast.__code__)
        _, offsets = stage_map()[fast]
        fetch = next(offset for offset, owner in offsets.items()
                     if owner == "fetch")
        setup = min(offset for offset, owner in offsets.items()
                    if owner == OTHER)  # a line before the loop
        profiler.hits = {(fast, fetch): 3, (fast, setup): 2,
                         (fast, -1): 1, None: 4}
        counts = profiler.counts()
        assert counts["fetch"] == 3
        assert counts[OTHER] == 2
        assert counts[UNATTRIBUTED] == 5
        assert sum(counts.values()) == 10
        assert profiler.loop == "fast"

    def test_summary(self):
        assert SelfProfiler().summary() == "no samples taken"
        profiler = SelfProfiler()
        profiler.hits = {None: 2}
        assert profiler.summary().startswith("no loop, 2 samples")
        fast = id(run_fast.__code__)
        _, offsets = stage_map()[fast]
        issue = next(offset for offset, owner in offsets.items()
                     if owner == "issue")
        profiler.hits = {(fast, issue): 3}
        assert profiler.summary().startswith("fast loop, 3 samples: "
                                             "issue 100%")


class TestSampler:
    def test_timer_and_handler_restored_after_exit(self):
        previous = signal.getsignal(signal.SIGPROF)
        with SelfProfiler() as profiler:
            assert signal.getsignal(signal.SIGPROF) == profiler._sample
            assert signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0)
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGPROF) == previous
        assert profiler.wall_time_s > 0

    def test_timer_and_handler_restored_after_an_exception(self):
        previous = signal.getsignal(signal.SIGPROF)
        with pytest.raises(ValueError, match="empty trace"):
            with SelfProfiler():
                OoOCore(machine("1P")).run([])
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGPROF) == previous


class TestProfiledRun:
    def test_profile_covers_the_run(self):
        trace = build_trace("memops", "tiny")
        profiler, result = _profile(machine("1P"), trace)
        assert result.used_fastpath
        assert profiler.loop == "fast"
        counts = profiler.counts()
        assert sum(counts.values()) >= 20
        assert sum(counts[name] for name in COMPONENTS) > 0

    def test_profiled_loop_is_deterministic(self):
        """Sampling must not change what either loop simulates."""
        trace = build_trace("stream", "tiny")
        config = machine("2P+SC")
        for fastpath, loop in ((None, "fast"), (False, "reference")):
            plain = OoOCore(config, fastpath=fastpath).run(trace)
            profiler, sampled = _profile(config, trace, fastpath=fastpath)
            assert profiler.loop == loop
            assert sampled.used_fastpath == plain.used_fastpath
            assert sampled.cycles == plain.cycles
            assert sampled.instructions == plain.instructions
            assert sampled.stats.as_dict() == plain.stats.as_dict()
            assert sampled.ledger.as_dict() == plain.ledger.as_dict()

    def test_artifact_round_trips(self, tmp_path):
        trace = build_trace("memops", "tiny")
        profiler, _ = _profile(machine("1P"), trace)
        path = tmp_path / "BENCH_profile.json"
        profiler.write(str(path))
        document = json.loads(path.read_text())
        assert document["schema"] == SELFPROFILE_SCHEMA
        assert document["loop"] == "fast"
        assert document["components"] == list(COMPONENTS)
        assert list(document["counts"]) == \
            list(COMPONENTS) + [OTHER, UNATTRIBUTED]
        assert sum(document["counts"].values()) == document["samples"]
        assert sum(document["shares"].values()) == pytest.approx(1.0)
        assert document["period_s"] > 0
        assert document["wall_time_s"] > 0

    def test_combines_with_metrics_and_pipetrace(self):
        from repro.obs import PipeTrace
        trace = build_trace("memops", "tiny")
        with SelfProfiler() as profiler:
            while profiler.loop is None:
                pipe = PipeTrace()
                result = OoOCore(machine("1P"), metrics_interval=256,
                                 pipe_trace=pipe).run(trace)
        assert profiler.loop == "reference"
        assert not result.used_fastpath
        assert result.metrics is not None
        assert result.metrics.check_conservation(
            result.cycles, result.instructions) == []
        assert len(pipe.records) == result.instructions

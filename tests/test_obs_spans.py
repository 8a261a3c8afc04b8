"""Tests for host-time span tracing and its Chrome-trace export.

The contracts under test: the exporter only ever produces documents
the parser accepts (required keys, known ``ph`` values, per-track
monotonic timestamps, balanced nesting); per-worker recordings merge
into one multi-track timeline whose span count is the sum of its
parts; and span tracing never changes simulated results.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import spans as spans_mod
from repro.obs.spans import (NULL_SPANS, SpanRecorder, chrome_trace,
                             count_spans, merge_events,
                             parse_chrome_trace, write_chrome_trace)
from repro.presets import machine


class _FakeClock:
    """A deterministic microsecond clock for recorder tests."""

    def __init__(self, start: int = 1_000_000) -> None:
        self.now = start

    def __call__(self) -> int:
        self.now += 7
        return self.now


def _recorder(**kwargs) -> SpanRecorder:
    kwargs.setdefault("pid", 42)
    kwargs.setdefault("epoch_us", 1_000_000)
    kwargs.setdefault("clock", _FakeClock())
    return SpanRecorder(**kwargs)


class TestRecorder:
    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_SPANS.enabled is False
        NULL_SPANS.begin("x")
        NULL_SPANS.end()
        NULL_SPANS.instant("y")
        with NULL_SPANS.span("z"):
            pass  # records nothing, raises nothing

    def test_begin_end_produces_balanced_events(self):
        recorder = _recorder()
        with recorder.span("outer", "test", depth=1):
            with recorder.span("inner", "test"):
                recorder.instant("marker", "test")
        phases = [event["ph"] for event in recorder.events()]
        assert phases == ["B", "B", "i", "E", "E"]
        assert all(event["ph"] in spans_mod.PHASES
                   for event in recorder.events())

    def test_end_without_begin_raises(self):
        with pytest.raises(RuntimeError, match="no open span"):
            _recorder().end()

    def test_timestamps_are_monotonic_even_with_manual_add(self):
        recorder = _recorder()
        recorder.add("B", "a", "test", 500)
        recorder.add("E", "a", "test", 100)  # clamped up to 500
        timestamps = [event["ts"] for event in recorder.events()]
        assert timestamps == sorted(timestamps)

    def test_label_emits_process_name_metadata(self):
        recorder = _recorder(label="worker 7")
        meta = recorder.events()[0]
        assert meta["ph"] == "M"
        assert meta["name"] == "process_name"
        assert meta["args"]["name"] == "worker 7"

    def test_depth_tracks_open_spans(self):
        recorder = _recorder()
        assert recorder.depth == 0
        recorder.begin("a")
        recorder.begin("b")
        assert recorder.depth == 2
        recorder.end()
        assert recorder.depth == 1


class TestCurrentRecorder:
    def test_default_is_none(self):
        assert spans_mod.current() is None

    def test_activate_scopes_the_recorder(self):
        recorder = _recorder()
        with spans_mod.activate(recorder) as active:
            assert active is recorder
            assert spans_mod.current() is recorder
            with spans_mod.activate(None):
                assert spans_mod.current() is None
            assert spans_mod.current() is recorder
        assert spans_mod.current() is None


class TestChromeTraceRoundTrip:
    def test_export_schema_and_parse_round_trip(self, tmp_path):
        recorder = _recorder(label="main")
        with recorder.span("run", "sim", config="1P"):
            with recorder.span("chunk", "pipeline"):
                recorder.instant("refill", "mem", line=3)
        path = tmp_path / "spans.json"
        write_chrome_trace(str(path), recorder.events())
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)
        for event in document["traceEvents"]:
            for key in ("ph", "name", "ts", "pid", "tid"):
                assert key in event
            assert event["ph"] in spans_mod.PHASES
        tracks = parse_chrome_trace(document)
        assert list(tracks) == [(42, 0)]
        (run,) = tracks[(42, 0)]
        assert run.name == "run"
        assert run.args == {"config": "1P"}
        names = [span.name for span in run.walk()]
        assert names == ["run", "chunk", "refill"]
        assert run.dur >= run.children[0].dur >= 0

    def test_parser_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing key"):
            parse_chrome_trace([{"ph": "B", "name": "x", "ts": 0}])

    def test_parser_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unknown ph"):
            parse_chrome_trace([{"ph": "X", "name": "x", "ts": 0,
                                 "pid": 1, "tid": 0}])

    def test_parser_rejects_backwards_timestamps(self):
        events = [{"ph": "i", "name": "a", "ts": 10, "pid": 1, "tid": 0},
                  {"ph": "i", "name": "b", "ts": 5, "pid": 1, "tid": 0}]
        with pytest.raises(ValueError, match="backwards"):
            parse_chrome_trace(events)

    def test_parser_rejects_unbalanced_nesting(self):
        recorder = _recorder()
        recorder.begin("left-open")
        with pytest.raises(ValueError, match="unbalanced"):
            parse_chrome_trace(chrome_trace(recorder.events()))

    def test_parser_rejects_mismatched_end(self):
        events = [{"ph": "B", "name": "a", "ts": 0, "pid": 1, "tid": 0},
                  {"ph": "E", "name": "b", "ts": 1, "pid": 1, "tid": 0}]
        with pytest.raises(ValueError, match="closes"):
            parse_chrome_trace(events)


class TestMerge:
    def test_merge_keeps_tracks_apart_and_counts_add_up(self):
        first = _recorder(pid=1, label="w1")
        second = _recorder(pid=2, label="w2")
        for recorder in (first, second):
            with recorder.span("job", "engine"):
                recorder.instant("tick")
        merged = merge_events(first.events(), second.events())
        assert count_spans(merged) == \
            count_spans(first.events()) + count_spans(second.events())
        tracks = parse_chrome_trace(chrome_trace(merged))
        assert sorted(tracks) == [(1, 0), (2, 0)]

    def test_merge_drops_duplicate_metadata(self):
        recorder = _recorder(pid=9, label="w")
        merged = merge_events(recorder.events(), recorder.events())
        metas = [event for event in merged if event["ph"] == "M"]
        assert len(metas) == 1

    def test_merge_clamps_clock_steps_between_same_track_recorders(self):
        # A worker that runs two jobs creates two recorders on one
        # (pid, tid) track; a wall-clock step backwards between them
        # must not produce a capture the parser rejects.
        first = _recorder(pid=7, clock=_FakeClock(start=2_000_000))
        with first.span("job"):
            pass
        second = _recorder(pid=7, clock=_FakeClock(start=1_500_000))
        with second.span("job"):
            pass
        merged = merge_events(first.events(), second.events())
        tracks = parse_chrome_trace(chrome_trace(merged))
        assert count_spans(merged) == 2
        assert sorted(tracks) == [(7, 0)]


class TestSimulationSpans:
    def test_spans_do_not_change_simulated_results(self):
        from repro.experiments.engine import Engine, SimJob, TraceSpec
        jobs = [SimJob(config, TraceSpec.workload("stream", "tiny"),
                       machine(config)) for config in ("1P", "2P+SC")]
        plain = Engine(jobs=1).execute(jobs)
        spanned = Engine(jobs=1, collect_spans=True).execute(jobs)
        for key, result in plain.items():
            assert spanned[key].used_fastpath == result.used_fastpath
            assert spanned[key].cycles == result.cycles
            assert spanned[key].instructions == result.instructions
            assert spanned[key].stats.as_dict() == result.stats.as_dict()

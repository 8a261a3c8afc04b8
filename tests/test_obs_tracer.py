"""Tests for the structured event tracer and its readers."""

import gzip
import io
import json

from repro.core import OoOCore
from repro.obs import JsonlTracer, Tracer, iter_events, summarize_events
from repro.presets import machine
from repro.workloads import build_trace


class TestNullTracer:
    def test_disabled_and_silent(self):
        # The base class maps probe events to emit(), which discards.
        emitted = []

        class Recording(Tracer):
            def emit(self, cycle, event, **fields):
                emitted.append((cycle, event, fields))

        Tracer().wb_add(0, 3, True)
        Tracer().close()
        Recording().wb_add(7, 3, True)
        assert emitted == [(7, "wb.add", {"line": 3, "merged": True})]

    def test_context_manager(self):
        with Tracer() as tracer:
            assert isinstance(tracer, Tracer)


class TestJsonlTracer:
    def test_writes_compact_jsonl(self):
        buffer = io.StringIO()
        tracer = JsonlTracer(buffer)
        tracer.emit(5, "wb.add", line=3, merged=True)
        tracer.close()
        assert buffer.getvalue() == \
            '{"cycle":5,"event":"wb.add","line":3,"merged":true}\n'
        assert tracer.emitted == 1

    def test_gzip_path(self, tmp_path):
        path = str(tmp_path / "trace.jsonl.gz")
        with JsonlTracer(path) as tracer:
            tracer.emit(1, "e")
        with gzip.open(path, "rt") as handle:
            assert json.loads(handle.read())["event"] == "e"
        assert list(iter_events(path)) == [{"cycle": 1, "event": "e"}]


class TestReaders:
    def _capture(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        with JsonlTracer(path) as tracer:
            tracer.emit(0, "a", n=1)
            tracer.emit(5, "b")
            tracer.emit(9, "a", n=2)
        return path

    def test_iter_filters(self, tmp_path):
        path = self._capture(tmp_path)
        assert len(list(iter_events(path))) == 3
        assert [r["n"] for r in iter_events(path, events={"a"})] == [1, 2]
        assert [r["cycle"] for r in iter_events(path, since=1)] == [5, 9]
        assert [r["cycle"] for r in iter_events(path, until=5)] == [0, 5]

    def test_pc_filters(self, tmp_path):
        path = str(tmp_path / "pc.jsonl")
        with JsonlTracer(path) as tracer:
            tracer.emit(0, "fetch.mispredict", pc=0x1000)
            tracer.emit(1, "branch.resolve", pc=0x2000)
            tracer.emit(2, "commit")  # no pc field: dropped by PC filters
            tracer.emit(3, "fetch.mispredict", pc=0x3000)
        assert [r["pc"] for r in iter_events(path, pc=0x2000)] \
            == [0x2000]
        assert [r["pc"] for r in
                iter_events(path, pc_range=(0x1000, 0x2000))] \
            == [0x1000, 0x2000]
        assert [r["pc"] for r in
                iter_events(path, pc_range=(None, 0x2000))] \
            == [0x1000, 0x2000]
        assert [r["pc"] for r in
                iter_events(path, pc_range=(0x2000, None))] \
            == [0x2000, 0x3000]
        summary = summarize_events(path, pc=0x3000)
        assert summary.total == 1

    def test_summary(self, tmp_path):
        summary = summarize_events(self._capture(tmp_path))
        assert summary.total == 3
        assert summary.counts == {"a": 2, "b": 1}
        assert (summary.first_cycle, summary.last_cycle) == (0, 9)
        text = summary.render()
        assert "3 events over cycles 0..9" in text

    def test_empty_summary(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        open(path, "w").close()
        assert summarize_events(path).render() == "(no events)"


class TestPipelineIntegration:
    def test_traced_run_matches_untraced(self, tmp_path):
        """Tracing must observe, never perturb, the simulation."""
        trace = build_trace("memops", "tiny")
        config = machine("1P-wide+LB+SC")
        baseline = OoOCore(config).run(trace)
        path = str(tmp_path / "run.jsonl")
        tracer = JsonlTracer(path)
        traced = OoOCore(config, tracer=tracer).run(trace)
        tracer.close()
        assert traced.cycles == baseline.cycles
        assert traced.ipc == baseline.ipc
        assert dict(traced.stats.as_dict()) == dict(baseline.stats.as_dict())
        summary = summarize_events(path)
        assert summary.total == tracer.emitted > 0
        # The wired layers all show up in one memory-heavy run.
        for event in ("commit", "stall", "lsq.load", "dcache.load",
                      "wb.add"):
            assert summary.counts.get(event), f"missing {event} events"

    def test_stall_events_match_ledger(self, tmp_path):
        trace = build_trace("stream", "tiny")
        path = str(tmp_path / "stalls.jsonl")
        tracer = JsonlTracer(path)
        core = OoOCore(machine("1P"), tracer=tracer)
        core.run(trace)
        tracer.close()
        emitted = sum(record["lost"]
                      for record in iter_events(path, events={"stall"}))
        assert emitted == core.ledger.total_lost

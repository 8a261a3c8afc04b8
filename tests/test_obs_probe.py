"""The probe: event binding, one run per core, and every recorder at once.

Every recorder reaches the machine through one ``probe`` slot, so the
properties that matter are the fan-out's (each event reaches exactly the
recorders that define it, in attachment order), the one-run contract
(a core, and a recorder with per-run results, serve one run and refuse
a second loudly), and non-interference: with all six recorder types
attached together each one records exactly what it records alone, and
the timing result equals a bare fast-loop run.
"""

from __future__ import annotations

import io

import pytest

from repro.core import pipeline
from repro.core.pipeline import OoOCore
from repro.obs import (CritPathRecorder, HotspotRecorder, JsonlTracer,
                       PipeTrace, Probe)
from repro.presets import machine
from repro.validate import InvariantChecker, ValidationSuite, result_view
from repro.workloads import build_trace
from repro.workloads.suite import build_scenario_trace


class _Log:
    """A recorder that logs the events it defines."""

    def __init__(self, name: str, log: list) -> None:
        self.name = name
        self.log = log

    def commit(self, seq, cycle: int, times) -> None:
        self.log.append((self.name, "commit", seq, cycle))


class _Stalls(_Log):
    def stall(self, cycle: int, cause, lost: int, head) -> None:
        self.log.append((self.name, "stall", cycle, lost))


def test_probe_binds_each_event_to_its_listeners():
    log: list = []
    first, second = _Log("first", log), _Stalls("second", log)
    probe = Probe([first, second])
    probe.commit("uop", 3, ())          # two listeners, attachment order
    assert log == [("first", "commit", "uop", 3),
                   ("second", "commit", "uop", 3)]
    assert probe.stall == second.stall  # a lone listener, bound directly
    probe.wb_add(0, 1, True)            # nobody listens: a no-op
    assert len(log) == 2


@pytest.mark.parametrize("fastpath", [None, False])
def test_second_run_on_one_core_raises(stream_trace, monkeypatch,
                                       fastpath):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"), fastpath=fastpath)
    first = core.run(stream_trace)
    assert core.used_fastpath is (fastpath is None)
    with pytest.raises(ValueError, match="exactly one trace"):
        core.run(stream_trace)
    assert first.cycles == core.stats["core.cycles"]


PER_RUN_RECORDERS = {
    "pipe_trace": PipeTrace,
    "validator": InvariantChecker,
    "critpath": CritPathRecorder,
    "hotspots": HotspotRecorder,
}


@pytest.mark.parametrize("slot", sorted(PER_RUN_RECORDERS))
def test_per_run_recorder_serves_one_run(stream_trace, slot):
    recorder = PER_RUN_RECORDERS[slot]()
    OoOCore(machine("1P"), **{slot: recorder}).run(stream_trace)
    with pytest.raises(ValueError, match="exactly one run"):
        OoOCore(machine("1P"), **{slot: recorder}).run(stream_trace)


def test_validation_suite_children_serve_one_run(stream_trace):
    checker = InvariantChecker()
    OoOCore(machine("1P"), validator=ValidationSuite([checker])) \
        .run(stream_trace)
    with pytest.raises(ValueError, match="InvariantChecker"):
        OoOCore(machine("1P"), validator=checker).run(stream_trace)


@pytest.fixture(scope="module")
def traces():
    return {"stream": build_trace("stream", "tiny"),
            "iostorm": build_scenario_trace("iostorm", "tiny")}


def _run(trace, config: str, **recorders):
    """Simulate with *recorders* (``tracer`` names the buffer a
    JsonlTracer writes to); returns the result and each output the
    attached recorders produced."""
    events = recorders.get("tracer")
    if events is not None:
        recorders["tracer"] = JsonlTracer(events)
    result = OoOCore(machine(config), **recorders).run(trace)
    outputs = {}
    if events is not None:
        outputs["tracer"] = events.getvalue()
    if "metrics_interval" in recorders:
        outputs["metrics_interval"] = result.metrics.as_dict()
    if "pipe_trace" in recorders:
        konata = io.StringIO()
        recorders["pipe_trace"].write(konata)
        outputs["pipe_trace"] = konata.getvalue()
    if "validator" in recorders:
        outputs["validator"] = recorders["validator"].violations
    for slot in ("critpath", "hotspots"):
        if slot in recorders:
            outputs[slot] = recorders[slot].as_dict()
    return result, outputs


def _recorders() -> dict:
    return {"tracer": io.StringIO(), "metrics_interval": 256,
            "pipe_trace": PipeTrace(), "validator": InvariantChecker(),
            "critpath": CritPathRecorder(), "hotspots": HotspotRecorder()}


@pytest.mark.parametrize("config", ["1P", "1P-wide+LB+SC"])
@pytest.mark.parametrize("workload", ["stream", "iostorm"])
def test_all_recorders_together_match_each_alone(traces, monkeypatch,
                                                 workload, config):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    trace = traces[workload]
    result, together = _run(trace, config, **_recorders())
    assert result.fastpath_reason == "tracer attached"
    assert together["tracer"] and together["pipe_trace"]
    assert together["validator"] == []
    for slot, recorder in _recorders().items():
        _, alone = _run(trace, config, **{slot: recorder})
        assert together[slot] == alone[slot], slot
    bare = OoOCore(machine(config)).run(trace)
    assert bare.used_fastpath
    assert result_view(result) == result_view(bare)

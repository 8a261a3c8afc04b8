"""Recorder outputs pinned by digest.

Every recorder rides the reference cycle loop together: the JSONL
tracer, the pipe trace, interval metrics, the critical-path recorder
with the second-port what-if, the hotspot recorder and the invariant
checker.  Each case digests what they produce — the events and Konata
text, the metrics, the critpath and hotspots manifests (without their
``host`` and ``code_version``), the counters and the stall ledger — and
compares the digests with ``recorder_pins.json``, so a change to the
loop or to a recorder that moves any output byte fails here.

Traces are built cold into a private trace cache, so labels and
disassembly come from the instruction table; one case reloads its trace
from disk, where labels fall back to the opclass.  To regenerate the
table after an intended output change, run this file as a script.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from repro.core import pipeline
from repro.core.pipeline import OoOCore
from repro.obs import (WHATIF_PORT, CritPathRecorder, HotspotRecorder,
                       JsonlTracer, PipeTrace, build_critpath_report,
                       build_hotspots_report)
from repro.presets import machine
from repro.validate import InvariantChecker
from repro.workloads import (build_trace, clear_trace_cache,
                             set_trace_cache_dir, trace_cache_dir)
from repro.workloads.suite import build_scenario_trace

PINS_PATH = Path(__file__).with_name("recorder_pins.json")

#: ``name -> (build, config, reload)``: a cold build, or with *reload*
#: a second lookup that reads the cold build back from the disk tier.
CASES = {
    f"{name}@tiny/{config}{'/reload' if reload else ''}":
        (build, config, reload)
    for name, build in (
        ("stream", lambda: build_trace("stream", "tiny")),
        ("qsort", lambda: build_trace("qsort", "tiny")),
        ("iostorm", lambda: build_scenario_trace("iostorm", "tiny")))
    for config, reload in (("1P", False), ("1P-wide+LB+SC", False),
                           *((("1P", True),) if name == "iostorm"
                             else ()))
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _json_sha(document) -> str:
    return _sha(json.dumps(document, sort_keys=True))


def _manifest_sha(document: dict) -> str:
    return _json_sha({key: value for key, value in document.items()
                      if key not in ("host", "code_version")})


def _trace(build, reload: bool, directory: Path):
    previous = trace_cache_dir()
    set_trace_cache_dir(directory)
    clear_trace_cache()
    try:
        trace = build()
        if reload:
            clear_trace_cache()
            trace = build()
    finally:
        clear_trace_cache()
        set_trace_cache_dir(previous if previous is not None else "off")
    return trace


def case_digests(name: str, directory: Path) -> dict[str, str]:
    """The digests of every recorder output of case *name*, its trace
    built under the trace-cache *directory*."""
    build, config_name, reload = CASES[name]
    trace = _trace(build, reload, directory)
    config = machine(config_name)
    events = io.StringIO()
    pipe = PipeTrace()
    critpath = CritPathRecorder(whatif=[WHATIF_PORT])
    hotspots = HotspotRecorder()
    checker = InvariantChecker()
    result = OoOCore(config, tracer=JsonlTracer(events),
                     metrics_interval=256, pipe_trace=pipe,
                     validator=checker, critpath=critpath,
                     hotspots=hotspots).run(trace)
    assert not result.used_fastpath
    assert checker.violations == []
    konata = io.StringIO()
    pipe.write(konata)
    return {
        "events": _sha(events.getvalue()),
        "konata": _sha(konata.getvalue()),
        "metrics": _json_sha(result.metrics.as_dict()),
        "critpath": _manifest_sha(build_critpath_report(
            critpath, result, config)),
        "hotspots": _manifest_sha(build_hotspots_report(
            hotspots, result, config)),
        "stats": _json_sha(result.stats.as_dict()),
        "ledger": _json_sha(result.ledger.as_dict()),
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_recorder_outputs_match_their_pins(pins, monkeypatch, tmp_path,
                                           name):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    assert case_digests(name, tmp_path) == pins[name]


if __name__ == "__main__":  # pragma: no cover - regenerates the table
    import tempfile
    with tempfile.TemporaryDirectory() as scratch:
        table = {name: case_digests(name, Path(scratch) / str(index))
                 for index, name in enumerate(sorted(CASES))}
    PINS_PATH.write_text(json.dumps(table, indent=2, sort_keys=True)
                         + "\n", encoding="utf-8")
    sys.stdout.write(f"wrote {len(table)} cases to {PINS_PATH}\n")

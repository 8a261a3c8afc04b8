"""Every emitted event type, checked against the documented schema.

Two cross-checks keep ``EVENT_SCHEMA``, the emit sites, and the table
in ``docs/OBSERVABILITY.md`` from drifting apart:

* the documentation table is parsed and must list exactly the schema's
  event names with exactly the schema's field tuples;
* instrumented simulations chosen to exercise **every** event type run
  under a capturing tracer, and every captured record must carry
  ``cycle``/``event`` plus exactly its schema'd fields.
"""

import io
import re
from pathlib import Path

import pytest

from repro.core import OoOCore
from repro.obs import EVENT_SCHEMA, JsonlTracer, iter_events
from repro.presets import BEST_SINGLE_PORT, machine
from repro.workloads import build_trace

DOCS = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"


def _documented_schema() -> dict[str, tuple[str, ...]]:
    """Parse the event table out of docs/OBSERVABILITY.md."""
    table: dict[str, tuple[str, ...]] = {}
    in_table = False
    for line in DOCS.read_text(encoding="utf-8").splitlines():
        if line.startswith("| event |"):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                break
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if len(cells) != 3 or set(cells[0]) <= {"-"}:
                continue
            name = cells[0].strip("`")
            fields = tuple(re.findall(r"`([^`]+)`", cells[2]))
            table[name] = fields
    return table


class TestDocumentationMatchesSchema:
    def test_table_found(self):
        assert _documented_schema(), "event table missing from docs"

    def test_same_event_names(self):
        assert set(_documented_schema()) == set(EVENT_SCHEMA)

    @pytest.mark.parametrize("event", sorted(EVENT_SCHEMA))
    def test_same_fields(self, event):
        documented = _documented_schema()[event]
        # The docs may annotate fields with extra backticked literals
        # in parentheses; the leading fields must match in order.
        assert documented[:len(EVENT_SCHEMA[event])] == \
            EVENT_SCHEMA[event], (
            f"{event}: docs say {documented}, "
            f"schema says {EVENT_SCHEMA[event]}")


def _capture(workload, config):
    trace = build_trace(workload, "tiny")
    buffer = io.StringIO()
    tracer = JsonlTracer(buffer)
    OoOCore(machine(config), tracer=tracer).run(trace)
    tracer.close()
    buffer.seek(0)
    import json
    return [json.loads(line) for line in buffer if line.strip()]


def _capture_injected_violation():
    """``validate.violation``: run with the invariant checker attached
    and an intentionally broken LSQ (loads enqueued out of age order),
    so the checker has something real to report into the stream."""
    from repro.core.lsq import LoadStoreQueue
    from repro.validate import InvariantChecker
    trace = build_trace("qsort", "tiny")
    buffer = io.StringIO()
    tracer = JsonlTracer(buffer)
    original = LoadStoreQueue.add_load
    LoadStoreQueue.add_load = lambda self, uop: self.loads.insert(0, uop)
    try:
        OoOCore(machine("1P"), tracer=tracer,
                validator=InvariantChecker()).run(trace)
    finally:
        LoadStoreQueue.add_load = original
    tracer.close()
    buffer.seek(0)
    import json
    return [json.loads(line) for line in buffer if line.strip()]


@pytest.fixture(scope="module")
def all_captured_events():
    """Four runs chosen so every schema'd event type fires at least
    once: a port-starved streaming run, a branchy run on the line-buffer
    configuration, a store-heavy line-buffer run, and a validated run
    with an injected invariant violation."""
    records = []
    records += _capture("stream", "1P")
    records += _capture("qsort", BEST_SINGLE_PORT)
    records += _capture("compress", "1P+LB")
    records += _capture_injected_violation()
    return records


class TestEmittedEventsMatchSchema:
    def test_every_event_type_fires(self, all_captured_events):
        seen = {record["event"] for record in all_captured_events}
        assert seen == set(EVENT_SCHEMA), (
            f"never emitted: {sorted(set(EVENT_SCHEMA) - seen)}; "
            f"undocumented: {sorted(seen - set(EVENT_SCHEMA))}")

    def test_every_record_has_exact_fields(self, all_captured_events):
        for record in all_captured_events:
            event = record["event"]
            expected = {"cycle", "event", *EVENT_SCHEMA[event]}
            assert set(record) == expected, (
                f"{event} at cycle {record['cycle']}: "
                f"fields {sorted(record)} != schema {sorted(expected)}")
            assert isinstance(record["cycle"], int)
            assert record["cycle"] >= 0

    def test_load_sources_are_known(self, all_captured_events):
        known = {"sq", "wb", "lb", "hit", "miss", "secondary"}
        for record in all_captured_events:
            if record["event"] in ("lsq.load", "dcache.load"):
                assert record["source"] in known


class TestIterEventsAgainstSchema:
    def test_filtered_iteration_round_trips(self, tmp_path):
        trace = build_trace("stream", "tiny")
        path = str(tmp_path / "run.jsonl")
        with JsonlTracer(path) as tracer:
            OoOCore(machine("2P+SC"), tracer=tracer).run(trace)
        for record in iter_events(path, events={"wb.drain"}):
            assert set(record) == {"cycle", "event",
                                   *EVENT_SCHEMA["wb.drain"]}

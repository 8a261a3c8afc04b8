"""Atomic writes: a failed write leaves the previous file and no temp."""

import json

import numpy as np
import pytest

from repro.atomic import atomic_write
from repro.obs.spans import write_chrome_trace
from repro.trace import load_trace
from repro.trace.io import save_trace_atomic


def test_replaces_the_target_on_success(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("old\n", encoding="utf-8")
    with atomic_write(path) as handle:
        json.dump({"ok": True}, handle)
    assert json.loads(path.read_text(encoding="utf-8")) == {"ok": True}
    assert list(tmp_path.iterdir()) == [path]


def test_failed_serialisation_keeps_the_previous_file(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(TypeError):
        with atomic_write(path) as handle:
            # Serialises "{"a": 1, "b": " before the object raises.
            json.dump({"a": 1, "b": object()}, handle)
    assert path.read_text(encoding="utf-8") == "old\n"
    assert list(tmp_path.iterdir()) == [path]


def test_failed_write_creates_nothing(tmp_path):
    path = tmp_path / "trace.json"
    with pytest.raises(TypeError):
        write_chrome_trace(str(path), [{"ts": object()}])
    assert list(tmp_path.iterdir()) == []


def _columns_equal(first, second) -> bool:
    return all(np.array_equal(first.columns[name], second.columns[name])
               for name in first.columns)


def test_trace_save_goes_through_the_same_writer(tmp_path, stream_trace):
    path = tmp_path / "stream.npz"
    save_trace_atomic(path, stream_trace)
    assert _columns_equal(load_trace(path), stream_trace)
    with pytest.raises(TypeError):
        save_trace_atomic(path, object())
    assert _columns_equal(load_trace(path), stream_trace)
    assert list(tmp_path.iterdir()) == [path]

"""Tests for trace serialisation."""

import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.asm import assemble
from repro.core import OoOCore, pipeline, simulate
from repro.func import run_bare
from repro.obs import (CritPathRecorder, HotspotRecorder, JsonlTracer,
                       PipeTrace)
from repro.presets import machine
from repro.trace import (SyntheticConfig, Trace, generate, load_trace,
                         save_trace)
from repro.validate import InvariantChecker
from repro.workloads import WORKLOADS


class TestRoundTrip:
    def test_fields_survive(self, tmp_path):
        trace = generate(SyntheticConfig(instructions=1_000, seed=5,
                                         load_fraction=0.3,
                                         store_fraction=0.2))
        path = tmp_path / "trace.npz"
        save_trace(path, trace)
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        for original, restored in zip(trace, loaded):
            assert original.pc == restored.pc
            assert original.opclass == restored.opclass
            assert original.dest == restored.dest
            assert original.sources == restored.sources
            assert original.mem_addr == restored.mem_addr
            assert original.mem_size == restored.mem_size
            assert original.is_load == restored.is_load
            assert original.is_store == restored.is_store
            assert original.is_control == restored.is_control
            assert original.taken == restored.taken
            assert original.kernel == restored.kernel
            assert original.next_pc == restored.next_pc

    def test_reloaded_trace_times_identically(self, tmp_path):
        trace = generate(SyntheticConfig(instructions=2_000, seed=6))
        path = tmp_path / "trace.npz"
        save_trace(path, trace)
        loaded = load_trace(path)
        first = simulate(trace, machine("1P"))
        second = simulate(loaded, machine("1P"))
        assert first.cycles == second.cycles

    def test_workload_trace_round_trips(self, tmp_path, stream_trace):
        path = tmp_path / "stream.npz"
        save_trace(path, stream_trace)
        loaded = load_trace(path)
        assert len(loaded) == len(stream_trace)
        assert sum(r.is_load for r in loaded) == \
            sum(r.is_load for r in stream_trace)

    @pytest.mark.parametrize("config", ["1P", "1P-wide+LB+SC", "2P"])
    def test_workload_trace_times_identically_after_reload(
            self, tmp_path, qsort_trace, config):
        # Workload traces carry decoded instructions; reloading drops
        # them, so the timing hints (store operand split, serialization,
        # decode redirect) must fully stand in for the decode.
        path = tmp_path / "qsort.npz"
        save_trace(path, qsort_trace)
        loaded = load_trace(path)
        assert loaded[0].instr is None
        fresh = simulate(qsort_trace, machine(config))
        reloaded = simulate(loaded, machine(config))
        assert fresh.cycles == reloaded.cycles
        assert fresh.stats.as_dict() == reloaded.stats.as_dict()

    def test_timing_hints_survive_round_trip(self, tmp_path, qsort_trace):
        path = tmp_path / "qsort.npz"
        save_trace(path, qsort_trace)
        saved_twice = tmp_path / "twice.npz"
        save_trace(saved_twice, load_trace(path))
        for first, second in zip(load_trace(path), load_trace(saved_twice)):
            assert first.serializes == second.serializes
            assert first.decode_redirect == second.decode_redirect
            assert first.store_addr_count == second.store_addr_count

    def test_atomic_save_leaves_no_temp_files(self, tmp_path):
        from repro.trace import save_trace_atomic
        trace = generate(SyntheticConfig(instructions=50, seed=1))
        path = tmp_path / "atomic.npz"
        save_trace_atomic(path, trace)
        assert [p.name for p in tmp_path.iterdir()] == ["atomic.npz"]
        assert len(load_trace(path)) == len(trace)

    def test_reloaded_columns_are_the_saved_ones_read_only(self, tmp_path):
        trace = generate(SyntheticConfig(instructions=500, seed=7,
                                         load_fraction=0.3,
                                         store_fraction=0.2))
        path = tmp_path / "trace.npz"
        save_trace(path, trace)
        saved = Trace.from_records(trace).columns
        for name, column in load_trace(path).columns.items():
            assert column.dtype == saved[name].dtype, name
            assert column.shape == saved[name].shape, name
            assert np.array_equal(column, saved[name]), name
            assert not column.flags.writeable, name

    def test_object_member_is_refused(self, tmp_path):
        trace = generate(SyntheticConfig(instructions=10))
        path = tmp_path / "trace.npz"
        save_trace(path, trace)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        arrays["mem_addr"] = arrays["mem_addr"].astype(object)
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            load_trace(path)

    def test_version_check(self, tmp_path):
        trace = generate(SyntheticConfig(instructions=10))
        path = tmp_path / "trace.npz"
        save_trace(path, trace)
        with np.load(path) as archive:
            arrays = {k: archive[k] for k in archive.files}
        arrays["version"] = np.array([99])
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_trace(path)


class TestColumnarTrace:
    """One trace of each kind: a wrap and a reload carry the same
    columns, and only indexing or iterating builds records."""

    def test_wrap_and_reload_carry_the_same_columns(self, trace_forms):
        _, fresh, wrapped, reloaded = trace_forms
        assert wrapped[0] is fresh[0]  # wrapping keeps the records
        redecoded = Trace.from_records(reloaded.records)
        for name, column in wrapped.columns.items():
            assert reloaded.columns[name].dtype == column.dtype, name
            assert np.array_equal(reloaded.columns[name], column), name
            assert np.array_equal(redecoded.columns[name], column), name

    def test_fast_loop_leaves_a_loaded_trace_undecoded(
            self, trace_forms, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
        _, fresh, _, _ = trace_forms
        path = tmp_path / "trace.npz"
        save_trace(path, fresh)
        loaded = load_trace(path)
        assert len(loaded) == len(fresh)
        assert OoOCore(machine("1P")).run(loaded).used_fastpath
        assert loaded._records is None

    @staticmethod
    def _run_every_recorder(trace) -> None:
        result = OoOCore(
            machine("1P"), tracer=JsonlTracer(io.StringIO()),
            metrics_interval=256, pipe_trace=PipeTrace(),
            validator=InvariantChecker(), critpath=CritPathRecorder(),
            hotspots=HotspotRecorder()).run(trace)
        assert not result.used_fastpath

    def test_reference_loop_and_recorders_leave_a_loaded_trace_undecoded(
            self, trace_forms, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
        _, fresh, _, _ = trace_forms
        path = tmp_path / "trace.npz"
        save_trace(path, fresh)
        loaded = load_trace(path)
        self._run_every_recorder(loaded)
        assert loaded._records is None

    def test_reference_loop_and_recorders_leave_a_gathered_trace_undecoded(
            self, monkeypatch):
        monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
        spec = WORKLOADS["stream"]
        gathered = run_bare(assemble(spec.source(**spec.params("tiny"))),
                            collect_trace=True).trace
        assert gathered.instructions is not None
        self._run_every_recorder(gathered)
        assert gathered._records is None


class TestProperties:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(1, 300), seed=st.integers(0, 1 << 30))
    def test_arbitrary_synthetic_round_trip(self, tmp_path, n, seed):
        trace = generate(SyntheticConfig(instructions=n, seed=seed))
        path = tmp_path / f"t{n}.npz"
        save_trace(path, trace)
        loaded = load_trace(path)
        assert all(a.pc == b.pc and a.next_pc == b.next_pc
                   for a, b in zip(trace, loaded))

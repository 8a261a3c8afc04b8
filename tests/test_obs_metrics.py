"""Tests for interval time-series telemetry.

The headline acceptance property mirrors the stall ledger's: for every
workload/configuration pair of the F2 experiment, every interval series
is a partition of the end-of-run value (cycles, committed instructions,
every tracked counter, every occupancy histogram).
"""

import pytest

from repro.core import OoOCore
from repro.experiments.runner import ROW_NAMES, suite_traces
from repro.obs import IntervalMetrics
from repro.obs.metrics import (DEFAULT_METRICS_INTERVAL,
                               OCCUPANCY_STRUCTURES, TRACKED_COUNTERS)
from repro.presets import (BEST_SINGLE_PORT, DUAL_PORT, STRONG_DUAL_PORT,
                          machine)
from repro.stats import Stats

F2_CONFIGS = ("1P", BEST_SINGLE_PORT, DUAL_PORT, STRONG_DUAL_PORT)


class TestCollectorUnit:
    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            IntervalMetrics(Stats(), ports=1, interval=0)
        with pytest.raises(ValueError):
            IntervalMetrics(Stats(), ports=0)

    def test_default_interval(self):
        metrics = IntervalMetrics(Stats(), ports=2)
        assert metrics.interval == DEFAULT_METRICS_INTERVAL

    def test_closes_interval_on_boundary(self):
        stats = Stats()
        metrics = IntervalMetrics(stats, ports=1, interval=4)
        committed = 0
        for cycle in range(8):
            committed += 1
            stats.inc("dcache.port_uses")
            metrics.cycle_end(cycle, (committed, 2, 1, 0, 0, 0, 1, 0))
        assert len(metrics.intervals) == 2
        first, second = metrics.intervals
        assert (first.start_cycle, first.cycles) == (0, 4)
        assert (second.start_cycle, second.cycles) == (4, 4)
        assert first.committed == 4 and second.committed == 4
        assert first.counters["dcache.port_uses"] == 4
        assert first.ipc == 1.0

    def test_finalize_closes_partial_interval(self):
        stats = Stats()
        metrics = IntervalMetrics(stats, ports=1, interval=100)
        for cycle in range(7):
            metrics.cycle_end(cycle, (cycle + 1, 1, 1, 0, 0, 0, 0, 0))
        assert not metrics.intervals
        metrics.finalize(7)
        assert len(metrics.intervals) == 1
        assert metrics.intervals[0].cycles == 7
        metrics.finalize(7)  # idempotent on an already-closed run
        assert len(metrics.intervals) == 1

    def test_occupancy_means_and_histograms(self):
        metrics = IntervalMetrics(Stats(), ports=2, interval=2)
        metrics.cycle_end(0, (0, 4, 2, 1, 1, 0, 2, 1))
        metrics.cycle_end(1, (0, 6, 2, 1, 1, 2, 0, 1))
        interval = metrics.intervals[0]
        assert interval.occupancy["rob"] == 5.0
        assert interval.occupancy["wb"] == 1.0
        assert metrics.histograms["rob"].as_dict() == {4: 1, 6: 1}
        assert metrics.histograms["ports"].as_dict() == {0: 1, 2: 1}

    def test_port_utilization(self):
        stats = Stats()
        metrics = IntervalMetrics(stats, ports=2, interval=2)
        stats.inc("dcache.port_uses", 3)
        metrics.cycle_end(0, (0, 0, 0, 0, 0, 0, 2, 0))
        metrics.cycle_end(1, (0, 0, 0, 0, 0, 0, 1, 0))
        assert metrics.port_utilization(metrics.intervals[0]) == 0.75

    def test_series_and_summary(self):
        stats = Stats()
        metrics = IntervalMetrics(stats, ports=1, interval=1)
        stats.inc("lb.hits", 2)
        metrics.cycle_end(0, (1, 0, 0, 0, 0, 0, 1, 0))
        stats.inc("lb.hits", 3)
        metrics.cycle_end(1, (2, 0, 0, 0, 0, 0, 0, 0))
        assert metrics.series("lb.hits") == [2, 3]
        assert "2 intervals" in metrics.summary()
        assert IntervalMetrics(Stats(), ports=1).summary() == \
            "no intervals recorded"

    def test_as_dict_shape(self):
        stats = Stats()
        metrics = IntervalMetrics(stats, ports=2, interval=4)
        for cycle in range(6):
            metrics.cycle_end(cycle, (cycle, 1, 1, 0, 0, 0, 1, 0))
        metrics.finalize(6)
        snapshot = metrics.as_dict()
        assert snapshot["n_intervals"] == 2
        assert snapshot["cycles"] == [4, 2]
        assert len(snapshot["ipc"]) == 2
        assert set(snapshot["counters"]) == set(TRACKED_COUNTERS)
        assert set(snapshot["occupancy"]) == set(OCCUPANCY_STRUCTURES)
        assert snapshot["occupancy"]["rob"]["samples"] == 6

    def test_conservation_detects_drift(self):
        stats = Stats()
        metrics = IntervalMetrics(stats, ports=1, interval=4)
        metrics.cycle_end(0, (1, 0, 0, 0, 0, 0, 0, 0))
        metrics.finalize(1)
        assert metrics.check_conservation(cycles=1, instructions=1) == []
        # A counter bumped after the last close is unaccounted drift.
        stats.inc("dcache.port_uses")
        problems = metrics.check_conservation(cycles=1, instructions=1)
        assert any("dcache.port_uses" in p for p in problems)
        assert metrics.check_conservation(cycles=2, instructions=3)


@pytest.fixture(scope="module")
def f2_tiny_metrics():
    """Run the full F2 grid at tiny scale with telemetry enabled."""
    traces = suite_traces("tiny")
    runs = {}
    for config_name in F2_CONFIGS:
        config = machine(config_name)
        for workload, trace in traces.items():
            result = OoOCore(config, metrics_interval=256).run(trace)
            runs[(workload, config_name)] = result
    return runs


class TestConservationOnF2Grid:
    """Acceptance: every F2 (workload, config) pair's interval series
    partition the end-of-run counters exactly."""

    @pytest.mark.parametrize("workload", ROW_NAMES)
    @pytest.mark.parametrize("config_name", F2_CONFIGS)
    def test_intervals_conserve(self, f2_tiny_metrics, workload,
                                config_name):
        result = f2_tiny_metrics[(workload, config_name)]
        problems = result.metrics.check_conservation(
            result.cycles, result.instructions)
        assert problems == [], (
            f"{workload} on {config_name}: {problems}")

    @pytest.mark.parametrize("config_name", F2_CONFIGS)
    def test_series_cover_the_run(self, f2_tiny_metrics, config_name):
        result = f2_tiny_metrics[("stream", config_name)]
        metrics = result.metrics
        assert metrics.total_cycles == result.cycles
        assert metrics.total_committed == result.instructions
        assert all(i.cycles == 256 for i in metrics.intervals[:-1])
        assert 0 < metrics.intervals[-1].cycles <= 256

    def test_port_utilization_bounded(self, f2_tiny_metrics):
        for result in f2_tiny_metrics.values():
            metrics = result.metrics
            for interval in metrics.intervals:
                assert 0.0 <= metrics.port_utilization(interval) <= 1.0


class TestTelemetryIsInert:
    def test_off_by_default_and_identical_results(self):
        trace = suite_traces("tiny", names=("memops",))["memops"]
        config = machine("2P")
        plain = OoOCore(config).run(trace)
        assert plain.metrics is None
        sampled = OoOCore(config, metrics_interval=128).run(trace)
        assert plain.cycles == sampled.cycles
        assert plain.stats.as_dict() == sampled.stats.as_dict()


class TestReportIntegration:
    def test_report_carries_and_validates_metrics(self):
        from repro.obs import build_run_report, validate_run_report
        trace = suite_traces("tiny", names=("stream",))["stream"]
        config = machine("2P")
        result = OoOCore(config, metrics_interval=256).run(trace)
        report = build_run_report(result, config, workload="stream",
                                  scale="tiny", wall_time=0.1)
        validate_run_report(report)
        metrics = report["metrics"]
        assert sum(metrics["cycles"]) == report["cycles"]
        assert sum(metrics["committed"]) == report["instructions"]

    def test_validator_rejects_nonconserving_metrics(self):
        import copy

        from repro.obs import (SchemaError, build_run_report,
                               validate_run_report)
        trace = suite_traces("tiny", names=("stream",))["stream"]
        config = machine("2P")
        result = OoOCore(config, metrics_interval=256).run(trace)
        report = build_run_report(result, config, wall_time=0.1)
        broken = copy.deepcopy(report)
        broken["metrics"]["cycles"][0] += 1
        with pytest.raises(SchemaError, match="sum to run cycles"):
            validate_run_report(broken)
        broken = copy.deepcopy(report)
        del broken["metrics"]["port_util"]
        with pytest.raises(SchemaError, match="port_util"):
            validate_run_report(broken)


class TestEngineAggregation:
    def test_parallel_reports_carry_identical_metrics(self):
        """Per-job telemetry crosses the worker-pool boundary and the
        reported series are byte-identical to a serial run."""
        import json

        from repro.experiments.engine import Engine, SimJob, TraceSpec
        jobs = [SimJob((name, cfg), TraceSpec.workload(name, "tiny"),
                       machine(cfg))
                for name in ("memops", "qsort")
                for cfg in ("1P", "2P")]
        captured = {}
        for workers in (1, 2):
            engine = Engine(jobs=workers, metrics_interval=256)
            results = engine.execute(jobs)
            assert len(results) == len(jobs)
            reports = list(engine.last_reports.values())
            for report in reports:
                assert report["metrics"] is not None
                report["host"] = None  # the only nondeterministic part
            captured[workers] = json.dumps(reports, sort_keys=True)
        assert captured[1] == captured[2]

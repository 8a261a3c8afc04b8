"""Benchmark harness plumbing.

``test_evaluation.py`` regenerates every table/figure of the paper (see
DESIGN.md's experiment index) at the "small" scale and registers each
table so it is printed after the pytest-benchmark summary — that
printout is the reproduction artefact.
"""

from __future__ import annotations

import pytest

_TABLES: list = []


@pytest.fixture
def table_sink():
    """Collects result tables for the terminal summary."""
    def record(table):
        _TABLES.append(table)
        return table
    return record


def _engine_settings_line() -> str:
    """One line recording how the grid was executed, so a benchmark
    printout is interpretable after the fact (parallel runs produce
    identical tables, but wall-clock numbers differ)."""
    from repro.experiments.engine import Engine
    from repro.workloads import trace_cache_dir, trace_cache_stats
    stats = trace_cache_stats()
    cache = trace_cache_dir()
    return (f"engine: jobs={Engine().jobs} "
            f"trace_cache={cache if cache else 'off'} "
            f"(memory_hits={stats['memory_hits']} "
            f"disk_hits={stats['disk_hits']} builds={stats['builds']})")


def pytest_terminal_summary(terminalreporter):
    if not _TABLES:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("=" * 70)
    terminalreporter.write_line("reproduced tables / figures")
    terminalreporter.write_line("=" * 70)
    terminalreporter.write_line(_engine_settings_line())
    for table in _TABLES:
        terminalreporter.write_line("")
        for line in table.render().splitlines():
            terminalreporter.write_line(line)

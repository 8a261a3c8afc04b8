"""Smoke tests: every example script runs to completion.

Examples are exercised in-process (imported as modules with patched
``sys.argv``) so failures give real tracebacks and coverage.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str], monkeypatch) -> None:
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")


def test_examples_directory_contents():
    scripts = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))
    assert "quickstart.py" in scripts
    assert len(scripts) >= 4


def test_quickstart(monkeypatch, capsys):
    run_example("quickstart.py", [], monkeypatch)
    out = capsys.readouterr().out
    assert "IPC" in out and "2P" in out


def test_port_study_tiny(monkeypatch, capsys):
    run_example("port_study.py", ["--scale", "tiny"], monkeypatch)
    out = capsys.readouterr().out
    assert "F1" in out and "F2" in out and "headline" in out


def test_os_workload(monkeypatch, capsys):
    run_example("os_workload.py", [], monkeypatch)
    out = capsys.readouterr().out
    assert "kernel" in out
    assert "user-only view" in out


def test_custom_workload(monkeypatch, capsys):
    run_example("custom_workload.py", [], monkeypatch)
    out = capsys.readouterr().out
    assert "histogram done" in out
    assert "depth" in out


def test_stall_breakdown(monkeypatch, capsys):
    run_example("stall_breakdown.py", ["--scale", "tiny"], monkeypatch)
    out = capsys.readouterr().out
    assert "slots used" in out
    assert "1P-wide+LB+SC" in out
    assert "#" in out  # the bar chart rendered


def test_bottleneck_report(monkeypatch, capsys):
    run_example("bottleneck_report.py", ["--scale", "tiny"], monkeypatch)
    out = capsys.readouterr().out
    assert "critical path:" in out
    assert "what-if second port" in out
    assert "real 2P took" in out
    assert "#" in out  # the bar chart rendered


def test_hotspot_report(monkeypatch, capsys):
    run_example("hotspot_report.py", ["--scale", "tiny"], monkeypatch)
    out = capsys.readouterr().out
    assert "top 5 PCs by port-conflict slots" in out
    assert "privilege split:" in out
    assert "repro.hotspots/1" in out
    assert "conservation-checked" in out


def test_port_utilization_timeline(monkeypatch, capsys):
    run_example("port_utilization_timeline.py", ["--scale", "tiny"],
                monkeypatch)
    out = capsys.readouterr().out
    assert "port util |" in out
    assert "1P-wide+LB+SC" in out
    assert "intervals with port util > 50%" in out


def test_locality_sweep(monkeypatch, capsys):
    run_example("locality_sweep.py", ["--instructions", "6000"],
                monkeypatch)
    out = capsys.readouterr().out
    assert "locality" in out and "|" in out


def test_fleet_timeline(monkeypatch, capsys, tmp_path):
    output = tmp_path / "fleet.json"
    run_example("fleet_timeline.py",
                ["--scale", "tiny", "--jobs", "2",
                 "--output", str(output)], monkeypatch)
    out = capsys.readouterr().out
    assert "spans" in out and "perfetto" in out
    assert "worker" in out
    import json

    from repro.obs.spans import parse_chrome_trace
    assert parse_chrome_trace(json.loads(output.read_text()))

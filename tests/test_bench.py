"""Tests for the ``repro bench`` harness and its regression compare.

The contracts under test: a bench run produces a structurally valid
``repro.bench/1`` manifest whose simulated results are deterministic
(two same-seed runs compare clean); the comparison splits throughput
noise (tolerance-gated, exit 1) from simulated-result drift (exact,
exit 2); and the CLI wires the exit-code semantics through.
"""

from __future__ import annotations

import copy
import json
import os

import pytest

from repro.bench import (compare_bench, default_bench_path,
                         render_bench_comparison, run_bench,
                         validate_bench_manifest)
from repro.bench.harness import FULL_MATRIX, QUICK_MATRIX, _iqr, _median
from repro.cli import main
from repro.obs.report import SchemaError

BASELINE_CI = os.path.join(os.path.dirname(__file__), os.pardir,
                           "benchmarks", "baseline_ci.json")


@pytest.fixture(scope="module")
def quick_manifest():
    """One shared quick-matrix run (simulations dominate test time)."""
    return run_bench(quick=True, repeats=2, warmup=0)


class TestStatistics:
    def test_median(self):
        assert _median([3.0, 1.0, 2.0]) == 2.0
        assert _median([4.0, 1.0, 2.0, 3.0]) == 2.5

    def test_iqr(self):
        assert _iqr([1.0]) == 0.0
        assert _iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == 2.0


class TestHarness:
    def test_matrices_are_pinned_and_distinct(self):
        assert all(cell.scale == "tiny" for cell in QUICK_MATRIX)
        assert all(cell.scale == "small" for cell in FULL_MATRIX)
        labels = [cell.label for cell in QUICK_MATRIX + FULL_MATRIX]
        assert len(set(labels)) == len(labels)

    def test_manifest_validates_and_covers_the_matrix(self,
                                                     quick_manifest):
        validate_bench_manifest(quick_manifest)
        assert quick_manifest["mode"] == "quick"
        assert len(quick_manifest["results"]) == len(QUICK_MATRIX)
        labels = [result["label"]
                  for result in quick_manifest["results"]]
        assert labels == [cell.label for cell in QUICK_MATRIX]
        for result in quick_manifest["results"]:
            assert len(result["seconds"]["values"]) == 2
            assert result["kips"]["median"] > 0
        # One cold+warm timing per distinct (workload, scale).
        assert len(quick_manifest["tracegen"]) == \
            len({(cell.workload, cell.scale) for cell in QUICK_MATRIX})

    def test_manifest_is_json_serializable(self, quick_manifest):
        json.dumps(quick_manifest)

    def test_bad_settings_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            run_bench(quick=True, repeats=0)
        with pytest.raises(ValueError, match="warmup"):
            run_bench(quick=True, warmup=-1)

    def test_default_path_shape(self):
        name = default_bench_path("/tmp").name
        assert name.startswith("BENCH_") and name.endswith(".json")


class TestValidation:
    def test_rejects_non_object(self):
        with pytest.raises(SchemaError):
            validate_bench_manifest([])

    def test_rejects_missing_sections(self, quick_manifest):
        broken = {key: value for key, value in quick_manifest.items()
                  if key != "results"}
        with pytest.raises(SchemaError, match="results"):
            validate_bench_manifest(broken)

    def test_code_version_stamped_and_checked(self, quick_manifest):
        assert quick_manifest["code_version"]
        manifest = copy.deepcopy(quick_manifest)
        manifest["code_version"] = ""
        with pytest.raises(SchemaError, match="code_version"):
            validate_bench_manifest(manifest)

    def test_rejects_wrong_schema_tag(self, quick_manifest):
        broken = dict(quick_manifest, schema="repro.run/1")
        with pytest.raises(SchemaError, match="schema"):
            validate_bench_manifest(broken)

    def test_rejects_non_numeric_samples(self, quick_manifest):
        broken = copy.deepcopy(quick_manifest)
        broken["results"][0]["seconds"]["values"][0] = "fast"
        with pytest.raises(SchemaError, match="numbers"):
            validate_bench_manifest(broken)

    def test_cells_surface_fastpath_use(self, quick_manifest):
        # The harness runs bare cores, so every cell takes the fast
        # loop — unless the tier-1 REPRO_VALIDATE leg forces the
        # reference loop, which the manifest must then say out loud.
        from repro.core import pipeline
        expect_fast = not pipeline._ENV_VALIDATE
        for result in quick_manifest["results"]:
            assert result["used_fastpath"] is expect_fast
            if expect_fast:
                assert result["fastpath_reason"] is None
            else:
                assert result["fastpath_reason"] == "validator attached"

    def test_rejects_malformed_fastpath_cell(self, quick_manifest):
        broken = copy.deepcopy(quick_manifest)
        broken["results"][0]["used_fastpath"] = "yes"
        with pytest.raises(SchemaError, match="used_fastpath"):
            validate_bench_manifest(broken)
        broken = copy.deepcopy(quick_manifest)
        broken["results"][0]["used_fastpath"] = True
        broken["results"][0]["fastpath_reason"] = "tracer attached"
        with pytest.raises(SchemaError, match="cannot"):
            validate_bench_manifest(broken)

    def test_fastpath_fields_are_optional(self, quick_manifest):
        # Pre-PR8 manifests lack the fields entirely; still valid.
        vintage = copy.deepcopy(quick_manifest)
        for result in vintage["results"]:
            del result["used_fastpath"]
            del result["fastpath_reason"]
        validate_bench_manifest(vintage)


class TestCompare:
    def test_code_version_never_affects_compare(self, quick_manifest):
        # A baseline from another revision compares on results, not on
        # the stamp — so stamping didn't change --compare behaviour.
        candidate = copy.deepcopy(quick_manifest)
        candidate["code_version"] = "some-other-revision"
        report = compare_bench(quick_manifest, candidate)
        assert report["ok"] is True
        assert report["deterministic_ok"] is True

    def test_same_seed_rerun_compares_clean(self, quick_manifest):
        rerun = run_bench(quick=True, repeats=2, warmup=0)
        report = compare_bench(quick_manifest, rerun, tolerance=1e9)
        assert report["deterministic_ok"], report["deterministic"]
        assert report["ok"]

    def test_throughput_delta_beyond_tolerance_fails(self,
                                                     quick_manifest):
        slower = copy.deepcopy(quick_manifest)
        slower["results"][0]["kips"]["median"] *= 0.5
        report = compare_bench(quick_manifest, slower, tolerance=0.1)
        assert report["deterministic_ok"]
        assert not report["throughput_ok"]
        assert not report["ok"]
        rendering = render_bench_comparison(report, "a", "b")
        assert "OUT OF TOLERANCE" in rendering

    def test_throughput_delta_within_tolerance_passes(self,
                                                      quick_manifest):
        close = copy.deepcopy(quick_manifest)
        close["results"][0]["kips"]["median"] *= 1.01
        assert compare_bench(quick_manifest, close, tolerance=0.1)["ok"]

    def test_new_cells_are_noted_not_failed(self, quick_manifest):
        # The pinned matrix grows over time: a baseline captured before
        # a cell was added must still compare clean, with the addition
        # surfaced as a note.
        baseline = copy.deepcopy(quick_manifest)
        dropped = baseline["results"].pop()
        baseline["matrix"] = [cell for cell in baseline["matrix"]
                              if f"{cell['workload']}@{cell['scale']}"
                              f"/{cell['config']}" != dropped["label"]]
        report = compare_bench(baseline, quick_manifest, tolerance=1e9)
        assert report["ok"]
        assert report["deterministic_ok"]
        assert report["new_cells"] == [dropped["label"]]
        assert report["removed_cells"] == []
        text = render_bench_comparison(report, "base", "cand")
        assert f"note: {dropped['label']} is a new cell" in text
        # And the mirror image: a cell only the baseline ran.
        reverse = compare_bench(quick_manifest, baseline, tolerance=1e9)
        assert reverse["ok"]
        assert reverse["removed_cells"] == [dropped["label"]]

    def test_quick_matrix_covers_a_scenario_cell(self, quick_manifest):
        from repro.scenarios import SCENARIOS
        scenario_cells = [cell for cell in QUICK_MATRIX
                          if cell.workload in SCENARIOS]
        assert scenario_cells, "quick matrix lost its scenario cell"
        by_label = {result["label"]: result
                    for result in quick_manifest["results"]}
        for cell in scenario_cells:
            assert by_label[cell.label]["instructions"] > 0

    def test_simulated_result_drift_is_never_tolerated(self,
                                                       quick_manifest):
        drifted = copy.deepcopy(quick_manifest)
        drifted["results"][0]["cycles"] += 1
        report = compare_bench(quick_manifest, drifted, tolerance=1e9)
        assert not report["deterministic_ok"]
        assert not report["ok"]
        rendering = render_bench_comparison(report, "a", "b")
        assert "DIFFER" in rendering


def _at_kips(manifest, kips):
    """*manifest* with every cell's median kIPS set to *kips*."""
    variant = copy.deepcopy(manifest)
    for cell in variant["results"]:
        cell["kips"]["median"] = kips
    return variant


class TestThroughputRule:
    """``bench --compare``'s verdict: a rate regressed when it fell
    below ``baseline * (1 - tolerance)``, and a faster candidate never
    fails."""

    @pytest.mark.parametrize("baseline, candidate, tolerance, regressed", [
        (100.0, 100.0, 0.1, False),
        (100.0, 95.0, 0.1, False),
        (100.0, 89.0, 0.1, True),
        (100.0, 50.0, 0.1, True),
        (100.0, 200.0, 0.1, False),
        (100.0, 99.0, 0.0, True),
        (100.0, 150.0, 0.0, False),
        (100.0, 60.0, 0.5, False),
    ])
    def test_compare_verdict_follows_the_rule(self, baseline, candidate,
                                              tolerance, regressed):
        with open(BASELINE_CI, encoding="utf-8") as handle:
            manifest = json.load(handle)
        base = _at_kips(manifest, baseline)
        cand = _at_kips(manifest, candidate)
        assert compare_bench(base, cand, tolerance)["throughput_ok"] \
            is not regressed


class TestCli:
    def test_quick_json_writes_validating_manifest(self, tmp_path,
                                                   capsys):
        path = tmp_path / "bench.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--warmup", "0", "--json",
                     "--output", str(path)]) == 0
        stdout = capsys.readouterr().out
        manifest = json.loads(stdout)
        validate_bench_manifest(manifest)
        validate_bench_manifest(json.loads(path.read_text()))

    def test_compare_exit_codes(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--warmup", "0", "--output", str(base)]) == 0
        capsys.readouterr()
        baseline = json.loads(base.read_text())

        slower = copy.deepcopy(baseline)
        for result in slower["results"]:
            result["kips"]["median"] *= 0.5
        slow_path = tmp_path / "slow.json"
        slow_path.write_text(json.dumps(slower))

        drifted = copy.deepcopy(baseline)
        drifted["results"][0]["instructions"] += 1
        drift_path = tmp_path / "drift.json"
        drift_path.write_text(json.dumps(drifted))

        same = main(["bench", "--compare", str(base),
                     "--candidate", str(base)])
        slow = main(["bench", "--compare", str(base),
                     "--candidate", str(slow_path),
                     "--tolerance", "0.1"])
        drift = main(["bench", "--compare", str(base),
                      "--candidate", str(drift_path),
                      "--tolerance", "1e9"])
        assert (same, slow, drift) == (0, 1, 2)

    def test_compare_rerun_is_deterministic(self, tmp_path, capsys):
        base = tmp_path / "base.json"
        assert main(["bench", "--quick", "--repeats", "1",
                     "--warmup", "0", "--output", str(base)]) == 0
        out = tmp_path / "rerun.json"
        # A huge tolerance isolates the deterministic half: only a
        # simulated-result change could now make this non-zero.
        assert main(["bench", "--quick", "--repeats", "1",
                     "--warmup", "0", "--output", str(out),
                     "--compare", str(base),
                     "--tolerance", "1e9"]) == 0

    def test_candidate_requires_compare(self):
        with pytest.raises(SystemExit):
            main(["bench", "--candidate", "x.json"])

    def test_unreadable_or_non_object_baseline_exits_2(self, tmp_path,
                                                       capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["bench", "--compare", missing,
                     "--candidate", BASELINE_CI]) == 2
        assert "cannot read" in capsys.readouterr().err
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        assert main(["bench", "--compare", str(array),
                     "--candidate", BASELINE_CI]) == 2
        assert "not a JSON object" in capsys.readouterr().err

    def test_invalid_baseline_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert main(["bench", "--compare", str(bogus),
                     "--candidate", str(bogus)]) == 2

"""Tests for run reports, experiment manifests, and their validators."""

import json

import pytest

from repro.core import OoOCore
from repro.obs import (SCHEMA_VERSION, SchemaError, build_experiment_manifest,
                       build_run_report, validate_experiment_manifest,
                       validate_run_report)
from repro.presets import machine
from repro.stats import Table
from repro.workloads import build_trace


@pytest.fixture(scope="module")
def run_and_report():
    config = machine("2P+SC")
    result = OoOCore(config).run(build_trace("memops", "tiny"))
    report = build_run_report(result, config, workload="memops",
                              scale="tiny", seed=7, wall_time=0.5)
    return result, report


class TestRunReport:
    def test_round_trips_through_json(self, run_and_report):
        _, report = run_and_report
        clone = json.loads(json.dumps(report))
        assert clone == report

    def test_required_content(self, run_and_report):
        result, report = run_and_report
        assert report["schema"] == f"repro.run/{SCHEMA_VERSION}"
        assert report["config"]["name"] == "2P+SC"
        assert report["config"]["dcache"]["ports"] == 2
        assert report["seed"] == 7
        assert report["workload"] == "memops"
        assert report["cycles"] == result.cycles
        assert report["ipc"] == result.ipc
        assert report["counters"] == result.stats.as_dict()
        assert report["host"]["sim_ips"] == result.instructions / 0.5

    def test_stall_ledger_embedded(self, run_and_report):
        _, report = run_and_report
        stalls = report["stalls"]
        assert stalls["committed"] + stalls["total_lost"] \
            == stalls["total_slots"]

    def test_validates(self, run_and_report):
        validate_run_report(run_and_report[1])

    def test_no_wall_time_means_no_ips(self, run_and_report):
        result, _ = run_and_report
        report = build_run_report(result, machine("2P+SC"))
        assert report["host"] == {"wall_time_s": None, "sim_ips": None}
        assert report["seed"] is None
        validate_run_report(report)

    def test_trace_file_run_has_no_workload(self, run_and_report):
        result, _ = run_and_report
        report = build_run_report(result, machine("2P+SC"),
                                  trace_file="saved/stream.npz")
        assert report["workload"] is None
        assert report["scale"] is None
        assert report["trace_file"] == "saved/stream.npz"
        validate_run_report(report)

    def test_workload_and_trace_file_are_exclusive(self, run_and_report):
        result, _ = run_and_report
        with pytest.raises(ValueError, match="not both"):
            build_run_report(result, machine("2P+SC"), workload="stream",
                            trace_file="saved/stream.npz")

    def test_fastpath_block_surfaced(self, run_and_report):
        result, report = run_and_report
        assert report["fastpath"] == {
            "used": result.used_fastpath,
            "rejected_reason": result.fastpath_reason,
        }
        if report["fastpath"]["used"]:
            assert report["fastpath"]["rejected_reason"] is None


class TestRunValidation:
    def _valid(self, run_and_report):
        return json.loads(json.dumps(run_and_report[1]))

    def test_rejects_non_dict(self):
        with pytest.raises(SchemaError):
            validate_run_report([])

    def test_rejects_missing_key(self, run_and_report):
        report = self._valid(run_and_report)
        del report["counters"]
        with pytest.raises(SchemaError, match="counters"):
            validate_run_report(report)

    def test_rejects_wrong_schema(self, run_and_report):
        report = self._valid(run_and_report)
        report["schema"] = "repro.run/999"
        with pytest.raises(SchemaError, match="schema"):
            validate_run_report(report)

    def test_rejects_bad_seed(self, run_and_report):
        report = self._valid(run_and_report)
        report["seed"] = "seven"
        with pytest.raises(SchemaError, match="seed"):
            validate_run_report(report)

    def test_code_version_stamped(self, run_and_report):
        _, report = run_and_report
        assert isinstance(report["code_version"], str)
        assert report["code_version"]

    def test_code_version_is_optional_but_not_empty(self,
                                                    run_and_report):
        report = self._valid(run_and_report)
        del report["code_version"]
        validate_run_report(report)   # pre-stamping documents pass
        report["code_version"] = ""
        with pytest.raises(SchemaError, match="code_version"):
            validate_run_report(report)
        report["code_version"] = 7
        with pytest.raises(SchemaError, match="code_version"):
            validate_run_report(report)

    def test_code_version_env_override(self, monkeypatch):
        from repro.obs.codeversion import code_version
        monkeypatch.setenv("REPRO_CODE_VERSION", "pinned-abc")
        assert code_version() == "pinned-abc"

    def test_rejects_nonconservative_ledger(self, run_and_report):
        report = self._valid(run_and_report)
        report["stalls"]["total_lost"] += 1
        with pytest.raises(SchemaError, match="conservative"):
            validate_run_report(report)

    def test_collects_every_problem(self, run_and_report):
        report = self._valid(run_and_report)
        del report["cycles"]
        report["seed"] = "seven"
        with pytest.raises(SchemaError) as excinfo:
            validate_run_report(report)
        assert len(excinfo.value.problems) == 2

    def test_rejects_workload_with_trace_file(self, run_and_report):
        report = self._valid(run_and_report)
        report["trace_file"] = "saved/stream.npz"
        with pytest.raises(SchemaError, match="mutually"):
            validate_run_report(report)

    def test_rejects_non_string_trace_file(self, run_and_report):
        report = self._valid(run_and_report)
        report["workload"] = None
        report["trace_file"] = 7
        with pytest.raises(SchemaError, match="trace_file"):
            validate_run_report(report)

    def test_fastpath_block_is_optional(self, run_and_report):
        report = self._valid(run_and_report)
        del report["fastpath"]          # pre-PR8 documents lack it
        validate_run_report(report)

    def test_rejects_malformed_fastpath(self, run_and_report):
        report = self._valid(run_and_report)
        report["fastpath"] = "yes"
        with pytest.raises(SchemaError, match="fastpath"):
            validate_run_report(report)
        report["fastpath"] = {"used": "yes"}
        with pytest.raises(SchemaError, match="fastpath"):
            validate_run_report(report)
        report["fastpath"] = {"used": False, "rejected_reason": 7}
        with pytest.raises(SchemaError, match="rejected_reason"):
            validate_run_report(report)

    def test_rejects_used_fastpath_with_reason(self, run_and_report):
        report = self._valid(run_and_report)
        report["fastpath"] = {"used": True,
                              "rejected_reason": "metrics attached"}
        with pytest.raises(SchemaError, match="cannot carry"):
            validate_run_report(report)


class TestDigestsAndValidationFields:
    def _valid(self, run_and_report):
        return json.loads(json.dumps(run_and_report[1]))

    def test_unvalidated_run_has_null_fields(self, run_and_report):
        _, report = run_and_report
        assert report["digests"] is None
        assert report["validation"] is None

    def test_validated_run_embeds_violations(self, run_and_report):
        from repro.validate import Violation
        result, _ = run_and_report
        violations = [Violation(cycle=9, check="rob.order", detail="x")]
        report = build_run_report(result, machine("2P+SC"),
                                  violations=violations)
        assert report["validation"] == {
            "violations": [{"cycle": 9, "check": "rob.order",
                            "detail": "x"}]}
        validate_run_report(report)

    def test_clean_validated_run_has_empty_list(self, run_and_report):
        result, _ = run_and_report
        report = build_run_report(result, machine("2P+SC"), violations=[])
        assert report["validation"] == {"violations": []}
        validate_run_report(report)

    def test_checked_run_reports_null_digests(self):
        # The golden check runs once per trace, outside any timing run:
        # the key stays, always null, so the schema does not move.
        from repro.validate import InvariantChecker
        config = machine("1P")
        checker = InvariantChecker()
        result = OoOCore(config, validator=checker).run(
            build_trace("memops", "tiny"))
        report = build_run_report(result, config,
                                  violations=checker.violations)
        assert report["digests"] is None
        assert report["validation"] == {"violations": []}
        validate_run_report(report)

    def test_accepts_digests_of_older_documents(self, run_and_report):
        report = self._valid(run_and_report)
        report["digests"] = {"registers": "abc", "memory": "def"}
        validate_run_report(report)

    def test_rejects_malformed_digests(self, run_and_report):
        report = self._valid(run_and_report)
        report["digests"] = {"registers": "abc"}       # memory missing
        with pytest.raises(SchemaError, match="digests"):
            validate_run_report(report)
        report["digests"] = "abc"
        with pytest.raises(SchemaError, match="digests"):
            validate_run_report(report)

    def test_rejects_malformed_validation(self, run_and_report):
        report = self._valid(run_and_report)
        report["validation"] = {"violations": [{"cycle": "late"}]}
        with pytest.raises(SchemaError, match="violations"):
            validate_run_report(report)
        report["validation"] = {}
        with pytest.raises(SchemaError, match="violations"):
            validate_run_report(report)


class TestExperimentManifest:
    def _manifest(self, run_and_report):
        table = Table(title="T", columns=["name", "ipc"])
        table.add_row("memops", 1.5)
        return build_experiment_manifest(
            "F2", "tiny", table, [run_and_report[1]], wall_time=2.0)

    def test_builds_and_validates(self, run_and_report):
        manifest = self._manifest(run_and_report)
        assert manifest["schema"] == f"repro.experiment/{SCHEMA_VERSION}"
        assert manifest["table"]["rows"] == [["memops", 1.5]]
        assert manifest["host"]["wall_time_s"] == 2.0
        validate_experiment_manifest(manifest)
        assert json.loads(json.dumps(manifest)) == manifest

    def test_embedded_run_problems_are_located(self, run_and_report):
        manifest = json.loads(json.dumps(self._manifest(run_and_report)))
        del manifest["runs"][0]["counters"]
        with pytest.raises(SchemaError, match=r"runs\[0\]"):
            validate_experiment_manifest(manifest)

    def test_rejects_missing_table(self, run_and_report):
        manifest = json.loads(json.dumps(self._manifest(run_and_report)))
        del manifest["table"]
        with pytest.raises(SchemaError, match="table"):
            validate_experiment_manifest(manifest)

    def test_code_version_stamped_and_checked(self, run_and_report):
        manifest = json.loads(json.dumps(self._manifest(run_and_report)))
        assert manifest["code_version"]
        manifest["code_version"] = ""
        with pytest.raises(SchemaError, match="code_version"):
            validate_experiment_manifest(manifest)

    def test_engine_fields_recorded(self, run_and_report):
        table = Table(title="T", columns=["name", "ipc"])
        table.add_row("memops", 1.5)
        cache = {"dir": "/tmp/cache", "memory_hits": 1, "disk_hits": 2,
                 "builds": 3}
        manifest = build_experiment_manifest(
            "F2", "tiny", table, [run_and_report[1]],
            jobs=4, trace_cache=cache)
        assert manifest["engine"] == {"jobs": 4, "trace_cache": cache}
        validate_experiment_manifest(manifest)

    def test_rejects_bad_engine_jobs(self, run_and_report):
        manifest = json.loads(json.dumps(self._manifest(run_and_report)))
        manifest["engine"] = {"jobs": 0, "trace_cache": None}
        with pytest.raises(SchemaError, match="jobs"):
            validate_experiment_manifest(manifest)

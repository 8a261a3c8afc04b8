"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text("""
.data
msg: .ascii "hi"
.text
main:
    la a0, msg
    li a1, 2
    li a7, 2
    syscall 0
    li a0, 3
    li a7, 1
    syscall 0
""")
    return str(path)


class TestListing:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "stream" in out and "compress" in out

    def test_configs(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "1P-wide+LB+SC" in out and "2R-4B" in out


class TestAsm:
    def test_summary(self, source_file, capsys):
        assert main(["asm", source_file]) == 0
        out = capsys.readouterr().out
        assert "instructions" in out and "entry" in out

    def test_listing(self, source_file, capsys):
        assert main(["asm", source_file, "--list"]) == 0
        out = capsys.readouterr().out
        assert "syscall" in out
        assert "0x001000" in out

    def test_missing_file(self, capsys):
        assert main(["asm", "/nonexistent.s"]) == 1
        assert "error" in capsys.readouterr().err

    def test_asm_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.s"
        path.write_text(".text\nfrobnicate t0\n")
        assert main(["asm", str(path)]) == 1
        assert "unknown mnemonic" in capsys.readouterr().err


class TestRun:
    def test_runs_and_reports(self, source_file, capsys):
        assert main(["run", source_file]) == 0
        out = capsys.readouterr().out
        assert "hi" in out
        assert "exit code 3" in out

    def test_saves_trace(self, source_file, tmp_path, capsys):
        trace_path = str(tmp_path / "t.npz")
        assert main(["run", source_file, "--trace", trace_path]) == 0
        from repro.trace import load_trace
        assert len(load_trace(trace_path)) > 5

    def test_budget_error(self, tmp_path, capsys):
        path = tmp_path / "loop.s"
        path.write_text(".text\nmain:\nx: j x\n")
        assert main(["run", str(path), "--max-instructions", "50"]) == 1
        assert "budget" in capsys.readouterr().err

    def test_bare_metal_mode(self, tmp_path, capsys):
        path = tmp_path / "bm.s"
        path.write_text(".text\nmain:\nli a0, 7\nhalt\n")
        assert main(["run", str(path), "--bare-metal"]) == 0
        assert "exit code 7" in capsys.readouterr().out


class TestSimulate:
    def test_named_workload(self, capsys):
        assert main(["simulate", "--workload", "memops", "--scale", "tiny",
                     "--config", "1P"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "port uses" in out

    def test_trace_file_round_trip(self, tmp_path, capsys):
        trace_path = str(tmp_path / "w.npz")
        assert main(["trace", "memops", trace_path, "--scale",
                     "tiny"]) == 0
        assert main(["simulate", "--trace-file", trace_path,
                     "--config", "2P"]) == 0
        out = capsys.readouterr().out
        assert "2P" in out

    def test_stats_dump(self, capsys):
        assert main(["simulate", "--workload", "memops", "--scale", "tiny",
                     "--config", "1P", "--stats"]) == 0
        assert "dcache.port_uses" in capsys.readouterr().out

    def test_unknown_workload(self, capsys):
        with pytest.raises(SystemExit):
            main(["simulate", "--workload", "nope", "--scale", "tiny"])

    def test_disabled_features_labelled_na(self, capsys):
        assert main(["simulate", "--workload", "memops", "--scale", "tiny",
                     "--config", "1P"]) == 0
        out = capsys.readouterr().out
        assert "line-buffer loads n/a" in out
        assert "combined loads n/a" in out
        assert "combined stores n/a" in out

    def test_enabled_features_show_counts(self, capsys):
        assert main(["simulate", "--workload", "stream", "--scale", "tiny",
                     "--config", "1P-wide+LB+SC"]) == 0
        out = capsys.readouterr().out
        assert "n/a" not in out
        assert "stalls:" in out

    def test_synthetic_workload(self, capsys):
        assert main(["simulate", "--workload", "synthetic",
                     "--scale", "tiny", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "synthetic (tiny)" in out and "IPC" in out

    def test_seed_rejected_for_assembly_workload(self):
        with pytest.raises(SystemExit, match="synthetic"):
            main(["simulate", "--workload", "memops", "--scale", "tiny",
                  "--seed", "3"])

    def test_seed_rejected_with_trace_file(self, tmp_path):
        trace_path = str(tmp_path / "w.npz")
        assert main(["trace", "memops", trace_path, "--scale", "tiny"]) == 0
        with pytest.raises(SystemExit, match="trace-file"):
            main(["simulate", "--trace-file", trace_path, "--seed", "3"])

    @pytest.mark.parametrize("argv, scales", [
        (["simulate", "--workload", "stream", "--scale", "medium"],
         "tiny, small, full"),
        (["critpath", "--workload", "iostorm", "--scale", "full"],
         "tiny, small, medium"),
        (["simulate", "--workload", "synthetic", "--scale", "medium"],
         "tiny, small, full"),
        (["simulate", "--workload", "os-mix", "--scale", "medium"],
         "tiny, small, full"),
        # critpath offers the scales simulate and hotspots offer.
        (["critpath", "--workload", "stream", "--scale", "medium"],
         "tiny, small, full"),
    ], ids=["assembly", "scenario", "synthetic", "os-mix", "critpath"])
    def test_scale_the_workload_lacks_exits_with_one_line(self, argv,
                                                          scales):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        workload, scale = argv[2], argv[4]
        assert excinfo.value.code == (f"workload {workload!r} has no "
                                      f"scale {scale!r}; choose from "
                                      f"{scales}")


class TestSimulateJson:
    def test_round_trips_and_has_required_fields(self, capsys):
        import json
        assert main(["simulate", "--workload", "synthetic", "--scale",
                     "tiny", "--seed", "9", "--config", "2P+SC",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["config"]["name"] == "2P+SC"
        assert report["seed"] == 9
        assert report["workload"] == "synthetic"
        assert report["counters"]["dcache.port_uses"] > 0
        assert report["stalls"]["committed"] + report["stalls"]["total_lost"] \
            == report["stalls"]["total_slots"]
        assert report["host"]["sim_ips"] > 0
        from repro.obs import validate_run_report
        validate_run_report(report)

    def test_seed_is_reproducible(self, capsys):
        import json
        args = ["simulate", "--workload", "synthetic", "--scale", "tiny",
                "--seed", "5", "--json"]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["cycles"] == second["cycles"]
        assert first["counters"] == second["counters"]

    def test_trace_file_run_reports_file_not_workload(self, tmp_path,
                                                      capsys):
        import json
        trace_path = str(tmp_path / "w.npz")
        assert main(["trace", "memops", trace_path, "--scale", "tiny"]) == 0
        capsys.readouterr()
        assert main(["simulate", "--trace-file", trace_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["workload"] is None
        assert report["scale"] is None
        assert report["trace_file"] == trace_path
        from repro.obs import validate_run_report
        validate_run_report(report)


class TestCritPathCli:
    def test_report_renders(self, capsys):
        assert main(["critpath", "--workload", "stream", "--scale",
                     "tiny", "--config", "1P"]) == 0
        out = capsys.readouterr().out
        assert "Critical-path CPI stack" in out
        assert "(reconciles exactly)" in out
        assert "What-if predictions" in out
        assert "dcache_port" in out

    def test_json_manifest_validates(self, capsys):
        import json
        from repro.obs import validate_critpath_report
        assert main(["critpath", "--workload", "stream", "--scale",
                     "tiny", "--config", "1P", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        validate_critpath_report(report)
        assert report["workload"] == "stream"
        assert sum(report["stack"].values()) == report["cycles"]

    def test_output_manifest(self, tmp_path, capsys):
        import json
        out_path = str(tmp_path / "cp.json")
        assert main(["critpath", "--workload", "qsort", "--scale",
                     "tiny", "--config", "2P", "--window", "256",
                     "--output", out_path]) == 0
        capsys.readouterr()
        with open(out_path, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["config"]["name"] == "2P"

    def test_scenario_workload(self, capsys):
        import json
        from repro.obs import validate_critpath_report
        assert main(["critpath", "--workload", "iostorm", "--scale",
                     "tiny", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        validate_critpath_report(report)
        assert report["workload"] == "iostorm"

    def test_unknown_workload_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="see 'repro workloads'"):
            main(["critpath", "--workload", "nosuch", "--scale", "tiny"])

    def test_extra_whatif_scenario(self, capsys):
        assert main(["critpath", "--workload", "stream", "--scale",
                     "tiny", "--whatif", "branch,fetch"]) == 0
        out = capsys.readouterr().out
        assert "relax branch+fetch" in out

    def test_bad_whatif_is_a_clean_error(self):
        with pytest.raises(SystemExit, match="unknown edge class"):
            main(["critpath", "--workload", "stream", "--scale",
                  "tiny", "--whatif", "warp_drive"])

    def test_simulate_critpath_writes_manifest(self, tmp_path, capsys):
        import json
        from repro.obs import validate_critpath_report
        path = str(tmp_path / "cp.json")
        assert main(["simulate", "--workload", "stream", "--scale",
                     "tiny", "--config", "1P", "--critpath", path]) == 0
        assert "critpath: critical path:" in capsys.readouterr().out
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        validate_critpath_report(report)
        assert report["workload"] == "stream"



class TestHotspotsCli:
    def test_report_renders(self, capsys):
        assert main(["hotspots", "--workload", "qsort", "--scale",
                     "tiny", "--config", "2P"]) == 0
        out = capsys.readouterr().out
        assert "Per-PC hotspots" in out
        assert "port-slots" in out
        assert "kernel: " in out and "user: " in out

    def test_annotate_names_top_port_conflict_pc(self, capsys):
        assert main(["hotspots", "--workload", "qsort", "--scale",
                     "tiny", "--config", "2P", "--annotate"]) == 0
        out = capsys.readouterr().out
        assert "Top port-conflict PC 0x" in out
        assert "stride:" in out
        assert "working set:" in out

    def test_json_manifest_validates(self, capsys):
        import json
        from repro.obs import validate_hotspots_report
        assert main(["hotspots", "--workload", "stream", "--scale",
                     "tiny", "--config", "1P", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        validate_hotspots_report(report)
        assert report["workload"] == "stream"
        assert sum(row["executions"] for row in report["rows"]) \
            == report["instructions"]

    def test_scenario_workload_splits_kernel(self, capsys):
        import json
        assert main(["hotspots", "--workload", "iostorm", "--scale",
                     "tiny", "--config", "2P+SC", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        split = report["split"]
        assert split["kernel"]["executions"] > 0
        assert split["kernel"]["executions"] \
            + split["user"]["executions"] == report["instructions"]

    def test_output_manifest(self, tmp_path, capsys):
        import json
        out_path = str(tmp_path / "hs.json")
        assert main(["hotspots", "--workload", "qsort", "--scale",
                     "tiny", "--config", "2P", "--output", out_path]) == 0
        capsys.readouterr()
        with open(out_path, encoding="utf-8") as handle:
            report = json.load(handle)
        assert report["config"]["name"] == "2P"

    def test_bad_sort_is_a_clean_error(self):
        with pytest.raises(SystemExit):
            main(["hotspots", "--workload", "stream", "--scale",
                  "tiny", "--sort", "warp_drive"])

    def test_simulate_hotspots_writes_manifest(self, tmp_path, capsys):
        import json
        from repro.obs import validate_hotspots_report
        path = str(tmp_path / "hs.json")
        assert main(["simulate", "--workload", "qsort", "--scale",
                     "tiny", "--config", "2P", "--hotspots", path]) == 0
        out = capsys.readouterr().out
        assert "hotspots: " in out and "port-conflict" in out
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        validate_hotspots_report(report)
        assert report["workload"] == "qsort"
        # Workload sources re-assemble for disassembly annotation.
        assert any(row["disasm"] for row in report["rows"])



class TestEvents:
    def test_capture_then_summarize(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        assert main(["simulate", "--workload", "stream", "--scale", "tiny",
                     "--config", "2P+SC", "--events", path]) == 0
        assert f"-> {path}" in capsys.readouterr().out
        assert main(["events", path]) == 0
        out = capsys.readouterr().out
        assert "events over cycles" in out
        assert "stall" in out and "commit" in out

    def test_filter_and_limit(self, tmp_path, capsys):
        import json
        path = str(tmp_path / "run.jsonl.gz")
        assert main(["simulate", "--workload", "stream", "--scale", "tiny",
                     "--events", path]) == 0
        capsys.readouterr()
        assert main(["events", path, "--event", "stall",
                     "--limit", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["event"] == "stall" for line in lines)

    def test_corrupt_capture_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "junk.jsonl"
        path.write_text("not json at all\n")
        assert main(["events", str(path)]) == 1
        assert "not a JSONL event capture" in capsys.readouterr().err
        fake_gz = tmp_path / "fake.jsonl.gz"
        fake_gz.write_text("also not gzip\n")
        assert main(["events", str(fake_gz)]) == 1
        assert "not a JSONL event capture" in capsys.readouterr().err

    def test_pc_filter(self, tmp_path, capsys):
        import json
        path = str(tmp_path / "run.jsonl")
        assert main(["simulate", "--workload", "qsort", "--scale", "tiny",
                     "--events", path]) == 0
        capsys.readouterr()
        assert main(["events", path, "--limit", "1000"]) == 0
        carrying = [json.loads(line) for line in
                    capsys.readouterr().out.strip().splitlines()
                    if "pc" in json.loads(line)]
        assert carrying, "no PC-carrying events in a branchy run"
        target = carrying[0]["pc"]
        # Hex and decimal spellings select the same records.
        assert main(["events", path, "--pc", hex(target),
                     "--limit", "1000"]) == 0
        hex_lines = capsys.readouterr().out.strip().splitlines()
        assert main(["events", path, "--pc", str(target),
                     "--limit", "1000"]) == 0
        dec_lines = capsys.readouterr().out.strip().splitlines()
        assert hex_lines == dec_lines and hex_lines
        for line in hex_lines:
            assert json.loads(line)["pc"] == target

    def test_pc_range_filter(self, tmp_path, capsys):
        import json
        path = str(tmp_path / "run.jsonl")
        assert main(["simulate", "--workload", "qsort", "--scale", "tiny",
                     "--events", path]) == 0
        capsys.readouterr()
        assert main(["events", path, "--pc-range", "0x0:0x1100",
                     "--limit", "1000"]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            record = json.loads(line)
            assert "pc" in record and record["pc"] <= 0x1100
        # Summary mode honours the filter too (no --limit).
        assert main(["events", path, "--pc-range", "0x0:"]) == 0
        assert "events over cycles" in capsys.readouterr().out

    def test_pc_flags_are_mutually_exclusive(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text('{"cycle":0,"event":"e","pc":4096}\n')
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["events", str(path), "--pc", "0x1000",
                  "--pc-range", "0x1000:0x2000"])
        with pytest.raises(SystemExit, match="decimal or 0x-hex"):
            main(["events", str(path), "--pc", "zap"])
        with pytest.raises(SystemExit, match="empty"):
            main(["events", str(path), "--pc-range", "0x2000:0x1000"])

    def test_cycle_window(self, tmp_path, capsys):
        import json
        path = str(tmp_path / "run.jsonl")
        assert main(["simulate", "--workload", "memops", "--scale", "tiny",
                     "--events", path]) == 0
        capsys.readouterr()
        assert main(["events", path, "--cycle-range", "10:20",
                     "--limit", "100"]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            assert 10 <= json.loads(line)["cycle"] <= 20


class TestSimulateTelemetry:
    def test_metrics_interval_human_summary(self, capsys):
        assert main(["simulate", "--workload", "memops", "--scale", "tiny",
                     "--config", "1P", "--metrics-interval", "256"]) == 0
        out = capsys.readouterr().out
        assert "metrics:" in out and "intervals of 256 cycles" in out

    def test_metrics_interval_in_json_report(self, capsys):
        import json
        assert main(["simulate", "--workload", "memops", "--scale", "tiny",
                     "--config", "2P", "--metrics-interval", "128",
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        metrics = report["metrics"]
        assert metrics["interval"] == 128
        assert sum(metrics["cycles"]) == report["cycles"]
        assert sum(metrics["committed"]) == report["instructions"]
        from repro.obs import validate_run_report
        validate_run_report(report)

    def test_metrics_default_off(self, capsys):
        import json
        assert main(["simulate", "--workload", "memops", "--scale", "tiny",
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["metrics"] is None

    def test_pipe_trace_written_and_parses(self, tmp_path, capsys):
        from repro.obs import parse_konata
        path = str(tmp_path / "run.kanata")
        assert main(["simulate", "--workload", "memops", "--scale", "tiny",
                     "--config", "1P", "--pipe-trace", path]) == 0
        out = capsys.readouterr().out
        assert f"-> {path}" in out
        ops = parse_konata(path)
        assert ops and str(len(ops)) in out

    def test_self_profile_custom_path(self, tmp_path, capsys):
        import json
        path = str(tmp_path / "BENCH_p.json")
        assert main(["simulate", "--workload", "memops", "--scale", "tiny",
                     "--self-profile", path]) == 0
        assert "self-profile:" in capsys.readouterr().out
        document = json.loads(open(path).read())
        assert document["schema"] == "repro.selfprofile/2"
        assert document["wall_time_s"] > 0

    def test_self_profile_default_name(self, tmp_path, capsys,
                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--workload", "memops", "--scale", "tiny",
                     "--config", "2P", "--self-profile"]) == 0
        assert (tmp_path / "BENCH_selfprofile_memops_2P.json").exists()

    _QSORT = ["simulate", "--workload", "qsort", "--scale", "small",
              "--config", "2P+SC"]

    def test_self_profile_and_spans_keep_the_fast_loop(self, tmp_path,
                                                       capsys,
                                                       monkeypatch):
        import json

        from repro.core import pipeline
        from repro.obs import compare_documents
        monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
        assert main(self._QSORT + ["--json"]) == 0
        bare = json.loads(capsys.readouterr().out)
        profile = tmp_path / "p.json"
        assert main(self._QSORT + ["--json", "--self-profile",
                                   str(profile), "--spans",
                                   str(tmp_path / "s.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fastpath"] == {"used": True,
                                      "rejected_reason": None}
        assert compare_documents(bare, report)["equal"]
        document = json.loads(profile.read_text())
        assert document["loop"] == "fast" and document["samples"] > 0

    def test_self_profile_names_the_reference_loop(self, tmp_path,
                                                   capsys):
        import json
        profile = tmp_path / "p.json"
        assert main(self._QSORT + ["--validate", "--self-profile",
                                   str(profile)]) == 0
        assert "self-profile: reference loop" in capsys.readouterr().out
        assert json.loads(profile.read_text())["loop"] == "reference"


class TestCompare:
    def test_equal_runs_exit_zero(self, tmp_path, capsys):
        paths = []
        for name in ("a.json", "b.json"):
            assert main(["simulate", "--workload", "synthetic", "--scale",
                         "tiny", "--seed", "4", "--metrics-interval",
                         "256", "--json"]) == 0
            path = tmp_path / name
            path.write_text(capsys.readouterr().out)
            paths.append(str(path))
        assert main(["compare", *paths]) == 0
        assert "identical" in capsys.readouterr().out

    def test_different_runs_exit_one(self, tmp_path, capsys):
        for name, config in (("a.json", "1P"), ("b.json", "2P")):
            assert main(["simulate", "--workload", "memops", "--scale",
                         "tiny", "--config", config, "--json"]) == 0
            (tmp_path / name).write_text(capsys.readouterr().out)
        assert main(["compare", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 1
        out = capsys.readouterr().out
        assert "out-of-tolerance" in out
        assert "config.dcache.ports" in out

    def test_json_delta_report(self, tmp_path, capsys):
        import json
        for name, config in (("a.json", "1P"), ("b.json", "2P")):
            assert main(["simulate", "--workload", "memops", "--scale",
                         "tiny", "--config", config, "--json"]) == 0
            (tmp_path / name).write_text(capsys.readouterr().out)
        assert main(["compare", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json"), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro.compare/1"
        assert report["deltas"]

    def test_tolerance_suppresses_small_deltas(self, tmp_path, capsys):
        import json
        base = {"schema": "repro.run/1", "cycles": 1000}
        (tmp_path / "a.json").write_text(json.dumps(base))
        (tmp_path / "b.json").write_text(
            json.dumps({**base, "cycles": 1001}))
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["compare", a, b]) == 1
        capsys.readouterr()
        assert main(["compare", a, b, "--tolerance", "0.01"]) == 0
        assert "within tolerance" in capsys.readouterr().out

    def test_unreadable_inputs_exit_two(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text("{}")
        assert main(["compare", str(good), str(tmp_path / "nope.json")]) \
            == 2
        assert "cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["compare", str(good), str(bad)]) == 2
        assert "not JSON" in capsys.readouterr().err
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        assert main(["compare", str(good), str(array)]) == 2
        assert "not a JSON object" in capsys.readouterr().err

    def test_negative_tolerance_exits_two(self, tmp_path, capsys):
        path = tmp_path / "r.json"
        path.write_text("{}")
        assert main(["compare", str(path), str(path),
                     "--tolerance", "-1"]) == 2
        assert "negative" in capsys.readouterr().err

    @staticmethod
    def _two_sides(tmp_path, drift=False):
        import json
        side_a = tmp_path / "baseline"
        side_b = tmp_path / "candidate"
        side_a.mkdir()
        side_b.mkdir()
        for name, cycles in (("f2_tiny.json", 100), ("t1_tiny.json", 200)):
            (side_a / name).write_text(json.dumps(
                {"schema": "repro.run/1", "cycles": cycles}))
            (side_b / name).write_text(json.dumps(
                {"schema": "repro.run/1",
                 "cycles": cycles + (1 if drift else 0)}))
        return str(side_a), str(side_b)

    def test_directories_pair_by_basename(self, tmp_path, capsys):
        side_a, side_b = self._two_sides(tmp_path)
        assert main(["compare", side_a, side_b]) == 0
        out = capsys.readouterr().out
        assert out.count("identical") == 2

    def test_directory_drift_exits_one(self, tmp_path, capsys):
        side_a, side_b = self._two_sides(tmp_path, drift=True)
        assert main(["compare", side_a, side_b]) == 1
        assert "cycles" in capsys.readouterr().out

    def test_globs_and_json_set_report(self, tmp_path, capsys):
        import json
        side_a, side_b = self._two_sides(tmp_path, drift=True)
        assert main(["compare", f"{side_a}/*.json",
                     f"{side_b}/*.json", "--json"]) == 1
        reports = json.loads(capsys.readouterr().out)
        assert isinstance(reports, list) and len(reports) == 2
        assert all(not entry["report"]["equal"] for entry in reports)

    def test_unpaired_basenames_are_noted(self, tmp_path, capsys):
        import json
        side_a, side_b = self._two_sides(tmp_path)
        (tmp_path / "baseline" / "only_here.json").write_text(
            json.dumps({"schema": "repro.run/1"}))
        assert main(["compare", side_a, side_b]) == 0
        assert "only_here.json only on the baseline side" in \
            capsys.readouterr().err

    def test_no_common_basenames_exits_two(self, tmp_path, capsys):
        import json
        side_a = tmp_path / "a"
        side_b = tmp_path / "b"
        side_a.mkdir()
        side_b.mkdir()
        (side_a / "x.json").write_text(json.dumps({}))
        (side_a / "x2.json").write_text(json.dumps({}))
        (side_b / "y.json").write_text(json.dumps({}))
        (side_b / "y2.json").write_text(json.dumps({}))
        assert main(["compare", str(side_a), str(side_b)]) == 2
        assert "no manifest basenames" in capsys.readouterr().err

    def test_empty_directory_exits_two(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text("{}")
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["compare", str(good), str(empty)]) == 2
        assert "no *.json manifests" in capsys.readouterr().err


class TestEventsFilters:
    def test_event_filter(self, tmp_path, capsys):
        import json
        path = str(tmp_path / "run.jsonl")
        assert main(["simulate", "--workload", "stream", "--scale", "tiny",
                     "--events", path]) == 0
        capsys.readouterr()
        assert main(["events", path, "--event", "commit",
                     "--limit", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        assert all(json.loads(line)["event"] == "commit"
                   for line in lines)

    def test_cycle_range(self, tmp_path, capsys):
        import json
        path = str(tmp_path / "run.jsonl")
        assert main(["simulate", "--workload", "memops", "--scale", "tiny",
                     "--events", path]) == 0
        capsys.readouterr()
        assert main(["events", path, "--cycle-range", "10:20",
                     "--limit", "100"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        for line in lines:
            assert 10 <= json.loads(line)["cycle"] <= 20

    def test_cycle_range_open_ended(self, tmp_path, capsys):
        import json
        path = str(tmp_path / "run.jsonl")
        assert main(["simulate", "--workload", "memops", "--scale", "tiny",
                     "--events", path]) == 0
        capsys.readouterr()
        assert main(["events", path, "--cycle-range", "50:",
                     "--limit", "10"]) == 0
        for line in capsys.readouterr().out.strip().splitlines():
            assert json.loads(line)["cycle"] >= 50

    def test_cycle_range_malformed(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text("")
        with pytest.raises(SystemExit, match="FIRST:LAST"):
            main(["events", str(path), "--cycle-range", "123"])
        with pytest.raises(SystemExit, match="integer"):
            main(["events", str(path), "--cycle-range", "a:b"])
        with pytest.raises(SystemExit, match="empty"):
            main(["events", str(path), "--cycle-range", "20:10"])


class TestExperiment:
    def test_single_experiment(self, capsys):
        assert main(["experiment", "A3", "--scale", "tiny"]) == 0
        assert "locality" in capsys.readouterr().out

    def test_lowercase_id_accepted(self, capsys):
        assert main(["experiment", "a3", "--scale", "tiny"]) == 0
        assert "locality" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "Z9"])

    def test_parallel_matches_serial(self, capsys):
        assert main(["experiment", "A3", "--scale", "tiny",
                     "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["experiment", "A3", "--scale", "tiny",
                     "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial


class TestTraceSeed:
    def test_synthetic_trace_seed_changes_stream(self, tmp_path, capsys):
        from repro.trace import load_trace
        paths = []
        for seed in ("1", "2"):
            path = str(tmp_path / f"s{seed}.npz")
            assert main(["trace", "synthetic", path, "--scale", "tiny",
                         "--seed", seed]) == 0
            paths.append(path)
        assert "seed 1" in capsys.readouterr().out.splitlines()[0]
        first, second = (load_trace(p) for p in paths)
        assert len(first) == len(second)
        assert any(a.mem_addr != b.mem_addr
                   for a, b in zip(first, second))

    def test_seed_rejected_for_assembly_trace(self, tmp_path):
        with pytest.raises(SystemExit, match="synthetic"):
            main(["trace", "memops", str(tmp_path / "t.npz"),
                  "--scale", "tiny", "--seed", "3"])


class TestExperimentJson:
    def test_stdout_manifest_validates(self, capsys):
        import json

        from repro.obs import validate_experiment_manifest
        assert main(["experiment", "A3", "--scale", "tiny", "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        validate_experiment_manifest(manifest)
        assert manifest["experiment"] == "A3"
        assert manifest["runs"], "run reports were not captured"
        assert manifest["runs"][0]["host"]["wall_time_s"] > 0

    def test_written_manifest(self, tmp_path, capsys):
        import json
        out = str(tmp_path / "results")
        assert main(["experiment", "A3", "--scale", "tiny", "--json",
                     "--output", out]) == 0
        manifest = json.loads(
            (tmp_path / "results" / "a3_tiny.json").read_text())
        assert manifest["schema"].startswith("repro.experiment/")

    def test_metrics_interval_reaches_every_run(self, capsys):
        import json
        assert main(["experiment", "A3", "--scale", "tiny", "--json",
                     "--metrics-interval", "512"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["runs"]
        for run in manifest["runs"]:
            assert run["metrics"]["interval"] == 512
            assert sum(run["metrics"]["cycles"]) == run["cycles"]
        from repro.obs import validate_experiment_manifest
        validate_experiment_manifest(manifest)

    def test_all_shares_one_pass(self, tmp_path, monkeypatch, capsys):
        # A two-experiment evaluation: T1's ten cells on 2P and D1's
        # sixteen share the four memory-intensive 2P cells.
        import json

        from repro import experiments
        from repro.obs import validate_experiment_manifest
        monkeypatch.setattr(experiments, "ALL_EXPERIMENTS", {
            "T1": experiments.t1_characteristics,
            "D1": experiments.d1_load_latency})
        out = tmp_path / "results"
        assert main(["experiment", "all", "--scale", "tiny", "--json",
                     "--output", str(out)]) == 0
        for exp_id, runs in (("t1", 10), ("d1", 16)):
            manifest = json.loads((out / f"{exp_id}_tiny.json").read_text())
            validate_experiment_manifest(manifest)
            assert len(manifest["runs"]) == runs
            assert manifest["engine"]["summary"]["jobs"] == \
                {"total": 26, "simulated": 22, "ok": 26, "failed": 0}

    def test_manifest_records_engine_settings(self, tmp_path, capsys):
        import json

        from repro.workloads import set_trace_cache_dir, trace_cache_dir
        cache = str(tmp_path / "cache")
        previous = trace_cache_dir()
        try:
            assert main(["experiment", "A3", "--scale", "tiny", "--json",
                         "--jobs", "2", "--trace-cache", cache]) == 0
        finally:
            set_trace_cache_dir(previous if previous is not None else "off")
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["engine"]["jobs"] == 2
        assert manifest["engine"]["trace_cache"]["dir"] == cache
        from repro.obs import validate_experiment_manifest
        validate_experiment_manifest(manifest)


class TestExperimentOutput:
    def test_writes_text_file(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["experiment", "A3", "--scale", "tiny",
                     "--output", out]) == 0
        written = (tmp_path / "results" / "a3_tiny.txt").read_text()
        assert "locality" in written

    def test_writes_csv(self, tmp_path, capsys):
        out = str(tmp_path / "results")
        assert main(["experiment", "A3", "--scale", "tiny",
                     "--output", out, "--csv"]) == 0
        written = (tmp_path / "results" / "a3_tiny.csv").read_text()
        assert written.splitlines()[0].startswith("locality,")


class TestSimulateValidate:
    def test_clean_run_reports_ok(self, capsys):
        assert main(["simulate", "--workload", "qsort", "--scale", "tiny",
                     "--validate"]) == 0
        assert "all invariants hold" in capsys.readouterr().out

    def test_json_report_carries_empty_violations(self, capsys):
        import json
        assert main(["simulate", "--workload", "stream", "--scale", "tiny",
                     "--validate", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["validation"] == {"violations": []}
        from repro.obs import validate_run_report
        validate_run_report(report)

    def test_violations_flip_exit_status(self, monkeypatch, capsys):
        from repro.core.lsq import LoadStoreQueue
        monkeypatch.setattr(LoadStoreQueue, "add_load",
                            lambda self, uop: self.loads.insert(0, uop))
        assert main(["simulate", "--workload", "qsort", "--scale", "tiny",
                     "--validate"]) == 1
        assert "lsq.load_order" in capsys.readouterr().out


class TestFuzz:
    def test_clean_campaign(self, capsys):
        assert main(["fuzz", "--seed", "1", "--count", "3",
                     "--config", "1P"]) == 0
        assert "3 programs" in capsys.readouterr().out

    def test_verbose_progress(self, capsys):
        assert main(["fuzz", "--seed", "1", "--count", "1",
                     "--config", "1P", "--verbose"]) == 0
        assert "seed 1: ok" in capsys.readouterr().out

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration"):
            main(["fuzz", "--count", "1", "--config", "bogus"])

    def test_failure_writes_artifact_and_replays(self, monkeypatch,
                                                 tmp_path, capsys):
        from repro.core.lsq import LoadStoreQueue
        artifacts = str(tmp_path / "artifacts")
        monkeypatch.setattr(LoadStoreQueue, "add_load",
                            lambda self, uop: self.loads.insert(0, uop))
        assert main(["fuzz", "--seed", "1", "--count", "1",
                     "--config", "1P", "--artifacts", artifacts]) == 1
        out = capsys.readouterr().out
        assert "seed 1" in out and "shrunk" in out
        artifact = str(tmp_path / "artifacts" / "seed1.repro")
        # Bug still present: the reproducer still fails.
        assert main(["fuzz", "--replay", artifact]) == 1
        monkeypatch.undo()
        # Bug fixed: the reproducer passes.
        assert main(["fuzz", "--replay", artifact]) == 0
        out = capsys.readouterr().out
        assert "passes" in out

    def test_replay_rejects_non_artifact(self, tmp_path, capsys):
        import json
        from pathlib import Path
        bogus = tmp_path / "x.repro"
        bogus.write_text("{}", encoding="utf-8")
        assert main(["fuzz", "--replay", str(bogus)]) == 2
        assert "error" in capsys.readouterr().err
        # Malformed artifacts are bad input (2), never "still failing" (1).
        corpus = Path(__file__).parent / "corpus" / "seed101.repro"
        good = json.loads(corpus.read_text(encoding="utf-8"))
        for payload in ({"schema": "repro.fuzz/1"},
                        dict(good, configs="1P"), dict(good, source=5),
                        dict(good, configs=["1P", "9P"])):
            bogus.write_text(json.dumps(payload), encoding="utf-8")
            assert main(["fuzz", "--replay", str(bogus)]) == 2
            assert str(bogus) in capsys.readouterr().err


class TestSpansAndProgress:
    def test_simulate_spans_writes_loadable_capture(self, tmp_path,
                                                    capsys):
        import json

        from repro.obs.spans import parse_chrome_trace
        path = tmp_path / "spans.json"
        assert main(["simulate", "--workload", "stream", "--scale",
                     "tiny", "--config", "1P",
                     "--spans", str(path)]) == 0
        out = capsys.readouterr().out
        assert "spans:" in out and "perfetto" in out
        tracks = parse_chrome_trace(json.loads(path.read_text()))
        names = {span.name for roots in tracks.values()
                 for root in roots for span in root.walk()}
        assert "core.run" in names

    def test_experiment_spans_merge_fleet_timeline(self, tmp_path,
                                                   capsys):
        import json

        from repro.obs.spans import count_spans, parse_chrome_trace
        path = tmp_path / "fleet.json"
        assert main(["experiment", "F2", "--scale", "tiny",
                     "--jobs", "2", "--spans", str(path)]) == 0
        assert "spans:" in capsys.readouterr().err
        document = json.loads(path.read_text())
        tracks = parse_chrome_trace(document)
        assert len(tracks) >= 2  # the parent plus worker tracks
        per_track_total = sum(
            1 for event in document["traceEvents"]
            if event.get("ph") == "B")
        assert count_spans(document["traceEvents"]) == per_track_total

    def test_experiment_progress_reports_fleet(self, capsys):
        assert main(["experiment", "F2", "--scale", "tiny",
                     "--jobs", "2", "--progress"]) == 0
        err = capsys.readouterr().err
        assert "cells" in err and "/" in err

    def test_manifest_embeds_engine_summary(self, capsys):
        import json

        from repro.obs import validate_experiment_manifest
        assert main(["experiment", "F2", "--scale", "tiny",
                     "--jobs", "2", "--json"]) == 0
        manifest = json.loads(capsys.readouterr().out)
        validate_experiment_manifest(manifest)
        summary = manifest["engine"]["summary"]
        assert summary["jobs"]["failed"] == 0
        assert summary["jobs"]["total"] == len(manifest["runs"])
        assert summary["workers"]


class TestCorpus:
    def test_list_catalogue(self, capsys):
        assert main(["corpus", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("proctree", "iostorm", "syspipe", "copystorm",
                     "locality"):
            assert name in out
        assert "contract" in out

    def test_run_checks_contracts(self, capsys):
        assert main(["corpus", "run", "syspipe", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "syspipe" in out
        assert "all contracts satisfied" in out

    def test_verify_single_scenario_writes_table(self, tmp_path, capsys):
        import json
        out_path = tmp_path / "corpus.json"
        assert main(["corpus", "verify", "copystorm", "--scale", "tiny",
                     "--config", "1P", "-o", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["schema"] == "repro.corpus/1"
        assert document["ok"] is True
        rows = document["table"]["rows"]
        assert [row[3] for row in rows] == \
            ["contract", "golden", "invariants", "fastpath"]
        table_text = capsys.readouterr().out
        assert "pass" in table_text and "FAIL" not in table_text

    def test_unknown_scenario_rejected(self):
        with pytest.raises(SystemExit, match="nonesuch"):
            main(["corpus", "run", "nonesuch"])

    def test_simulate_accepts_scenario_with_seed(self, capsys):
        assert main(["simulate", "--workload", "iostorm",
                     "--scale", "tiny", "--seed", "7",
                     "--config", "1P"]) == 0
        out = capsys.readouterr().out
        assert "cycles" in out

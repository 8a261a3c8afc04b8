"""Tests for the persistent results ledger and the watchdog."""

import copy
import json
import os
import shutil
import sqlite3

import pytest

from repro.cli import main
from repro.core import simulate
from repro.obs import build_run_report
from repro.obs.ledger import (LEDGER_DB_VERSION, Ledger, LedgerError,
                              config_digest_of, detect_kind,
                              manifest_digest, resolve_ledger_path,
                              trace_digest_of)
from repro.obs.watch import exit_code, render_watch, watch_document
from repro.presets import machine
from repro.workloads import build_trace

BASELINE_CI = os.path.join(os.path.dirname(__file__), os.pardir,
                           "benchmarks", "baseline_ci.json")
SEED_JSONL = os.path.join(os.path.dirname(__file__), os.pardir,
                          "benchmarks", "ledger_seed.jsonl")
COMMITTED_LEDGER = os.path.join(os.path.dirname(__file__), os.pardir,
                                "benchmarks", "ledger.sqlite")


def _table_rows(path):
    """Every table's rows (ids included) in rowid order."""
    conn = sqlite3.connect(path)
    try:
        names = [row[0] for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "ORDER BY name")]
        return {name: conn.execute(
            f"SELECT * FROM {name} ORDER BY rowid").fetchall()
            for name in names}
    finally:
        conn.close()


@pytest.fixture(scope="module")
def run_reports():
    """Two real tiny run reports (1P and 2P) for ingestion tests."""
    trace = build_trace("stream", "tiny")
    reports = []
    for name in ("1P", "2P"):
        config = machine(name)
        result = simulate(trace, config, metrics_interval=512)
        reports.append(build_run_report(result, config,
                                        workload="stream", scale="tiny",
                                        wall_time=0.25))
    return reports


@pytest.fixture(scope="module")
def bench_manifest():
    with open(BASELINE_CI, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def critpath_manifest():
    """A real tiny critpath manifest for ingestion tests."""
    from repro.obs.critpath import (CritPathRecorder,
                                    build_critpath_report)
    from repro.core import OoOCore
    trace = build_trace("stream", "tiny")
    config = machine("1P")
    recorder = CritPathRecorder(whatif=["dcache_port"])
    result = OoOCore(config, critpath=recorder).run(trace)
    return build_critpath_report(recorder, result, config,
                                 workload="stream", scale="tiny",
                                 wall_time=0.1)


@pytest.fixture(scope="module")
def hotspots_manifest():
    """A real tiny hotspots manifest for ingestion tests."""
    from repro.obs.hotspots import HotspotRecorder, build_hotspots_report
    from repro.core import OoOCore
    trace = build_trace("qsort", "tiny")
    config = machine("2P")
    recorder = HotspotRecorder()
    result = OoOCore(config, hotspots=recorder).run(trace)
    return build_hotspots_report(recorder, result, config,
                                 workload="qsort", scale="tiny",
                                 wall_time=0.1)


class TestDigests:
    def test_trace_digest_covers_identity(self):
        a = trace_digest_of("stream", "tiny", None, None)
        assert a == trace_digest_of("stream", "tiny", None, None)
        assert a != trace_digest_of("stream", "small", None, None)
        assert a != trace_digest_of("stream", "tiny", 7, None)
        assert a != trace_digest_of(None, None, None, "t.npz")

    def test_config_digest_hashes_recorded_block(self):
        a = config_digest_of({"name": "1P", "issue_width": 4})
        assert a != config_digest_of({"name": "1P", "issue_width": 8})
        assert a == config_digest_of({"issue_width": 4, "name": "1P"})

    def test_detect_kind(self, bench_manifest):
        assert detect_kind(bench_manifest) == "bench"
        assert detect_kind({"schema": "repro.run/1"}) == "run"
        with pytest.raises(LedgerError):
            detect_kind({"schema": "repro.nope/9"})

    def test_manifest_digest_is_canonical(self):
        assert manifest_digest({"a": 1, "b": 2}) == \
            manifest_digest({"b": 2, "a": 1})


class TestIngest:
    def test_ingest_and_idempotency(self, tmp_path, run_reports):
        with Ledger(tmp_path / "led.sqlite") as ledger:
            assert ledger.ingest(run_reports[0]) is True
            before = ledger.counts()
            assert ledger.ingest(run_reports[0]) is False
            assert ledger.counts() == before
            assert before["manifests"] == 1
            assert before["runs"] == 1

    def test_run_columns(self, tmp_path, run_reports):
        with Ledger(tmp_path / "led.sqlite") as ledger:
            ledger.ingest(run_reports[0])
            keys = ledger.run_keys()
            assert len(keys) == 1
            key = keys[0]
            assert key["workload"] == "stream"
            assert key["scale"] == "tiny"
            assert key["config_name"] == "1P"
            latest = ledger.latest_run(key["trace_digest"],
                                       key["config_digest"])
            assert latest["has_metrics"] == 1
            document = ledger.run_document(latest["manifest_digest"],
                                           latest["run_index"])
            assert document == run_reports[0]

    def test_distinct_configs_distinct_keys(self, tmp_path, run_reports):
        with Ledger(tmp_path / "led.sqlite") as ledger:
            for report in run_reports:
                ledger.ingest(report)
            assert len(ledger.run_keys()) == 2

    def test_bench_ingest(self, tmp_path, bench_manifest):
        with Ledger(tmp_path / "led.sqlite") as ledger:
            assert ledger.ingest(bench_manifest,
                                 code_version="seeded") is True
            counts = ledger.counts()
            assert counts["bench_cells"] == len(bench_manifest["results"])
            assert ledger.code_versions() == ["seeded"]
            history = ledger.bench_history("stream@tiny/1P")
            assert len(history) == 1
            assert history[0]["code_version"] == "seeded"
            assert "stream@tiny/1P" in ledger.bench_labels()
            assert "stream@tiny/1P" in ledger.kips_trend()

    def test_document_round_trip(self, tmp_path, bench_manifest):
        with Ledger(tmp_path / "led.sqlite") as ledger:
            ledger.ingest(bench_manifest)
            digest = manifest_digest(bench_manifest)
            assert ledger.document(digest) == bench_manifest

    def test_pre_version_bench_manifest_ingests_unknown(
            self, tmp_path, bench_manifest):
        # Pre-PR6 manifests carry no code_version stamp; they ingest
        # under "unknown" rather than being rejected.
        vintage = copy.deepcopy(bench_manifest)
        vintage.pop("code_version", None)
        with Ledger(tmp_path / "led.sqlite") as ledger:
            assert ledger.ingest(vintage) is True
            assert ledger.code_versions() == ["unknown"]
            history = ledger.bench_history("stream@tiny/1P")
            assert history[0]["code_version"] == "unknown"

    def test_pre_metrics_run_report_ingests(self, tmp_path,
                                            run_reports):
        # Pre-PR3 run reports have no metrics block and may lack
        # ipc/host/code_version; derivable columns are derived, the
        # rest are NULL-stamped.
        vintage = copy.deepcopy(run_reports[0])
        for key in ("metrics", "ipc", "host", "code_version"):
            vintage.pop(key, None)
        with Ledger(tmp_path / "led.sqlite") as ledger:
            assert ledger.ingest(vintage) is True
            key = ledger.run_keys()[0]
            latest = ledger.latest_run(key["trace_digest"],
                                       key["config_digest"])
            assert latest["has_metrics"] == 0
            assert latest["sim_ips"] is None
            assert latest["code_version"] == "unknown"
            expected_ipc = (run_reports[0]["instructions"]
                            / run_reports[0]["cycles"])
            assert latest["ipc"] == pytest.approx(expected_ipc)

    def test_run_report_without_counts_rejected(self, tmp_path,
                                                run_reports):
        broken = copy.deepcopy(run_reports[0])
        del broken["cycles"]
        with Ledger(tmp_path / "led.sqlite") as ledger:
            with pytest.raises(LedgerError):
                ledger.ingest(broken)
            assert ledger.counts()["manifests"] == 0
            assert ledger.document("no-such-digest") is None

    def test_document_stamp_wins_over_override(self, tmp_path,
                                               run_reports):
        # The override is only for documents that predate stamping.
        with Ledger(tmp_path / "led.sqlite") as ledger:
            ledger.ingest(run_reports[0], code_version="override")
            assert ledger.code_versions() == \
                [run_reports[0]["code_version"]]

    def test_unknown_schema_rejected(self, tmp_path):
        with Ledger(tmp_path / "led.sqlite") as ledger:
            with pytest.raises(LedgerError):
                ledger.ingest({"schema": "something/else"})

    def test_critpath_ingest(self, tmp_path, critpath_manifest):
        from repro.obs.critpath import EDGE_CLASSES
        assert detect_kind(critpath_manifest) == "critpath"
        with Ledger(tmp_path / "led.sqlite") as ledger:
            assert ledger.ingest(critpath_manifest) is True
            counts = ledger.counts()
            assert counts["critpaths"] == 1
            assert counts["critpath_stack"] == len(EDGE_CLASSES)
            assert counts["manifests.critpath"] == 1
            assert ledger.ingest(critpath_manifest) is False

    def test_critpath_queries(self, tmp_path, critpath_manifest):
        with Ledger(tmp_path / "led.sqlite") as ledger:
            ledger.ingest(critpath_manifest)
            keys = ledger.critpath_keys()
            assert len(keys) == 1
            key = keys[0]
            assert key["workload"] == "stream"
            assert key["scale"] == "tiny"
            assert key["config_name"] == "1P"
            assert key["entries"] == 1
            latest = ledger.latest_critpath(key["trace_digest"],
                                            key["config_digest"])
            assert latest["cycles"] == critpath_manifest["cycles"]
            stack = latest["stack"]
            assert sum(entry["cycles"] for entry in stack.values()) \
                == critpath_manifest["cycles"]
            assert abs(sum(entry["share"]
                           for entry in stack.values()) - 1.0) < 1e-9
            assert ledger.latest_critpath("nope", "nope") is None

    def test_critpath_without_stack_rejected(self, tmp_path,
                                             critpath_manifest):
        broken = copy.deepcopy(critpath_manifest)
        del broken["stack"]
        with Ledger(tmp_path / "led.sqlite") as ledger:
            with pytest.raises(LedgerError):
                ledger.ingest(broken)
            assert ledger.counts()["critpaths"] == 0


class TestHotspotsLedger:
    def test_hotspots_ingest(self, tmp_path, hotspots_manifest):
        assert detect_kind(hotspots_manifest) == "hotspots"
        with Ledger(tmp_path / "led.sqlite") as ledger:
            assert ledger.ingest(hotspots_manifest) is True
            counts = ledger.counts()
            assert counts["hotspots"] == 1
            assert counts["manifests.hotspots"] == 1
            assert 0 < counts["hotspot_rows"] <= Ledger._HOTSPOT_ROW_LIMIT
            assert ledger.ingest(hotspots_manifest) is False

    def test_hotspots_queries(self, tmp_path, hotspots_manifest):
        with Ledger(tmp_path / "led.sqlite") as ledger:
            ledger.ingest(hotspots_manifest)
            keys = ledger.hotspot_keys()
            assert len(keys) == 1
            key = keys[0]
            assert key["workload"] == "qsort"
            assert key["config_name"] == "2P"
            latest = ledger.latest_hotspots(key["trace_digest"],
                                            key["config_digest"])
            assert latest["cycles"] == hotspots_manifest["cycles"]
            assert latest["static_pcs"] == len(hotspots_manifest["rows"])
            split = hotspots_manifest["split"]
            assert latest["kernel_instructions"] \
                == split["kernel"]["executions"]
            assert latest["user_instructions"] \
                == split["user"]["executions"]
            rows = latest["rows"]
            assert rows and rows[0]["rank"] == 0
            # Rows persist in manifest (port-conflict) rank order.
            assert rows[0]["pc"] == hotspots_manifest["rows"][0]["pc"]
            assert ledger.latest_hotspots("nope", "nope") is None

    def test_hotspots_without_rows_rejected(self, tmp_path,
                                            hotspots_manifest):
        broken = copy.deepcopy(hotspots_manifest)
        del broken["rows"]
        with Ledger(tmp_path / "led.sqlite") as ledger:
            with pytest.raises(LedgerError):
                ledger.ingest(broken)
            assert ledger.counts()["hotspots"] == 0


class TestMigration:
    @staticmethod
    def _set_version(path, version):
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = ? WHERE "
                     "key = 'ledger_schema_version'", (str(version),))
        conn.commit()
        conn.close()

    @classmethod
    def _build_v1(cls, path):
        # A v1 store is today's layout without what v2-v4 added.
        Ledger(path).close()
        conn = sqlite3.connect(path)
        for table in ("critpath_stack", "critpaths", "hotspot_rows",
                      "hotspots"):
            conn.execute(f"DROP TABLE {table}")
        conn.execute("ALTER TABLE manifests DROP COLUMN source")
        conn.commit()
        conn.close()
        cls._set_version(path, 1)

    def test_fresh_db_is_current(self, tmp_path):
        with Ledger(tmp_path / "led.sqlite") as ledger:
            assert ledger.db_version == LEDGER_DB_VERSION

    def test_empty_v1_migrates(self, tmp_path):
        path = tmp_path / "old.sqlite"
        self._build_v1(path)
        with Ledger(path) as ledger:
            assert ledger.db_version == LEDGER_DB_VERSION
            columns = [row[1] for row in ledger._conn.execute(
                "PRAGMA table_info(manifests)")]
            assert "source" in columns

    def test_v1_with_rows_migrates_and_keeps_them(self, tmp_path,
                                                  bench_manifest):
        path = tmp_path / "old.sqlite"
        self._build_v1(path)
        conn = sqlite3.connect(path)
        conn.execute(
            "INSERT INTO manifests (digest, kind, schema, code_version, "
            "ingested_at, document) VALUES (?, 'bench', 'repro.bench/1', "
            "'old', '2026-01-01T00:00:00+00:00', ?)",
            (manifest_digest(bench_manifest),
             json.dumps(bench_manifest, sort_keys=True,
                        separators=(",", ":"))))
        conn.commit()
        conn.close()
        with Ledger(path) as ledger:
            assert ledger.db_version == LEDGER_DB_VERSION
            assert ledger.counts()["manifests"] == 1
            # the v1 row reads back after the rebuild
            assert ledger.document(manifest_digest(bench_manifest)) \
                == bench_manifest
            # and the rebuilt store still ingests idempotently
            assert ledger.ingest(bench_manifest) is False

    def test_v1_chain_migration_gains_critpath_tables(
            self, tmp_path, critpath_manifest):
        # A v1 store rebuilds in one open; the v3 tables must exist
        # and accept a real critpath manifest afterwards.
        path = tmp_path / "old.sqlite"
        self._build_v1(path)
        with Ledger(path) as ledger:
            assert ledger.db_version == LEDGER_DB_VERSION
            tables = [row[1] for row in ledger._conn.execute(
                "PRAGMA table_info(critpaths)")]
            assert {"trace_digest", "config_digest",
                    "cycles"} <= set(tables)
            assert ledger.ingest(critpath_manifest) is True
            assert ledger.counts()["critpaths"] == 1

    def test_v1_chain_migration_gains_hotspot_tables(
            self, tmp_path, hotspots_manifest):
        # A v1 store rebuilds in one open; the v4 tables must exist
        # and accept a real hotspots manifest afterwards.
        path = tmp_path / "old.sqlite"
        self._build_v1(path)
        with Ledger(path) as ledger:
            assert ledger.db_version == LEDGER_DB_VERSION
            columns = [row[1] for row in ledger._conn.execute(
                "PRAGMA table_info(hotspot_rows)")]
            assert {"pc", "rank", "port_conflict_slots"} <= set(columns)
            assert ledger.ingest(hotspots_manifest) is True
            assert ledger.counts()["hotspots"] == 1

    def test_committed_ledger_migrates_in_place(self, tmp_path,
                                                hotspots_manifest):
        # The repo's seeded ledger (v2) must open without disturbing
        # existing rows.
        seed = os.path.join(os.path.dirname(__file__), os.pardir,
                            "benchmarks", "ledger.sqlite")
        path = tmp_path / "seeded.sqlite"
        shutil.copyfile(seed, path)
        before_conn = sqlite3.connect(seed)
        before = {
            "manifests": before_conn.execute(
                "SELECT digest, kind FROM manifests ORDER BY digest"
            ).fetchall(),
            "runs": before_conn.execute(
                "SELECT COUNT(*) FROM runs").fetchone(),
        }
        before_conn.close()
        with Ledger(path) as ledger:
            assert ledger.db_version == LEDGER_DB_VERSION
            after = ledger._conn.execute(
                "SELECT digest, kind FROM manifests ORDER BY digest"
            ).fetchall()
            assert [tuple(row) for row in after] == before["manifests"]
            assert ledger._conn.execute(
                "SELECT COUNT(*) FROM runs").fetchone()[0] \
                == before["runs"][0]
            assert ledger.ingest(hotspots_manifest) is True

    def test_committed_v2_ledger_rebuilds_as_a_fresh_ingest(self,
                                                             tmp_path):
        # Opening the committed v2 store re-derives every table from
        # its stored documents: row for row, ids included, it must
        # equal a fresh store fed the same documents and metadata, and
        # keep every row the v2 store had derived.
        path = tmp_path / "v2.sqlite"
        shutil.copyfile(COMMITTED_LEDGER, path)
        before = _table_rows(path)
        assert before["meta"] == [("ledger_schema_version", "2")]
        Ledger(path).close()
        rebuilt = _table_rows(path)
        fresh = tmp_path / "fresh.sqlite"
        with Ledger(fresh) as ledger:
            for (_, _, _, _, version, stamp, document,
                 source) in before["manifests"]:
                ledger.ingest(json.loads(document), source=source,
                              code_version=version, ingested_at=stamp)
        assert rebuilt == _table_rows(fresh)
        for table, rows in before.items():
            if table != "meta":
                assert rebuilt[table] == rows, table

    def test_unrebuildable_store_raises_and_is_left_untouched(
            self, tmp_path, run_reports):
        path = tmp_path / "old.sqlite"
        self._build_v1(path)
        broken = copy.deepcopy(run_reports[0])
        del broken["cycles"]
        digest = manifest_digest(broken)
        conn = sqlite3.connect(path)
        conn.execute(
            "INSERT INTO manifests (digest, kind, schema, code_version, "
            "ingested_at, document) VALUES (?, 'run', 'repro.run/1', "
            "'old', '2026-01-01T00:00:00+00:00', ?)",
            (digest, json.dumps(broken, sort_keys=True,
                                separators=(",", ":"))))
        conn.commit()
        conn.close()
        image = path.read_bytes()
        with pytest.raises(LedgerError) as excinfo:
            Ledger(path)
        message = str(excinfo.value)
        assert str(path) in message and digest in message
        assert "cycles/instructions" in message
        assert path.read_bytes() == image

    def test_newer_db_rejected(self, tmp_path):
        path = tmp_path / "future.sqlite"
        Ledger(path).close()
        self._set_version(path, 99)
        with pytest.raises(LedgerError):
            Ledger(path)


def _open_and_ingest(path, barrier, report):
    # Module-level so it pickles for spawn-based multiprocessing.
    barrier.wait()
    with Ledger(path) as ledger:
        ledger.ingest(report)
        return ledger.db_version


class TestConcurrentIngest:
    def test_racing_openers_initialize_once(self, tmp_path,
                                            run_reports):
        # Regression: schema creation used executescript, which
        # autocommits per statement — a racing opener could observe
        # meta without its version row and die with "no schema
        # version".  Initialization must be one serialized txn.
        import concurrent.futures
        import multiprocessing
        context = multiprocessing.get_context("spawn")
        workers = 4
        barrier = context.Manager().Barrier(workers)
        path = str(tmp_path / "raced.sqlite")
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=context) as pool:
            futures = [pool.submit(_open_and_ingest, path, barrier,
                                   run_reports[index % 2])
                       for index in range(workers)]
            versions = [f.result(timeout=120) for f in futures]
        assert versions == [LEDGER_DB_VERSION] * workers
        with Ledger(path) as ledger:
            assert ledger.counts()["manifests.run"] == 2

    def test_two_engine_workers_ingest(self, tmp_path):
        from repro.experiments.engine import Engine, SimJob, TraceSpec
        path = tmp_path / "led.sqlite"
        jobs = [SimJob((workload, name), TraceSpec.workload(workload,
                                                            "tiny"),
                       machine(name))
                for workload in ("stream", "qsort")
                for name in ("1P", "2P")]
        engine = Engine(jobs=2, ledger=path)
        results = engine.execute(jobs)
        assert len(results) == 4
        with Ledger(path) as ledger:
            counts = ledger.counts()
            assert counts["manifests.run"] == 4
            assert counts["runs"] == 4
            assert len(ledger.run_keys()) == 4
            for key in ledger.run_keys():
                assert key["workload"] in ("stream", "qsort")


class TestExportImport:
    def test_round_trip(self, tmp_path, run_reports, bench_manifest):
        first = tmp_path / "a.sqlite"
        out = tmp_path / "export.jsonl"
        with Ledger(first) as ledger:
            for report in run_reports:
                ledger.ingest(report)
            ledger.ingest(bench_manifest, code_version="seeded")
            assert ledger.export_jsonl(out) == 3
            reference = ledger.counts()
        with Ledger(tmp_path / "b.sqlite") as restored:
            assert restored.import_jsonl(out) == (3, 0)
            assert restored.counts() == reference
            assert restored.code_versions()[-1] == "seeded"
            # importing again is a no-op
            assert restored.import_jsonl(out) == (0, 3)

    def test_committed_seed_imports(self, tmp_path):
        with Ledger(tmp_path / "seed.sqlite") as ledger:
            added, skipped = ledger.import_jsonl(SEED_JSONL)
            assert added >= 4 and skipped == 0
            assert len(ledger.code_versions()) >= 2
            assert ledger.kips_trend()


def _kips_variant(manifest, factor):
    """A distinct-digest copy of *manifest* whose host-side rates are
    scaled by *factor* (simulated counts untouched)."""
    variant = copy.deepcopy(manifest)
    for cell in variant["results"]:
        cell["kips"]["median"] *= factor
    return variant


class TestWatch:
    @staticmethod
    def _seeded(tmp_path, documents, **kwargs):
        ledger = Ledger(tmp_path / "led.sqlite")
        for document in documents:
            ledger.ingest(document, **kwargs)
        return ledger

    def test_candidate_not_gated_against_itself(self, tmp_path,
                                                bench_manifest):
        ledger = self._seeded(tmp_path, [bench_manifest])
        report = watch_document(ledger, bench_manifest)
        assert report["ok"] is True
        assert report["new"] == len(bench_manifest["results"])
        assert exit_code(report) == 0

    def test_throughput_regression(self, tmp_path, bench_manifest):
        # Two history entries arm the throughput gate (MIN_HISTORY).
        ledger = self._seeded(
            tmp_path,
            [bench_manifest, _kips_variant(bench_manifest, 1.02)])
        candidate = _kips_variant(bench_manifest, 0.5)
        report = watch_document(ledger, candidate)
        assert report["determinism_ok"] is True
        assert report["throughput_ok"] is False
        assert exit_code(report) == 1
        assert "REGRESSION" in render_watch(report, "candidate")

    def test_single_entry_history_does_not_gate(self, tmp_path,
                                                bench_manifest):
        # One historical sample is not a baseline: the median of one
        # noisy run must not fail fresh work.  The check still reports
        # the ratio but degrades to an explicit note.
        ledger = self._seeded(tmp_path, [bench_manifest])
        candidate = _kips_variant(bench_manifest, 0.5)
        report = watch_document(ledger, candidate)
        assert report["ok"] is True
        assert exit_code(report) == 0
        for check in report["checks"]:
            assert check["status"] == "ok"
            assert "insufficient history" in check["note"]
            assert check["ratio"] == pytest.approx(0.5)
        assert "insufficient history" in render_watch(report, "cand")

    def test_determinism_gates_even_with_single_entry(self, tmp_path,
                                                      bench_manifest):
        # Simulated counts are exact, not noisy — one entry suffices.
        ledger = self._seeded(tmp_path, [bench_manifest])
        candidate = copy.deepcopy(bench_manifest)
        candidate["results"][0]["cycles"] += 1
        report = watch_document(ledger, candidate)
        assert report["determinism_ok"] is False
        assert exit_code(report) == 2

    def test_even_length_median(self):
        from repro.obs.watch import _median
        assert _median([4.0, 1.0, 3.0, 2.0]) == 2.5
        assert _median([3.0, 1.0, 2.0]) == 2.0
        assert _median([5.0]) == 5.0

    def test_determinism_break_beats_regression(self, tmp_path,
                                                bench_manifest):
        ledger = self._seeded(tmp_path, [bench_manifest])
        candidate = copy.deepcopy(bench_manifest)
        candidate["results"][0]["cycles"] += 1
        for cell in candidate["results"]:
            cell["kips"]["median"] *= 0.5
        report = watch_document(ledger, candidate)
        assert report["determinism_ok"] is False
        assert exit_code(report) == 2
        assert "DETERMINISM BREAK" in render_watch(report, "candidate")

    def test_within_tolerance_ok(self, tmp_path, bench_manifest):
        ledger = self._seeded(tmp_path, [bench_manifest])
        candidate = copy.deepcopy(bench_manifest)
        for cell in candidate["results"]:
            cell["kips"]["median"] *= 0.95
        report = watch_document(ledger, candidate, tolerance=0.1)
        assert report["ok"] is True
        assert exit_code(report) == 0

    def test_run_report_watch(self, tmp_path, run_reports):
        second = copy.deepcopy(run_reports[0])
        second["host"]["sim_ips"] = \
            run_reports[0]["host"]["sim_ips"] * 1.05
        ledger = self._seeded(tmp_path, list(run_reports) + [second])
        candidate = copy.deepcopy(run_reports[0])
        candidate["host"]["sim_ips"] = \
            run_reports[0]["host"]["sim_ips"] * 0.1
        report = watch_document(ledger, candidate)
        assert report["kind"] == "run"
        assert exit_code(report) == 1
        broken = copy.deepcopy(run_reports[0])
        broken["instructions"] += 1
        assert exit_code(watch_document(ledger, broken)) == 2

    def test_compare_documents_rejected(self, tmp_path):
        ledger = Ledger(tmp_path / "led.sqlite")
        with pytest.raises(ValueError):
            watch_document(ledger, {"schema": "repro.compare/1"})

    def test_bad_window_and_tolerance(self, tmp_path, bench_manifest):
        ledger = Ledger(tmp_path / "led.sqlite")
        with pytest.raises(ValueError):
            watch_document(ledger, bench_manifest, window=0)
        with pytest.raises(ValueError):
            watch_document(ledger, bench_manifest, tolerance=-0.1)


class TestResolveLedgerPath:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER", "env.sqlite")
        assert resolve_ledger_path("flag.sqlite") == "flag.sqlite"
        assert resolve_ledger_path(None) == "env.sqlite"

    def test_default_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert resolve_ledger_path(None) is None


class TestLedgerCli:
    def test_ingest_directory_and_info(self, tmp_path, run_reports,
                                       capsys):
        manifests = tmp_path / "manifests"
        manifests.mkdir()
        for index, report in enumerate(run_reports):
            (manifests / f"run{index}.json").write_text(
                json.dumps(report))
        db = str(tmp_path / "led.sqlite")
        assert main(["ledger", "--ledger", db, "ingest",
                     str(manifests)]) == 0
        assert "2 ingested" in capsys.readouterr().out
        assert main(["ledger", "--ledger", db, "ingest",
                     str(manifests)]) == 0
        assert "0 ingested, 2 already present" in \
            capsys.readouterr().out
        assert main(["ledger", "--ledger", db, "info"]) == 0
        out = capsys.readouterr().out
        assert "2 run" in out and "ledger schema v4" in out
        assert "0 critpath stacks" in out
        assert "0 hotspot profiles" in out

    def test_env_default(self, tmp_path, monkeypatch, capsys):
        db = str(tmp_path / "led.sqlite")
        monkeypatch.setenv("REPRO_LEDGER", db)
        assert main(["ledger", "ingest", BASELINE_CI]) == 0
        capsys.readouterr()
        assert main(["ledger", "info"]) == 0
        assert "1 bench" in capsys.readouterr().out

    def test_no_ledger_given(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        with pytest.raises(SystemExit):
            main(["ledger", "info"])

    def test_export_import_cli(self, tmp_path, capsys):
        db = str(tmp_path / "led.sqlite")
        out = str(tmp_path / "export.jsonl")
        assert main(["ledger", "--ledger", db, "ingest",
                     BASELINE_CI]) == 0
        assert main(["ledger", "--ledger", db, "export", out]) == 0
        db2 = str(tmp_path / "led2.sqlite")
        assert main(["ledger", "--ledger", db2, "import", out]) == 0
        capsys.readouterr()
        assert main(["ledger", "--ledger", db2, "info"]) == 0
        assert "1 bench" in capsys.readouterr().out

    def test_bad_manifest_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": \"repro.nope/1\"}")
        assert main(["ledger", "--ledger",
                     str(tmp_path / "led.sqlite"), "ingest",
                     str(bad)]) == 2
        assert "error" in capsys.readouterr().err


class TestWatchCli:
    @pytest.fixture
    def seeded_db(self, tmp_path, bench_manifest):
        # Two history entries so the throughput gate is armed.
        db = str(tmp_path / "led.sqlite")
        variant = tmp_path / "history2.json"
        variant.write_text(
            json.dumps(_kips_variant(bench_manifest, 1.02)))
        assert main(["ledger", "--ledger", db, "ingest",
                     BASELINE_CI, str(variant)]) == 0
        return db

    @staticmethod
    def _write_candidate(tmp_path, mutate):
        with open(BASELINE_CI, encoding="utf-8") as handle:
            candidate = json.load(handle)
        mutate(candidate)
        path = tmp_path / "candidate.json"
        path.write_text(json.dumps(candidate))
        return str(path)

    def test_gate_ok_when_unchanged_throughput(self, tmp_path,
                                               seeded_db, capsys):
        path = self._write_candidate(
            tmp_path, lambda m: m["results"][0]["kips"].update(
                median=m["results"][0]["kips"]["median"] * 1.01))
        assert main(["watch", path, "--ledger", seeded_db,
                     "--gate"]) == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_gate_exit_one_on_regression(self, tmp_path, seeded_db,
                                         capsys):
        path = self._write_candidate(
            tmp_path, lambda m: [cell["kips"].update(
                median=cell["kips"]["median"] * 0.5)
                for cell in m["results"]])
        assert main(["watch", path, "--ledger", seeded_db,
                     "--gate"]) == 1
        # non-gating mode reports but exits 0
        capsys.readouterr()
        assert main(["watch", path, "--ledger", seeded_db]) == 0
        assert "REGRESSION" in capsys.readouterr().out

    def test_gate_exit_two_on_determinism_break(self, tmp_path,
                                                seeded_db):
        path = self._write_candidate(
            tmp_path,
            lambda m: m["results"][0].update(
                cycles=m["results"][0]["cycles"] + 1))
        assert main(["watch", path, "--ledger", seeded_db,
                     "--gate"]) == 2

    def test_watch_json_and_ingest(self, tmp_path, seeded_db, capsys):
        path = self._write_candidate(
            tmp_path, lambda m: m["results"][0]["kips"].update(
                median=m["results"][0]["kips"]["median"] * 1.02))
        assert main(["watch", path, "--ledger", seeded_db, "--json",
                     "--ingest"]) == 0
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["schema"] == "repro.watch/1"
        assert "ingested" in captured.err
        capsys.readouterr()
        assert main(["ledger", "--ledger", seeded_db, "info"]) == 0
        assert "3 bench" in capsys.readouterr().out

    def test_watch_compare_manifest_exits_two(self, tmp_path,
                                              seeded_db, capsys):
        bad = tmp_path / "cmp.json"
        bad.write_text(json.dumps({"schema": "repro.compare/1"}))
        assert main(["watch", str(bad), "--ledger", seeded_db]) == 2
        assert "error" in capsys.readouterr().err

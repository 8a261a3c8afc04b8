"""Integration tests: every experiment regenerates at tiny scale and its
table satisfies basic sanity/shape properties."""

import inspect

import pytest

from repro.experiments import ALL_EXPERIMENTS, d1_load_latency, run_all
from repro.experiments.engine import Engine
from repro.experiments.runner import ROW_NAMES
from repro.presets import CONFIG_NAMES


@pytest.fixture(scope="module")
def engine():
    return Engine(jobs=1)


@pytest.fixture(scope="module")
def tables(engine):
    # Run the whole evaluation once at tiny scale, in one shared pass;
    # individual tests assert on the shared results (the runs are the
    # expensive part).
    return run_all("tiny", engine=engine)


class TestHarness:
    def test_all_experiment_ids_present(self):
        assert set(ALL_EXPERIMENTS) == {
            "T1", "F1", "F2", "F3", "F4", "F5", "F6", "T2", "F7",
            "A1", "A2", "A3", "A4", "A5", "A6", "B1", "D1"}

    def test_modules_define_only_plan_and_tabulate(self):
        for exp_id, module in ALL_EXPERIMENTS.items():
            defined = {name for name, value in vars(module).items()
                       if inspect.isfunction(value)
                       and value.__module__ == module.__name__
                       and not name.startswith("_")}
            assert defined == {"plan", "tabulate"}, exp_id

    def test_every_table_renders(self, tables):
        assert list(tables) == list(ALL_EXPERIMENTS)
        for exp_id, table in tables.items():
            text = table.render()
            assert text.strip(), exp_id
            assert table.rows, exp_id

    def test_shared_pass_simulates_each_cell_once(self, tables, engine):
        # 502 jobs planned over the 17 grids, 267 distinct cells.
        assert engine.last_summary["jobs"] == \
            {"total": 502, "simulated": 267, "ok": 502, "failed": 0}
        planned = [(exp_id, job.key) for exp_id, module
                   in ALL_EXPERIMENTS.items() for job in module.plan("tiny")]
        assert list(engine.last_reports) == planned

    def test_shared_table_matches_a_standalone_grid(self, tables):
        # Every D1 cell is simulated for an earlier experiment's job in
        # the shared pass; its table must not depend on which job ran it.
        alone = Engine(jobs=1).execute(d1_load_latency.plan("tiny"))
        assert tables["D1"].render() == \
            d1_load_latency.tabulate("tiny", alone).render()


class TestT1(object):
    def test_row_per_workload(self, tables):
        assert len(tables["T1"].rows) == len(ROW_NAMES)

    def test_kernel_fraction_only_in_os_mix(self, tables):
        table = tables["T1"]
        for row in table.rows:
            if row[0] == "os-mix":
                assert row[5] > 5.0
            else:
                assert row[5] == 0.0

    def test_fractions_are_percentages(self, tables):
        for row in tables["T1"].rows:
            assert 0 <= row[2] <= 100
            assert 0 <= row[7] <= 1.0  # miss rate


class TestF1(object):
    def test_has_all_configs(self, tables):
        assert tables["F1"].columns[1:] == list(CONFIG_NAMES)

    def test_ipcs_positive_and_plausible(self, tables):
        for row in tables["F1"].rows:
            for ipc in row[1:]:
                assert 0.05 < ipc < 4.0


class TestF2Headline:
    def test_techniques_beat_plain_single_port(self, tables):
        table = tables["F2"]
        mean_single = table.cell("MEAN (all)", "1P/2P")
        mean_tech = table.cell("MEAN (all)", "tech/2P")
        assert mean_tech > mean_single

    def test_techniques_close_most_of_the_gap(self, tables):
        tech = tables["F2"].cell("MEAN (all)", "tech/2P+SC")
        assert tech > 0.9  # paper: 0.91

    def test_memory_intensive_gap_is_larger(self, tables):
        table = tables["F2"]
        assert table.cell("MEAN (memory-intensive)", "1P/2P") <= \
            table.cell("MEAN (all)", "1P/2P")

    def test_per_workload_relatives_bounded(self, tables):
        for row in tables["F2"].rows:
            for value in row[1:]:
                assert 0.3 < value < 1.3

    def test_scenario_rows_present_with_own_mean(self, tables):
        from repro.experiments.f2_headline import SCENARIO_ROWS
        table = tables["F2"]
        for name in SCENARIO_ROWS:
            assert table.cell(name, "tech/2P") > \
                table.cell(name, "1P/2P"), name
        assert table.cell("MEAN (scenarios)", "tech/2P+SC") > 0.9


class TestF3LineBuffer:
    def test_lb_fraction_bounds(self, tables):
        for row in tables["F3"].rows:
            assert 0.0 <= row[1] <= 1.0

    def test_stream_benefits_most(self, tables):
        table = tables["F3"]
        stream_hit = table.cell("stream", "lb_hit_frac")
        assert stream_hit > 0.5

    def test_speedup_never_harms_much(self, tables):
        for row in tables["F3"].rows:
            assert row[4] > 0.95  # the line buffer never slows things


class TestF4Combining:
    def test_width8_cannot_combine_dword_loads(self, tables):
        table = tables["F4"]
        for row in table.rows:
            assert row[table.columns.index("comb_frac_w8")] <= 0.5

    def test_wider_combines_no_less(self, tables):
        table = tables["F4"]
        for row in table.rows:
            w16 = row[table.columns.index("comb_frac_w16")]
            w32 = row[table.columns.index("comb_frac_w32")]
            assert w32 >= w16 - 0.05


class TestF5WriteBuffer:
    def test_deeper_is_never_much_worse(self, tables):
        table = tables["F5"]
        d0 = table.columns.index("depth_0")
        d16 = table.columns.index("depth_16")
        for row in table.rows:
            assert row[d16] >= row[d0] * 0.98


class TestF6IssueWidth:
    def test_width_rows(self, tables):
        assert tables["F6"].column("width") == [2, 4, 8]

    def test_wider_cores_need_ports_more(self, tables):
        table = tables["F6"]
        relatives = table.column("1P/2P")
        assert relatives[-1] <= relatives[0] + 0.02


class TestT2(object):
    def test_row_per_config(self, tables):
        assert tables["T2"].column("config") == list(CONFIG_NAMES)

    def test_port_utilisation_bounded(self, tables):
        for row in tables["T2"].rows:
            assert 0.0 <= row[1] <= 1.0

    def test_techniques_cut_port_uses(self, tables):
        table = tables["T2"]
        assert table.cell("1P-wide+LB+SC", "port_uses") < \
            table.cell("1P", "port_uses")


class TestF7OsEffect:
    @staticmethod
    def _rows(table):
        return {(row[0], row[1]): row for row in table.rows}

    def test_streams_and_views_present(self, tables):
        from repro.experiments.f7_os_effect import STREAMS
        table = tables["F7"]
        assert table.column("stream") == \
            [stream for stream in STREAMS for _ in range(2)]
        assert table.column("trace") == \
            ["with-kernel", "user-only"] * len(STREAMS)

    def test_user_only_is_smaller(self, tables):
        table = tables["F7"]
        instructions = table.columns.index("instructions")
        rows = self._rows(table)
        for (stream, view), row in rows.items():
            if view != "with-kernel":
                continue
            assert row[instructions] > \
                rows[(stream, "user-only")][instructions], stream

    def test_os_activity_share_nonzero(self, tables):
        table = tables["F7"]
        kernel_frac = table.columns.index("kernel_frac")
        for row in table.rows:
            if row[1] == "with-kernel":
                assert row[kernel_frac] > 0.3, row[0]
            else:
                assert row[kernel_frac] == 0.0, row[0]

    def test_kernel_fraction_reads_the_flags_column(self, tables,
                                                    monkeypatch):
        # The share is trace_summary's, read without decoding a record.
        from repro.experiments.f7_os_effect import (STREAMS,
                                                    _kernel_fraction, _spec)
        from repro.trace.io import Trace
        from repro.workloads.suite import trace_summary

        def refuse(trace):
            raise AssertionError("the kernel share decoded the trace")

        monkeypatch.setattr(Trace, "_decode", refuse)
        for stream in STREAMS:
            trace = _spec(stream, "tiny", user_only=False).build()
            monkeypatch.setattr(trace, "_records", None)
            assert _kernel_fraction(stream, "tiny") == \
                trace_summary(trace)["kernel_fraction"], stream


class TestAblations:
    def test_a1_more_combining_never_hurts_much(self, tables):
        table = tables["A1"]
        for row in table.rows:
            assert row[-1] >= row[1] * 0.97  # max_8 vs max_1

    def test_a2_more_entries_never_lower_hit_fraction(self, tables):
        table = tables["A2"]
        one = table.columns.index("lbfrac_e1")
        eight = table.columns.index("lbfrac_e8")
        for row in table.rows:
            assert row[eight] >= row[one] - 0.02

    def test_a3_techniques_track_locality(self, tables):
        table = tables["A3"]
        relatives = table.column("tech/2P")
        assert relatives[-1] > relatives[0]  # streaming end recovers more
        assert relatives[-1] > 0.9

    def test_a4_banking_between_single_and_dual(self, tables):
        table = tables["A4"]
        for row in table.rows:
            single = row[table.columns.index("ipc_1P")]
            banked = row[table.columns.index("ipc_2R-4B")]
            dual = row[table.columns.index("ipc_2P")]
            assert banked >= single * 0.99
            assert banked <= dual * 1.02

    def test_a4_more_banks_fewer_conflicts_help(self, tables):
        table = tables["A4"]
        for row in table.rows:
            two = row[table.columns.index("ipc_2R-2B")]
            eight = row[table.columns.index("ipc_2R-8B")]
            assert eight >= two * 0.99

    def test_a5_prefetch_never_catastrophic(self, tables):
        table = tables["A5"]
        for row in table.rows:
            base = row[table.columns.index("1P")]
            prefetched = row[table.columns.index("1P+PF")]
            assert prefetched >= base * 0.95

    def test_a5_prefetch_helps_compress(self, tables):
        table = tables["A5"]
        assert table.cell("compress", "1P+PF") >= \
            table.cell("compress", "1P")

    def test_b1_reports_both_views(self, tables):
        assert tables["B1"].column("trace") == ["with-kernel", "user-only"]

    def test_a6_victim_cache_never_hurts(self, tables):
        table = tables["A6"]
        for row in table.rows:
            base = row[table.columns.index("1P")]
            with_vc = row[table.columns.index("1P+VC")]
            assert with_vc >= base * 0.99

    def test_d1_line_buffer_fixes_the_common_case(self, tables):
        table = tables["D1"]
        assert table.cell("1P+LB", "frac<=2cyc") > \
            table.cell("1P", "frac<=2cyc")
        assert table.cell("1P+LB", "p50") <= table.cell("1P", "p50")

    def test_d1_percentiles_ordered(self, tables):
        table = tables["D1"]
        for row in table.rows:
            p50 = row[table.columns.index("p50")]
            p90 = row[table.columns.index("p90")]
            p99 = row[table.columns.index("p99")]
            assert p50 <= p90 <= p99

"""Benchmark: the whole evaluation, regenerated in one shared pass.

Times ``run_all("small")`` — every experiment's grid joined and each
distinct (trace, machine) cell simulated once — prints every table
after the pytest-benchmark summary, and checks the paper-shaped
headline relations: the all-techniques single port recovers (at
least) the paper's 91% of dual-port performance, and clearly beats
the plain single port.
"""

from repro.experiments import run_all


def test_evaluation(benchmark, table_sink):
    tables = benchmark.pedantic(run_all, args=("small",), rounds=1,
                                iterations=1)
    for exp_id, table in tables.items():
        table_sink(table)
        assert table.rows, exp_id
    headline = tables["F2"]
    tech = float(headline.cell("MEAN (all)", "tech/2P+SC"))
    single = float(headline.cell("MEAN (all)", "1P/2P+SC"))
    assert tech >= 0.91, "techniques must reach the paper's 91% headline"
    assert tech > single, "techniques must beat the plain single port"

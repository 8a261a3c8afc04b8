"""Scenario corpus: contracts, caching, verification.

Satellite coverage for the OS-activity scenario corpus:

* every registered workload honours its ``expected_exit`` at every
  declared scale, and every scenario satisfies its full expected-results
  contract (exit codes, memory regions, console bytes) at every
  declared scale, under the functional interpreter;
* the trace cache keys scenarios by seed and parameters — the same
  scenario name with different seeds can never collide;
* the corpus verification harness passes end to end at tiny scale, and
  golden-checks each trace once, whatever the number of configs.

The golden check's fault classes on full-system traces are in
``tests/test_validate_golden.py``.
"""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.func import run_bare
from repro.scenarios import (
    SCENARIO_NAMES,
    SCENARIOS,
    materialize,
    run_scenario,
)
from repro.scenarios import runtime
from repro.workloads import (WORKLOADS, build_scenario_trace,
                             clear_trace_cache, set_trace_cache_dir,
                             trace_cache_dir)
from repro.workloads.suite import _kernel_fingerprint

#: (name, scale) for every workload at every declared scale.
WORKLOAD_CELLS = [(name, scale) for name, spec in sorted(WORKLOADS.items())
                  for scale in spec.scales]

#: (name, scale) for every scenario at every declared scale.
SCENARIO_CELLS = [(name, scale) for name in SCENARIO_NAMES
                  for scale in SCENARIOS[name].scales]


class TestExpectedResultsEveryScale:
    @pytest.mark.parametrize("name,scale", WORKLOAD_CELLS,
                             ids=[f"{n}-{s}" for n, s in WORKLOAD_CELLS])
    def test_workload_exit_code(self, name, scale):
        spec = WORKLOADS[name]
        params = spec.params(scale)
        program = assemble(spec.source(**params), source_name=f"<{name}>")
        result = run_bare(program, max_instructions=30_000_000,
                          compute_digests=True)
        assert result.exit_code == spec.expected_exit(**params)
        assert result.digests is not None
        assert set(result.digests) == {"registers", "memory"}

    @pytest.mark.parametrize("name,scale", SCENARIO_CELLS,
                             ids=[f"{n}-{s}" for n, s in SCENARIO_CELLS])
    def test_scenario_contract(self, name, scale):
        # run_scenario(check=True) raises on any contract violation:
        # per-process exit codes, memory-region digests, console bytes.
        build, run = run_scenario(SCENARIOS[name], scale)
        assert run.result.process_exit_codes == \
            list(build.expected.exit_codes)
        assert set(run.digests) == {"registers", "memory"}
        # Every scenario is OS-active: traps always fire (syscalls at
        # minimum — yield-dense streams like syspipe reschedule so
        # often the timer may never expire), and kernel instructions
        # retire on every stream.
        assert run.result.traps_taken > 0
        assert run.result.kernel_retired > 0

    @pytest.mark.parametrize("name", ["proctree", "iostorm", "copystorm",
                                      "locality"])
    def test_preemptive_scenarios_take_timer_interrupts(self, name):
        _build, run = run_scenario(SCENARIOS[name], "tiny")
        assert run.result.timer_interrupts > 0


class TestScenarioSpec:
    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="no scale"):
            SCENARIOS["proctree"].params("huge")

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            materialize(SCENARIOS["proctree"], "tiny",
                        overrides={"bogus": 1})

    def test_every_scenario_declares_all_scales(self):
        for name in SCENARIO_NAMES:
            assert tuple(SCENARIOS[name].scales) == \
                ("tiny", "small", "medium"), name

    def test_traces_are_os_heavy(self):
        _build, run = run_scenario(SCENARIOS["iostorm"], "tiny",
                                   collect_trace=True)
        trace = run.result.trace
        kernel = sum(1 for record in trace if record.kernel)
        assert 0 < kernel < len(trace)


class TestScenarioTraceCache:
    def test_same_name_different_seeds_never_collide(self):
        default = build_scenario_trace("proctree", "tiny")
        seeded = build_scenario_trace("proctree", "tiny", seed=97)
        # Distinct cache entries even though the label shares the
        # name/scale prefix: identity proves no memory-tier collision,
        # and the seed is baked into the generated sources (and hence
        # the content digest and the contract), so the disk tier keys
        # differ too — the pc stream alone may coincide because the
        # seed perturbs data values, not the schedule.
        assert default is not seeded
        b_default = materialize(SCENARIOS["proctree"], "tiny")
        b_seeded = materialize(SCENARIOS["proctree"], "tiny", seed=97)
        assert b_default.sources != b_seeded.sources
        assert tuple(b_default.expected.exit_codes) != \
            tuple(b_seeded.expected.exit_codes)
        # Same (name, scale, seed) is served from the in-memory tier.
        assert build_scenario_trace("proctree", "tiny", seed=97) is seeded

    def test_cache_hits_call_no_assembler(self, tmp_path, monkeypatch):
        # The key needs only the generated sources: a miss generates
        # once and assembles every process, memory- and disk-tier hits
        # assemble nothing.
        calls = {"generate": 0, "assemble": 0}

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(runtime, "generate",
                            counting("generate", runtime.generate))
        monkeypatch.setattr(runtime, "assemble_user",
                            counting("assemble", runtime.assemble_user))
        previous = trace_cache_dir()
        set_trace_cache_dir(tmp_path)
        clear_trace_cache()
        try:
            cold = build_scenario_trace("iostorm", "tiny", seed=5)
            assert calls["generate"] == 1 and calls["assemble"] > 0
            assembled = calls["assemble"]
            assert build_scenario_trace("iostorm", "tiny", seed=5) is cold
            clear_trace_cache()
            reloaded = build_scenario_trace("iostorm", "tiny", seed=5)
            assert reloaded is not cold and len(reloaded) == len(cold)
            assert calls["assemble"] == assembled
        finally:
            clear_trace_cache()
            set_trace_cache_dir(previous if previous is not None else "off")

    def test_kernel_source_is_in_the_cache_key(self):
        # The fingerprint feeds every os-mix and scenario digest, so a
        # kernel edit invalidates stale entries instead of serving them.
        fingerprint = _kernel_fingerprint()
        assert fingerprint
        from repro.kernel.source import kernel_source
        from repro.workloads.suite import content_digest
        assert fingerprint == content_digest(kernel_source())


class TestCorpusVerification:
    def test_verify_scenario_all_checks_pass(self):
        from repro.scenarios.verify import verify_scenario
        rows = verify_scenario("copystorm", "tiny", configs=("1P",))
        assert [(row["check"], row["config"]) for row in rows] == [
            ("contract", "-"), ("golden", "-"), ("invariants", "1P"),
            ("fastpath", "1P")]
        assert all(row["status"] == "pass" for row in rows), rows

    def test_verify_corpus_table_shape(self):
        from repro.scenarios.verify import verify_corpus
        table, ok = verify_corpus("tiny", names=["proctree"],
                                  configs=("1P", "2P"))
        assert ok
        # contract + golden + 2 configs x (invariants, fastpath)
        assert len(table.rows) == 6
        assert set(table.column("status")) == {"pass"}

    @pytest.mark.parametrize("configs", (("1P",),
                                         ("1P", "2P", "1P-wide+LB+SC")))
    def test_one_fresh_interpretation_per_trace(self, configs,
                                                monkeypatch):
        # The producer's run and the golden check's fresh run: two
        # interpreters per scenario, however many configs time it.
        from repro.func import interp
        from repro.scenarios.verify import verify_scenario
        built = []
        init = interp.Interpreter.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(interp.Interpreter, "__init__", counted)
        rows = verify_scenario("syspipe", "tiny", configs=configs)
        assert all(row["status"] == "pass" for row in rows), rows
        assert len(built) == 2

    def test_golden_failure_is_one_row(self, monkeypatch):
        # A trace that is not what its program does fails the golden
        # row once; the per-config timing rows still run on it.
        from repro.scenarios import verify as verify_mod
        from repro.validate import Violation

        def diverging(trace, source, digests=None):
            return [Violation(-1, "golden.pc", "seq 1 (pc 0x2000)")]

        monkeypatch.setattr(verify_mod, "golden_check", diverging)
        rows = verify_mod.verify_scenario("syspipe", "tiny",
                                          configs=("1P", "2P"))
        assert [row["status"] for row in rows] == \
            ["pass", "FAIL", "pass", "pass", "pass", "pass"]
        assert rows[1]["detail"] == (
            "1 violation(s); first: [trace] golden.pc: seq 1 (pc 0x2000)")

    def test_verify_scenario_reports_contract_breach(self):
        import dataclasses

        from repro.scenarios import verify as verify_mod
        from repro.scenarios.base import ScenarioSpec

        def wrong_exits(**kw):
            contract = spec.expected(**kw)
            return dataclasses.replace(
                contract,
                exit_codes=(0,) * len(contract.exit_codes))

        spec = SCENARIOS["proctree"]
        broken = ScenarioSpec(
            name=spec.name, description=spec.description, tags=spec.tags,
            default_seed=spec.default_seed, programs=spec.programs,
            expected=wrong_exits, scales=spec.scales)
        original = verify_mod.SCENARIOS
        verify_mod.SCENARIOS = {**original, "proctree": broken}
        try:
            rows = verify_mod.verify_scenario("proctree", "tiny",
                                              configs=())
        finally:
            verify_mod.SCENARIOS = original
        assert rows[0]["check"] == "contract"
        assert rows[0]["status"] == "FAIL"
        assert "exit codes" in rows[0]["detail"]

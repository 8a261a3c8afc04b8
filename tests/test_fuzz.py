"""Random-program fuzzer tests.

Generation must be deterministic and always produce well-formed,
terminating programs; the campaign driver must find an injected timing
bug and shrink it to a minimal reproducer; reproducer artifacts must
round-trip through save/load/replay.
"""

import json

import pytest

from repro.asm import assemble
from repro.core.lsq import LoadStoreQueue
from repro.trace import fuzz


class TestGeneration:
    def test_deterministic_in_seed(self):
        assert fuzz.generate_program(3) == fuzz.generate_program(3)

    def test_seeds_differ(self):
        assert fuzz.generate_program(3) != fuzz.generate_program(4)

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_programs_assemble(self, seed):
        program = assemble(fuzz.generate_program(seed))
        assert len(program.text) > 10

    def test_unit_count_scales_program_size(self):
        small = assemble(fuzz.generate_program(7, units=4))
        large = assemble(fuzz.generate_program(7, units=40))
        assert len(large.text) > len(small.text)


class TestChecking:
    @pytest.mark.parametrize("seed", (1, 2, 3))
    def test_clean_programs_pass(self, seed):
        source = fuzz.generate_program(seed)
        assert fuzz.check_program(source, configs=("1P",)) == []

    def test_assembly_errors_are_failures(self):
        failures = fuzz.check_program("this is not assembly")
        assert failures and failures[0].startswith("assemble:")

    def test_fast_loop_divergence_names_its_config(self, monkeypatch):
        # A fast loop that over-counts one statistic on 2P only: the
        # reference loop and its checkers see nothing wrong, so only
        # the differential can name the config and the field.
        from repro.core import pipeline
        run_fast = pipeline.run_fast

        def off_by_one(core, trace):
            cycles = run_fast(core, trace)
            if core.machine.name == "2P":
                core.stats.inc("core.issued")
            return cycles

        monkeypatch.setattr(pipeline, "run_fast", off_by_one)
        failures = fuzz.check_program(fuzz.generate_program(1),
                                      configs=("1P", "2P"))
        assert failures == ["2P: fast loop diverges from the reference "
                            "loop in stats.core.issued"]

    def test_one_reference_loop_run_per_config(self, monkeypatch):
        # The checked run (invariants) is the differential's reference:
        # no config runs the reference loop a second time.
        from repro.core import pipeline
        reference_loop = pipeline.OoOCore._run_loop
        runs = []

        def counted(core):
            runs.append(core.machine.name)
            return reference_loop(core)

        monkeypatch.setattr(pipeline.OoOCore, "_run_loop", counted)
        assert fuzz.check_program(fuzz.generate_program(1),
                                  configs=("1P", "2P")) == []
        assert runs == ["1P", "2P"]

    def test_checked_run_views_as_a_bare_one(self):
        # What lets the checked run stand in for a bare reference run:
        # the checker changes nothing in the result.
        from repro.core import OoOCore
        from repro.func import run_bare
        from repro.presets import machine
        from repro.validate import (InvariantChecker, differential_views,
                                    result_view)
        program = assemble(fuzz.generate_program(2))
        trace = run_bare(program, collect_trace=True).trace
        checked = result_view(OoOCore(machine("1P-wide+LB+SC"),
                                      validator=InvariantChecker())
                              .run(trace))
        bare, _ = differential_views("1P-wide+LB+SC", trace)
        assert checked == bare

    @pytest.mark.parametrize("configs", (("1P",),
                                         ("1P", "2P", "1P-wide+LB+SC")))
    def test_one_fresh_interpretation_per_trace(self, configs,
                                                monkeypatch):
        # The producer's run and the golden check's fresh run: two
        # interpreters per program, however many configs time it.
        from repro.func import interp
        built = []
        init = interp.Interpreter.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(interp.Interpreter, "__init__", counted)
        assert fuzz.check_program(fuzz.generate_program(1),
                                  configs=configs) == []
        assert len(built) == 2

    def test_trace_that_is_not_the_program_fails(self, monkeypatch):
        # A producer that drops its last record: the golden check
        # reports it once, and each config's core still commits the
        # trace it was given cleanly.
        run_bare = fuzz.run_bare

        def short_producer(*args, **kwargs):
            result = run_bare(*args, **kwargs)
            result.trace = result.trace.records[:-1]
            return result

        monkeypatch.setattr(fuzz, "run_bare", short_producer)
        failures = fuzz.check_program(fuzz.generate_program(1),
                                      configs=("1P", "2P"))
        assert len(failures) == 1
        assert failures[0].startswith("[trace] golden.length: ")

    def test_clean_campaign(self):
        report = fuzz.run_fuzz(fuzz.FuzzConfig(seed=1, count=3,
                                               configs=("1P",)))
        assert report.ok
        assert report.programs == 3


class TestInjectedBugIsShrunk:
    """The acceptance scenario: an intentionally injected LSQ ordering
    bug must be caught by the invariant checker and shrunk to a
    reproducer of at most 20 instructions."""

    @pytest.fixture
    def broken_lsq(self, monkeypatch):
        monkeypatch.setattr(LoadStoreQueue, "add_load",
                            lambda self, uop: self.loads.insert(0, uop))

    def test_bug_found_and_shrunk(self, broken_lsq):
        report = fuzz.run_fuzz(fuzz.FuzzConfig(seed=1, count=1,
                                               configs=("1P",)))
        assert not report.ok
        failure = report.failures[0]
        assert any("lsq.load_order" in line for line in failure.failures)
        assert failure.shrunk_source is not None
        # The reproducer must still fail ...
        assert fuzz.check_program(failure.shrunk_source, configs=("1P",))
        # ... and be minimal: at most 20 machine instructions.
        shrunk = assemble(failure.shrunk_source)
        assert len(shrunk.text) <= 20

    def test_shrunk_program_passes_once_fixed(self, monkeypatch):
        monkeypatch.setattr(LoadStoreQueue, "add_load",
                            lambda self, uop: self.loads.insert(0, uop))
        report = fuzz.run_fuzz(fuzz.FuzzConfig(seed=1, count=1,
                                               configs=("1P",)))
        shrunk = report.failures[0].shrunk_source
        monkeypatch.undo()  # "fix" the bug
        assert fuzz.check_program(shrunk, configs=("1P",)) == []


class TestArtifacts:
    def _failure(self):
        return fuzz.FuzzFailure(
            seed=9, failures=["1P: [cycle 1] fake: injected"],
            source=fuzz.generate_program(9),
            shrunk_source=fuzz.generate_program(9, units=2))

    def test_save_load_round_trip(self, tmp_path):
        path = str(tmp_path / "seed9.repro")
        fuzz.save_artifact(path, self._failure(), ("1P", "2P"))
        payload = fuzz.load_artifact(path)
        assert payload["schema"] == fuzz.ARTIFACT_SCHEMA
        assert payload["seed"] == 9
        assert payload["configs"] == ["1P", "2P"]
        assert payload["source"] == fuzz.generate_program(9)

    def test_replay_checks_shrunk_source(self, tmp_path):
        path = str(tmp_path / "seed9.repro")
        fuzz.save_artifact(path, self._failure(), ("1P",))
        # The underlying "bug" was fake, so the replay passes.
        assert fuzz.replay_artifact(fuzz.load_artifact(path)) == []

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bogus.repro"
        path.write_text(json.dumps({"schema": "something/9"}),
                        encoding="utf-8")
        with pytest.raises(ValueError, match="repro.fuzz/1"):
            fuzz.load_artifact(str(path))

"""Fast-path vs instrumented-path differential equivalence.

The fast cycle loop (:mod:`repro.core.fastpath`) must be **byte
identical** to the instrumented reference loop: same cycle count, same
committed instructions, every statistic, the whole stall ledger, the
load-latency histogram, and the architectural digests.  These tests
prove it across the full F2 configuration grid, every machine the
experiments plan, and over random fuzzer programs, so any future
fast-path optimization that drifts from the reference is caught by
tier-1 (including the ``REPRO_VALIDATE=1`` matrix — the differential
helper, :func:`repro.validate.differential_views`, force-disables the
implicit validator so the fast path stays eligible, and the comparison
is slow-with-validator-off vs fast).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace

import pytest

from repro.asm import assemble
from repro.core import fastpath, pipeline
from repro.core.config import FUSpec, MachineConfig
from repro.core.pipeline import OoOCore
from repro.experiments import ALL_EXPERIMENTS
from repro.func import run_bare
from repro.isa import Bank, Opcode, OpClass
from repro.presets import CONFIG_NAMES, machine
from repro.trace import SyntheticConfig, Trace, generate
from repro.trace.fuzz import generate_program
from repro.validate import differential_views, result_view
from repro.workloads import build_scenario_trace, build_trace

#: Workloads for the grid sweep (tiny keeps the full grid fast).
GRID_WORKLOADS = ("stream", "qsort")

#: Scenario-corpus entries for the full-system sweep: interrupt-heavy
#: and syscall-dense streams exercise trap entries, context-switch
#: bursts, and the kernel console copy loop on both cycle loops.
SCENARIO_TRACES = ("iostorm", "syspipe")

#: Fuzzer seeds for the random-program sweep.
FUZZ_SEEDS = (11, 29, 63)


def _planned_machines() -> list:
    """Every distinct machine the experiments plan at tiny scale, named
    by the first experiment that plans it."""
    seen: set[str] = set()
    params = []
    for exp_id, module in ALL_EXPERIMENTS.items():
        for job in module.plan("tiny"):
            key = repr(job.machine)
            if key not in seen:
                seen.add(key)
                params.append(pytest.param(
                    job.machine,
                    id=f"{exp_id}-{job.machine.name}-{len(params)}"))
    return params


def _corner_machines() -> dict[str, MachineConfig]:
    """Machines no experiment plans, at the corners of the issue scan
    and of dispatch: narrow issue, one unit of every FU class with an
    unpipelined three-cycle ALU (FU-blocked entries ahead of ready ones
    while the width runs out), and queues so small that every dispatch
    capacity check and the fetch queue stop the front end."""
    base = machine("1P-wide+LB+SC")
    core = base.core
    one_unit = {opclass: replace(spec, count=1)
                for opclass, spec in core.fu_specs.items()}
    one_unit[OpClass.ALU] = FUSpec(count=1, latency=3, pipelined=False)
    cores = {
        "issue1": replace(core, issue_width=1),
        "issue2": replace(core, issue_width=2),
        "fu1-alu3": replace(core, fu_specs=one_unit),
        "fq1-rob4": replace(core, fetch_queue_size=1, rob_size=4),
        "iq2-lq1-sq1": replace(core, iq_size=2, lq_size=1, sq_size=1),
    }
    return {name: replace(base, name=name, core=corner)
            for name, corner in cores.items()}


CORNER_MACHINES = _corner_machines()

#: Counters that show a corner machine reaches its corner.
CORNER_COUNTERS = {
    "fu1-alu3": ("fu.alu.structural_stalls", "fu.load.structural_stalls"),
    "fq1-rob4": ("core.dispatch_rob_full", "fetch.stall_queue_cycles"),
    "iq2-lq1-sq1": ("core.dispatch_iq_full", "core.dispatch_lq_full",
                    "core.dispatch_sq_full"),
}


#: The traces the corner machines run: both grid workloads and one
#: scenario.
CORNER_TRACES = GRID_WORKLOADS + ("iostorm",)


def _corner_trace(name: str):
    if name in GRID_WORKLOADS:
        return build_trace(name, "tiny")
    return build_scenario_trace(name, "tiny")


@pytest.mark.parametrize("trace_name", CORNER_TRACES)
@pytest.mark.parametrize("corner", sorted(CORNER_MACHINES))
def test_fastpath_matches_reference_on_corner_machines(trace_name, corner):
    slow, fast = differential_views(CORNER_MACHINES[corner],
                                    _corner_trace(trace_name))
    assert fast == slow


@pytest.mark.parametrize("corner", sorted(CORNER_COUNTERS))
def test_corner_machines_reach_their_corners(corner, monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    totals: dict[str, float] = {}
    for trace_name in CORNER_TRACES:
        stats = OoOCore(CORNER_MACHINES[corner]).run(
            _corner_trace(trace_name)).stats
        for name in CORNER_COUNTERS[corner]:
            totals[name] = totals.get(name, 0) + stats.get(name)
    assert all(totals.values()), totals


@pytest.mark.parametrize("workload", GRID_WORKLOADS)
@pytest.mark.parametrize("config_name", CONFIG_NAMES)
def test_fastpath_matches_reference_on_f2_grid(workload, config_name):
    trace = build_trace(workload, "tiny")
    slow, fast = differential_views(config_name, trace)
    assert fast == slow


@pytest.mark.parametrize("workload", GRID_WORKLOADS)
@pytest.mark.parametrize("config", _planned_machines())
def test_fastpath_matches_reference_on_planned_machines(workload, config):
    # Write-buffer depths (0 is the direct-store path), issue widths
    # (which decide which FU classes can run out), combining windows,
    # line-buffer sizes, banking, prefetch, victim caches, predictors
    # and load latencies, exactly as the experiments configure them.
    trace = build_trace(workload, "tiny")
    slow, fast = differential_views(config, trace)
    assert fast == slow


@pytest.mark.parametrize("scenario", SCENARIO_TRACES)
@pytest.mark.parametrize("config_name", ("1P", "2P", "1P-wide+LB+SC"))
def test_fastpath_matches_reference_on_scenarios(scenario, config_name):
    # Full-system traces: kernel instructions, syscalls, and timer
    # interrupts included.  The whole CoreResult view (stats, ledger,
    # load-latency histogram, digests) must be byte-identical.
    trace = build_scenario_trace(scenario, "tiny")
    slow, fast = differential_views(config_name, trace)
    assert fast == slow


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fastpath_matches_reference_on_fuzz_programs(seed):
    func = run_bare(assemble(generate_program(seed)), collect_trace=True)
    assert func.trace, "fuzz program produced an empty trace"
    for config_name in ("1P", "1P-wide+LB+SC", "2P+SC"):
        slow, fast = differential_views(config_name, func.trace)
        assert fast == slow, f"divergence on {config_name}"


def _reference_precompute(trace, line_shift: int, chunk_shift: int,
                          line_size: int, fetch_bytes: int) -> tuple:
    """The fast loop's precompute, one record at a time from the
    records' own fields and instructions: the reference the columnar
    precompute must equal."""
    n = len(trace)
    lists = [[] for _ in range(14)]
    name_producers = []
    data_producers = []
    last_writer = {}
    for i, record in enumerate(trace):
        instr = record.instr
        opcode = instr.opcode if instr is not None else None
        line = chunk = mask = 0
        if record.is_load or record.is_store:
            line = record.mem_addr >> line_shift
            chunk = record.mem_addr >> chunk_shift
            mask = ((1 << record.mem_size) - 1) \
                << (record.mem_addr & (line_size - 1))
        kind, jdec = fastpath._K_PLAIN, False
        if record.is_control and record.opclass is OpClass.BRANCH:
            kind = fastpath._K_BRANCH
        elif record.is_control:
            kind = fastpath._K_JUMP
            jdec = opcode in (Opcode.J, Opcode.JAL) if instr is not None \
                else record.decode_redirect
        elif record.next_pc != record.pc + 4 or (
                record.opclass is OpClass.SYSTEM
                and (opcode in (Opcode.SYSCALL, Opcode.ERET)
                     if instr is not None else record.serializes)):
            kind = fastpath._K_SERIALIZE
        # The plain run (the 0 here) is counted backwards below.
        for values, value in zip(lists, (
                fastpath._OPCS.index(record.opclass), kind, jdec,
                record.pc, record.next_pc, record.taken,
                record.pc // fetch_bytes, 0, record.is_load,
                record.is_store, record.is_load or record.is_store,
                line, chunk, mask)):
            values.append(value)
        if record.is_store and instr is not None:
            deps = [(instr.rs1, False)] if instr.rs1 != 0 else []
            if not (instr.info.rs2_bank is Bank.INT and instr.rs2 == 0):
                deps.append((instr.rs2, True))
        elif record.is_store:
            split = record.store_addr_count \
                if record.store_addr_count >= 0 else 1
            deps = [(reg, position >= split)
                    for position, reg in enumerate(record.sources)]
        else:
            deps = [(reg, False) for reg in record.sources]
        name_producers.append(tuple(
            last_writer[reg] for reg, is_data in deps
            if not is_data and reg in last_writer))
        data_producers.append(tuple(
            last_writer[reg] for reg, is_data in deps
            if is_data and reg in last_writer))
        if record.dest is not None:
            last_writer[record.dest] = i
    # A plain record's run is itself plus the run of the next record,
    # when that one is in the same fetch block (a record that is not
    # plain has none).
    kinds, blocks, runs = lists[1], lists[6], lists[7]
    for i in reversed(range(n)):
        if kinds[i] == fastpath._K_PLAIN:
            runs[i] = 1 + (runs[i + 1] if i + 1 < n
                           and blocks[i + 1] == blocks[i] else 0)
    opclasses = [lists[0].count(index)
                 for index in range(len(fastpath._OPCS))]
    return (*lists, name_producers, data_producers, opclasses)


#: The geometries the precompute is checked on; plain runs depend on the
#: fetch block, so one machine fetches 32-byte blocks.
PRECOMPUTE_MACHINES = {
    name: machine(name) for name in ("1P", "1P-wide+LB+SC")}
PRECOMPUTE_MACHINES["1P-fetch32"] = replace(
    PRECOMPUTE_MACHINES["1P"], mem=replace(
        PRECOMPUTE_MACHINES["1P"].mem, icache=replace(
            PRECOMPUTE_MACHINES["1P"].mem.icache, fetch_bytes=32)))


def _geometry(config: MachineConfig) -> tuple[int, int, int, int]:
    mem = OoOCore(config).mem
    return (mem.dcache.line_shift, mem.dcache.chunk_shift,
            mem.dcache.line_size, mem.icache.fetch_bytes)


@pytest.mark.parametrize("config_name", sorted(PRECOMPUTE_MACHINES))
def test_precompute_reads_every_trace_form_alike(trace_forms, config_name):
    # The fresh list is encoded first; the wrap and the reload are read
    # from their columns.  All three must equal the per-record reference.
    _, fresh, wrapped, reloaded = trace_forms
    geometry = _geometry(PRECOMPUTE_MACHINES[config_name])
    expected = _reference_precompute(fresh, *geometry)
    for form in (fresh, wrapped, reloaded):
        assert fastpath._precompute(form, *geometry) == expected


def _count_producer_passes(monkeypatch) -> list:
    """Start the fast loop's precompute memo empty and record each
    per-trace precompute (one producer pass per trace part built)."""
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    monkeypatch.setattr(fastpath, "_PRECOMPUTE_MEMO", OrderedDict())
    calls = []
    producers = fastpath._producers

    def counting(*args):
        calls.append(args)
        return producers(*args)

    monkeypatch.setattr(fastpath, "_producers", counting)
    return calls


def test_precompute_memo_serves_each_geometry_its_own_columns(
        stream_trace, monkeypatch):
    # One trace on machines that differ in port width, line size and
    # fetch width, in interleaved order, against a fresh copy of the
    # trace per machine: no geometry may get another's columns.
    base = machine("1P")
    mem = base.mem
    long_lines = replace(mem, **{
        level: replace(getattr(mem, level), geometry=replace(
            getattr(mem, level).geometry, line_size=64))
        for level in ("dcache", "icache", "next_level")})
    wide_fetch = replace(mem, icache=replace(mem.icache, fetch_bytes=32))
    configs = [base, machine("1P-wide+LB+SC"),
               replace(base, mem=long_lines),
               replace(base, core=replace(base.core, fetch_width=8),
                       mem=wide_fetch)]
    calls = _count_producer_passes(monkeypatch)
    expected = [result_view(OoOCore(config).run(
        Trace(stream_trace.columns))) for config in configs]
    fastpath._PRECOMPUTE_MEMO.clear()
    del calls[:]
    for index in (0, 1, 2, 3, 2, 0, 3, 1):
        result = OoOCore(configs[index]).run(stream_trace)
        assert result_view(result) == expected[index], index
    assert len(calls) == 1


def test_precompute_runs_once_per_trace(monkeypatch):
    # Three traces on port-bound's three machines, twice: the memo's
    # four entries hold every trace, whatever the port width.
    traces = [generate(SyntheticConfig(instructions=300, seed=seed,
                                       load_fraction=0.3,
                                       store_fraction=0.15))
              for seed in (1, 2, 3)]
    calls = _count_producer_passes(monkeypatch)
    for _ in range(2):
        for trace in traces:
            for config_name in ("1P", "1P-wide+LB+SC", "2P"):
                assert OoOCore(machine(config_name)).run(trace) \
                    .used_fastpath
    assert len(calls) == len(traces)


def test_every_trace_form_times_identically_on_both_loops(trace_forms):
    _, fresh, wrapped, reloaded = trace_forms
    views = [view for form in (fresh, wrapped, reloaded)
             for view in differential_views("1P-wide+LB+SC", form)]
    assert all(view == views[0] for view in views)


def test_fastpath_auto_selection(stream_trace, monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"))
    core.run(stream_trace)
    assert core.used_fastpath


def test_instrumented_core_stays_on_reference_loop(stream_trace,
                                                   monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"), metrics_interval=64)
    result = core.run(stream_trace)
    assert not core.used_fastpath
    assert result.metrics is not None


def test_fastpath_true_with_instrumentation_raises(stream_trace,
                                                   monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"), metrics_interval=64, fastpath=True)
    with pytest.raises(ValueError, match="fastpath=True"):
        core.run(stream_trace)


def test_critpath_recorder_rejects_fastpath(stream_trace, monkeypatch):
    from repro.obs.critpath import CritPathRecorder
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"), critpath=CritPathRecorder())
    result = core.run(stream_trace)
    assert not core.used_fastpath
    assert not result.used_fastpath
    assert result.fastpath_reason == "critpath recorder attached"


def test_fastpath_true_with_critpath_raises(stream_trace, monkeypatch):
    from repro.obs.critpath import CritPathRecorder
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"), critpath=CritPathRecorder(),
                   fastpath=True)
    with pytest.raises(ValueError, match="fastpath=True"):
        core.run(stream_trace)


def test_hotspots_recorder_rejects_fastpath(stream_trace, monkeypatch):
    from repro.obs.hotspots import HotspotRecorder
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"), hotspots=HotspotRecorder())
    result = core.run(stream_trace)
    assert not core.used_fastpath
    assert not result.used_fastpath
    assert result.fastpath_reason == "hotspots recorder attached"


def test_fastpath_true_with_hotspots_raises(stream_trace, monkeypatch):
    from repro.obs.hotspots import HotspotRecorder
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    core = OoOCore(machine("1P"), hotspots=HotspotRecorder(),
                   fastpath=True)
    with pytest.raises(ValueError, match="hotspots"):
        core.run(stream_trace)


def test_result_surfaces_fastpath_use(stream_trace, monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", False)
    result = OoOCore(machine("1P")).run(stream_trace)
    assert result.used_fastpath and result.fastpath_reason is None
    rejected = OoOCore(machine("1P"), metrics_interval=64).run(stream_trace)
    assert not rejected.used_fastpath
    assert "metrics" in rejected.fastpath_reason


def test_env_validate_forces_reference_loop(stream_trace, monkeypatch):
    monkeypatch.setattr(pipeline, "_ENV_VALIDATE", True)
    core = OoOCore(machine("1P"))
    core.run(stream_trace)
    assert not core.used_fastpath
    assert core._validate is not None

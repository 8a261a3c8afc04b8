"""Command-line interface.

::

    repro workloads                 list registered workloads
    repro configs                   list machine configurations
    repro asm prog.s --list         assemble and show a listing
    repro run prog.s                assemble + run on the functional sim
    repro trace stream out.npz      build and save a workload trace
    repro simulate --workload stream --config 1P-wide+LB+SC
    repro simulate --workload synthetic --seed 7 --json
    repro simulate --events run.jsonl.gz
    repro simulate --metrics-interval 512 --json
    repro simulate --pipe-trace run.kanata --self-profile
    repro simulate --workload qsort --validate
    repro simulate --workload qsort --hotspots
    repro hotspots --workload qsort --annotate
    repro events run.jsonl.gz --pc 0x402000 --limit 10
    repro fuzz --seed 1 --count 50 --artifacts fuzz-artifacts
    repro fuzz --replay fuzz-artifacts/seed17.repro
    repro events run.jsonl.gz --event stall --limit 20
    repro events run.jsonl.gz --type wb.drain --cycle-range 1000:2000
    repro compare a.json b.json --tolerance 0.01
    repro experiment F2 --scale small
    repro experiment all
    repro experiment T2 --jobs 4 --progress --spans fleet.json
    repro simulate --workload stream --spans run_spans.json
    repro bench --quick --json
    repro bench --compare BENCH_host_2026-01-01.json --tolerance 0.1
    repro bench --compare BENCH_old.json --candidate BENCH_new.json
    repro corpus list
    repro corpus run --scale tiny
    repro corpus verify --scale tiny -o corpus-verify.json
    repro simulate --workload iostorm --scale small --seed 7

Also runnable as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Sequence
from contextlib import nullcontext

from .asm import AsmError, assemble
from .atomic import atomic_write
from .core import simulate as core_simulate
from .func import RunResult, SimError, run_bare
from .isa import INSTRUCTION_BYTES
from .obs import (HOTSPOT_SORTS, WHATIF_PORT, CritPathRecorder,
                  HotspotRecorder, JsonlTracer, PipeTrace,
                  SelfProfiler, SpanRecorder, build_critpath_report,
                  build_hotspots_report, build_run_report,
                  compare_documents, count_spans,
                  expand_manifest_paths, iter_events,
                  render_comparison, render_critpath_report,
                  render_hotspots_report, summarize_events,
                  write_chrome_trace)
from .obs import spans as obs_spans
from .presets import CONFIG_NAMES, EXTENDED_CONFIG_NAMES, machine
from .scenarios import SCENARIO_NAMES, SCENARIO_SCALES, SCENARIOS
from .trace import SyntheticConfig, generate, load_trace, save_trace
from .workloads import (SUITE_NAMES, WORKLOADS, build_os_mix_trace,
                        build_scenario_trace, build_trace)

#: Synthetic-stream length per scale (mirrors the workload suite's
#: tiny/small/full instruction budgets).
_SYNTHETIC_INSTRUCTIONS = {"tiny": 4_000, "small": 20_000, "full": 100_000}


def _cmd_workloads(args: argparse.Namespace) -> int:
    print(f"  {'name':<10} {'tags':<36} description")
    for name, spec in sorted(WORKLOADS.items()):
        marker = "*" if name in SUITE_NAMES else " "
        print(f"{marker} {name:<10} {', '.join(spec.tags):<36} "
              f"{spec.description}")
    print("\n* = in the default evaluation suite; plus 'os-mix' (the "
          "multiprogrammed mix under the mini-OS)")
    print("\nscenario corpus (seeded OS-activity generators; "
          "'repro corpus' for details):")
    for name in SCENARIO_NAMES:
        spec = SCENARIOS[name]
        print(f"  {name:<10} {', '.join(spec.tags):<36} "
              f"{spec.description}")
    return 0


def _cmd_configs(args: argparse.Namespace) -> int:
    print("paper configurations:")
    for name in CONFIG_NAMES:
        dcache = machine(name).mem.dcache
        lb = f"LB({dcache.line_buffer_entries})" if dcache.has_line_buffer \
            else "-"
        print(f"  {name:<14} ports={dcache.ports} width={dcache.port_width}B"
              f" line_buffer={lb} combine_loads="
              f"{'y' if dcache.combine_loads else 'n'} combine_stores="
              f"{'y' if dcache.combine_stores else 'n'}")
    print("extended (banking ablation):")
    for name in EXTENDED_CONFIG_NAMES:
        dcache = machine(name).mem.dcache
        print(f"  {name:<14} ports={dcache.ports} banks={dcache.banks}")
    return 0


def _read_source(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _cmd_asm(args: argparse.Namespace) -> int:
    program = assemble(_read_source(args.source), source_name=args.source)
    print(f"text: {len(program.text)} instructions at "
          f"{program.text_base:#x}; data: {len(program.data)} bytes at "
          f"{program.data_base:#x}; entry {program.entry:#x}")
    if args.list:
        from .isa import encode
        for index, instr in enumerate(program.text):
            address = program.text_base + index * INSTRUCTION_BYTES
            word = encode(instr)
            print(f"{address:#08x}  {word:08x}  {instr}")
    return 0


def _print_run_result(result: RunResult) -> None:
    if result.console:
        print(result.console, end="" if result.console.endswith("\n")
              else "\n")
    print(f"exit code {result.exit_code}; {result.retired} instructions "
          f"retired ({result.loads} loads, {result.stores} stores, "
          f"{result.kernel_retired} kernel)")


def _cmd_run(args: argparse.Namespace) -> int:
    program = assemble(_read_source(args.source), source_name=args.source)
    result = run_bare(program, max_instructions=args.max_instructions,
                      collect_trace=args.trace is not None,
                      user_mode=not args.bare_metal)
    _print_run_result(result)
    if args.trace is not None:
        save_trace(args.trace, result.trace)
        print(f"trace ({len(result.trace)} records) written to {args.trace}")
    return 0


def _build_named_trace(name: str, scale: str, seed: int | None = None):
    if name == "synthetic":
        return generate(SyntheticConfig(
            instructions=_SYNTHETIC_INSTRUCTIONS[scale],
            seed=seed if seed is not None else 1))
    if name in SCENARIOS:
        return build_scenario_trace(name, scale, seed=seed)
    if seed is not None:
        raise SystemExit("--seed only applies to 'synthetic' and "
                         "scenario workloads; assembly workloads are "
                         "deterministic")
    if name == "os-mix":
        return build_os_mix_trace(scale)
    if name not in WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; see 'repro workloads'")
    return build_trace(name, scale)


def _select_trace(args: argparse.Namespace, seed: int | None = None):
    """The trace a simulate/critpath/hotspots run analyses: a saved
    ``--trace-file``, or the named ``--workload`` at ``--scale``.
    Returns ``(trace, workload, scale, trace_file)``."""
    if args.trace_file:
        if seed is not None:
            raise SystemExit("--seed cannot be combined with --trace-file")
        return load_trace(args.trace_file), None, None, args.trace_file
    return (_build_named_trace(args.workload, args.scale, seed),
            args.workload, args.scale, None)


def _write_json(path: str, document: object) -> None:
    with atomic_write(path) as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = _build_named_trace(args.workload, args.scale, args.seed)
    save_trace(args.output, trace)
    seed_note = f", seed {args.seed}" if args.seed is not None else ""
    print(f"{args.workload} ({args.scale}{seed_note}): {len(trace)} "
          f"records -> {args.output}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    recorder = SpanRecorder("repro simulate") if args.spans else None
    with obs_spans.activate(recorder):
        trace, workload, scale, trace_file = _select_trace(args, args.seed)
    label = trace_file or f"{workload} ({scale})"
    config = machine(args.config, issue_width=args.issue_width)
    tracer = JsonlTracer(args.events) if args.events else None
    pipe = PipeTrace() if args.pipe_trace else None
    profiler = SelfProfiler() if args.self_profile is not None else None
    validator = None
    if args.validate:
        from .validate import InvariantChecker
        validator = InvariantChecker()
    critpath = None
    if getattr(args, "critpath", None) is not None:
        critpath = CritPathRecorder(whatif=[WHATIF_PORT])
    hotspots = None
    if getattr(args, "hotspots", None) is not None:
        hotspots = HotspotRecorder()
    if recorder is not None:
        recorder.begin("core.run", "sim", config=config.name,
                       records=len(trace))
    start = time.perf_counter()
    try:
        with profiler or nullcontext():
            result = core_simulate(trace, config, tracer=tracer,
                                   metrics_interval=args.metrics_interval,
                                   pipe_trace=pipe, validator=validator,
                                   critpath=critpath, hotspots=hotspots)
    finally:
        if tracer is not None:
            tracer.close()
    wall_time = time.perf_counter() - start
    if recorder is not None:
        recorder.end(cycles=result.cycles, instructions=result.instructions)
    stats = result.stats

    if pipe is not None:
        pipe.write(args.pipe_trace)
    if recorder is not None:
        write_chrome_trace(args.spans, recorder.events())
    profile_path = None
    if profiler is not None:
        profile_path = args.self_profile or (
            f"BENCH_selfprofile_{workload or 'trace'}_{args.config}.json")
        profiler.write(profile_path)

    critpath_path = None
    if critpath is not None:
        critpath_report = build_critpath_report(
            critpath, result, config, workload=workload, scale=scale,
            seed=args.seed, trace_file=trace_file, wall_time=wall_time)
        critpath_path = args.critpath or (
            f"CRITPATH_{workload or 'trace'}_{args.config}.json")
        _write_json(critpath_path, critpath_report)

    hotspots_path = None
    if hotspots is not None:
        hotspots.check_conservation(result)
        hotspots_report = build_hotspots_report(
            hotspots, result, config, workload=workload, scale=scale,
            seed=args.seed, trace_file=trace_file, wall_time=wall_time,
            disasm=_workload_disasm(workload, scale))
        hotspots_path = args.hotspots or (
            f"HOTSPOTS_{workload or 'trace'}_{args.config}.json")
        _write_json(hotspots_path, hotspots_report)

    if args.json:
        report = build_run_report(result, config, workload=workload,
                                  scale=scale, seed=args.seed,
                                  trace_file=trace_file,
                                  wall_time=wall_time,
                                  violations=validator.violations
                                  if validator is not None else None)
        print(json.dumps(report, indent=2))
        return 0 if validator is None or validator.ok else 1

    dcache = config.mem.dcache
    lb_loads = int(stats["lsq.lb_loads"]) if dcache.has_line_buffer \
        else "n/a"
    combined_loads = int(stats["lsq.combined_loads"]) \
        if dcache.combine_loads else "n/a"
    combined_stores = int(stats["wb.combined"]) if dcache.combine_stores \
        else "n/a"
    print(f"{label} on {args.config} (issue width {args.issue_width}):")
    print(f"  {result.instructions} instructions, {result.cycles} cycles, "
          f"IPC {result.ipc:.3f}")
    print(f"  D-cache port uses {int(stats['dcache.port_uses'])}, "
          f"line-buffer loads {lb_loads}, "
          f"combined loads {combined_loads}, "
          f"combined stores {combined_stores}")
    branches = stats["bpred.branches"]
    if branches:
        print(f"  branch accuracy "
              f"{stats['bpred.correct'] / branches:.3f} "
              f"({int(branches)} branches)")
    else:
        print("  branch accuracy n/a (no branches)")
    if result.ledger is not None:
        print(f"  stalls: {result.ledger.summary()}")
    if result.metrics is not None:
        print(f"  metrics: {result.metrics.summary()}")
    if args.events:
        print(f"  events: {tracer.emitted} -> {args.events}")
    if pipe is not None:
        print(f"  pipe trace: {len(pipe.records)} instructions -> "
              f"{args.pipe_trace}")
    if recorder is not None:
        print(f"  spans: {count_spans(recorder.events())} -> "
              f"{args.spans} (load in https://ui.perfetto.dev)")
    if profiler is not None:
        print(f"  self-profile: {profiler.summary()} -> {profile_path}")
    if critpath is not None:
        print(f"  critpath: {critpath.summary()} -> {critpath_path}")
    if hotspots is not None:
        print(f"  hotspots: {hotspots.summary()} -> {hotspots_path}")
    if validator is not None:
        if validator.ok:
            print("  validation: all invariants hold")
        else:
            print(f"  validation: {len(validator.violations)} violations; "
                  f"first: {validator.violations[0]}")
    if args.stats:
        print(stats.format(indent="  "))
    if validator is not None and not validator.ok:
        return 1
    return 0


def _cmd_critpath(args: argparse.Namespace) -> int:
    from .obs.critpath import DEFAULT_WINDOW

    trace, workload, scale, trace_file = _select_trace(args)
    whatif: list[object] = [WHATIF_PORT]
    for spec in args.whatif or ():
        whatif.append(tuple(part.strip()
                            for part in spec.split(",") if part.strip()))
    try:
        recorder = CritPathRecorder(window=args.window or DEFAULT_WINDOW,
                                    whatif=whatif)
    except ValueError as error:
        raise SystemExit(f"error: {error}")
    config = machine(args.config)
    start = time.perf_counter()
    result = core_simulate(trace, config, critpath=recorder)
    wall_time = time.perf_counter() - start
    recorder.check_conservation()
    report = build_critpath_report(recorder, result, config,
                                   workload=workload, scale=scale,
                                   trace_file=trace_file,
                                   wall_time=wall_time)
    if args.output:
        _write_json(args.output, report)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_critpath_report(report, top=args.top))
        if args.output:
            print(f"\nmanifest -> {args.output}")
    return 0


def _workload_disasm(name: str | None,
                     scale: str | None) -> dict[int, str] | None:
    """PC -> disassembly for plain suite workloads, assembled fresh.
    Scenario/os-mix traces relocate user code per process slot and
    synthetic traces have no program, so those stay unannotated."""
    if name is None or name not in WORKLOADS:
        return None
    spec = WORKLOADS[name]
    source = spec.source(**spec.params(scale))
    program = assemble(source, source_name=f"<{name}>")
    return {program.text_base + index * INSTRUCTION_BYTES: str(instr)
            for index, instr in enumerate(program.text)}


def _cmd_hotspots(args: argparse.Namespace) -> int:
    trace, workload, scale, trace_file = _select_trace(args, args.seed)
    recorder = HotspotRecorder()
    config = machine(args.config)
    start = time.perf_counter()
    result = core_simulate(trace, config, hotspots=recorder)
    wall_time = time.perf_counter() - start
    recorder.check_conservation(result)
    report = build_hotspots_report(recorder, result, config,
                                   workload=workload, scale=scale,
                                   seed=args.seed, trace_file=trace_file,
                                   wall_time=wall_time,
                                   disasm=_workload_disasm(workload,
                                                           scale))
    if args.output:
        _write_json(args.output, report)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_hotspots_report(report, top=args.top,
                                     annotate=args.annotate,
                                     sort=args.sort))
        if args.output:
            print(f"\nmanifest -> {args.output}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    import os

    from .experiments import ALL_EXPERIMENTS
    from .experiments.engine import Engine, EngineJobError
    from .experiments.runner import capture_reports
    from .obs import build_experiment_manifest
    from .workloads import trace_cache_dir, trace_cache_stats
    if args.id.lower() == "all":
        ids = list(ALL_EXPERIMENTS)
    else:
        exp_id = args.id.upper()
        if exp_id not in ALL_EXPERIMENTS:
            raise SystemExit(
                f"unknown experiment {args.id!r}; "
                f"choose from {', '.join(ALL_EXPERIMENTS)} or 'all'")
        ids = [exp_id]
    engine = Engine(jobs=args.jobs, trace_cache=args.trace_cache,
                    metrics_interval=args.metrics_interval,
                    progress=args.progress,
                    collect_spans=bool(args.spans))
    if args.output:
        os.makedirs(args.output, exist_ok=True)
    status = 0
    try:
        for exp_id in ids:
            if args.json:
                start = time.perf_counter()
                before = trace_cache_stats()
                with capture_reports() as runs:
                    table = ALL_EXPERIMENTS[exp_id](args.scale,
                                                    engine=engine)
                cache = {key: value - before[key]
                         for key, value in trace_cache_stats().items()}
                directory = trace_cache_dir()
                cache["dir"] = str(directory) if directory else None
                manifest = build_experiment_manifest(
                    exp_id, args.scale, table, runs,
                    wall_time=time.perf_counter() - start,
                    jobs=engine.jobs, trace_cache=cache,
                    engine_summary=engine.last_summary)
                if args.output:
                    path = os.path.join(
                        args.output, f"{exp_id.lower()}_{args.scale}.json")
                    _write_json(path, manifest)
                    print(f"written to {path}")
                else:
                    print(json.dumps(manifest, indent=2))
                continue
            table = ALL_EXPERIMENTS[exp_id](args.scale, engine=engine)
            print(table.render())
            print()
            if args.output:
                extension = "csv" if args.csv else "txt"
                path = os.path.join(
                    args.output,
                    f"{exp_id.lower()}_{args.scale}.{extension}")
                with atomic_write(path) as handle:
                    handle.write(table.to_csv() if args.csv
                                 else table.render() + "\n")
                print(f"written to {path}\n")
    except EngineJobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        status = 1
    if args.spans and engine.span_events is not None:
        write_chrome_trace(args.spans, engine.span_events)
        print(f"spans: {count_spans(engine.span_events)} -> "
              f"{args.spans} (load in https://ui.perfetto.dev)",
              file=sys.stderr)
    return status


def _render_bench(manifest: dict) -> str:
    lines = [f"repro bench ({manifest['mode']}, "
             f"{manifest['settings']['repeats']} repeats, "
             f"{manifest['settings']['warmup']} warmup):"]
    for result in manifest["results"]:
        kips = result["kips"]
        lines.append(
            f"  {result['label']:<28} {kips['median']:8.1f} kIPS "
            f"(iqr {kips['iqr']:.1f})  {result['instructions']:>8} "
            f"instr  {result['cycles']:>8} cycles")
    lines.append("trace generation (cold = functional simulation):")
    for timing in manifest["tracegen"]:
        lines.append(f"  {timing['label']:<28} cold {timing['cold_s']:.3f}s"
                     f"  warm {timing['warm_s']:.4f}s"
                     f"  ({timing['instructions']} records)")
    lines.append(f"total wall time "
                 f"{manifest['host']['wall_time_s']:.1f}s")
    return "\n".join(lines)


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (compare_bench, default_bench_path,
                        render_bench_comparison, run_bench,
                        validate_bench_manifest)
    from .obs import SchemaError
    if args.candidate and not args.compare:
        raise SystemExit("--candidate only applies with --compare")
    if args.tolerance < 0:
        raise SystemExit("--tolerance cannot be negative")

    if args.compare:
        baseline = _read_document(args.compare)
        if baseline is None:
            return 2
    if args.candidate:
        # Pure comparison of two saved manifests; nothing is run.
        candidate = _read_document(args.candidate)
        if candidate is None:
            return 2
        labels = (args.compare, args.candidate)
    else:
        candidate = run_bench(quick=args.quick, repeats=args.repeats,
                              warmup=args.warmup)
        path = args.output or str(default_bench_path())
        _write_json(path, candidate)
        if args.json:
            print(json.dumps(candidate, indent=2))
        else:
            print(_render_bench(candidate))
        print(f"manifest -> {path}", file=sys.stderr)
        if not args.compare:
            return 0
        labels = (args.compare, path)

    for label, manifest in zip(labels, (baseline, candidate)):
        try:
            validate_bench_manifest(manifest)
        except SchemaError as exc:
            print(f"error: {label} is not a valid bench manifest: {exc}",
                  file=sys.stderr)
            return 2
    report = compare_bench(baseline, candidate, tolerance=args.tolerance)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_bench_comparison(report, *labels))
    if not report["deterministic_ok"]:
        return 2
    return 0 if report["ok"] else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import os

    from .trace import fuzz as fuzz_mod
    if args.replay:
        try:
            payload = fuzz_mod.load_artifact(args.replay)
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        failures = fuzz_mod.replay_artifact(payload, args.max_instructions)
        if failures:
            print(f"{args.replay}: still failing:")
            for line in failures:
                print(f"  {line}")
            return 1
        print(f"{args.replay}: passes on every config")
        return 0
    configs = tuple(args.config) if args.config else fuzz_mod.DEFAULT_CONFIGS
    for name in configs:
        machine(name)  # reject unknown names before the campaign
    config = fuzz_mod.FuzzConfig(
        seed=args.seed, count=args.count, configs=configs,
        units=args.units, max_instructions=args.max_instructions,
        shrink=not args.no_shrink)
    progress = (lambda line: print(f"  {line}")) if args.verbose else None
    report = fuzz_mod.run_fuzz(config, progress=progress)
    last = args.seed + args.count - 1
    if report.ok:
        print(f"{report.programs} programs (seeds {args.seed}..{last}) x "
              f"{len(configs)} configs: ok")
        return 0
    print(f"{len(report.failures)} of {report.programs} programs failed:")
    if args.artifacts:
        os.makedirs(args.artifacts, exist_ok=True)
    for failure in report.failures:
        extra = (f" (+{len(failure.failures) - 1} more)"
                 if len(failure.failures) > 1 else "")
        print(f"  seed {failure.seed}: {failure.failures[0]}{extra}")
        if failure.shrunk_source is not None:
            instructions = sum(
                1 for line in failure.shrunk_source.splitlines()
                if line.startswith("    "))
            print(f"    shrunk to ~{instructions} instructions")
        if args.artifacts:
            path = os.path.join(args.artifacts,
                                f"seed{failure.seed}.repro")
            fuzz_mod.save_artifact(path, failure, configs)
            print(f"    reproducer -> {path}")
    return 1


def _parse_cycle_range(text: str) -> tuple[int | None, int | None]:
    """``A:B`` -> (since, until); either side may be empty."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise SystemExit(f"--cycle-range wants FIRST:LAST, got {text!r}")
    try:
        since = int(head) if head else None
        until = int(tail) if tail else None
    except ValueError:
        raise SystemExit(f"--cycle-range wants integer cycles, got {text!r}")
    if since is not None and until is not None and until < since:
        raise SystemExit(f"--cycle-range is empty: {text!r}")
    return since, until


def _parse_pc(text: str, flag: str = "--pc") -> int:
    """Accept a PC as decimal or 0x-prefixed hex."""
    try:
        return int(text, 0)
    except ValueError:
        raise SystemExit(f"{flag} wants a decimal or 0x-hex address, "
                         f"got {text!r}")


def _parse_pc_range(text: str) -> tuple[int | None, int | None]:
    """``A:B`` -> (low, high); either side may be empty; hex accepted."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise SystemExit(f"--pc-range wants FIRST:LAST, got {text!r}")
    low = _parse_pc(head, "--pc-range") if head else None
    high = _parse_pc(tail, "--pc-range") if tail else None
    if low is not None and high is not None and high < low:
        raise SystemExit(f"--pc-range is empty: {text!r}")
    return low, high


def _cmd_events(args: argparse.Namespace) -> int:
    import gzip
    if args.cycle_range:
        if args.since is not None or args.until is not None:
            raise SystemExit("--cycle-range replaces --since/--until; "
                             "give one or the other")
        args.since, args.until = _parse_cycle_range(args.cycle_range)
    pc = _parse_pc(args.pc) if args.pc is not None else None
    pc_range = _parse_pc_range(args.pc_range) if args.pc_range else None
    if pc is not None and pc_range is not None:
        raise SystemExit("--pc and --pc-range are mutually exclusive")
    events = set(args.event) if args.event else None
    try:
        if args.limit:
            shown = 0
            for record in iter_events(args.capture, events,
                                      args.since, args.until,
                                      pc=pc, pc_range=pc_range):
                print(json.dumps(record, separators=(",", ":")))
                shown += 1
                if shown >= args.limit:
                    break
            return 0
        summary = summarize_events(args.capture, events,
                                   args.since, args.until,
                                   pc=pc, pc_range=pc_range)
        print(summary.render())
        return 0
    except (json.JSONDecodeError, gzip.BadGzipFile, UnicodeDecodeError) \
            as exc:
        print(f"error: {args.capture} is not a JSONL event capture "
              f"({exc})", file=sys.stderr)
        return 1


def _read_document(path: str) -> dict | None:
    """Load one JSON manifest, printing the error and returning None
    on failure (callers turn that into exit code 2)."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except json.JSONDecodeError as exc:
        print(f"error: {path} is not JSON ({exc})", file=sys.stderr)
        return None
    if not isinstance(document, dict):
        print(f"error: {path} is not a JSON object", file=sys.stderr)
        return None
    return document


def _pair_manifests(side_a: list[str],
                    side_b: list[str]) -> list[tuple[str, str]] | None:
    """Pair two expanded path sets for comparison.  One-vs-one pairs
    directly; sets pair by basename (how a directory of experiment
    manifests lines up against another run's directory).  Returns
    None (an error, already printed) when nothing pairs up."""
    import os
    if len(side_a) == 1 and len(side_b) == 1:
        return [(side_a[0], side_b[0])]
    by_name_a = {os.path.basename(path): path for path in side_a}
    by_name_b = {os.path.basename(path): path for path in side_b}
    common = sorted(set(by_name_a) & set(by_name_b))
    if not common:
        print("error: no manifest basenames in common between the two "
              "sides", file=sys.stderr)
        return None
    for name in sorted(set(by_name_a) ^ set(by_name_b)):
        side = "baseline" if name in by_name_a else "candidate"
        print(f"note: {name} only on the {side} side; skipped",
              file=sys.stderr)
    return [(by_name_a[name], by_name_b[name]) for name in common]


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.tolerance < 0:
        print("error: --tolerance cannot be negative", file=sys.stderr)
        return 2
    try:
        side_a = expand_manifest_paths([args.a])
        side_b = expand_manifest_paths([args.b])
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pairs = _pair_manifests(side_a, side_b)
    if pairs is None:
        return 2
    ignore = frozenset(args.ignore) if args.ignore else None
    reports = []
    for path_a, path_b in pairs:
        document_a = _read_document(path_a)
        document_b = _read_document(path_b)
        if document_a is None or document_b is None:
            return 2
        report = compare_documents(document_a, document_b,
                                   tolerance=args.tolerance,
                                   ignore=ignore)
        reports.append((path_a, path_b, report))
    if args.json:
        if len(reports) == 1:
            print(json.dumps(reports[0][2], indent=2))
        else:
            print(json.dumps([{"a": path_a, "b": path_b,
                               "report": report}
                              for path_a, path_b, report in reports],
                             indent=2))
    else:
        for path_a, path_b, report in reports:
            print(render_comparison(report, path_a, path_b,
                                    limit=args.limit))
    return 0 if all(report["equal"]
                    for _, _, report in reports) else 1


def _corpus_names(requested: list[str]) -> list[str]:
    if not requested:
        return list(SCENARIO_NAMES)
    unknown = [name for name in requested if name not in SCENARIOS]
    if unknown:
        raise SystemExit(f"unknown scenario(s) {unknown}; see "
                         f"'repro corpus list'")
    return requested


def _cmd_corpus(args: argparse.Namespace) -> int:
    from .scenarios import run_scenario

    if args.action == "list":
        print(f"  {'name':<10} {'scales':<19} {'default seed':<12} "
              f"description")
        for name in SCENARIO_NAMES:
            spec = SCENARIOS[name]
            print(f"  {name:<10} {'/'.join(spec.scales):<19} "
                  f"{spec.default_seed:<12} {spec.description}")
        print("\nevery scenario is seeded (--seed) and ships a "
              "machine-checkable expected-results contract; see "
              "docs/WORKLOADS.md")
        return 0

    names = _corpus_names(args.scenario)
    if args.action == "run":
        from .workloads import trace_summary
        print(f"{'scenario':<10} {'scale':<7} {'seed':<6} "
              f"{'records':>9} {'kernel%':>8} {'traps':>6}  exits")
        for name in names:
            build, run = run_scenario(SCENARIOS[name], args.scale,
                                      seed=args.seed, collect_trace=True)
            summary = trace_summary(run.result.trace)
            exits = ",".join(str(code) for code
                             in run.result.process_exit_codes)
            print(f"{name:<10} {args.scale:<7} {build.seed:<6} "
                  f"{len(run.result.trace):>9} "
                  f"{100 * summary['kernel_fraction']:>7.1f}% "
                  f"{run.result.traps_taken:>6}  [{exits}]")
        print("all contracts satisfied")
        return 0

    # verify
    from .scenarios.verify import verify_corpus
    configs = tuple(args.config) if args.config else None
    kwargs = {"configs": configs} if configs else {}
    progress = None if args.json else \
        (lambda line: print(line, file=sys.stderr))
    table, ok = verify_corpus(args.scale, names=names, seed=args.seed,
                              progress=progress, **kwargs)
    document = {"schema": "repro.corpus/1", "scale": args.scale,
                "ok": ok, "table": table.as_dict()}
    if args.json:
        print(json.dumps(document, indent=2))
    else:
        print(table.render())
    if args.output:
        _write_json(args.output, document)
        print(f"verification table -> {args.output}",
              file=sys.stderr if args.json else sys.stdout)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cache-port-efficiency reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("workloads", help="list registered workloads") \
        .set_defaults(func=_cmd_workloads)
    sub.add_parser("configs", help="list machine configurations") \
        .set_defaults(func=_cmd_configs)

    asm = sub.add_parser("asm", help="assemble a source file")
    asm.add_argument("source")
    asm.add_argument("--list", action="store_true",
                     help="print an address/word/disassembly listing")
    asm.set_defaults(func=_cmd_asm)

    run = sub.add_parser("run", help="assemble and run on the "
                                     "functional simulator")
    run.add_argument("source")
    run.add_argument("--max-instructions", type=int, default=5_000_000)
    run.add_argument("--trace", help="save the dynamic trace to this .npz")
    run.add_argument("--bare-metal", action="store_true",
                     help="start in kernel mode (allows MFSR/MTSR/HALT)")
    run.set_defaults(func=_cmd_run)

    trace = sub.add_parser("trace", help="build and save a workload trace")
    trace.add_argument("workload")
    trace.add_argument("output")
    trace.add_argument("--scale", default="small",
                       choices=("tiny", "small", "medium", "full"))
    trace.add_argument("--seed", type=int,
                       help="generator seed (synthetic or scenario "
                            "workloads only)")
    trace.set_defaults(func=_cmd_trace)

    simulate = sub.add_parser("simulate", help="run the timing core")
    simulate.add_argument("--workload", default="stream",
                          help="suite workload, 'os-mix', a scenario, "
                               "or 'synthetic'")
    simulate.add_argument("--scale", default="small",
                          choices=("tiny", "small", "medium", "full"))
    simulate.add_argument("--trace-file",
                          help="simulate a saved .npz trace instead")
    simulate.add_argument("--config", default="1P",
                          choices=CONFIG_NAMES + EXTENDED_CONFIG_NAMES)
    simulate.add_argument("--issue-width", type=int, default=4)
    simulate.add_argument("--seed", type=int,
                          help="generator seed (synthetic or scenario "
                               "workloads only)")
    simulate.add_argument("--json", action="store_true",
                          help="emit a machine-readable run report instead "
                               "of the human summary")
    simulate.add_argument("--events", metavar="PATH",
                          help="capture a JSONL event trace (.gz to gzip); "
                               "inspect with 'repro events'")
    simulate.add_argument("--metrics-interval", type=int, metavar="CYCLES",
                          help="sample interval telemetry (IPC, port "
                               "utilization, occupancies) every N cycles; "
                               "series land in the --json report")
    simulate.add_argument("--pipe-trace", metavar="PATH",
                          help="export per-instruction stage timings as a "
                               "Konata/Kanata pipeline trace")
    simulate.add_argument("--self-profile", metavar="PATH", nargs="?",
                          const="",
                          help="sample the cycle loop that runs and "
                               "write its host time per pipeline stage to "
                               "PATH (default "
                               "BENCH_selfprofile_<workload>_<config>.json)")
    simulate.add_argument("--spans", metavar="PATH",
                          help="record host-time spans (trace cache I/O "
                               "and the core run) as a Chrome-trace JSON "
                               "loadable in Perfetto")
    simulate.add_argument("--validate", action="store_true",
                          help="attach the microarchitectural invariant "
                               "checker (see docs/VALIDATION.md); "
                               "violations land in the --json report and "
                               "flip the exit status")
    simulate.add_argument("--critpath", metavar="PATH", nargs="?",
                          const="",
                          help="record the dependence-graph critical "
                               "path and write a repro.critpath/1 "
                               "manifest to PATH (default "
                               "CRITPATH_<workload>_<config>.json); "
                               "see 'repro critpath' for the report "
                               "view")
    simulate.add_argument("--hotspots", metavar="PATH", nargs="?",
                          const="",
                          help="attach the per-PC hotspot profiler and "
                               "write a repro.hotspots/1 manifest to "
                               "PATH (default "
                               "HOTSPOTS_<workload>_<config>.json); "
                               "see 'repro hotspots' for the report "
                               "view")
    simulate.add_argument("--stats", action="store_true",
                          help="dump every counter")
    simulate.set_defaults(func=_cmd_simulate)

    critpath = sub.add_parser(
        "critpath",
        help="critical-path bottleneck analysis: CPI stack, top "
             "critical instructions, what-if predictions")
    critpath.add_argument("--workload", default="stream",
                          help="suite workload, 'os-mix', a scenario "
                               "(default seed), or 'synthetic'")
    critpath.add_argument("--scale", default="small",
                          choices=("tiny", "small", "full"))
    critpath.add_argument("--trace-file",
                          help="analyse a saved .npz trace instead")
    critpath.add_argument("--config", default="1P",
                          choices=CONFIG_NAMES + EXTENDED_CONFIG_NAMES)
    critpath.add_argument("--window", type=int, metavar="COMMITS",
                          help="analysis window size in commits "
                               "(default 8192; memory stays O(window))")
    critpath.add_argument("--whatif", action="append", metavar="SPEC",
                          help="extra what-if scenario: comma-separated "
                               "edge classes, each 'class' (zero its "
                               "waits) or 'class/N' (divide by N); "
                               "repeatable.  The 1P->2P port scenario "
                               "is always included")
    critpath.add_argument("--top", type=int, default=10,
                          help="critical instructions to list")
    critpath.add_argument("--json", action="store_true",
                          help="emit the repro.critpath/1 manifest "
                               "instead of the ASCII report")
    critpath.add_argument("--output", metavar="PATH",
                          help="also write the manifest to PATH")
    critpath.set_defaults(func=_cmd_critpath)

    hotspots = sub.add_parser(
        "hotspots",
        help="program-level attribution: per-PC port/stall/miss "
             "counters, address-stream analytics, kernel/user split")
    hotspots.add_argument("--workload", default="stream",
                          help="suite workload, 'os-mix', a scenario, "
                               "or 'synthetic'")
    hotspots.add_argument("--scale", default="small",
                          choices=("tiny", "small", "medium", "full"))
    hotspots.add_argument("--seed", type=int,
                          help="generator seed (synthetic or scenario "
                               "workloads only)")
    hotspots.add_argument("--trace-file",
                          help="analyse a saved .npz trace instead")
    hotspots.add_argument("--config", default="1P",
                          choices=CONFIG_NAMES + EXTENDED_CONFIG_NAMES)
    hotspots.add_argument("--top", type=int, default=10,
                          help="rows to list in the table view")
    hotspots.add_argument("--sort", default="port",
                          choices=HOTSPOT_SORTS,
                          help="row ranking: port-conflict slots, total "
                               "stall cycles, executions, or misses "
                               "(default port)")
    hotspots.add_argument("--annotate", action="store_true",
                          help="annotated-disassembly view: every PC in "
                               "address order with its counters, plus "
                               "the top port-conflict PC's stride/"
                               "set-heatmap block")
    hotspots.add_argument("--json", action="store_true",
                          help="emit the repro.hotspots/1 manifest "
                               "instead of the ASCII report")
    hotspots.add_argument("--output", metavar="PATH",
                          help="also write the manifest to PATH")
    hotspots.set_defaults(func=_cmd_hotspots)

    fuzz = sub.add_parser("fuzz",
                          help="fuzz random programs: each trace "
                               "golden-checked once, then invariant-"
                               "checked and fast-path compared per config")
    fuzz.add_argument("--seed", type=int, default=1,
                      help="first program seed (default 1)")
    fuzz.add_argument("--count", type=int, default=20,
                      help="number of programs (consecutive seeds)")
    fuzz.add_argument("--config", action="append", metavar="NAME",
                      help="machine configuration to check (repeatable; "
                           "default: 1P, 2P, 1P-wide+LB+SC)")
    fuzz.add_argument("--units", type=int, default=24,
                      help="body units per generated program")
    fuzz.add_argument("--max-instructions", type=int, default=200_000)
    fuzz.add_argument("--artifacts", metavar="DIR",
                      help="save each failing program as a replayable "
                           ".repro reproducer in this directory")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip reducing failing programs to minimal "
                           "reproducers")
    fuzz.add_argument("--replay", metavar="FILE",
                      help="re-check a saved .repro artifact instead of "
                           "fuzzing")
    fuzz.add_argument("--verbose", action="store_true",
                      help="print per-seed progress")
    fuzz.set_defaults(func=_cmd_fuzz)

    events = sub.add_parser("events",
                            help="filter/summarize a captured event trace")
    events.add_argument("capture", help="JSONL file from simulate --events")
    events.add_argument("--event", "--type", action="append", dest="event",
                        metavar="NAME",
                        help="keep only this event type (repeatable; "
                             "--type is an alias)")
    events.add_argument("--since", type=int, metavar="CYCLE",
                        help="drop events before this cycle")
    events.add_argument("--until", type=int, metavar="CYCLE",
                        help="drop events after this cycle")
    events.add_argument("--cycle-range", metavar="FIRST:LAST",
                        help="keep cycles FIRST..LAST inclusive (either "
                             "side may be empty; replaces --since/--until)")
    events.add_argument("--pc", metavar="ADDR",
                        help="keep only events whose pc equals ADDR "
                             "(decimal or 0x-hex); events without a pc "
                             "field are dropped")
    events.add_argument("--pc-range", metavar="FIRST:LAST",
                        help="keep events with pc in FIRST..LAST "
                             "inclusive (either side may be empty; "
                             "hex accepted); events without a pc field "
                             "are dropped")
    events.add_argument("--limit", type=int, metavar="N",
                        help="print the first N matching events as JSONL "
                             "instead of a summary")
    events.set_defaults(func=_cmd_events)

    compare = sub.add_parser("compare",
                             help="diff two --json reports/manifests "
                                  "(or two directories/globs of them, "
                                  "paired by basename)")
    compare.add_argument("a", help="baseline JSON document, directory, "
                                   "or glob")
    compare.add_argument("b", help="candidate JSON document, directory, "
                                   "or glob")
    compare.add_argument("--tolerance", type=float, default=0.0,
                         metavar="REL",
                         help="relative tolerance for numeric leaves "
                              "(|a-b| <= REL*max(|a|,|b|); default 0)")
    compare.add_argument("--ignore", action="append", metavar="KEY",
                         help="skip subtrees under this key (repeatable; "
                              "default: host, engine)")
    compare.add_argument("--limit", type=int, default=20, metavar="N",
                         help="show at most N deltas in the human output")
    compare.add_argument("--json", action="store_true",
                         help="emit the repro.compare/1 delta report")
    compare.set_defaults(func=_cmd_compare)

    experiment = sub.add_parser("experiment",
                                help="regenerate a table/figure")
    experiment.add_argument("id", help="experiment id (T1, F1..F7, T2, "
                                       "A1..A6, B1, D1) or 'all'")
    experiment.add_argument("--scale", default="small",
                            choices=("tiny", "small", "full"))
    experiment.add_argument("--output",
                            help="also write each table into this directory")
    experiment.add_argument("--csv", action="store_true",
                            help="write CSV instead of plain text")
    experiment.add_argument("--json", action="store_true",
                            help="emit a versioned manifest (table + every "
                                 "run report) instead of the rendered table")
    experiment.add_argument("--jobs", type=int, metavar="N",
                            help="run each experiment's simulation grid "
                                 "across N worker processes (default: "
                                 "REPRO_JOBS or 1; tables are identical "
                                 "for any N)")
    experiment.add_argument("--trace-cache", metavar="DIR",
                            help="persistent trace cache directory "
                                 "(default: REPRO_TRACE_CACHE or "
                                 "~/.cache/repro-traces; 'off' disables)")
    experiment.add_argument("--metrics-interval", type=int,
                            metavar="CYCLES",
                            help="sample interval telemetry for every run "
                                 "in the grid; series land in the --json "
                                 "manifest's run reports")
    experiment.add_argument("--spans", metavar="PATH",
                            help="record one merged fleet timeline (parent "
                                 "warm-up + every worker's jobs) as a "
                                 "Chrome-trace JSON loadable in Perfetto")
    experiment.add_argument("--progress", action="store_true",
                            help="live single-line fleet progress on "
                                 "stderr (jobs done/total, ETA, aggregate "
                                 "kIPS, trace-cache hit ratio)")
    experiment.set_defaults(func=_cmd_experiment)

    bench = sub.add_parser("bench",
                           help="benchmark the simulator itself (host "
                                "throughput over a pinned matrix)")
    bench.add_argument("--quick", action="store_true",
                       help="the tiny-scale CI smoke matrix instead of "
                            "the full small-scale one")
    bench.add_argument("--repeats", type=int, metavar="N",
                       help="timed repetitions per cell (default: 3 for "
                            "--quick, 5 otherwise)")
    bench.add_argument("--warmup", type=int, default=1, metavar="N",
                       help="untimed warmup runs per cell (default 1)")
    bench.add_argument("--output", metavar="PATH",
                       help="manifest path (default "
                            "BENCH_<host>_<date>.json)")
    bench.add_argument("--json", action="store_true",
                       help="print the repro.bench/1 manifest (and the "
                            "comparison report, with --compare) as JSON")
    bench.add_argument("--compare", metavar="BASELINE",
                       help="compare against this saved manifest; exits 1 "
                            "if any cell's median kIPS fell more than "
                            "--tolerance below the baseline's, 2 if "
                            "simulated results differ or a manifest "
                            "cannot be read")
    bench.add_argument("--candidate", metavar="PATH",
                       help="with --compare: diff this saved manifest "
                            "instead of running the matrix")
    bench.add_argument("--tolerance", type=float, default=0.1,
                       metavar="REL",
                       help="relative throughput tolerance for --compare "
                            "(default 0.1)")
    bench.set_defaults(func=_cmd_bench)

    corpus = sub.add_parser("corpus",
                            help="OS-activity scenario corpus: list, "
                                 "run, verify")
    corpus_actions = corpus.add_subparsers(dest="action", required=True)
    corpus_actions.add_parser(
        "list", help="catalogue of scenario families").set_defaults(
        func=_cmd_corpus)
    corpus_run = corpus_actions.add_parser(
        "run", help="functionally run scenarios and check their "
                    "expected-results contracts")
    corpus_verify = corpus_actions.add_parser(
        "verify", help="full co-execution verification: contract + "
                       "golden check per trace + invariants and fast-path "
                       "differential per config, one pass/fail table")
    for sub_parser in (corpus_run, corpus_verify):
        sub_parser.add_argument("scenario", nargs="*",
                                help="scenario names (default: all)")
        sub_parser.add_argument("--scale", default="tiny",
                                choices=SCENARIO_SCALES,
                                help="scenario scale (default tiny)")
        sub_parser.add_argument("--seed", type=int,
                                help="generator seed (default: each "
                                     "scenario's default seed)")
        sub_parser.set_defaults(func=_cmd_corpus)
    corpus_verify.add_argument("--config", action="append",
                               metavar="NAME",
                               choices=CONFIG_NAMES,
                               help="machine configuration to verify "
                                    "on (repeatable; default: 1P, 2P, "
                                    "1P-wide+LB+SC)")
    corpus_verify.add_argument("--json", action="store_true",
                               help="emit the repro.corpus/1 table as "
                                    "JSON")
    corpus_verify.add_argument("-o", "--output", metavar="PATH",
                               help="also write the JSON table to PATH "
                                    "(CI artifact)")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AsmError, SimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

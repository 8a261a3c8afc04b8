"""Seeded random-program differential fuzzing.

Generates well-formed assembly programs over the whole ISA (integer
ALU, multiply/divide, loads/stores of every size, floating point,
forward branches, bounded loops, direct/indirect jumps, safe host
syscalls), then pushes each program through the full stack —
assembler → functional interpreter → timing core.  Each trace is
golden-checked once (a fresh run, the ISA decoder, the end digests);
each machine configuration of a matrix then runs it with the invariant
checker attached, and the fast cycle loop against that reference-loop
run.  Any golden divergence, invariant violation, commit-order or
commit-count break or fast-loop difference is a failure.

Programs are built from **units**: self-contained blocks of lines that
can be removed independently (labels are unique per unit, registers are
drawn from disjoint pools so loop counters are never clobbered).  That
structure is what makes failing programs shrinkable: a greedy
delta-debugging pass removes unit chunks while the failure reproduces,
then reduces loop trip counts, yielding a minimal reproducer that is
saved as a ``.repro`` JSON artifact (replayable with
``repro fuzz --replay``).

Generation is fully deterministic in the seed: programs always
terminate (loops have fixed trip counts, branches only jump forward)
and never trap (all arithmetic is defined, memory accesses are aligned
inside a private scratch buffer).
"""

from __future__ import annotations

import json
import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from random import Random

from ..asm import AsmError, assemble
from ..atomic import atomic_write
from ..func.exceptions import SimError
from ..func.run import run_bare
from ..obs.report import Opt, const, validate

#: Schema tag of the ``.repro`` reproducer artifacts.
ARTIFACT_SCHEMA = "repro.fuzz/1"

#: The default configuration matrix: single-ported baseline, the
#: dual-ported reference, and the full single-port technique stack.
DEFAULT_CONFIGS = ("1P", "2P", "1P-wide+LB+SC")

_BUF_BYTES = 512  # private scratch buffer every memory unit targets

# Disjoint register pools: scratch values, loop counters, the buffer
# base.  a0/a7 belong to the syscall ABI, ra to jal, sp to the runner.
_INT_POOL = ("t0", "t1", "t2", "t3", "t4", "t5", "t6",
             "s2", "s3", "s4", "s5", "a1", "a2", "a3", "a4", "a5")
_CTR_POOL = ("s8", "s9", "s10", "s11")
_FP_POOL = tuple(f"f{index}" for index in range(8))
_BASE = "s0"

_ALU_RR = ("add", "sub", "and", "or", "xor", "nor", "sll", "srl", "sra",
           "slt", "sltu", "mul", "mulh", "div", "rem")
_ALU_RI = ("addi", "andi", "ori", "xori", "slti", "sltiu")
_ALU_SHIFT_I = ("slli", "srli", "srai")
_LOADS = ("lb", "lbu", "lh", "lhu", "lw", "lwu", "ld")
_STORES = ("sb", "sh", "sw", "sd")
_MEM_SIZE = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lwu": 4,
             "ld": 8, "sb": 1, "sh": 2, "sw": 4, "sd": 8,
             "fld": 8, "fsd": 8}
_FP_RRR = ("fadd", "fsub", "fmul", "fdiv")
_FP_CMP = ("feq", "flt", "fle")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
_SAFE_SYSCALLS = (4, 5, 6)  # yield, getpid, time

#: A unit is a list of assembly lines removable as a block.
Unit = list[str]


@dataclass
class FuzzConfig:
    """One fuzzing campaign."""

    seed: int = 1
    count: int = 20
    configs: tuple[str, ...] = DEFAULT_CONFIGS
    units: int = 24
    max_instructions: int = 200_000
    shrink: bool = True


@dataclass
class FuzzFailure:
    """One failing program, with its shrunk reproducer when available."""

    seed: int
    failures: list[str]
    source: str
    shrunk_source: str | None = None


@dataclass
class FuzzReport:
    """Outcome of :func:`run_fuzz`."""

    config: FuzzConfig
    programs: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
class _UnitGenerator:
    def __init__(self, rng: Random) -> None:
        self.rng = rng
        self._labels = 0

    def _label(self) -> str:
        self._labels += 1
        return f"L{self._labels}"

    def _int_reg(self) -> str:
        return self.rng.choice(_INT_POOL)

    def _fp_reg(self) -> str:
        return self.rng.choice(_FP_POOL)

    def _offset(self, size: int) -> int:
        return self.rng.randrange(0, _BUF_BYTES // size) * size

    # -- straight-line lines (safe inside any unit) ---------------------
    def _alu_line(self) -> str:
        rng = self.rng
        kind = rng.randrange(3)
        rd = self._int_reg()
        if kind == 0:
            op = rng.choice(_ALU_RR)
            return f"    {op} {rd}, {self._int_reg()}, {self._int_reg()}"
        if kind == 1:
            op = rng.choice(_ALU_RI)
            return f"    {op} {rd}, {self._int_reg()}, " \
                   f"{rng.randint(-1024, 1023)}"
        op = rng.choice(_ALU_SHIFT_I)
        return f"    {op} {rd}, {self._int_reg()}, {rng.randrange(64)}"

    def _load_line(self) -> str:
        op = self.rng.choice(_LOADS)
        return f"    {op} {self._int_reg()}, " \
               f"{self._offset(_MEM_SIZE[op])}({_BASE})"

    def _store_line(self) -> str:
        op = self.rng.choice(_STORES)
        return f"    {op} {self._int_reg()}, " \
               f"{self._offset(_MEM_SIZE[op])}({_BASE})"

    def _fp_line(self) -> str:
        rng = self.rng
        kind = rng.randrange(6)
        if kind == 0:
            return f"    fld {self._fp_reg()}, {self._offset(8)}({_BASE})"
        if kind == 1:
            return f"    fsd {self._fp_reg()}, {self._offset(8)}({_BASE})"
        if kind == 2:
            op = rng.choice(_FP_RRR)
            return f"    {op} {self._fp_reg()}, {self._fp_reg()}, " \
                   f"{self._fp_reg()}"
        if kind == 3:
            op = rng.choice(_FP_CMP)
            return f"    {op} {self._int_reg()}, {self._fp_reg()}, " \
                   f"{self._fp_reg()}"
        if kind == 4:
            return f"    fcvt.d.l {self._fp_reg()}, {self._int_reg()}"
        return f"    fcvt.l.d {self._int_reg()}, {self._fp_reg()}"

    def _straightline(self) -> str:
        pick = self.rng.randrange(5)
        if pick < 2:
            return self._alu_line()
        if pick == 2:
            return self._load_line()
        if pick == 3:
            return self._store_line()
        return self._fp_line()

    # -- units ----------------------------------------------------------
    def unit_alu(self) -> Unit:
        return [self._alu_line() for _ in range(self.rng.randint(1, 3))]

    def unit_load(self) -> Unit:
        return [self._load_line() for _ in range(self.rng.randint(1, 2))]

    def unit_store(self) -> Unit:
        return [self._store_line() for _ in range(self.rng.randint(1, 2))]

    def unit_fp(self) -> Unit:
        return [self._fp_line() for _ in range(self.rng.randint(1, 2))]

    def unit_branch(self) -> Unit:
        label = self._label()
        op = self.rng.choice(_BRANCHES)
        lines = [f"    {op} {self._int_reg()}, {self._int_reg()}, {label}"]
        lines += [self._straightline()
                  for _ in range(self.rng.randint(0, 2))]
        lines.append(f"{label}:")
        return lines

    def unit_loop(self) -> Unit:
        label = self._label()
        counter = self.rng.choice(_CTR_POOL)
        lines = [f"    li {counter}, {self.rng.randint(1, 6)}",
                 f"{label}:"]
        lines += [self._straightline()
                  for _ in range(self.rng.randint(1, 3))]
        lines += [f"    subi {counter}, {counter}, 1",
                  f"    bnez {counter}, {label}"]
        return lines

    def unit_jump(self) -> Unit:
        label = self._label()
        kind = self.rng.randrange(3)
        if kind == 0:
            lines = [f"    j {label}"]
        elif kind == 1:
            lines = [f"    jal {label}"]
        else:
            scratch = self._int_reg()
            lines = [f"    la {scratch}, {label}", f"    jr {scratch}"]
        # dead code between the jump and its target (never executed,
        # still fetched by the functional loader).
        lines += [self._alu_line()
                  for _ in range(self.rng.randint(0, 2))]
        lines.append(f"{label}:")
        return lines

    def unit_syscall(self) -> Unit:
        return [f"    li a7, {self.rng.choice(_SAFE_SYSCALLS)}",
                "    syscall 0"]

    def unit_seed_int(self) -> Unit:
        return [f"    li {self._int_reg()}, "
                f"{self.rng.randint(-(1 << 14), (1 << 14) - 1)}"]

    def unit_seed_fp(self) -> Unit:
        scratch = self._int_reg()
        return [f"    li {scratch}, {self.rng.randint(-512, 511)}",
                f"    fcvt.d.l {self._fp_reg()}, {scratch}"]


_UNIT_WEIGHTS = (
    ("unit_alu", 26),
    ("unit_load", 20),
    ("unit_store", 14),
    ("unit_fp", 12),
    ("unit_branch", 12),
    ("unit_loop", 8),
    ("unit_jump", 5),
    ("unit_syscall", 3),
)


def generate_units(seed: int, units: int = 24) -> list[Unit]:
    """Deterministically generate the body units for one program."""
    rng = Random(seed)
    generator = _UnitGenerator(rng)
    body: list[Unit] = []
    for _ in range(rng.randint(3, 6)):
        body.append(generator.unit_seed_int())
    for _ in range(rng.randint(0, 2)):
        body.append(generator.unit_seed_fp())
    names = [name for name, weight in _UNIT_WEIGHTS]
    weights = [weight for name, weight in _UNIT_WEIGHTS]
    for _ in range(units):
        name = rng.choices(names, weights=weights)[0]
        body.append(getattr(generator, name)())
    return body


def render_program(units: Sequence[Unit]) -> str:
    """Wrap body units in the fixed prologue/epilogue."""
    lines = [
        ".equ SYS_EXIT, 1",
        "",
        ".data",
        f"buf: .space {_BUF_BYTES}",
        "",
        ".text",
        "main:",
        f"    la {_BASE}, buf",
    ]
    for unit in units:
        lines.extend(unit)
    lines += ["    li a0, 0", "    li a7, SYS_EXIT", "    syscall 0", ""]
    return "\n".join(lines)


def generate_program(seed: int, units: int = 24) -> str:
    """One complete random program (deterministic in *seed*)."""
    return render_program(generate_units(seed, units))


# ----------------------------------------------------------------------
# Checking
# ----------------------------------------------------------------------
def check_program(source: str,
                  configs: Sequence[str] = DEFAULT_CONFIGS,
                  max_instructions: int = 200_000) -> list[str]:
    """Check *source*'s trace once against the golden check, then run it
    through every config with the invariant checker attached, and
    through the fast cycle loop against that checked reference-loop
    run.

    Returns a list of failure descriptions (empty = the trace is what
    the program does, and on every config the core commits it once, in
    order, breaks no invariant and times identically on both loops).
    """
    from ..core.pipeline import OoOCore
    from ..presets import machine
    from ..validate import (InvariantChecker, fastpath_divergence,
                            golden_check)

    try:
        program = assemble(source)
    except AsmError as exc:
        return [f"assemble: {exc}"]
    try:
        func = run_bare(program, max_instructions=max_instructions,
                        collect_trace=True, compute_digests=True)
    except SimError as exc:
        return [f"functional: {exc}"]
    if not func.trace:
        return ["functional: empty trace"]
    failures = [str(violation) for violation
                in golden_check(func.trace, program, func.digests)]
    for name in configs:
        checker = InvariantChecker()
        try:
            result = OoOCore(machine(name),
                             validator=checker).run(func.trace)
        except SimError as exc:
            failures.append(f"{name}: timing core error: {exc}")
            continue
        violations = checker.violations
        failures.extend(f"{name}: {violation}"
                        for violation in violations[:5])
        if len(violations) > 5:
            failures.append(f"{name}: ... {len(violations) - 5} more "
                            f"violations")
        try:
            divergence = fastpath_divergence(name, func.trace,
                                             checked=result)
        except SimError as exc:
            divergence = f"fast-path differential error: {exc}"
        if divergence is not None:
            failures.append(f"{name}: {divergence}")
    return failures


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def shrink_units(units: Sequence[Unit],
                 failing: Callable[[str], bool]) -> list[Unit]:
    """Greedy ddmin over units: drop the largest chunks that keep the
    program failing, then reduce loop trip counts."""
    remaining = [list(unit) for unit in units]
    chunk = max(1, len(remaining) // 2)
    while chunk >= 1:
        index = 0
        while index < len(remaining):
            candidate = remaining[:index] + remaining[index + chunk:]
            if candidate and failing(render_program(candidate)):
                remaining = candidate
            else:
                index += chunk
        chunk //= 2
    return _reduce_loops(remaining, failing)


_LOOP_HEAD = re.compile(r"\s*li (s8|s9|s10|s11), (\d+)$")


def _reduce_loops(units: list[Unit],
                  failing: Callable[[str], bool]) -> list[Unit]:
    for index, unit in enumerate(units):
        match = _LOOP_HEAD.match(unit[0]) if unit else None
        if match is None or int(match.group(2)) <= 1:
            continue
        reduced = [f"    li {match.group(1)}, 1"] + unit[1:]
        candidate = units[:index] + [reduced] + units[index + 1:]
        if failing(render_program(candidate)):
            units = candidate
    return units


# ----------------------------------------------------------------------
# The campaign driver
# ----------------------------------------------------------------------
def run_fuzz(config: FuzzConfig,
             progress: Callable[[str], None] | None = None) -> FuzzReport:
    """Fuzz ``config.count`` programs from consecutive seeds."""
    report = FuzzReport(config)
    for seed in range(config.seed, config.seed + config.count):
        units = generate_units(seed, config.units)
        source = render_program(units)
        failures = check_program(source, config.configs,
                                 config.max_instructions)
        report.programs += 1
        if not failures:
            if progress is not None:
                progress(f"seed {seed}: ok")
            continue
        failure = FuzzFailure(seed=seed, failures=failures, source=source)
        if config.shrink:
            def failing(candidate: str) -> bool:
                return bool(check_program(candidate, config.configs,
                                          config.max_instructions))
            shrunk = shrink_units(units, failing)
            failure.shrunk_source = render_program(shrunk)
        report.failures.append(failure)
        if progress is not None:
            progress(f"seed {seed}: FAILED ({failures[0]})")
    return report


# ----------------------------------------------------------------------
# Reproducer artifacts
# ----------------------------------------------------------------------
def artifact_payload(failure: FuzzFailure,
                     configs: Sequence[str]) -> dict[str, object]:
    return {
        "schema": ARTIFACT_SCHEMA,
        "seed": failure.seed,
        "configs": list(configs),
        "failures": list(failure.failures),
        "source": failure.source,
        "shrunk_source": failure.shrunk_source,
    }


def save_artifact(path: str, failure: FuzzFailure,
                  configs: Sequence[str]) -> None:
    """Write one failing program as a replayable ``.repro`` file."""
    with atomic_write(path) as handle:
        json.dump(artifact_payload(failure, configs), handle, indent=2)
        handle.write("\n")


#: The ``.repro`` artifact, as :func:`load_artifact` checks it.
ARTIFACT_SPEC = {
    "schema": const(ARTIFACT_SCHEMA),
    "seed": int,
    "configs": Opt([str]),
    "failures": [str],
    "source": str,
    "shrunk_source": Opt(str),
}


def load_artifact(path: str) -> dict[str, object]:
    """Read a ``.repro`` artifact; a malformed one raises
    :class:`~repro.obs.report.SchemaError`."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    validate(payload, ARTIFACT_SPEC, "fuzz")
    return payload


def replay_artifact(payload: dict[str, object],
                    max_instructions: int = 200_000) -> list[str]:
    """Re-check an artifact's (shrunk, if available) program."""
    source = payload.get("shrunk_source") or payload["source"]
    configs = tuple(payload.get("configs") or DEFAULT_CONFIGS)
    return check_program(source, configs, max_instructions)

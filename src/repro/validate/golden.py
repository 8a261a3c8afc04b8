"""The golden check: a trace is what its program does.

The timing core is trace-driven: it never computes a value, so its
correctness claim has two halves.  The trace must be what the program
does, and the core must commit every record once, in order.  The
second half depends on the machine and is proved per run by
:class:`~repro.validate.InvariantChecker`: ``rob.order`` (committed
seqs strictly increase) and ``drain.commit_count`` (as many commits as
records) mean the commits are exactly ``0..n-1``.  The first half does
not depend on the machine, so :func:`golden_check` proves it once per
trace, comparing three things:

* every column of the trace against a fresh interpretation of the same
  program (:func:`~repro.func.run.run_bare`) or mini-OS system
  (:func:`~repro.scenarios.runtime.run_build`);
* every record's static columns against :func:`~repro.isa.decode` of
  the word at its PC in a freshly loaded image: one expected row per
  distinct PC, compared with every record, so corruption at a PC that
  earlier records passed is still caught;
* the fresh run's end digests against the producer's.

Decoding each PC once is sound because loaded text is immutable: the
producer faults a store that overlaps it (see
:mod:`repro.func.memory`).  A divergence is reported once, at the first
record that differs: its seq, its PC, the column, the trace's value,
the expected one and the PCs before it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..func.interp import load_program
from ..func.memory import Memory
from ..func.run import run_bare
from ..isa import INSTRUCTION_BYTES, Program, decode
from ..kernel.image import build_system
from ..scenarios.runtime import ScenarioBuild, run_build
from ..trace.io import (F_KERNEL, F_TAKEN, _STATIC_FIELDS, Trace,
                        _static_row, as_trace)
from .base import Violation

#: Trace PCs a divergence report shows before the diverging record.
_CONTEXT = 4

#: Flag bits the instruction alone fixes: not a branch's taken bit,
#: not the kernel bit.
_STATIC_FLAGS = 0xFF & ~(F_TAKEN | F_KERNEL)

#: Columns compared with the fresh run, in the order a divergence at
#: one record is named: (column, check, flag bits or None for all).
_FRESH_CHECKS = (("pc", "pc", None), ("opclass", "decode", None),
                 ("dest", "decode", None), ("src", "decode", None),
                 ("nsrc", "decode", None), ("naddr", "decode", None),
                 ("mem_size", "decode", None), ("mem_addr", "mem_addr", None),
                 ("flags", "branch", F_TAKEN),
                 ("flags", "decode", 0xFF & ~F_TAKEN),
                 ("next_pc", "next_pc", None))

#: Columns a report shows in hex.
_HEX = ("pc", "mem_addr", "next_pc", "flags")


def golden_check(trace: Trace | Sequence, source: Program | ScenarioBuild,
                 digests: dict[str, str]) -> list[Violation]:
    """Check *trace* (a :class:`Trace` or a record list) against a fresh
    run of *source*: a :class:`Program` for a bare user-mode trace, a
    :class:`ScenarioBuild` for a full-system one.  *digests*, the
    producer's end digests, are compared with the fresh run's.  Returns
    the violations, empty when the trace is what the program does."""
    trace = as_trace(trace)
    if isinstance(source, Program):
        run = run_bare(source, collect_trace=True, compute_digests=True)
        fresh, fresh_digests = run.trace, run.digests
        image = Memory()
        load_program(image, source)
    else:
        run = run_build(source, collect_trace=True)
        fresh, fresh_digests = run.result.trace, run.digests
        image = build_system(list(source.programs),
                             source.timer_interval).memory
    violations = []
    first = _first_divergence(trace, fresh, image)
    if first is not None:
        violations.append(first)
    if len(trace) != len(fresh):
        violations.append(Violation(-1, "golden.length", (
            f"the trace has {len(trace)} records, a fresh run retires "
            f"{len(fresh)}")))
    if digests != fresh_digests:
        differ = [key for key in sorted(digests.keys() | fresh_digests)
                  if digests.get(key) != fresh_digests.get(key)]
        violations.append(Violation(-1, "golden.digests", (
            f"the producer's end digests differ from a fresh run's in "
            f"{', '.join(differ)}")))
    return violations


def _first_divergence(trace: Trace, fresh: Trace,
                      image: Memory) -> Violation | None:
    """The first record at which *trace* disagrees with the decoder or
    with *fresh*, as one violation; None when every record agrees."""
    # (seq, rank, check, claim) of each test's first diverging record.
    found = []
    decoded = _decode_check(trace, image)
    if decoded is not None:
        found.append(decoded)
    count = min(len(trace), len(fresh))
    for rank, (name, check, bits) in enumerate(_FRESH_CHECKS):
        ours = getattr(trace, name)[:count]
        theirs = getattr(fresh, name)[:count]
        differs = ours != theirs if bits is None \
            else ((ours ^ theirs) & bits) != 0
        if differs.ndim > 1:
            differs = differs.any(axis=1)
        if differs.any():
            seq = int(np.argmax(differs))
            found.append((seq, rank, check,
                          f"{name}: trace {_show(name, ours[seq])}, fresh "
                          f"run {_show(name, theirs[seq])}"))
    if not found:
        return None
    seq, _, check, claim = min(found)
    recent = ", ".join(f"{pc:#x}" for pc
                       in trace.pc[max(0, seq - _CONTEXT):seq].tolist())
    return Violation(-1, f"golden.{check}", (
        f"seq {seq} (pc {int(trace.pc[seq]):#x}): {claim}; "
        f"recent: {recent or 'none'}"))


def _decode_check(trace: Trace, image: Memory) -> tuple | None:
    """The first record whose static columns disagree with the decode of
    the word at its PC in *image*, as ``(seq, rank, check, claim)``
    ranked just after the pc test; None when every record agrees.  The
    columns are compared one at a time, so the check holds one expected
    column, not a row per record, beside the trace."""
    if not len(trace):
        return None
    pcs, row_of = np.unique(trace.pc, return_inverse=True)
    row_of = row_of.ravel()
    rows, shown, missing = [], [], []
    for pc in pcs.tolist():
        try:
            instr = decode(_word_at(image, pc))
        except ValueError as exc:  # the word is no instruction
            rows.append((pc,) + (0,) * (len(_STATIC_FIELDS) - 1))
            shown.append(f"no instruction there ({exc})")
            missing.append(True)
            continue
        rows.append(_static_row(pc, instr))
        shown.append(str(instr))
        missing.append(False)
    table = np.array(rows, dtype=np.uint64)
    table[:, -1] &= _STATIC_FLAGS
    # (seq, field) of the first diverging record; field -1 is a PC with
    # no instruction, which outranks the columns at the same record.
    found = []
    if any(missing):
        found.append((int(np.argmax(np.array(missing)[row_of])), -1))
    for field, name in enumerate(_STATIC_FIELDS):
        ours = _static_column(trace, name)
        differs = ours != table[:, field].astype(ours.dtype)[row_of]
        if differs.any():
            found.append((int(np.argmax(differs)), field))
    if not found:
        return None
    seq, field = min(found)
    row = int(row_of[seq])
    if field < 0:
        return seq, 0.5, "decode", f"the loaded image holds {shown[row]}"
    name = _STATIC_FIELDS[field]
    return seq, 0.5, "decode", (
        f"{name}: trace {_show(name, _static_column(trace, name)[seq])}, "
        f"isa.decode {_show(name, table[row, field])} ({shown[row]})")


def _static_column(trace: Trace, name: str) -> np.ndarray:
    """The trace column of static field *name*, flags masked to the bits
    the instruction alone fixes."""
    if name.startswith("src"):
        return trace.src[:, int(name[3:])]
    column = getattr(trace, name)
    return column & _STATIC_FLAGS if name == "flags" else column


def _word_at(image: Memory, pc: int) -> int:
    """The instruction word at *pc* in *image*; a ValueError when *pc*
    is not an instruction address of its loaded text."""
    if pc % INSTRUCTION_BYTES or not any(
            start <= pc < end for start, end in image.text_ranges):
        raise ValueError("not in the loaded text")
    return image.load(pc, INSTRUCTION_BYTES)


def _show(name: str, value) -> str:
    """One column value as a report shows it."""
    if isinstance(value, np.ndarray):
        return str(value.tolist())
    return f"{int(value):#x}" if name in _HEX else str(int(value))

"""Pipeline-trace export in the Konata/Kanata text format.

`Konata <https://github.com/shioyadan/Konata>`_ is the de-facto
pipeline-trace viewer for academic simulators (gem5's O3 pipeline
viewer speaks the same ``Kanata`` log dialect).  Exporting our
per-instruction stage timings lets port-arbitration behaviour be
*seen*: a load that lost cache-port arbitration shows up as a stretched
X (execute/memory) segment, a store stuck behind a full write buffer as
a stretched C (completed, waiting to commit) segment.

A :class:`PipeTrace` attached to the timing core records one
:class:`PipeRecord` per committed instruction from the probe's
``commit`` event (see :mod:`repro.obs.probe`), which carries the
instruction's ``seq`` and stage cycles; its pc and label (the
disassembly when the trace has an instruction table, else the opclass)
are looked up by ``seq`` in the trace.  :meth:`write`
renders the Kanata text; :func:`parse_konata` is the matching reader
used by the round-trip tests and by anyone post-processing traces.

Stage lanes (lane 0, one row per instruction):

====  =======================================================
``F``  fetch → dispatch (fetch queue + decode)
``D``  dispatch → issue (waiting in the issue window)
``X``  issue → complete (execute, AGU, cache access, fills)
``C``  complete → commit (waiting for in-order retirement)
====  =======================================================

A stage whose window is empty (e.g. an instruction that completes and
commits in the same cycle) is omitted; every record keeps at least its
``F`` stage.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

from ..atomic import atomic_write
from ..trace.io import OPCLASSES, Trace

#: File header: format name, TAB, format version.
KONATA_HEADER = "Kanata\t0004"

#: Label of an instruction without disassembly, by opclass index.
_KINDS = tuple(opclass.name.lower() for opclass in OPCLASSES)

#: (attribute, stage label) pairs in pipeline order.
_STAGES = ("F", "D", "X", "C")


@dataclass(frozen=True)
class PipeRecord:
    """Stage timings of one committed instruction."""

    seq: int
    pc: int
    label: str
    fetch: int
    dispatch: int
    issue: int
    complete: int
    commit: int

    def stage_starts(self) -> list[tuple[str, int]]:
        """(stage, start-cycle) pairs, empty stages dropped, starts
        forced monotonic (a store can 'complete' at address-resolve
        time, before it issues in a wide machine)."""
        raw = (("F", self.fetch), ("D", self.dispatch),
               ("X", self.issue), ("C", self.complete))
        starts: list[tuple[str, int]] = []
        floor = self.fetch
        for stage, cycle in raw:
            cycle = max(cycle, floor)
            if starts and cycle <= starts[-1][1] and stage != "F":
                continue  # empty window: stage skipped
            starts.append((stage, cycle))
            floor = cycle
        return starts


class PipeTrace:
    """Collects committed-instruction stage timings for export; one
    collector serves one run."""

    served = False

    def __init__(self) -> None:
        self.records: list[PipeRecord] = []

    def run_begin(self, core: object, trace: Trace) -> None:
        """Probe event: label instructions from *trace*."""
        lists = trace.lists()
        self._pcs = lists["pc"]
        self._opclasses = lists["opclass"]
        self._instructions = trace.instructions or {}

    def commit(self, seq: int, cycle: int, times: tuple) -> None:
        """Probe event: instruction *seq* retires at *cycle*."""
        fetch, dispatch, _, issue, _, _, complete = times
        pc = self._pcs[seq]
        instr = self._instructions.get(pc)
        label = str(instr) if instr is not None else \
            _KINDS[self._opclasses[seq]]
        self.records.append(PipeRecord(seq, pc, label, fetch, dispatch,
                                       issue, complete, cycle))

    # ------------------------------------------------------------------
    def write(self, destination: str | io.TextIOBase) -> int:
        """Render the Kanata text; returns the record count."""
        if isinstance(destination, str):
            with atomic_write(destination) as handle:
                return self._render(handle)
        return self._render(destination)

    def _render(self, out: io.TextIOBase) -> int:
        out.write(KONATA_HEADER + "\n")
        out.write("C=\t0\n")
        for record in self.records:
            uid = record.seq
            out.write(f"C=\t{record.fetch}\n")
            out.write(f"I\t{uid}\t{record.seq}\t0\n")
            out.write(f"L\t{uid}\t0\t{record.pc:#x}: {record.label}\n")
            last_stage = "F"
            for stage, start in record.stage_starts():
                if stage != "F":
                    out.write(f"C=\t{start}\n")
                out.write(f"S\t{uid}\t0\t{stage}\n")
                last_stage = stage
            end = max(record.commit, record.fetch)
            out.write(f"C=\t{end}\n")
            out.write(f"E\t{uid}\t0\t{last_stage}\n")
            out.write(f"R\t{uid}\t{record.seq}\t0\n")
        return len(self.records)


@dataclass
class ParsedOp:
    """One instruction reconstructed from a Kanata log."""

    uid: int
    sim_id: int
    label: str
    stages: dict[str, int]
    retired_cycle: int | None = None
    flushed: bool = False

    @property
    def pc(self) -> int:
        """Recovered from the ``0x...:`` label prefix (our writer's
        convention)."""
        prefix = self.label.split(":", 1)[0]
        return int(prefix, 16)


def parse_konata(source: str | io.TextIOBase) -> list[ParsedOp]:
    """Parse a Kanata log (at least the subset our writer emits).

    Raises :class:`ValueError` on a missing/wrong header or malformed
    commands, so the round-trip test doubles as a format check.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8") as handle:
            return parse_konata(handle)
    lines = source.read().splitlines()
    if not lines or lines[0] != KONATA_HEADER:
        raise ValueError("not a Kanata log: missing 'Kanata\\t0004' header")
    ops: dict[int, ParsedOp] = {}
    order: list[int] = []
    cycle = 0
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        command = parts[0]
        try:
            if command == "C=":
                cycle = int(parts[1])
            elif command == "C":
                cycle += int(parts[1])
            elif command == "I":
                uid = int(parts[1])
                ops[uid] = ParsedOp(uid, int(parts[2]), "", {})
                order.append(uid)
            elif command == "L":
                ops[int(parts[1])].label += parts[3]
            elif command == "S":
                ops[int(parts[1])].stages[parts[3]] = cycle
            elif command == "E":
                pass  # stage end: implied by the next S or by R
            elif command == "R":
                op = ops[int(parts[1])]
                op.retired_cycle = cycle
                op.flushed = parts[3] == "1"
            else:
                raise ValueError(f"unknown command {command!r}")
        except (IndexError, KeyError, ValueError) as exc:
            raise ValueError(
                f"malformed Kanata line {number}: {line!r} ({exc})"
            ) from exc
    return [ops[uid] for uid in order]

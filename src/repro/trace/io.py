"""Columnar traces: the in-memory :class:`Trace` and its ``.npz`` files.

Functional simulation is the slow half of a study; persisting traces
lets a parameter sweep rerun the timing core alone.  A :class:`Trace`
holds a dynamic trace as ten numpy columns, the same ten a ``.npz``
file stores.  The functional simulator produces them directly
(:meth:`Trace.gather`: one static row per decoded PC, gathered by the
row id each retired instruction appended), a reload reads each
column's ``.npy`` member in one decompressing read and wraps the bytes
as a read-only array, the fast cycle loop precomputes straight from
the columns (once per trace, see :mod:`repro.core.fastpath`), and the
reference loop, the recorders and the checkers read them by ``seq`` as
Python lists built once per trace (:meth:`Trace.lists`) — none of them
does per-record work.  Records
(:class:`~repro.trace.record.TraceRecord`) are built only when
something indexes or iterates the trace — the CLI, tests, a plain
record list's consumers — and then once, column-wise; a freshly
gathered trace keeps its static instruction table
(:attr:`Trace.instructions`), so its records carry their
instructions.

Instruction back-references are not persisted; instead, format v2
persists the three *timing hints* the core would otherwise derive from
them (the store address/data operand split, SYSCALL/ERET
serialisation, and J/JAL decode redirects), so a reloaded trace times
**identically** to the fresh instruction-bearing one.  Bump
:data:`FORMAT_VERSION` on any change that can alter timing — the
on-disk trace cache keys on it.
"""

from __future__ import annotations

import itertools
import math
import os
import zipfile
import zlib
from typing import IO, Iterator, Sequence

import numpy as np
from numpy.lib import format as npy_format

from ..isa import INSTRUCTION_BYTES, Bank, Instruction, OpClass, Opcode
from ..atomic import atomic_write
from .record import TraceRecord

#: Opclasses in column order: the ``opclass`` column holds indices into
#: this tuple.
OPCLASSES = tuple(OpClass)

#: ``dest`` sentinel for "writes no register".
NO_DEST = 255
#: Source operands per record (the ``src`` column's width).
MAX_SOURCES = 2
#: ``naddr`` sentinel for "unknown" (use the positional heuristic, as
#: for synthetic traces).
NO_SPLIT = 255

#: v2: store operand split + serialise/decode-redirect flag bits.
FORMAT_VERSION = 2

#: Bits of the ``flags`` column.
F_LOAD = 1
F_STORE = 2
F_CONTROL = 4
F_TAKEN = 8
F_KERNEL = 16
F_SERIALIZES = 32
F_REDIRECT = 64

#: The columns, in file order: name -> (dtype, per-record shape).
COLUMNS = {
    "pc": (np.uint64, ()),
    "opclass": (np.uint8, ()),
    "dest": (np.uint8, ()),              # NO_DEST when none
    "src": (np.uint8, (MAX_SOURCES,)),   # zero-padded
    "nsrc": (np.uint8, ()),
    "naddr": (np.uint8, ()),             # store address operands
    "mem_addr": (np.uint64, ()),
    "mem_size": (np.uint8, ()),
    "flags": (np.uint8, ()),
    "next_pc": (np.uint64, ()),
}

_SERIALIZING_OPCODES = (Opcode.SYSCALL, Opcode.ERET)
_DECODE_REDIRECT_OPCODES = (Opcode.J, Opcode.JAL)


def _store_split(instr: Instruction) -> tuple[tuple[int, ...], int]:
    """The (sources, addr_count) pair of a store that reproduces the
    dependence wiring the timing core derives from the instruction
    (see ``OoOCore._wire_dependences``)."""
    regs: list[int] = []
    count = 0
    if instr.rs1 != 0:
        regs.append(instr.rs1)
        count = 1
    if not (instr.info.rs2_bank is Bank.INT and instr.rs2 == 0):
        regs.append(instr.rs2)
    return tuple(regs), count


def _store_operands(record: TraceRecord) -> tuple[tuple[int, ...], int]:
    """A store record's (sources, addr_count) pair."""
    if record.instr is None:
        # Already instruction-less: keep whatever split the record
        # carries (round-trips loaded traces, leaves synthetic ones on
        # the positional heuristic).
        count = record.store_addr_count
        return record.sources[:MAX_SOURCES], \
            count if count >= 0 else NO_SPLIT
    return _store_split(record.instr)


def _instruction_hints(instr: Instruction) -> int:
    """Flag bits of an instruction's serialisation/decode-redirect
    timing hints."""
    return (instr.opcode in _SERIALIZING_OPCODES) * F_SERIALIZES \
        | (instr.opcode in _DECODE_REDIRECT_OPCODES) * F_REDIRECT


def _hint_flags(record: TraceRecord) -> int:
    """Flag bits of the serialisation/decode-redirect timing hints."""
    if record.instr is None:
        return record.serializes * F_SERIALIZES \
            | record.decode_redirect * F_REDIRECT
    return _instruction_hints(record.instr)


#: Fields of a :func:`_static_row`, in order.
_STATIC_FIELDS = ("pc", "opclass", "dest", "src0", "src1", "nsrc", "naddr",
                  "mem_size", "flags")


def _static_row(pc: int, instr: Instruction) -> tuple[int, ...]:
    """The columns every retirement of *instr* at *pc* shares (see
    :data:`_STATIC_FIELDS`), encoded as :meth:`Trace.from_records`
    encodes its records; ``flags`` lacks the taken and kernel bits.
    Jumps are always taken: one that faults never retires."""
    info = instr.info
    sources, naddr = _store_split(instr) if info.is_store \
        else (instr.sources, NO_SPLIT)
    src = sources + (0,) * (MAX_SOURCES - len(sources))
    dest = instr.dest
    flags = info.is_load * F_LOAD | info.is_store * F_STORE \
        | info.is_control * F_CONTROL \
        | (info.opclass is OpClass.JUMP) * F_TAKEN \
        | _instruction_hints(instr)
    return (pc, OPCLASSES.index(info.opclass),
            NO_DEST if dest is None else dest, *src, len(sources), naddr,
            info.mem_size, flags)


class Trace:
    """A dynamic trace as columns (see :data:`COLUMNS`).

    ``len`` reads a column; indexing and iteration yield
    :class:`TraceRecord` objects, decoded from the columns on first use
    and kept.  A trace wrapped by :meth:`from_records` keeps the records
    it was given; one gathered from a functional run keeps its static
    instruction table (PC -> :class:`~repro.isa.Instruction`), so its
    records, and those of its :meth:`user_only` view, decode with their
    instruction back-references, as the interpreter's own records had
    them.  Columns and records are read-only by convention (a reloaded
    trace's columns are read-only arrays): a mutated record does not
    update the columns.
    """

    __slots__ = (*COLUMNS, "_records", "_instructions", "_lists")

    def __init__(self, columns: dict[str, np.ndarray],
                 records: list[TraceRecord] | None = None,
                 instructions: dict[int, Instruction] | None = None,
                 ) -> None:
        for name in COLUMNS:
            setattr(self, name, columns[name])
        self._records = records
        self._instructions = instructions
        self._lists: dict[str, list] | None = None

    @classmethod
    def gather(cls, instructions: dict[int, Instruction],
               rows: Sequence[int], kernel: Sequence[int],
               mem_addr: Sequence[int], taken: Sequence[bool]) -> "Trace":
        """The trace of a functional run, from what it appended.

        *instructions* maps each decoded PC to its instruction, in the
        order the run decoded them (a PC's position is its row id);
        *rows* and *kernel* give each retired instruction's row id and
        kernel bit, *mem_addr* each retired memory access's effective
        address and *taken* each retired branch's direction, all in
        retirement order.  ``next_pc`` is the next record's pc; the last
        record falls through.
        """
        n = len(rows)
        index = np.fromiter(rows, np.intp, n)
        table = np.array([_static_row(pc, instr) for pc, instr
                          in instructions.items()], dtype=np.uint64)
        table = table.reshape(-1, len(_STATIC_FIELDS))

        def field(name: str, dtype) -> np.ndarray:
            return table[:, _STATIC_FIELDS.index(name)].astype(dtype)[index]

        pc = field("pc", np.uint64)
        opclass = field("opclass", np.uint8)
        flags = field("flags", np.uint8)
        flags |= np.fromiter(kernel, np.uint8, n) * np.uint8(F_KERNEL)
        branch = opclass == OPCLASSES.index(OpClass.BRANCH)
        flags[branch] |= np.fromiter(taken, np.uint8, len(taken)) \
            * np.uint8(F_TAKEN)
        addresses = np.zeros(n, dtype=np.uint64)
        addresses[(flags & (F_LOAD | F_STORE)) != 0] = np.fromiter(
            mem_addr, np.uint64, len(mem_addr))
        next_pc = np.empty_like(pc)
        next_pc[:-1] = pc[1:]
        next_pc[-1:] = pc[-1:] + np.uint64(INSTRUCTION_BYTES)
        return cls({
            "pc": pc,
            "opclass": opclass,
            "dest": field("dest", np.uint8),
            "src": np.stack([field("src0", np.uint8),
                             field("src1", np.uint8)], axis=1),
            "nsrc": field("nsrc", np.uint8),
            "naddr": field("naddr", np.uint8),
            "mem_addr": addresses,
            "mem_size": field("mem_size", np.uint8),
            "flags": flags,
            "next_pc": next_pc,
        }, instructions=instructions)

    @classmethod
    def from_records(cls, records: Sequence[TraceRecord]) -> "Trace":
        """Encode *records* — the one encoder behind both
        :func:`save_trace` and the fast loop's precompute."""
        records = list(records)
        n = len(records)

        def column(values, dtype) -> np.ndarray:
            return np.fromiter(values, dtype, n)

        sources = [r.sources for r in records]
        naddr = np.full(n, NO_SPLIT, dtype=np.uint8)
        for i in itertools.compress(range(n), [r.is_store for r in records]):
            sources[i], naddr[i] = _store_operands(records[i])
        nsrc = column(map(len, sources), np.uint8)
        if n and nsrc.max() > MAX_SOURCES:
            raise ValueError(f"a record reads more than {MAX_SOURCES} "
                             f"registers")
        # Scatter the concatenated operands into their zero-padded rows.
        rows = np.repeat(np.arange(n), nsrc)
        starts = np.repeat(np.cumsum(nsrc, dtype=np.int64) - nsrc, nsrc)
        src = np.zeros((n, MAX_SOURCES), dtype=np.uint8)
        src[rows, np.arange(len(rows)) - starts] = np.fromiter(
            itertools.chain.from_iterable(sources), np.uint8, len(rows))
        flags = column([r.is_load * F_LOAD | r.is_store * F_STORE
                        | r.is_control * F_CONTROL | r.taken * F_TAKEN
                        | r.kernel * F_KERNEL for r in records], np.uint8)
        return cls({
            "pc": column([r.pc for r in records], np.uint64),
            "opclass": column(map(OPCLASSES.index,
                                  [r.opclass for r in records]), np.uint8),
            "dest": column([NO_DEST if r.dest is None else r.dest
                            for r in records], np.uint8),
            "src": src,
            "nsrc": nsrc,
            "naddr": naddr,
            "mem_addr": column([r.mem_addr for r in records], np.uint64),
            "mem_size": column([r.mem_size for r in records], np.uint8),
            "flags": flags | column(map(_hint_flags, records), np.uint8),
            "next_pc": column([r.next_pc for r in records], np.uint64),
        }, records, {r.pc: r.instr for r in records
                     if r.instr is not None} or None)

    @property
    def columns(self) -> dict[str, np.ndarray]:
        """The columns by name, in file order."""
        return {name: getattr(self, name) for name in COLUMNS}

    @property
    def instructions(self) -> dict[int, Instruction] | None:
        """The static instruction table (PC -> instruction) of a trace
        from a functional run or of instruction-bearing records; None
        for a reloaded or synthetic trace."""
        return self._instructions

    def lists(self) -> dict[str, list]:
        """The columns as Python lists by name, built once per trace
        and shared by everything that reads the trace by ``seq`` (the
        reference cycle loop, recorders, checkers).  ``src`` holds one
        zero-padded operand pair per record."""
        if self._lists is None:
            self._lists = {name: column.tolist()
                           for name, column in self.columns.items()}
        return self._lists

    @property
    def records(self) -> list[TraceRecord]:
        """The records, decoded once on first use."""
        if self._records is None:
            self._records = self._decode()
        return self._records

    def _decode(self) -> list[TraceRecord]:
        flags = self.flags
        pcs = self.pc.tolist()

        def flag(bit: int) -> list[bool]:
            return ((flags & bit) != 0).tolist()

        if self._instructions is None:
            instrs = itertools.repeat(None)
            hints = (flag(F_SERIALIZES), flag(F_REDIRECT),
                     [-1 if count == NO_SPLIT else count
                      for count in self.naddr.tolist()])
        else:
            # The instruction stands in for the hints in every consumer;
            # leave them at the interpreter's defaults.
            instrs = list(map(self._instructions.__getitem__, pcs))
            hints = (itertools.repeat(False), itertools.repeat(False),
                     itertools.repeat(-1))
        sources = [tuple(regs[:count]) for regs, count
                   in zip(self.src.tolist(), self.nsrc.tolist())]
        return list(map(
            TraceRecord,
            pcs,
            [OPCLASSES[index] for index in self.opclass.tolist()],
            [None if dest == NO_DEST else dest
             for dest in self.dest.tolist()],
            sources,
            self.mem_addr.tolist(),
            self.mem_size.tolist(),
            flag(F_LOAD), flag(F_STORE), flag(F_CONTROL), flag(F_TAKEN),
            self.next_pc.tolist(),
            flag(F_KERNEL),
            instrs,
            *hints))

    def user_only(self) -> "Trace":
        """The user-mode records alone (the user-only-trace view)."""
        keep = (self.flags & F_KERNEL) == 0
        records = None
        if self._records is not None:
            records = list(itertools.compress(self._records, keep.tolist()))
        return Trace({name: column[keep]
                      for name, column in self.columns.items()}, records,
                     self._instructions)

    def __len__(self) -> int:
        return len(self.pc)

    def __getitem__(self, index):
        return self.records[index]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Trace):
            other = other.records
        if not isinstance(other, list):
            return NotImplemented
        return self.records == other


def as_trace(trace: Sequence[TraceRecord]) -> Trace:
    """*trace* as a :class:`Trace`, encoding a plain record list."""
    return trace if isinstance(trace, Trace) else Trace.from_records(trace)


def save_trace(path: str | os.PathLike | IO[bytes],
               trace: Sequence[TraceRecord]) -> None:
    """Write *trace* (a :class:`Trace` or a record list) to *path*
    (``.npz``) or a binary file."""
    np.savez_compressed(path, version=np.array([FORMAT_VERSION]),
                        **as_trace(trace).columns)


def save_trace_atomic(path: str | os.PathLike,
                      trace: Sequence[TraceRecord]) -> None:
    """Write *trace* to *path* through :func:`repro.atomic.atomic_write`
    — concurrent writers (parallel experiment workers, racing
    processes) can never expose a torn file."""
    with atomic_write(path, "wb") as handle:
        save_trace(handle, trace)


def _read_member(archive: zipfile.ZipFile, name: str) -> np.ndarray:
    """Array *name* of an ``.npz`` archive: its ``.npy`` header read
    with :mod:`numpy.lib.format`, its data decompressed in one read and
    wrapped without a copy, so the array is read-only.  Object dtypes
    (which would unpickle) and Fortran order are refused."""
    with archive.open(f"{name}.npy") as member:
        version = npy_format.read_magic(member)
        if version == (1, 0):
            header = npy_format.read_array_header_1_0(member)
        elif version == (2, 0):
            header = npy_format.read_array_header_2_0(member)
        else:
            raise ValueError(f"{name!r} is .npy version {version}")
        shape, fortran_order, dtype = header
        if dtype.hasobject:
            raise ValueError(f"{name!r} holds Python objects")
        if fortran_order:
            raise ValueError(f"{name!r} is in Fortran order")
        data = member.read()
    expected = math.prod(shape) * dtype.itemsize
    if len(data) != expected:
        raise ValueError(f"{name!r} holds {len(data)} bytes, its header "
                         f"says {expected}")
    return np.frombuffer(data, dtype).reshape(shape)


def _read_columns(path) -> dict[str, np.ndarray]:
    with zipfile.ZipFile(path) as archive:
        version = int(_read_member(archive, "version")[0])
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported trace format version {version}")
        return {name: _read_member(archive, name) for name in COLUMNS}


def _column_problem(columns: dict[str, np.ndarray]) -> str | None:
    """Why *columns* cannot be a trace, or None."""
    n = columns["pc"].size
    for name, (dtype, shape) in COLUMNS.items():
        column = columns[name]
        if column.dtype != dtype or column.shape != (n, *shape):
            return (f"column {name!r} is {column.dtype}{list(column.shape)}"
                    f", expected {np.dtype(dtype)}{[n, *shape]}")
    if n and columns["opclass"].max() >= len(OPCLASSES):
        return "opclass index out of range"
    if n and columns["nsrc"].max() > MAX_SOURCES:
        return "operand count out of range"
    return None


def load_trace(path: str | os.PathLike) -> Trace:
    """Read a trace written by :func:`save_trace` — the columns only,
    each decompressed in one read and wrapped read-only, no per-record
    work.  An unreadable archive, another format version, a member
    holding objects or a malformed column raises :class:`ValueError`
    naming *path*."""
    try:
        columns = _read_columns(path)
    except (OSError, EOFError, KeyError, IndexError, ValueError,
            zipfile.BadZipFile, zlib.error) as exc:
        raise ValueError(f"cannot load trace {path}: {exc}") from exc
    problem = _column_problem(columns)
    if problem is not None:
        raise ValueError(f"malformed trace {path}: {problem}")
    return Trace(columns)

"""Program-level attribution: per-PC hotspot profiling.

Every other observability layer — the stall ledger, interval metrics,
spans, even the critical-path CPI stack — reports costs as machine-wide
aggregates.  This module answers the program-level question the paper's
whole argument turns on: *which static memory reference* burns the port
cycles, and is it kernel or user code?

A :class:`HotspotRecorder` attaches to the timing core the same way the
tracer, metrics and critpath recorders do (a probe recorder: see
:mod:`repro.obs.probe`); events name instructions by ``seq``, which it
resolves to a row once per ``seq`` through the trace's columns, and it
accumulates, per
static PC **and privilege level** (the PR 9 kernel layout marks every
trace record ``kernel``/user):

* **executions** — commits of that PC;
* **retire-time stall slots** — the lost issue slots the stall ledger
  charged while that PC sat at the commit head, split by
  :class:`~repro.obs.stall.StallCause`;
* **LSQ routing** (per load): order/forwarding waits, SQ/WB forwards,
  line-buffer hits, real port loads, combining wins — the per-load
  mirror of the global ``lsq.*`` counters;
* **D-cache accesses** (per port access): per-port uses, bank
  conflicts, hits/misses/secondary misses, MSHR-full retries, store
  outcomes, prefetches, writebacks and victim-cache hits — the
  per-access mirror of the global ``dcache.*`` / ``victim.*`` counters,
  attributed to the access's batch-leader PC (write-buffer drains have
  no program context and land in the ``unattributed`` bucket);
* an **address-stream analyzer** (memory PCs only): dominant-stride
  detection, touched-bank and touched-set histograms (rendered as an
  ASCII set-conflict heatmap), and working-set cardinality.

**Conservation contract.**  The recorder mirrors existing counters at
their existing increment sites, so the per-PC rows reconcile *exactly*
(integer-equal) with the pre-existing global counters:

* ``sum(row.executions) == instructions``
* per cause: ``sum(row.stall[c]) + frontend_stall[c] == ledger.lost[c]``
  (cycles with an empty window have no commit-head PC; their slots land
  in the ``frontend_stall`` bucket)
* per ``lsq.*`` counter: ``sum(row.lsq[c]) == lsq.c``
* per ``dcache.*`` counter: ``sum(row.dcache[c]) + unattributed[c] ==
  dcache.c`` (and ``victim_hits`` against ``victim.hits``)
* per-port: the per-PC port histograms sum to ``dcache.port_uses``.

:func:`validate_hotspots_report` recomputes every sum from the manifest
rows and rejects any drift; :meth:`HotspotRecorder.check_conservation`
asserts the same against a live :class:`~repro.core.pipeline.CoreResult`.

**Granularity note.**  ``lsq.*`` rows count *loads* while ``dcache.*``
rows count *port accesses*: with load combining one access serves a
whole chunk batch, so e.g. ``load_hits`` (accesses, charged to the
batch leader) is at most ``port_loads`` (loads).  The 1996-era machine
has no store-set predictor; the paper-adjacent "store-set squash" cost
shows up here as the memory-ordering waits (``order_stalls`` /
``sq_waits`` / ``wb_conflicts`` and the ``mem_order`` stall cause).
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TYPE_CHECKING

from ..trace.io import F_KERNEL, OPCLASSES, Trace
from .probe import (NO_SEQ, SRC_HIT, SRC_LB, SRC_MISS, SRC_SECONDARY,
                    SRC_SQ, SRC_WB)
from .report import (NUMBER, Check, MapOf, Opt, envelope, envelope_spec,
                     validate)
from .stall import CAUSE_ORDER, StallCause

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.pipeline import CoreResult, OoOCore

#: Version of the hotspots manifest schema.
HOTSPOTS_SCHEMA_VERSION = 1

HOTSPOTS_SCHEMA = f"repro.hotspots/{HOTSPOTS_SCHEMA_VERSION}"

#: Distinct strides tracked per memory PC before folding into "other".
STRIDE_CAP = 64
#: Distinct cache sets tracked per memory PC before folding.
SET_CAP = 4096
#: Working-set lines tracked per memory PC before saturating.
WORKING_SET_CAP = 4096

#: ``repro hotspots --sort`` choices -> row ranking.
HOTSPOT_SORTS = ("port", "stall", "executions", "misses")

#: Per-load LSQ counters mirrored per PC; each name ``c`` reconciles
#: exactly with the global ``lsq.c`` counter.
LSQ_COUNTERS = ("order_stalls", "sq_waits", "wb_conflicts", "sq_forwards",
                "wb_forwards", "lb_loads", "port_loads", "combined_loads")

#: Per-access D-cache counters mirrored per PC; each reconciles exactly
#: with the global counter named in :data:`_DCACHE_STAT_NAMES`.
DCACHE_COUNTERS = ("port_uses", "bank_conflicts", "load_no_port",
                   "load_hits", "load_misses", "load_secondary_misses",
                   "load_mshr_full", "store_no_port", "store_hits",
                   "store_misses", "store_mshr_merges", "store_mshr_full",
                   "prefetches", "writebacks", "victim_hits")

_DCACHE_STAT_NAMES = {name: f"dcache.{name}" for name in DCACHE_COUNTERS}
_DCACHE_STAT_NAMES["victim_hits"] = "victim.hits"

#: A load's source code (:mod:`repro.obs.probe`) -> the per-load LSQ
#: service counter it tallies.
_SOURCE_COUNTER = {
    SRC_SQ: "sq_forwards",
    SRC_WB: "wb_forwards",
    SRC_LB: "lb_loads",
    SRC_HIT: "port_loads",
    SRC_MISS: "port_loads",
    SRC_SECONDARY: "port_loads",
}

_CAUSE_VALUES = tuple(cause.value for cause in CAUSE_ORDER)
_CAUSE_SET = frozenset(_CAUSE_VALUES)

#: Intensity ramp for the set-conflict heatmap.
_HEAT_CHARS = " .:-=+*#%@"


class _Row:
    """Counters for one (static PC, privilege level) pair."""

    __slots__ = ("pc", "kernel", "kind", "disasm", "executions",
                 "stall", "lsq", "dcache", "ports",
                 "last_addr", "accesses", "strides", "stride_other",
                 "banks", "sets", "set_overflow", "lines", "lines_full")

    def __init__(self, pc: int, kernel: bool, kind: str,
                 disasm: str | None, banks: int, ports: int) -> None:
        self.pc = pc
        self.kernel = kernel
        self.kind = kind
        self.disasm = disasm
        self.executions = 0
        self.stall: dict[str, int] = {}
        self.lsq: dict[str, int] = {}
        self.dcache: dict[str, int] = {}
        self.ports = [0] * ports
        # Address-stream state (memory PCs only).
        self.last_addr: int | None = None
        self.accesses = 0
        self.strides: dict[int, int] = {}
        self.stride_other = 0
        self.banks = [0] * banks
        self.sets: dict[int, int] = {}
        self.set_overflow = 0
        self.lines: set[int] = set()
        self.lines_full = False


#: The counters :meth:`HotspotRecorder.split` sums over each side's
#: rows, in manifest order.
_SPLIT_FIELDS = ("executions", "stall_total", "port_conflict_slots",
                 "port_uses", "rows")


class HotspotRecorder:
    """Streams per-PC execution/memory/stall attribution.

    Attach via ``OoOCore(machine, hotspots=recorder)``; after ``run()``
    the rows are available through :meth:`rows` / :meth:`as_dict`.  One
    recorder serves one run.
    """

    served = False

    def __init__(self) -> None:
        self._rows: dict[tuple[int, bool], _Row] = {}
        self._frontend: dict[str, int] = {}
        self._unattributed: dict[str, int] = {}
        self._unattributed_ports: list[int] = []
        self._line_shift = 5
        self._bank_mask = 0
        self._set_mask = 0
        self._num_sets = 1
        self._num_banks = 1
        self._num_ports = 1
        self.total_cycles = 0
        self.instructions = 0
        self._finalized = False

    # ------------------------------------------------------------------
    # Probe events (see repro.obs.probe)
    # ------------------------------------------------------------------
    def run_begin(self, core: "OoOCore", trace: Trace) -> None:
        """Capture the cache geometry the address-stream analyzer keys
        on (line size, banking, set count, port count), and the trace
        the events' ``seq`` numbers index."""
        lists = trace.lists()
        self._pcs = lists["pc"]
        self._opclasses = lists["opclass"]
        self._flags = lists["flags"]
        self._addrs = lists["mem_addr"]
        self._sizes = lists["mem_size"]
        self._instructions = trace.instructions or {}
        self._seq_rows: list[_Row | None] = [None] * len(trace)
        dcache = core.mem.dcache
        self._line_shift = dcache.line_shift
        self._num_banks = dcache.config.banks
        self._bank_mask = dcache.config.banks - 1
        self._num_sets = dcache.config.geometry.num_sets
        self._set_mask = self._num_sets - 1
        self._num_ports = dcache.config.ports
        self._unattributed_ports = [0] * self._num_ports

    def _row(self, seq: int) -> _Row:
        """The row of instruction *seq*, resolved once per ``seq``."""
        row = self._seq_rows[seq]
        if row is None:
            pc = self._pcs[seq]
            key = (pc, (self._flags[seq] & F_KERNEL) != 0)
            row = self._rows.get(key)
            if row is None:
                instr = self._instructions.get(pc)
                row = self._rows[key] = _Row(
                    pc, key[1], OPCLASSES[self._opclasses[seq]].name,
                    str(instr) if instr is not None else None,
                    self._num_banks, self._num_ports)
            self._seq_rows[seq] = row
        return row

    def commit(self, seq: int, cycle: int, times: tuple) -> None:
        """One instruction retired: count the execution and feed the
        address-stream analyzer for memory PCs."""
        row = self._row(seq)
        row.executions += 1
        if self._sizes[seq] <= 0:
            return
        addr = self._addrs[seq]
        last = row.last_addr
        if last is not None:
            delta = addr - last
            strides = row.strides
            if delta in strides:
                strides[delta] += 1
            elif len(strides) < STRIDE_CAP:
                strides[delta] = 1
            else:
                row.stride_other += 1
        row.last_addr = addr
        row.accesses += 1
        line = addr >> self._line_shift
        row.banks[line & self._bank_mask] += 1
        index = line & self._set_mask
        sets = row.sets
        if index in sets:
            sets[index] += 1
        elif len(sets) < SET_CAP:
            sets[index] = 1
        else:
            row.set_overflow += 1
        lines = row.lines
        if line in lines:
            return
        if len(lines) < WORKING_SET_CAP:
            lines.add(line)
        else:
            row.lines_full = True

    def stall(self, cycle: int, cause: StallCause, lost: int,
              seq: int) -> None:
        """The ledger charged *lost* slots to *cause* this cycle; *seq*
        is the commit head it blamed (``NO_SEQ``: empty window, the
        frontend bucket takes the slots)."""
        value = cause.value
        if seq == NO_SEQ:
            self._frontend[value] = self._frontend.get(value, 0) + lost
            return
        stall = self._row(seq).stall
        stall[value] = stall.get(value, 0) + lost

    def lsq_wait(self, seq: int, counter: str) -> None:
        """The LSQ skipped load *seq* for a cycle (``order_stalls`` /
        ``sq_waits`` / ``wb_conflicts``, mirroring ``lsq.*``)."""
        lsq = self._row(seq).lsq
        lsq[counter] = lsq.get(counter, 0) + 1

    def load_serviced(self, cycle: int, seq: int, line: int, source: int,
                      block: int, ready: int) -> None:
        """The LSQ serviced load *seq* from *source* (a
        :mod:`repro.obs.probe` source code)."""
        counter = _SOURCE_COUNTER.get(source)
        if counter is None:
            return
        lsq = self._row(seq).lsq
        lsq[counter] = lsq.get(counter, 0) + 1

    def lsq_combine(self, seqs: list[int]) -> None:
        """``seqs[1:]`` rode ``seqs[0]``'s port access (combining
        wins)."""
        for seq in seqs[1:]:
            lsq = self._row(seq).lsq
            lsq["combined_loads"] = lsq.get("combined_loads", 0) + 1

    def dcache_count(self, seq: int, counter: str) -> None:
        """One D-cache event attributed to the access made for *seq*
        (``NO_SEQ``: a write-buffer drain, the unattributed bucket)."""
        if seq == NO_SEQ:
            bucket = self._unattributed
            bucket[counter] = bucket.get(counter, 0) + 1
            return
        dcache = self._row(seq).dcache
        dcache[counter] = dcache.get(counter, 0) + 1

    def port_use(self, seq: int, port: int) -> None:
        """One real port access went through physical port *port*."""
        if seq == NO_SEQ:
            bucket = self._unattributed
            bucket["port_uses"] = bucket.get("port_uses", 0) + 1
            self._unattributed_ports[port] += 1
            return
        row = self._row(seq)
        row.dcache["port_uses"] = row.dcache.get("port_uses", 0) + 1
        row.ports[port] += 1

    def run_end(self, core: "OoOCore", cycles: int,
                instructions: int) -> None:
        """Close the recorder."""
        self.total_cycles = cycles
        self.instructions = instructions
        self._finalized = True

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _require_finalized(self) -> None:
        if not self._finalized:
            raise ValueError("hotspot results are available only after "
                             "the run finalizes the recorder")

    def _row_dict(self, row: _Row) -> dict[str, object]:
        entry: dict[str, object] = {
            "pc": row.pc,
            "pc_hex": f"0x{row.pc:x}",
            "kernel": row.kernel,
            "kind": row.kind,
            "disasm": row.disasm,
            "executions": row.executions,
            "stall": {value: row.stall[value] for value in _CAUSE_VALUES
                      if row.stall.get(value)},
            "stall_total": sum(row.stall.values()),
            "lsq": {name: row.lsq[name] for name in LSQ_COUNTERS
                    if row.lsq.get(name)},
            "dcache": {name: row.dcache[name] for name in DCACHE_COUNTERS
                       if row.dcache.get(name)},
        }
        if any(row.ports):
            entry["ports"] = list(row.ports)
        if row.accesses:
            entry["stream"] = self._stream_dict(row)
        return entry

    def _stream_dict(self, row: _Row) -> dict[str, object]:
        dominant = None
        coverage = 0.0
        deltas = sum(row.strides.values()) + row.stride_other
        if row.strides:
            dominant = max(row.strides,
                           key=lambda delta: (row.strides[delta], -delta))
            coverage = row.strides[dominant] / deltas if deltas else 0.0
        top_strides = sorted(row.strides.items(),
                             key=lambda item: (-item[1], item[0]))[:8]
        return {
            "accesses": row.accesses,
            "dominant_stride": dominant,
            "stride_coverage": coverage,
            "strides": {str(delta): count for delta, count in top_strides},
            "stride_other": row.stride_other,
            "banks": list(row.banks),
            "sets": {str(index): count
                     for index, count in sorted(row.sets.items())},
            "set_overflow": row.set_overflow,
            "working_set_lines": len(row.lines),
            "working_set_saturated": row.lines_full,
        }

    @staticmethod
    def _sort_key(sort: str):
        if sort == "port":
            return lambda r: (-r.stall.get("dcache_port", 0),
                              -r.dcache.get("port_uses", 0), r.pc)
        if sort == "stall":
            return lambda r: (-sum(r.stall.values()), r.pc)
        if sort == "executions":
            return lambda r: (-r.executions, r.pc)
        if sort == "misses":
            return lambda r: (-(r.dcache.get("load_misses", 0) +
                                r.dcache.get("store_misses", 0)), r.pc)
        raise ValueError(f"unknown hotspot sort {sort!r} "
                         f"(choose from {', '.join(HOTSPOT_SORTS)})")

    def rows(self, sort: str = "port") -> list[dict[str, object]]:
        """Every (PC, privilege) row as a JSON-ready dict, ranked."""
        self._require_finalized()
        ranked = sorted(self._rows.values(), key=self._sort_key(sort))
        return [self._row_dict(row) for row in ranked]

    def top_rows(self, k: int = 10,
                 sort: str = "port") -> list[dict[str, object]]:
        """The *k* hottest rows under *sort*."""
        return self.rows(sort)[:k]

    def split(self) -> dict[str, dict[str, int]]:
        """Kernel-vs-user aggregate (sums over the matching rows)."""
        self._require_finalized()
        out = {side: dict.fromkeys(_SPLIT_FIELDS, 0)
               for side in ("kernel", "user")}
        for row in self._rows.values():
            side = out["kernel" if row.kernel else "user"]
            side["rows"] += 1
            side["executions"] += row.executions
            side["stall_total"] += sum(row.stall.values())
            side["port_conflict_slots"] += row.stall.get("dcache_port", 0)
            side["port_uses"] += row.dcache.get("port_uses", 0)
        return out

    def as_dict(self) -> dict[str, object]:
        """The analysis payload embedded in ``repro.hotspots/1``."""
        self._require_finalized()
        unattributed = {name: self._unattributed[name]
                        for name in DCACHE_COUNTERS
                        if self._unattributed.get(name)}
        if any(self._unattributed_ports):
            unattributed["ports"] = list(self._unattributed_ports)
        return {
            "cycles": self.total_cycles,
            "instructions": self.instructions,
            "geometry": {
                "num_sets": self._num_sets,
                "banks": self._num_banks,
                "ports": self._num_ports,
                "line_shift": self._line_shift,
            },
            "rows": self.rows(),
            "frontend_stall": {value: self._frontend[value]
                               for value in _CAUSE_VALUES
                               if self._frontend.get(value)},
            "unattributed": unattributed,
            "split": self.split(),
        }

    def check_conservation(self, result: "CoreResult") -> None:
        """Raise unless every per-PC sum reconciles exactly with the
        run's global counters (see the module docstring contract)."""
        self._require_finalized()
        if result.ledger is None:
            raise ValueError("hotspot conservation needs the run's "
                             "stall ledger")
        unattributed = dict(self._unattributed)
        if any(self._unattributed_ports):
            unattributed["ports"] = self._unattributed_ports
        problems = list(_conserved({
            "rows": self.rows(), "frontend_stall": self._frontend,
            "unattributed": unattributed, "global": _globals_block(result),
            "instructions": result.instructions}))
        if problems:
            raise AssertionError("; ".join(problems))

    def summary(self) -> str:
        """One human line: the heaviest port-conflict PC."""
        self._require_finalized()
        ranked = sorted(self._rows.values(), key=self._sort_key("port"))
        if not ranked or not ranked[0].stall.get("dcache_port"):
            return f"{len(self._rows)} static PCs, " \
                   f"no port-conflict stalls"
        top = ranked[0]
        slots = top.stall["dcache_port"]
        total = sum(r.stall.get("dcache_port", 0)
                    for r in self._rows.values()) or 1
        side = "kernel" if top.kernel else "user"
        return (f"top port-conflict PC 0x{top.pc:x} "
                f"({top.kind}, {side}) — {slots} slots "
                f"({slots / total:.1%} of dcache_port)")


# ----------------------------------------------------------------------
# Manifest (repro.hotspots/1)
# ----------------------------------------------------------------------
def _globals_block(result: "CoreResult") -> dict[str, object]:
    """The global counters the rows must reconcile with, as exact ints."""
    counters = result.stats.as_dict()
    ledger = result.ledger
    stall = {cause.value: ledger.lost[cause] for cause in CAUSE_ORDER
             if ledger.lost[cause]} if ledger is not None else {}
    return {
        "stall": stall,
        "lsq": {name: int(counters.get(f"lsq.{name}", 0))
                for name in LSQ_COUNTERS},
        "dcache": {name: int(counters.get(_DCACHE_STAT_NAMES[name], 0))
                   for name in DCACHE_COUNTERS},
    }


def build_hotspots_report(recorder: HotspotRecorder,
                          result: "CoreResult",
                          machine, *,
                          workload: str | None = None,
                          scale: str | None = None,
                          seed: int | None = None,
                          trace_file: str | None = None,
                          wall_time: float | None = None,
                          disasm: "dict[int, str] | None" = None
                          ) -> dict[str, object]:
    """Assemble the versioned ``repro.hotspots/1`` document.

    ``disasm`` optionally maps PC -> disassembly text for traces that
    do not carry instruction objects (the workload suite's saved
    traces); it only fills rows whose disassembly is unknown.
    """
    head = envelope(HOTSPOTS_SCHEMA, HOTSPOTS_SCHEMA_VERSION, machine,
                    workload=workload, scale=scale, seed=seed,
                    trace_file=trace_file)
    if recorder.total_cycles != result.cycles:
        raise ValueError(
            f"recorder saw {recorder.total_cycles} cycles but the "
            f"result reports {result.cycles}; the recorder must come "
            f"from this run")
    document = {**head, "ipc": result.ipc, **recorder.as_dict(),
                "global": _globals_block(result),
                "host": {"wall_time_s": wall_time}}
    if disasm:
        for row in document["rows"]:
            if row.get("disasm") is None:
                row["disasm"] = disasm.get(row["pc"])
    return document


def _conserved(report: dict) -> Iterable[str]:
    """Rule: every per-PC sum reconciles with the global counters; the
    frontend and unattributed buckets hold what no row could take."""
    rows = report["rows"]
    executions = sum(row["executions"] for row in rows)
    if executions != report["instructions"]:
        yield (f"row executions sum to {executions}, run committed "
               f"{report['instructions']}")
    for family, names, bucket in (
            ("stall", _CAUSE_VALUES, report["frontend_stall"]),
            ("lsq", LSQ_COUNTERS, {}),
            ("dcache", DCACHE_COUNTERS, report["unattributed"])):
        expected = report["global"].get(family) or {}
        for name in names:
            total = sum(row[family].get(name, 0) for row in rows) + \
                bucket.get(name, 0)
            if total != expected.get(name, 0):
                yield (f"{family}[{name}] sums to {total}, global is "
                       f"{expected.get(name, 0)}")
    port_uses = (report["global"].get("dcache") or {}).get("port_uses", 0)
    ports = sum(sum(row.get("ports") or ()) for row in rows) + \
        sum(report["unattributed"].get("ports") or ())
    if ports != port_uses:
        yield (f"per-port histograms sum to {ports}, global port_uses is "
               f"{port_uses}")


def _rows_add_up(report: dict) -> Iterable[str]:
    """Rule: a row's ``stall_total`` is the sum of its ``stall`` map,
    and each side of ``split`` sums that side's rows (as
    :meth:`HotspotRecorder.split` builds it)."""
    sums = {side: dict.fromkeys(_SPLIT_FIELDS, 0)
            for side in ("kernel", "user")}
    for index, row in enumerate(report["rows"]):
        stalls = sum(row["stall"].values())
        if row["stall_total"] != stalls:
            yield (f"rows[{index}].stall_total is {row['stall_total']}, "
                   f"its stall map sums to {stalls}")
        side = sums["kernel" if row["kernel"] else "user"]
        side["rows"] += 1
        side["executions"] += row["executions"]
        side["stall_total"] += stalls
        side["port_conflict_slots"] += row["stall"].get("dcache_port", 0)
        side["port_uses"] += row["dcache"].get("port_uses", 0)
    for side, expected in sums.items():
        for field, total in expected.items():
            if report["split"][side][field] != total:
                yield (f"split.{side}.{field} is "
                       f"{report['split'][side][field]}, its rows sum to "
                       f"{total}")


_COUNTS = MapOf(int)
_STALLS = MapOf(int, keys=Check(_CAUSE_SET.__contains__, "a stall cause"))
_SIDE = {field: int for field in _SPLIT_FIELDS}

HOTSPOTS_SPEC = envelope_spec(HOTSPOTS_SCHEMA, {
    "cycles": int,
    "instructions": int,
    "ipc": NUMBER,
    "geometry": {"num_sets": int, "banks": int, "ports": int,
                 "line_shift": int},
    "rows": [{
        "pc": int, "kernel": bool, "kind": str, "executions": int,
        "stall": _STALLS, "stall_total": int, "lsq": _COUNTS,
        "dcache": _COUNTS, "ports": Opt([int]),
        "stream": Opt({"accesses": int, "strides": dict, "banks": list,
                       "sets": dict, "working_set_lines": int,
                       "working_set_saturated": bool}),
    }],
    "frontend_stall": _STALLS,
    # Only non-zero counters appear; a present one must be a count.
    "unattributed": {**{name: Opt(int, null=False)
                        for name in DCACHE_COUNTERS},
                     "ports": Opt([int])},
    "split": {"kernel": _SIDE, "user": _SIDE},
    "global": {"stall": Opt(_COUNTS), "lsq": Opt(_COUNTS),
               "dcache": Opt(_COUNTS)},
}, _conserved, _rows_add_up)


def validate_hotspots_report(report: dict) -> None:
    """Raise :class:`SchemaError` unless *report* is a valid
    ``repro.hotspots/1`` document — including exact conservation."""
    validate(report, HOTSPOTS_SPEC, "hotspots")


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _set_heatmap(sets: dict, num_sets: int, cols: int = 64) -> str:
    """Fold the touched-set histogram into an ASCII intensity strip."""
    if num_sets <= 0 or not sets:
        return ""
    cols = min(cols, num_sets)
    buckets = [0] * cols
    for key, count in sets.items():
        index = int(key)
        buckets[index * cols // num_sets] += count
    peak = max(buckets)
    if not peak:
        return " " * cols
    top = len(_HEAT_CHARS) - 1
    return "".join(
        _HEAT_CHARS[0] if not value else
        _HEAT_CHARS[max(1, value * top // peak)]
        for value in buckets)


def _stream_lines(row: dict, geometry: dict,
                  indent: str = "    ") -> list[str]:
    """The stride / bank / set-heatmap detail block for one memory PC."""
    stream = row.get("stream")
    if not stream:
        return []
    lines: list[str] = []
    dominant = stream.get("dominant_stride")
    if dominant is not None:
        lines.append(f"{indent}stride: dominant {dominant:+d} "
                     f"({stream.get('stride_coverage', 0.0):.1%} of "
                     f"{stream['accesses'] - 1} deltas)")
    banks = stream.get("banks") or []
    if len(banks) > 1:
        rendered = " ".join(f"[{i}]{count}"
                            for i, count in enumerate(banks) if count)
        lines.append(f"{indent}banks: {rendered}")
    num_sets = int(geometry.get("num_sets", 0) or 0)
    heat = _set_heatmap(stream.get("sets") or {}, num_sets)
    if heat:
        lines.append(f"{indent}sets[{num_sets}]: |{heat}|")
    suffix = "+" if stream.get("working_set_saturated") else ""
    lines.append(f"{indent}working set: "
                 f"{stream.get('working_set_lines', 0)}{suffix} lines")
    return lines


def _row_sort_key(sort: str):
    """Manifest-level counterpart of :meth:`HotspotRecorder._sort_key`
    (the manifest stores rows ranked by ``port``; other orders are
    recovered at render time)."""
    def misses(row):
        dcache = row.get("dcache") or {}
        return dcache.get("load_misses", 0) + dcache.get("store_misses", 0)
    keys = {
        "port": lambda r: (-(r.get("stall") or {}).get("dcache_port", 0),
                           -(r.get("dcache") or {}).get("port_uses", 0),
                           r["pc"]),
        "stall": lambda r: (-r.get("stall_total", 0), r["pc"]),
        "executions": lambda r: (-r["executions"], r["pc"]),
        "misses": lambda r: (-misses(r), r["pc"]),
    }
    if sort not in keys:
        raise ValueError(f"unknown hotspot sort {sort!r} "
                         f"(choose from {', '.join(HOTSPOT_SORTS)})")
    return keys[sort]


def render_hotspots_report(report: dict, top: int = 10,
                           annotate: bool = False,
                           sort: str = "port") -> str:
    """ASCII rendering of a hotspots manifest: the top rows with their
    port/stall attribution and (``annotate``) the disassembly-merged
    view plus the top port-conflict PC's address-stream block."""
    lines: list[str] = []
    name = (report.get("config") or {}).get("name", "?")
    workload = report.get("workload") or report.get("trace_file") or "?"
    rows = sorted(report.get("rows") or [], key=_row_sort_key(sort))
    geometry = report.get("geometry") or {}
    lines.append(f"Per-PC hotspots — {workload} on {name} "
                 f"({report['cycles']} cycles, "
                 f"{report['instructions']} instructions, "
                 f"{len(rows)} static PCs)")
    split = report.get("split") or {}
    parts = []
    for side in ("kernel", "user"):
        block = split.get(side) or {}
        parts.append(f"{side}: {block.get('executions', 0)} instrs, "
                     f"{block.get('port_conflict_slots', 0)} port-conflict "
                     f"slots")
    lines.append("  " + " | ".join(parts))
    if annotate:
        lines.extend(_render_annotated(rows, geometry, top))
        return "\n".join(lines)
    lines.append(f"  {'pc':>10} {'K':1} {'kind':<8} {'execs':>8} "
                 f"{'port-slots':>10} {'stalls':>8} {'ports':>7} "
                 f"{'misses':>7}")
    for row in rows[:top]:
        dcache = row.get("dcache") or {}
        misses = dcache.get("load_misses", 0) + dcache.get("store_misses", 0)
        lines.append(
            f"  {row.get('pc_hex', hex(row['pc'])):>10} "
            f"{'K' if row.get('kernel') else 'U':1} "
            f"{row.get('kind', '?'):<8} {row['executions']:>8} "
            f"{(row.get('stall') or {}).get('dcache_port', 0):>10} "
            f"{row.get('stall_total', 0):>8} "
            f"{dcache.get('port_uses', 0):>7} {misses:>7}")
        for line in _stream_lines(row, geometry, indent="      "):
            lines.append(line)
    return "\n".join(lines)


def _render_annotated(rows: list, geometry: dict, top: int) -> list[str]:
    """Disassembly-merged view: every PC in address order with its
    counters, then the detail block for the heaviest port-conflict PC."""
    lines: list[str] = [""]
    by_pc = sorted(rows, key=lambda row: (row["pc"], row.get("kernel")))
    for row in by_pc:
        stall = row.get("stall") or {}
        dcache = row.get("dcache") or {}
        disasm = row.get("disasm") or f"<{row.get('kind', '?').lower()}>"
        tags = []
        if stall.get("dcache_port"):
            tags.append(f"port-slots {stall['dcache_port']}")
        if dcache.get("port_uses"):
            tags.append(f"ports {dcache['port_uses']}")
        misses = dcache.get("load_misses", 0) + dcache.get("store_misses", 0)
        if misses:
            tags.append(f"misses {misses}")
        if row.get("stall_total"):
            tags.append(f"stalls {row['stall_total']}")
        lines.append(
            f"  {row.get('pc_hex', hex(row['pc'])):>10}  "
            f"{'K' if row.get('kernel') else 'U'}  "
            f"{disasm:<32} x{row['executions']:<8}"
            + ("  " + ", ".join(tags) if tags else ""))
    hot = max(rows, default=None,
              key=lambda row: ((row.get("stall") or {})
                               .get("dcache_port", 0), -row["pc"]))
    if hot is not None and (hot.get("stall") or {}).get("dcache_port"):
        lines.append("")
        disasm = hot.get("disasm") or hot.get("kind", "?")
        lines.append(
            f"Top port-conflict PC {hot.get('pc_hex', hex(hot['pc']))} "
            f"({'kernel' if hot.get('kernel') else 'user'}, {disasm}): "
            f"{hot['stall']['dcache_port']} slots lost to dcache_port")
        lines.extend(_stream_lines(hot, geometry))
    del top
    return lines

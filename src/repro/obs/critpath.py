"""Causal observability: dependence-graph critical-path profiling.

The stall ledger (:mod:`repro.obs.stall`) answers *"what was the commit
head waiting on?"* — a correlational question.  This module answers the
causal one: *"which resource actually sat on the execution critical
path, and what would relaxing it buy?"*

**Graph model.**  Every committed instruction contributes a column of
event nodes — fetch ``F``, dispatch ``D``, operand-ready ``Y``, issue
``I``, address ``A``, cache-port grant ``G``, complete ``C``, retire
``R`` — and the edges between nodes carry the microarchitectural
constraints that ordered them: in-order fetch and commit, decode and
AGU pipe latency, data dependences, ROB/IQ/LQ/SQ capacity
back-pressure, D-cache port arbitration, MSHR waits, memory ordering,
line-buffer / store-forward / next-level service, write-buffer
back-pressure at commit, and branch/serialize redirects.  A
:class:`CritPathRecorder` attached to :class:`repro.core.pipeline.OoOCore`
snapshots one immutable record per committed instruction (a probe
recorder, like the tracer and interval metrics: see
:mod:`repro.obs.probe`) from the ``commit`` event's ``seq`` and stage
cycles, looking the instruction's pc and kind up in the trace, and walks the graph *backwards* from the last
retirement: at every node it picks the binding (latest) predecessor and
charges the cycles between them to that edge's class.

Because the walk telescopes from the end of the run down to cycle zero
— each step charges exactly ``t - t'`` and the chain is anchored at
both ends — the resulting **critical-path CPI stack sums to the total
cycle count exactly**, the same conservation discipline the stall
ledger established, now with causal semantics.

**Streaming/windowing.**  Records are processed in windows of
:data:`DEFAULT_WINDOW` commits so memory stays bounded on long runs.
In-order commit guarantees every cross-window predecessor retired at or
before the window boundary, so each window's walk terminates cleanly at
the previous window's last retirement and the per-window charges
telescope across the whole run.

**What-if engine.**  For each requested scenario (a set of
``"class"`` specs to zero and/or ``"class/N"`` specs to divide by N),
the recorder *re-walks* every window forwards, replaying each
instruction's event times with the chosen edges collapsed or scaled
while every other measured delay is preserved, and carries the
predicted schedule across window boundaries.  ``predicted_cycles()``
is then a causal estimate of the run under, e.g., infinite D-cache
ports — validated against real simulations of the relaxed configs in
``tests/test_obs_critpath.py`` (see :data:`WHATIF_PORT_BOUND` for the
documented error bound and its caveats).  The empty scenario replays
the measured schedule faithfully (a self-check of the replay engine).
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heappush, heapreplace
from typing import TYPE_CHECKING, Iterable, Sequence

from ..trace.io import F_LOAD, F_STORE, OPCLASSES, Trace
from .probe import (BLK_BANK, BLK_MSHR, BLK_NO_PORT, BLK_ORDER,
                    BLK_SQ_WAIT, BLK_WB_CONFLICT, SRC_HIT, SRC_LB,
                    SRC_MISS, SRC_SECONDARY, SRC_SQ, SRC_WB)
from .report import (COUNT, NUMBER, Check, MapOf, envelope, envelope_spec,
                     validate)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..core.config import MachineConfig
    from ..core.pipeline import CoreResult, OoOCore

#: Version of the critical-path manifest schema.
CRITPATH_SCHEMA_VERSION = 1

CRITPATH_SCHEMA = f"repro.critpath/{CRITPATH_SCHEMA_VERSION}"

#: Commits per analysis window (memory stays O(window) on long runs).
DEFAULT_WINDOW = 8192

#: The fetch->dispatch latency: the core dispatches before it fetches
#: each cycle, so an instruction dispatches one cycle after its fetch
#: at the earliest.
_DECODE_LATENCY = 1

#: Documented relative error bound for the 1P -> 2P what-if
#: (:data:`WHATIF_PORT` predicted cycles vs a real 2P simulation).
#: The prediction replays recorded waits with the port classes
#: relaxed; it does not re-simulate second-order effects (port
#: pressure re-shaping line-buffer hits, combining opportunities,
#: bank conflicts, or the load/store mix sharing the new port), so it
#: is an estimate, not an oracle.  Empirically it lands within ~6% of
#: the simulated 2P cycles on the reference workloads (stream, qsort,
#: tiny + small); this constant records the documented 10% acceptance
#: bound with headroom for other traces.
WHATIF_PORT_BOUND = 0.10

#: The canonical what-if for the paper's headline question ("what would
#: a second cache port buy?"): zero load-port arbitration (the extra
#: port makes load waits vanish) and scale write-buffer drain waits by
#: 1.5 — stores drain through port-idle cycles, and going 1P -> 2P
#: raises that idle bandwidth by roughly half once loads take their
#: share of the new port first (it does not double: the paper's own
#: point is that port relief is sub-linear).
WHATIF_PORT = ("dcache_port", "write_buffer/1.5")

#: Every edge class the walker can charge a critical cycle to, in
#: pipeline order.  See docs/OBSERVABILITY.md ("Causal observability")
#: for the full prose definition of each.
EDGE_CLASSES = (
    "fetch",          # in-order fetch bandwidth, I-cache stalls
    "branch",         # mispredict / BTB-miss redirect latency
    "serialize",      # pipeline flushes (syscall / eret / trap)
    "decode",         # fetch->dispatch pipe latency
    "dispatch",       # in-order dispatch width / rename pipe
    "rob_full",       # dispatch blocked: reorder buffer full
    "iq_full",        # dispatch blocked: issue queue full
    "lq_full",        # dispatch blocked: load queue full
    "sq_full",        # dispatch blocked: store queue full
    "data_dep",       # waiting on a producer's value
    "exec",           # FU/AGU latency + issue structural waits
    "dcache_port",    # port arbitration (no free port / bank conflict)
    "mshr",           # MSHR-full retry
    "mem_order",      # conservative load/store ordering, SQ/WB conflicts
    "cache_hit",      # L1-hit service latency through a port
    "line_buffer",    # line-buffer service latency
    "store_forward",  # SQ / write-buffer forwarding latency
    "next_level",     # miss / secondary-miss fill latency
    "write_buffer",   # commit blocked: write buffer full
    "commit",         # in-order commit / commit width
    "drain",          # end-of-run pipeline drain
)

_EDGE_CLASS_SET = frozenset(EDGE_CLASSES)

#: A load's source code (:mod:`repro.obs.probe`) -> service-latency
#: edge class.
_SOURCE_CLASS = {
    SRC_MISS: "next_level",
    SRC_SECONDARY: "next_level",
    SRC_HIT: "cache_hit",
    SRC_LB: "line_buffer",
    SRC_SQ: "store_forward",
    SRC_WB: "store_forward",
}

#: A load's LSQ block code -> port-wait edge class.
_BLOCK_CLASS = {
    BLK_NO_PORT: "dcache_port",
    BLK_BANK: "dcache_port",
    BLK_MSHR: "mshr",
    BLK_ORDER: "mem_order",
    BLK_SQ_WAIT: "mem_order",
    BLK_WB_CONFLICT: "mem_order",
}

#: ``kind`` of a record, by opclass index.
_KINDS = tuple(opclass.name for opclass in OPCLASSES)

#: commit-stage block reason -> edge class.
_COMMIT_BLOCK_CLASS = {
    "wb_full": "write_buffer",
    "store_port": "dcache_port",
}

#: dispatch-stage capacity structure -> edge class.
_CAPACITY_CLASS = {
    "rob": "rob_full",
    "iq": "iq_full",
    "lq": "lq_full",
    "sq": "sq_full",
}


class _Rec:
    """One committed instruction's event times + wait annotations
    (an immutable snapshot taken at commit)."""

    __slots__ = ("seq", "pc", "kind", "is_load", "is_store", "fetch",
                 "dispatch", "ready", "issue", "addr", "data_ready",
                 "grant", "source", "mem_block", "complete", "retire",
                 "deps", "data_deps", "dispatch_block", "commit_block")


class _Scenario:
    """Per-what-if forward-replay state carried across windows."""

    __slots__ = ("zeroed", "scaled", "prev_f", "prev_d", "prev_r", "end",
                 "shift")

    def __init__(self, zeroed: frozenset,
                 scaled: dict[str, int] | None = None) -> None:
        self.zeroed = zeroed
        self.scaled = scaled or {}  # edge class -> wait divisor
        self.prev_f = 0   # predicted fetch of the previous record
        self.prev_d = 0   # predicted dispatch of the previous record
        self.prev_r = 0   # predicted retire of the previous record
        self.end = 0      # predicted last retirement so far
        self.shift = 0    # measured-minus-predicted time at the boundary


#: Edge classes whose waits may be *scaled* (``"class/N"``) rather than
#: only zeroed: queueing/service delays where a bandwidth ratio is
#: meaningful.  Structural classes (widths, capacities, ordering) only
#: support zeroing.
_SCALABLE_CLASSES = frozenset((
    "dcache_port", "mshr", "mem_order", "write_buffer", "cache_hit",
    "line_buffer", "store_forward", "next_level",
))


def _parse_scenario(entry) -> tuple[tuple, frozenset, dict[str, int]]:
    """Canonicalize one what-if scenario spec.

    *entry* is a string or an iterable of strings; each string is an
    edge class (``"dcache_port"`` — zero its waits) or ``"class/N"``
    (divide its waits by integer N ≥ 2).  Returns the canonical key
    plus the zeroed set and scale map the replay consumes.
    """
    specs = (entry,) if isinstance(entry, str) else tuple(entry)
    # The empty scenario is legal: a faithful replay of the measured
    # schedule, useful for validating the replay engine itself.
    zeroed = set()
    scaled: dict[str, float] = {}
    for spec in specs:
        cls, sep, div = str(spec).partition("/")
        if cls not in _EDGE_CLASS_SET:
            raise ValueError(f"unknown edge class in what-if "
                             f"scenario: {cls!r}")
        if not sep:
            zeroed.add(cls)
            continue
        try:
            divisor = float(div)
        except ValueError:
            divisor = 0.0
        if not divisor > 1.0:
            raise ValueError(f"what-if scale must be a number > 1: "
                             f"{spec!r}")
        if cls not in _SCALABLE_CLASSES:
            raise ValueError(f"edge class {cls!r} only supports "
                             f"zeroing, not scaling ({spec!r})")
        scaled[cls] = divisor
    both = zeroed & scaled.keys()
    if both:
        raise ValueError(f"edge class(es) both zeroed and scaled in "
                         f"one scenario: {', '.join(sorted(both))}")
    key = tuple(sorted(zeroed) +
                sorted(f"{cls}/{div:g}" for cls, div in scaled.items()))
    return key, frozenset(zeroed), scaled


def _normalize_whatif(whatif) -> dict[tuple, _Scenario]:
    scenarios: dict[tuple, _Scenario] = {}
    for entry in whatif:
        key, zeroed, scaled = _parse_scenario(entry)
        scenarios.setdefault(key, _Scenario(zeroed, scaled))
    return scenarios


class CritPathRecorder:
    """Streams the commit-time dependence graph into a critical-path
    CPI stack plus optional what-if predictions.

    Attach via ``OoOCore(machine, critpath=recorder)``; after ``run()``
    the stack is available through :meth:`stack` / :meth:`as_dict`.
    One recorder serves one run.
    """

    served = False

    def __init__(self, window: int = DEFAULT_WINDOW,
                 whatif: Iterable = ()) -> None:
        if window < 2:
            raise ValueError("critpath window must be at least 2 commits")
        self.window = window
        self._scenarios = _normalize_whatif(whatif)
        self._records: list[_Rec] = []
        self._index: dict[int, int] = {}      # seq -> window offset
        self._stack: dict[str, int] = {}
        self._crit_pc: dict[int, list] = {}   # pc -> [cycles, events, kind]
        # Pending per-uop annotations, popped when the uop commits.
        self._deps: dict[int, list[int]] = {}       # seq -> producers
        self._data_deps: dict[int, list[int]] = {}  # store-data producers
        self._mem: dict[int, tuple] = {}
        self._dispatch_block: dict[int, str] = {}
        self._commit_block: dict[int, str] = {}
        self._redirects: dict[int, tuple] = {}  # resume cycle -> (kind, seq)
        # Walk state carried across windows.
        self._boundary = 0        # last flushed retirement (walk anchor)
        self._prev_orig = (0, 0, 0)  # measured (fetch, dispatch, retire)
        self._dispatch_width = 4
        self._commit_width = 4
        self._fq_size = 0
        self._rob_size = 0
        self._iq_size = 0
        self._lq_size = 0
        self._sq_size = 0
        # Per-window load/store positions (capacity-blocker lookup)
        # and IQ-slot issue-order bounds.
        self._loads_pos: list[int] = []
        self._stores_pos: list[int] = []
        self._iq_bound: list[int] = []
        self.windows = 0
        self.total_cycles = 0
        self.instructions = 0
        self._finalized = False

    # ------------------------------------------------------------------
    # Probe events (see repro.obs.probe)
    # ------------------------------------------------------------------
    def run_begin(self, core: "OoOCore", trace: Trace) -> None:
        """Capture pipe constants and structure sizes (the capacity
        edges need to know which older instruction freed a slot), and
        the trace the commits are looked up in."""
        lists = trace.lists()
        self._pcs = lists["pc"]
        self._opclasses = lists["opclass"]
        self._flags = lists["flags"]
        cfg = core.cfg
        self._dispatch_width = cfg.dispatch_width
        self._commit_width = cfg.commit_width
        self._fq_size = cfg.fetch_queue_size
        self._rob_size = cfg.rob_size
        self._iq_size = cfg.iq_size
        self._lq_size = cfg.lq_size
        self._sq_size = cfg.sq_size

    def dep_wired(self, seq: int, producer: int, is_data: bool) -> None:
        """A register dependence of *seq* was wired to the
        still-incomplete *producer* at dispatch."""
        deps = self._data_deps if is_data else self._deps
        deps.setdefault(seq, []).append(producer)

    def dispatch_block(self, seq: int, structure: str) -> None:
        """Dispatch of *seq* blocked on a full *structure* this cycle."""
        self._dispatch_block[seq] = structure

    def commit_block(self, seq: int, reason: str) -> None:
        """Commit of store *seq* blocked (``store_port``/``wb_full``)."""
        self._commit_block[seq] = reason

    def redirect(self, cycle: int, kind: str, seq: int,
                 resume: int) -> None:
        """Fetch will resume at cycle *resume* because of *seq*
        (``kind``: ``branch`` resolve, ``serialize`` commit, or a
        ``decode``-stage jump redirect)."""
        self._redirects[resume] = (kind, seq)

    def load_serviced(self, cycle: int, seq: int, line: int, source: int,
                      block: int, ready: int) -> None:
        """Load *seq* was granted its data path at *cycle* from
        *source*; *block* is the last reason it waited in the LSQ."""
        self._mem[seq] = (cycle, source, block)

    def commit(self, seq: int, cycle: int, times: tuple) -> None:
        """Snapshot one committed instruction; may flush a window."""
        rec = _Rec()
        rec.seq = seq
        rec.pc = self._pcs[seq]
        rec.kind = _KINDS[self._opclasses[seq]]
        flags = self._flags[seq]
        rec.is_load = (flags & F_LOAD) != 0
        rec.is_store = (flags & F_STORE) != 0
        (rec.fetch, rec.dispatch, rec.ready, rec.issue, rec.addr,
         rec.data_ready, rec.complete) = times
        rec.retire = cycle
        mem = self._mem.pop(seq, None)
        if mem is None:
            rec.grant = -1
            rec.source = 0
            rec.mem_block = 0
        else:
            rec.grant, rec.source, rec.mem_block = mem
        rec.deps = self._deps.pop(seq, ())
        rec.data_deps = self._data_deps.pop(seq, ())
        rec.dispatch_block = self._dispatch_block.pop(seq, None)
        rec.commit_block = self._commit_block.pop(seq, None)
        self._index[seq] = len(self._records)
        self._records.append(rec)
        if len(self._records) >= self.window:
            self._flush()

    def run_end(self, core: "OoOCore", cycles: int,
                instructions: int) -> None:
        """Flush the tail window and close the stack."""
        self._flush()
        self.total_cycles = cycles
        self.instructions = instructions
        drain = cycles - self._boundary
        if drain > 0:
            self._stack["drain"] = self._stack.get("drain", 0) + drain
        self._finalized = True

    # ------------------------------------------------------------------
    # Windowing
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        records = self._records
        if not records:
            return
        redirects = self._redirects
        index = self._index
        self._loads_pos = [i for i, rec in enumerate(records)
                           if rec.is_load]
        self._stores_pos = [i for i, rec in enumerate(records)
                            if rec.is_store]
        self._iq_bound = self._issue_order_bounds(records)
        self._walk(records, redirects, index)
        for scenario in self._scenarios.values():
            self._replay(records, redirects, index, scenario)
        last = records[-1]
        self._boundary = last.retire
        self._prev_orig = (last.fetch, last.dispatch, last.retire)
        self.windows += 1
        self._records = []
        self._index = {}
        # Redirect notes for fetches at or beyond the youngest flushed
        # fetch may still resolve in-flight uops; older ones are spent.
        fetch_horizon = last.fetch
        if redirects:
            self._redirects = {resume: note
                               for resume, note in redirects.items()
                               if resume >= fetch_horizon}
        self._loads_pos = []
        self._stores_pos = []
        self._iq_bound = []

    def _issue_order_bounds(self, records: list[_Rec]) -> list[int]:
        """For each record, the window offset of the instruction whose
        *issue* freed its IQ slot, or -1 when it predates the window.

        Unlike the ROB/LQ/SQ (freed at in-order retire) and the fetch
        queue (freed at in-order dispatch), the issue queue drains
        out of order: record *i* can dispatch once at most
        ``iq_size - 1`` predecessors remain unissued, i.e. no earlier
        than the ``iq_size``-th **largest** issue time among all
        ``j < i`` — tracked with a bounded min-heap of the largest
        issue times seen so far (its root is that bound).
        """
        k = self._iq_size
        bounds = [-1] * len(records)
        if k <= 0:
            return bounds
        heap: list[tuple[int, int]] = []  # k largest (issue, idx) so far
        for i, rec in enumerate(records):
            if len(heap) >= k:
                bounds[i] = heap[0][1]
            entry = (rec.issue, i)
            if len(heap) < k:
                heappush(heap, entry)
            elif entry > heap[0]:
                heapreplace(heap, entry)
        return bounds

    # ------------------------------------------------------------------
    # Backward walk: the critical-path CPI stack
    # ------------------------------------------------------------------
    def _walk(self, records: list[_Rec], redirects: dict,
              index: dict[int, int]) -> None:
        """Charge every cycle between the window boundary and the
        window's last retirement to exactly one edge class.

        Each step moves to the binding (latest) predecessor node and
        charges the gap; (seq, stage) strictly decreases
        lexicographically, so the walk terminates, and the charges
        telescope from last-retire down to the boundary — conservation
        by construction.
        """
        boundary = self._boundary
        stack = self._stack
        crit = self._crit_pc
        i = len(records) - 1
        rec = records[i]
        stage = "R"
        t = rec.retire
        while t > boundary:
            nstage, ni, nt, cls = self._binding(records, redirects, index,
                                                stage, i, rec)
            if nt > t:
                nt = t
            cut = nstage is None or nt <= boundary
            delta = t - (boundary if nt <= boundary else nt)
            if delta:
                stack[cls] = stack.get(cls, 0) + delta
                entry = crit.get(rec.pc)
                if entry is None:
                    crit[rec.pc] = [delta, 1, rec.kind]
                else:
                    entry[0] += delta
                    entry[1] += 1
            if cut:
                break
            stage, i, t = nstage, ni, nt
            rec = records[i]

    def _binding(self, records: list[_Rec], redirects: dict,
                 index: dict[int, int], stage: str, i: int,
                 rec: _Rec) -> tuple:
        """The binding predecessor of node (*stage*, *i*): returns
        ``(next_stage, next_index, next_time, edge_class)``; a ``None``
        stage means the path leaves the window (the walker clamps the
        charge at the boundary)."""
        if stage == "R":
            # Retire: bound by own completion, in-order commit, or an
            # explicit store commit block.
            block = _COMMIT_BLOCK_CLASS.get(rec.commit_block)
            if block is None and i > 0 and \
                    records[i - 1].retire > rec.complete:
                return ("R", i - 1, records[i - 1].retire, "commit")
            return ("C", i, rec.complete, block or "commit")
        if stage == "C":
            # Complete: loads via their memory grant, stores via
            # address + data, everything else via the FU.
            if rec.is_load and rec.grant >= 0:
                return ("G", i, rec.grant,
                        _SOURCE_CLASS.get(rec.source, "next_level"))
            if rec.is_store:
                if rec.data_ready > rec.addr:
                    p = _producer_at(records, index, rec.data_deps,
                                     rec.data_ready)
                    if p is not None:
                        return ("C", p, rec.data_ready, "data_dep")
                    return ("A", i, rec.addr, "data_dep")
                return ("A", i, rec.addr, "exec")
            if rec.is_load:  # no grant note: defensive fallback
                return ("A", i, rec.addr, "next_level")
            return ("I", i, rec.issue, "exec")
        if stage == "G":
            # Port grant: the wait in the LSQ between address-ready
            # and being serviced.
            return ("A", i, rec.addr,
                    _BLOCK_CLASS.get(rec.mem_block, "dcache_port"))
        if stage == "A":
            return ("I", i, rec.issue, "exec")  # AGU latency
        if stage == "I":
            # Issue: bound by operand readiness (else the gap is
            # issue-width/FU structural contention).
            ready = rec.dispatch + 1
            if rec.ready > ready:
                ready = rec.ready
            return ("Y", i, ready, "exec")
        if stage == "Y":
            # Operand-ready: walk into the binding producer when it
            # committed inside this window.
            if rec.ready > rec.dispatch + 1:
                p = _producer_at(records, index, rec.deps, rec.ready)
                if p is not None:
                    return ("C", p, records[p].complete, "data_dep")
                return ("D", i, rec.dispatch, "data_dep")
            return ("D", i, rec.dispatch, "dispatch")
        if stage == "D":
            # Dispatch: decode pipe, in-order dispatch, or a capacity
            # block — whose binding predecessor is the event that freed
            # the slot (the blocker's retire; its issue for the IQ).
            cap = _CAPACITY_CLASS.get(rec.dispatch_block)
            best_eff = rec.fetch + _DECODE_LATENCY
            best = ("F", i, rec.fetch, cap or "decode")
            if i > 0 and records[i - 1].dispatch > best_eff:
                best_eff = records[i - 1].dispatch
                best = ("D", i - 1, best_eff, cap or "dispatch")
            if cap is not None:
                blocker = self._capacity_blocker(rec.dispatch_block, i)
                if blocker is not None:
                    if rec.dispatch_block == "iq":
                        bstage, btime = "I", records[blocker].issue
                    else:
                        bstage, btime = "R", records[blocker].retire
                    if btime >= best_eff:
                        return (bstage, blocker, btime, cap)
            return best
        # stage == "F": fetch-queue back-pressure, a redirect that
        # gated fetch, or in-order fetch bandwidth.
        fqs = self._fq_size
        if fqs and i >= fqs and records[i - fqs].dispatch == rec.fetch:
            # The fetch-queue slot freed exactly when this fetch
            # happened: back-pressure binds; walk into the dispatch
            # that freed it (the charge on this edge is zero).
            return ("D", i - fqs, rec.fetch, "fetch")
        note = redirects.get(rec.fetch)
        if note is not None:
            kind, source_seq = note
            p = index.get(source_seq)
            if kind == "serialize":
                if p is not None:
                    return ("R", p, records[p].retire, "serialize")
                return (None, -1, -1, "serialize")
            if kind == "decode":
                if p is not None:
                    return ("F", p, records[p].fetch, "branch")
                return (None, -1, -1, "branch")
            # kind == "branch"
            if p is not None:
                return ("C", p, records[p].complete, "branch")
            return (None, -1, -1, "branch")
        if i > 0:
            return ("F", i - 1, records[i - 1].fetch, "fetch")
        return (None, -1, -1, "fetch")

    def _capacity_blocker(self, structure: str, i: int) -> int | None:
        """The window offset of the instruction whose departure freed
        the slot that dispatch of record *i* was blocked on, or
        ``None`` when it predates the window."""
        if structure == "rob":
            blocker = i - self._rob_size
            return blocker if blocker >= 0 else None
        if structure == "iq":
            blocker = self._iq_bound[i]
            return blocker if blocker >= 0 else None
        if structure == "lq":
            positions, size = self._loads_pos, self._lq_size
        else:
            positions, size = self._stores_pos, self._sq_size
        blocker = bisect_left(positions, i) - size
        return positions[blocker] if blocker >= 0 else None

    # ------------------------------------------------------------------
    # What-if: forward replay with an edge class zeroed
    # ------------------------------------------------------------------
    def _replay(self, records: list[_Rec], redirects: dict,
                index: dict[int, int], sc: _Scenario) -> None:
        """Re-schedule the window with the scenario's edge classes at
        zero latency; every other measured delay is preserved."""
        zeroed = sc.zeroed
        scaled = sc.scaled
        decode = _DECODE_LATENCY
        fqs = self._fq_size
        of_prev, od_prev, or_prev = self._prev_orig
        pf_prev, pd_prev, pr_prev = sc.prev_f, sc.prev_d, sc.prev_r
        shift = sc.shift
        pred_fetch: dict[int, int] = {}
        pred_dispatch: dict[int, int] = {}
        pred_issue: dict[int, int] = {}
        pred_complete: dict[int, int] = {}
        pred_retire: dict[int, int] = {}
        iq_size = self._iq_size
        iq_heap: list[int] = []  # k largest predicted issue times
        for idx, rec in enumerate(records):
            of, od, oi, oc = rec.fetch, rec.dispatch, rec.issue, rec.complete
            # --- fetch ------------------------------------------------
            note = redirects.get(of)
            gap = of - of_prev
            if gap < 0:
                gap = 0
            # A fetch gap that closed exactly when a fetch-queue slot
            # freed is back-pressure, not bandwidth: it is re-derived
            # from the predicted dispatch schedule below instead of
            # being replayed.
            back_pressured = (fqs and idx >= fqs
                              and records[idx - fqs].dispatch == of)
            if note is not None or back_pressured or "fetch" in zeroed:
                gap = 0
            pf = pf_prev + gap
            if fqs and idx >= fqs and pred_dispatch[idx - fqs] > pf:
                pf = pred_dispatch[idx - fqs]
            if note is not None:
                kind, source_seq = note
                p = index.get(source_seq)
                if kind == "serialize":
                    if "serialize" not in zeroed:
                        if p is not None:
                            base = pred_retire[p]
                            lat = of - records[p].retire
                        else:
                            base = of - shift
                            lat = 0
                        cand = base + lat
                        if cand > pf:
                            pf = cand
                elif "branch" not in zeroed:
                    if kind == "decode":
                        if p is not None:
                            base = pred_fetch[p]
                            lat = of - records[p].fetch
                        else:
                            base = of - shift
                            lat = 0
                    elif p is not None:
                        base = pred_complete[p]
                        lat = of - records[p].complete
                    else:
                        base = of - shift
                        lat = 0
                    cand = base + lat
                    if cand > pf:
                        pf = cand
            if pf < 0:
                pf = 0
            pred_fetch[idx] = pf
            # --- dispatch ---------------------------------------------
            pd = pf + (0 if "decode" in zeroed else decode)
            if pd_prev > pd:
                pd = pd_prev
            if idx >= self._dispatch_width:
                cand = pred_dispatch[idx - self._dispatch_width] + 1
                if cand > pd:
                    pd = cand
            if rec.dispatch_block is not None:
                cap = _CAPACITY_CLASS[rec.dispatch_block]
                if cap not in zeroed:
                    if rec.dispatch_block == "iq":
                        # IQ slots free at out-of-order issue: the
                        # bound is the iq_size-th largest *predicted*
                        # issue among predecessors (heap root).
                        cand = iq_heap[0] if len(iq_heap) >= iq_size \
                            else od - shift
                    else:
                        blocker = self._capacity_blocker(
                            rec.dispatch_block, idx)
                        cand = pred_retire[blocker] \
                            if blocker is not None else od - shift
                    if cand > pd:
                        pd = cand
            pred_dispatch[idx] = pd
            # --- issue ------------------------------------------------
            o_ready = od + 1
            if rec.ready > o_ready:
                o_ready = rec.ready
            structural = oi - o_ready
            if structural < 0:
                structural = 0
            p_ready = pd + 1
            if rec.ready > od + 1 and "data_dep" not in zeroed:
                p = _producer_at(records, index, rec.deps, rec.ready)
                cand = pred_complete[p] if p is not None \
                    else rec.ready - shift
                if cand > p_ready:
                    p_ready = cand
            pi = p_ready + (0 if "exec" in zeroed else structural)
            pred_issue[idx] = pi
            if iq_size > 0:
                if len(iq_heap) < iq_size:
                    heappush(iq_heap, pi)
                elif pi > iq_heap[0]:
                    heapreplace(iq_heap, pi)
            # --- complete ---------------------------------------------
            if rec.is_load and rec.grant >= 0:
                agu = max(0, rec.addr - oi)
                port_wait = max(0, rec.grant - rec.addr)
                service = max(0, oc - rec.grant)
                wait_cls = _BLOCK_CLASS.get(rec.mem_block, "dcache_port")
                source_cls = _SOURCE_CLASS.get(rec.source, "next_level")
                if wait_cls in zeroed:
                    port_wait = 0
                elif wait_cls in scaled:
                    port_wait = int(port_wait / scaled[wait_cls])
                if source_cls in zeroed:
                    service = 0
                elif source_cls in scaled:
                    service = int(service / scaled[source_cls])
                pc = (pi + (0 if "exec" in zeroed else agu)
                      + port_wait + service)
            elif rec.is_store:
                agu = max(0, rec.addr - oi)
                pc = pi + (0 if "exec" in zeroed else agu)
                if rec.data_ready > rec.addr and "data_dep" not in zeroed:
                    p = _producer_at(records, index, rec.data_deps,
                                     rec.data_ready)
                    cand = pred_complete[p] if p is not None \
                        else rec.data_ready - shift
                    if cand > pc:
                        pc = cand
            else:
                pc = pi + (0 if "exec" in zeroed else max(0, oc - oi))
            pred_complete[idx] = pc
            # --- retire -----------------------------------------------
            pr = pc if pc > pr_prev else pr_prev
            if idx >= self._commit_width:
                cand = pred_retire[idx - self._commit_width] + 1
                if cand > pr:
                    pr = cand
            if rec.commit_block is not None:
                commit_cls = _COMMIT_BLOCK_CLASS[rec.commit_block]
                if commit_cls not in zeroed:
                    # An explicit store commit block (wb_full /
                    # store_port): replay its measured residual — its
                    # relief (write-buffer drain bandwidth) is not on
                    # the recorded graph.  The residual is measured
                    # against every constraint the replay also applies
                    # (complete, in-order, commit width); otherwise a
                    # wait that coincides with the width bound would be
                    # double-counted.
                    base_retire = oc if oc > or_prev else or_prev
                    if idx >= self._commit_width:
                        width_bound = records[idx - self._commit_width] \
                            .retire + 1
                        if width_bound > base_retire:
                            base_retire = width_bound
                    residual = rec.retire - base_retire
                    if commit_cls in scaled:
                        residual = int(residual / scaled[commit_cls])
                    if residual > 0:
                        pr += residual
            pred_retire[idx] = pr
            of_prev, od_prev, or_prev = of, od, rec.retire
            pf_prev, pd_prev, pr_prev = pf, pd, pr
        sc.prev_f, sc.prev_d, sc.prev_r = pf_prev, pd_prev, pr_prev
        sc.end = pr_prev
        sc.shift = or_prev - pr_prev

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _require_finalized(self) -> None:
        if not self._finalized:
            raise ValueError("critpath results are available only after "
                             "the run finalizes the recorder")

    def stack(self) -> dict[str, int]:
        """Critical cycles per edge class (every class, zeros kept);
        sums to :attr:`total_cycles` exactly."""
        self._require_finalized()
        return {cls: self._stack.get(cls, 0) for cls in EDGE_CLASSES}

    def check_conservation(self) -> None:
        """Raise unless the stack reconciles exactly with the run."""
        self._require_finalized()
        total = sum(self._stack.values())
        if total != self.total_cycles:
            raise AssertionError(
                f"critical-path stack sums to {total} cycles but the "
                f"run took {self.total_cycles}")

    def top_instructions(self, k: int = 10) -> list[dict[str, object]]:
        """The *k* static instructions carrying the most critical
        cycles (aggregated by PC)."""
        self._require_finalized()
        total = self.total_cycles or 1
        ranked = sorted(self._crit_pc.items(),
                        key=lambda item: (-item[1][0], item[0]))
        return [{
            "pc": pc,
            "pc_hex": f"0x{pc:x}",
            "kind": kind,
            "cycles": cycles,
            "events": events,
            "share": cycles / total,
        } for pc, (cycles, events, kind) in ranked[:k]]

    def predicted_cycles(self, scenario) -> int:
        """Predicted run length under *scenario* (a class name, an
        iterable of ``"class"`` / ``"class/N"`` specs, or empty for
        the faithful replay)."""
        self._require_finalized()
        key, _, _ = _parse_scenario(scenario)
        sc = self._scenarios.get(key)
        if sc is None:
            raise KeyError(f"no what-if scenario {key!r} was requested "
                           f"at construction")
        # The drain tail is preserved as-is.
        return sc.end + (self.total_cycles - self._boundary)

    def whatif_results(self) -> list[dict[str, object]]:
        """Every requested scenario's prediction, construction order."""
        self._require_finalized()
        results = []
        for key in self._scenarios:
            predicted = self.predicted_cycles(key)
            results.append({
                "scenario": list(key),
                "predicted_cycles": predicted,
                "predicted_ipc": (self.instructions / predicted
                                  if predicted else 0.0),
                "speedup": (self.total_cycles / predicted
                            if predicted else 0.0),
            })
        return results

    def as_dict(self) -> dict[str, object]:
        """The analysis payload embedded in ``repro.critpath/1``."""
        self._require_finalized()
        total = self.total_cycles or 1
        stack = self.stack()
        return {
            "window": self.window,
            "windows": self.windows,
            "cycles": self.total_cycles,
            "instructions": self.instructions,
            "stack": stack,
            "stack_share": {cls: cycles / total
                            for cls, cycles in stack.items()},
            "top_instructions": self.top_instructions(),
            "whatif": self.whatif_results(),
        }

    def summary(self) -> str:
        """One human line: the three heaviest edge classes."""
        self._require_finalized()
        total = self.total_cycles or 1
        top = sorted(self._stack.items(), key=lambda item: -item[1])[:3]
        parts = ", ".join(f"{cls} {cycles / total:5.1%}"
                          for cls, cycles in top)
        return f"critical path: {parts}"


def _producer_at(records: list[_Rec], index: dict[int, int],
                 deps: Sequence[int], when: int):
    """The in-window producer among *deps* that completed at *when*."""
    for producer_seq in deps:
        p = index.get(producer_seq)
        if p is not None and records[p].complete == when:
            return p
    return None


# ----------------------------------------------------------------------
# Manifest (repro.critpath/1)
# ----------------------------------------------------------------------
def build_critpath_report(recorder: CritPathRecorder,
                          result: "CoreResult",
                          machine: "MachineConfig", *,
                          workload: str | None = None,
                          scale: str | None = None,
                          seed: int | None = None,
                          trace_file: str | None = None,
                          wall_time: float | None = None
                          ) -> dict[str, object]:
    """Assemble the versioned ``repro.critpath/1`` document."""
    head = envelope(CRITPATH_SCHEMA, CRITPATH_SCHEMA_VERSION, machine,
                    workload=workload, scale=scale, seed=seed,
                    trace_file=trace_file)
    if recorder.total_cycles != result.cycles:
        raise ValueError(
            f"recorder saw {recorder.total_cycles} cycles but the "
            f"result reports {result.cycles}; the recorder must come "
            f"from this run")
    return {**head, "ipc": result.ipc, **recorder.as_dict(),
            "host": {"wall_time_s": wall_time}}


def _reconciles(report: dict) -> Iterable[str]:
    """Rule: the stack sums to the run's cycles, and every share and
    prediction is the one its counts give (as :meth:`as_dict` and
    :meth:`whatif_results` compute them)."""
    stack, cycles = report["stack"], report["cycles"]
    total = sum(stack.values())
    if total != cycles:
        yield (f"stack classes sum to {total} cycles, run took "
               f"{cycles} — the stack must reconcile exactly")
    shares = report["stack_share"]
    if set(shares) != set(stack):
        yield "stack_share and stack name different classes"
    else:
        for cls, charged in stack.items():
            if shares[cls] != charged / (cycles or 1):
                yield (f"stack_share[{cls}] is {shares[cls]}, the stack "
                       f"gives {charged / (cycles or 1)}")
    for index, entry in enumerate(report["whatif"]):
        predicted = entry["predicted_cycles"]
        for field, value in (("predicted_ipc", report["instructions"]),
                             ("speedup", cycles)):
            expected = value / predicted if predicted else 0.0
            if entry[field] != expected:
                yield (f"whatif[{index}].{field} is {entry[field]}, its "
                       f"counts give {expected}")


_EDGE_CLASS = Check(_EDGE_CLASS_SET.__contains__, "an edge class")

CRITPATH_SPEC = envelope_spec(CRITPATH_SCHEMA, {
    "cycles": int,
    "instructions": COUNT,
    "window": int,
    "windows": int,
    "stack": MapOf(COUNT, keys=_EDGE_CLASS),
    "stack_share": MapOf(NUMBER, keys=_EDGE_CLASS),
    "top_instructions": [{"pc": int, "kind": str, "cycles": int,
                          "events": int, "share": NUMBER}],
    "whatif": [{
        "scenario": [Check(lambda spec: isinstance(spec, str) and
                           spec.partition("/")[0] in _EDGE_CLASS_SET,
                           "an edge class or class/N")],
        "predicted_cycles": int,
        "predicted_ipc": NUMBER,
        "speedup": NUMBER,
    }],
}, _reconciles)


def validate_critpath_report(report: dict) -> None:
    """Raise :class:`SchemaError` unless *report* is a valid
    ``repro.critpath/1`` document — including exact conservation."""
    validate(report, CRITPATH_SPEC, "critpath")


def render_critpath_report(report: dict, top: int = 10,
                           width: int = 40) -> str:
    """ASCII rendering of a critpath manifest: CPI stack bars, the
    top-K critical instructions, and the what-if predictions."""
    lines: list[str] = []
    cycles = report["cycles"] or 1
    name = (report.get("config") or {}).get("name", "?")
    workload = report.get("workload") or report.get("trace_file") or "?"
    lines.append(f"Critical-path CPI stack — {workload} on {name} "
                 f"({report['cycles']} cycles, "
                 f"{report['instructions']} instructions, "
                 f"{report['windows']} window(s))")
    stack = report["stack"]
    for cls in EDGE_CLASSES:
        charged = stack.get(cls, 0)
        if not charged:
            continue
        share = charged / cycles
        bar = "#" * max(1, round(share * width))
        lines.append(f"  {cls:<14} {charged:>10}  {share:6.1%}  {bar}")
    lines.append(f"  {'total':<14} {sum(stack.values()):>10}  "
                 f"(reconciles exactly)")
    entries = report.get("top_instructions") or []
    if entries:
        lines.append("")
        lines.append(f"Top {min(top, len(entries))} critical "
                     f"instructions:")
        for entry in entries[:top]:
            lines.append(f"  {entry['pc_hex']:>10}  {entry['kind']:<8} "
                         f"{entry['cycles']:>10}  {entry['share']:6.1%}  "
                         f"({entry['events']} edges)")
    whatif = report.get("whatif") or []
    if whatif:
        lines.append("")
        lines.append("What-if predictions:")
        for entry in whatif:
            scenario = "+".join(entry["scenario"]) or "(faithful)"
            lines.append(f"  relax {scenario:<28} -> "
                         f"{entry['predicted_cycles']:>10} cycles "
                         f"(IPC {entry['predicted_ipc']:.3f}, "
                         f"{entry['speedup']:.2f}x)")
    return "\n".join(lines)

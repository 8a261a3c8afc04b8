"""The specialized fast cycle loop — the uninstrumented twin of
:meth:`repro.core.pipeline.OoOCore._run_loop`.

When a core has nothing in its ``probe`` slot (``probe is None``: no
tracer, validator, interval metrics, pipe trace, critpath or hotspots
recorder listens; see :mod:`repro.obs.probe`), :meth:`OoOCore.run`
dispatches here instead of the instrumented reference loop.  This
module is a flattened re-statement of the same machine:

* the six per-cycle stage calls, the LSQ scheduler, the D-cache port
  arbitration, the write/line buffers and the I-cache hit path are
  inlined into one loop body with every configuration constant and
  mutable structure hoisted into locals;
* an in-flight instruction is its trace position ``i`` (its ``seq``).
  A trace-driven model fetches nothing off the correct path, so every
  instruction is fetched, dispatched and committed once, in trace
  order: the ROB is the position range ``[commit_pos, dispatch_pos)``
  and the fetch queue ``[dispatch_pos, trace_pos)``.  Each mutable
  field is one of nine lists per run indexed by position (complete
  cycle, operand and store-data waits, address cycle, memory source,
  LSQ block code, negative-scan epoch, the two consumer lists), and
  the issue queue, LSQ views and event buckets hold positions, so
  their ordered inserts are :func:`bisect.insort`;
* per-record decode work (opclass index, fetch kind and block, the
  plain run fetch can take in one step, cache line / chunk / byte
  mask, name and data producers, the opclass histogram) is
  precomputed from the trace's columns (:class:`repro.trace.io.Trace`)
  by vector ops, into flat int lists, without building a record.  A
  memo of the last four traces run builds what the trace alone
  determines once per trace and each geometry's columns once per
  geometry, so timing one trace on many machines pays for one
  precompute (:class:`_Precompute`);
* fetch advances over whole runs of plain instructions (no branch,
  jump or serializing instruction, one fetch block) and handles only
  the control and serializing instructions one by one;
* functional-unit arbitration uses per-opclass int-indexed arrays, so
  the issue loop never hashes an enum, and counts a class's use only
  when the class can run out in a cycle;
* per-cycle bookkeeping scales with the work done: the active-load
  list takes each load, in ``seq`` order, when its address resolves,
  a consumer list exists only while its producer is pending, fetch,
  dispatch and commit compute their bounds once per cycle, not once
  per instruction, and the issue scan stops at the issue width;
* statistics, the stall ledger and the load-latency histogram
  accumulate in plain local ints/dicts and are flushed into the real
  :class:`Stats` / :class:`StallLedger` / :class:`Histogram` objects
  once, at loop exit.  All hot-path counters are integer-valued and
  far below 2**53, so batched accumulation is float-exact, and a
  counter key is flushed only when its count is non-zero — exactly the
  keys the reference loop would have created.  The stall timeline
  keeps the current interval's lost slots per cause and folds them
  into its buckets when a stall lands in a later interval.

The loop keeps no state whose outcome is already fixed:

* *Readiness is implicit.*  An instruction's complete cycle is only
  ever set to the current cycle: by its completion event, by a store's
  address event once its data is in, or by its data wakeup.  So every
  operand a dispatch finds complete was ready by that cycle, and a
  wakeup lands in the cycle its producer completes: an entry of the
  ready list can issue the cycle it is scanned, and a store whose data
  producers are done has its data.  No ready cycle is kept, and a
  non-empty ready list means something can issue next cycle, so the
  idle skip does not skip.
* *The decode delay is the stage order.*  Dispatch (stage 5) runs
  before fetch (stage 6) in both loops, so every queued instruction
  was fetched a cycle or more before dispatch sees it: the one-cycle
  fetch-to-dispatch delay needs no gate and no per-run fetch cycle.
* *FU op counts are the trace's.*  Every instruction issues exactly
  once, so ``fu.<class>.ops`` is the trace's opclass histogram on a
  normal exit.  Only after an exception is the window walked: the
  committed instructions plus the in-flight ones that have left the
  issue queue.

Cold paths stay method calls on the real objects: L1 fills and victim
disposal (``DataCacheSystem._start_fill`` / ``_dispose_victim``),
next-line prefetch, the shared L2 (:class:`NextLevel`), and I-cache
misses.  They read ``dcache._cycle`` and the shared ``_pending`` dict,
which the loop keeps in step.

The contract — enforced by ``tests/test_fastpath_diff.py`` across the
F2 configuration grid, every machine the experiments plan, corner
machines none plans and fuzzer-generated programs, and by ``repro fuzz`` and ``repro corpus
verify`` (:func:`repro.validate.differential_views`) — is that
:func:`run_fast` produces a **byte-identical** :class:`CoreResult`
(cycles, every counter, the stall ledger, the load-latency histogram)
to the instrumented reference loop.  A watchdog trip raises the
reference loop's deadlock report, word for word.

The boxed region headers in :func:`run_fast` (``# 1. events`` …
``# 6. fetch``, the stall attribution and the idle-cycle skip) are
read: the self-profiler and the bytecode counter charge each line to
the header above it (:mod:`repro.obs.selfprof`), and
``tests/test_obs_selfprof.py`` fails when one goes missing.
``tests/test_stage_table.py`` pins the loop's bytecode counts per
stage on three tiny cells.
"""

from __future__ import annotations

import gc
from bisect import insort
from collections import OrderedDict
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..func.exceptions import SimError
from ..isa import OpClass
from ..mem.config import L1_HIT_LATENCY, LB_LATENCY, LineBufferFill
from ..obs.probe import (BLK_BANK, BLK_MSHR, BLK_NO_PORT, BLK_ORDER,
                         BLK_SQ_WAIT, BLK_WB_CONFLICT, SRC_HIT, SRC_LB,
                         SRC_MISS, SRC_SECONDARY, SRC_SQ, SRC_WB)
from ..obs.stall import CAUSE_ORDER, StallCause
from ..stats.histogram import Histogram
from ..trace.io import (MAX_SOURCES, NO_DEST, NO_SPLIT, F_CONTROL,
                        F_LOAD, F_REDIRECT, F_SERIALIZES, F_STORE, F_TAKEN,
                        OPCLASSES, Trace, as_trace)
from .bpred import BTB_MISS_REDIRECT, MISPREDICT_REDIRECT

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..trace.record import TraceRecord
    from .pipeline import OoOCore

__all__ = ["run_fast"]

#: "Not yet": the complete cycle of an instruction still in flight.
_FAR = 1 << 60

#: Opclasses in a fixed order (the trace's ``opclass`` column order);
#: positions map to the index, the FU tables are indexed by it, and the
#: enum never gets hashed inside the loop.
_OPCS = OPCLASSES
_OPC_INDEX = {opclass: index for index, opclass in enumerate(_OPCS)}

# fetch kinds from the precompute pass.
_K_PLAIN = 0
_K_BRANCH = 1
_K_JUMP = 2
_K_SERIALIZE = 3


def _fetch_kinds(columns: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Each record's fetch kind and whether it is a jump the decoder
    redirects (J/JAL: the target is in the instruction word)."""
    pc = columns.pc
    opclass = columns.opclass
    flags = columns.flags
    control = (flags & F_CONTROL) != 0
    branch = opclass == _OPC_INDEX[OpClass.BRANCH]
    system = opclass == _OPC_INDEX[OpClass.SYSTEM]
    serializes = (columns.next_pc != pc + 4) | (
        system & ((flags & F_SERIALIZES) != 0))
    kind = np.where(control, np.where(branch, _K_BRANCH, _K_JUMP),
                    np.where(serializes, _K_SERIALIZE, _K_PLAIN))
    return kind, control & ~branch & ((flags & F_REDIRECT) != 0)


class _Precompute:
    """Everything derivable from one trace's records, as flat int lists,
    so the cycle loop never touches a record.  Reads the trace's columns
    (a plain record list is encoded first) with vector ops.

    What the trace alone determines (opclass, fetch kind, jump decode,
    pc, next pc, taken, load/store, the name and data producers, the
    opclass histogram) is built here, once.  What a geometry adds (the
    fetch block and plain run for an I-cache's ``fetch_bytes``; the
    D-cache line, chunk and byte mask) is built on a geometry's first
    use and kept per value, so one entry serves every machine a sweep
    runs the trace on.  Holds a strong reference to the trace, which
    keeps an ``id()`` key on it safe.
    """

    __slots__ = ("trace", "_columns", "_static", "_fetch", "_shifted",
                 "_masks")

    def __init__(self, trace: Sequence["TraceRecord"]) -> None:
        self.trace = trace
        self._columns = columns = as_trace(trace)
        flags = columns.flags
        is_load = (flags & F_LOAD) != 0
        is_store = (flags & F_STORE) != 0
        kind, jdec = _fetch_kinds(columns)
        name_producers, data_producers = _producers(columns, is_store)
        self._static = (columns.opclass.tolist(), kind.tolist(),
                        jdec.tolist(), columns.pc.tolist(),
                        columns.next_pc.tolist(),
                        ((flags & F_TAKEN) != 0).tolist(), is_load.tolist(),
                        is_store.tolist(), (is_load | is_store).tolist(),
                        name_producers, data_producers,
                        np.bincount(columns.opclass,
                                    minlength=len(_OPCS)).tolist())
        self._fetch: dict[int, tuple] = {}    # by fetch_bytes
        self._shifted: dict[int, list] = {}   # address >> shift, by shift
        self._masks: dict[int, list] = {}     # by line size

    def lists(self, line_shift: int, chunk_shift: int, line_size: int,
              fetch_bytes: int) -> tuple:
        """The seventeen lists :func:`run_fast` unpacks, for one
        geometry."""
        (opclass, kind, jdec, pc, next_pc, taken, is_load, is_store,
         is_mem, name_producers, data_producers, opclasses) = self._static
        fetch = self._fetch.get(fetch_bytes)
        if fetch is None:
            fetch = self._fetch[fetch_bytes] = self._runs(fetch_bytes)
        blocks, runs = fetch
        return (opclass, kind, jdec, pc, next_pc, taken, blocks, runs,
                is_load, is_store, is_mem, self._shift(line_shift),
                self._shift(chunk_shift), self._mask(line_size),
                name_producers, data_producers, opclasses)

    def _runs(self, fetch_bytes: int) -> tuple[list, list]:
        """Each record's fetch block, and how many records from it on
        are plain and in its fetch block (0 for a record that is not
        plain): the stretch fetch takes in one step."""
        block = self._columns.pc // fetch_bytes
        plain = _fetch_kinds(self._columns)[0] == _K_PLAIN
        # joins[i]: record i + 1 extends record i's run.  A run ends at
        # the first record at or after its start that no record joins.
        joins = plain[1:] & plain[:-1] & (block[1:] == block[:-1])
        ends = np.flatnonzero(~np.append(joins, False))
        index = np.arange(len(block))
        runs = np.where(plain, ends[np.searchsorted(ends, index)] - index + 1,
                        0)
        return block.tolist(), runs.tolist()

    def _accesses(self) -> tuple[np.ndarray, np.ndarray]:
        """Each record's access address and size, 0 for a record that
        does not access memory."""
        columns = self._columns
        is_mem = (columns.flags & (F_LOAD | F_STORE)) != 0
        return (np.where(is_mem, columns.mem_addr, 0),
                np.where(is_mem, columns.mem_size, 0).astype(np.uint64))

    def _shift(self, shift: int) -> list:
        shifted = self._shifted.get(shift)
        if shifted is None:
            address, _ = self._accesses()
            shifted = self._shifted[shift] = (address >> shift).tolist()
        return shifted

    def _mask(self, line_size: int) -> list:
        mask = self._masks.get(line_size)
        if mask is not None:
            return mask
        address, size = self._accesses()
        offset = address & (line_size - 1)
        if np.any(offset + size > line_size):
            raise ValueError("access crosses the line boundary")
        if line_size <= 64:
            one = np.uint64(1)
            mask = (((one << size) - one) << offset).tolist()
        else:  # masks wider than 64 bits
            mask = [((1 << width) - 1) << shift for width, shift
                    in zip(size.tolist(), offset.tolist())]
        self._masks[line_size] = mask
        return mask


def _precompute(trace: Sequence["TraceRecord"], line_shift: int,
                chunk_shift: int, line_size: int,
                fetch_bytes: int) -> tuple:
    """:meth:`_Precompute.lists` of a fresh precompute of *trace*."""
    return _Precompute(trace).lists(line_shift, chunk_shift, line_size,
                                    fetch_bytes)


def _producers(columns: Trace, is_store: np.ndarray) -> tuple[list, list]:
    """Each record's name producers and store-data producers: two
    tuples of positions, in operand order.

    Dispatch order is trace order, so an operand's producer is the last
    earlier writer of its register: exactly what the dynamic scoreboard
    would hold.  With the writes sorted by ``register * n + index``,
    that writer's key is the last one below the operand's own, one
    binary search away.
    """
    n = len(is_store)
    writes = np.flatnonzero(columns.dest != NO_DEST)
    # The trailing -1 is what a search that finds no earlier write
    # (position -1) reads; it matches no register.
    keys = np.append(
        np.sort(columns.dest[writes].astype(np.int64) * n + writes), -1)
    # Operands at or past this position feed the store data: none for
    # non-stores, the persisted split for stores, else the positional
    # heuristic (the first operand is the address base).
    first_data = np.where(
        is_store, np.where(columns.naddr == NO_SPLIT, 1, columns.naddr),
        MAX_SOURCES)
    index = np.arange(n)
    operands = []
    for position in range(MAX_SOURCES):
        register = columns.src[:, position].astype(np.int64)
        key = keys[np.searchsorted(keys[:-1], register * n + index) - 1]
        found = (columns.nsrc > position) & (key // n == register)
        producer = np.where(found, key % n, -1)
        is_data = first_data <= position
        operands.append((np.where(is_data, -1, producer).tolist(),
                         np.where(is_data, producer, -1).tolist()))
    (name_a, data_a), (name_b, data_b) = operands
    # A tuple or two per record.  Tuples of ints are untracked at their
    # first collection, so collections during this burst would only
    # re-traverse the rest of the heap: pause the cyclic GC for it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        names = [(a, b) if a >= 0 and b >= 0 else (a,) if a >= 0
                 else (b,) if b >= 0 else ()
                 for a, b in zip(name_a, name_b)]
        data = [(a, b) if a >= 0 and b >= 0 else (a,) if a >= 0
                else (b,) if b >= 0 else ()
                for a, b in zip(data_a, data_b)]
    finally:
        if enabled:
            gc.enable()
    return names, data


#: Memo of :class:`_Precompute` entries, one per trace, keyed by trace
#: identity; each entry keeps the geometry columns it has served.
#: Bounded LRU so sweeps over many traces do not pin them all in
#: memory.
_PRECOMPUTE_MEMO: OrderedDict = OrderedDict()
_PRECOMPUTE_MEMO_MAX = 4


def _precompute_cached(trace: Sequence["TraceRecord"], line_shift: int,
                       chunk_shift: int, line_size: int,
                       fetch_bytes: int) -> tuple:
    key = id(trace)
    entry = _PRECOMPUTE_MEMO.get(key)
    if entry is None or entry.trace is not trace:
        entry = _PRECOMPUTE_MEMO[key] = _Precompute(trace)
    _PRECOMPUTE_MEMO.move_to_end(key)
    while len(_PRECOMPUTE_MEMO) > _PRECOMPUTE_MEMO_MAX:
        _PRECOMPUTE_MEMO.popitem(last=False)
    return entry.lists(line_shift, chunk_shift, line_size, fetch_bytes)


def run_fast(core: "OoOCore", trace: Sequence["TraceRecord"]) -> int:
    """Run *trace* through *core* on the flattened loop; returns the
    final cycle count.

    Leaves the core as the reference loop does in everything a result
    or a later reader sees: stats, stall ledger, load-latency
    histogram, committed count, the caches, line buffer and write
    buffer, and the frontend's scalars (trace position, cycle, last
    activity, fetch block and memo).  In-flight instructions live only
    in the loop's per-run lists and are not written back; a watchdog
    trip reports them in the reference loop's words."""
    # ------------------------------------------------------------------
    # Configuration constants.
    # ------------------------------------------------------------------
    cfg = core.cfg
    mem = core.mem
    dcache = mem.dcache
    icache = mem.icache
    dcfg = dcache.config
    bpred = core.bpred

    fetch_width = cfg.fetch_width
    dispatch_width = cfg.dispatch_width
    issue_width = cfg.issue_width
    commit_width = cfg.commit_width
    rob_size = cfg.rob_size
    iq_size = cfg.iq_size
    lq_size = cfg.lq_size
    sq_size = cfg.sq_size
    fetch_queue_size = cfg.fetch_queue_size
    max_combine = cfg.max_combine

    n_ports = dcfg.ports
    n_mshrs = dcfg.mshrs
    bank_mask = dcfg.banks - 1
    combine_loads = dcfg.combine_loads
    direct_stores = dcfg.write_buffer_depth == 0
    wb_depth = dcfg.write_buffer_depth
    wb_combine = dcfg.combine_stores
    pending_cap = 2 * n_mshrs

    line_buffer = dcache.line_buffer
    lb_entries = dcfg.line_buffer_entries
    lb_lines = line_buffer._lines if line_buffer is not None else None
    has_lb = line_buffer is not None
    lb_fill_on_access = has_lb and \
        dcfg.line_buffer_fill is LineBufferFill.ON_ACCESS

    ic_shift = icache.cache.line_shift
    ic_sets = icache.cache._sets
    ic_set_mask = icache.cache._set_mask
    ic_cache = icache.cache
    ic_pending = icache._pending
    next_level = icache.next_level

    dsets = dcache.cache._sets
    dset_mask = dcache.cache._set_mask
    dc_pending = dcache._pending

    od_move = OrderedDict.move_to_end
    od_popfirst = OrderedDict.popitem

    # Branch prediction: direction predictor via bound methods, BTB
    # inlined (a direct-mapped list of (pc, target) tuples).
    bp_predict = bpred.direction.predict
    bp_update = bpred.direction.update
    btb_targets = bpred.btb._targets
    btb_mask = bpred.btb.mask

    # FU pool as int-indexed arrays; unpipelined classes carry a
    # busy-until list, pipelined ones None.  At most issue_width uops
    # issue per cycle, so only unpipelined classes and those with fewer
    # units than issue_width can run out in a cycle: only they count
    # their use (fu_limited).
    n_opc = len(_OPCS)
    fu_count = [0] * n_opc
    fu_latency = [0] * n_opc
    fu_busy: list[list[int] | None] = [None] * n_opc
    fu_limited = [False] * n_opc
    for index, opclass in enumerate(_OPCS):
        spec = cfg.fu_specs[opclass]
        fu_count[index] = spec.count
        fu_latency[index] = spec.latency
        if not spec.pipelined:
            fu_busy[index] = []
        fu_limited[index] = not spec.pipelined or spec.count < issue_width
    fu_unused = [0] * n_opc
    fu_used = [0] * n_opc

    opc_branch = _OPC_INDEX[OpClass.BRANCH]
    opc_jump = _OPC_INDEX[OpClass.JUMP]

    # Stall causes as CAUSE_ORDER indices.
    cause_index = {cause: i for i, cause in enumerate(CAUSE_ORDER)}
    ci_fetch = cause_index[StallCause.FETCH]
    ci_branch = cause_index[StallCause.BRANCH]
    ci_serialize = cause_index[StallCause.SERIALIZE]
    ci_exec = cause_index[StallCause.EXEC]
    ci_dcache_port = cause_index[StallCause.DCACHE_PORT]
    ci_lb_miss = cause_index[StallCause.LINE_BUFFER_MISS]
    ci_wb_full = cause_index[StallCause.WRITE_BUFFER_FULL]
    ci_mem_order = cause_index[StallCause.MEM_ORDER]
    ci_next_level = cause_index[StallCause.NEXT_LEVEL]
    ci_drain = cause_index[StallCause.DRAIN]

    # The stall timeline: lost slots per cause in the current interval
    # (bucket led_at, whose cycles end before led_end), folded into the
    # per-cause buckets when a stall lands in a later interval.
    led_width = core.ledger.width
    led_interval = core.ledger.interval
    led_causes = tuple(range(len(CAUSE_ORDER)))
    led_now = [0] * len(CAUSE_ORDER)
    led_at = 0
    led_end = led_interval
    led_series: list[dict[int, int]] = [{} for _ in CAUSE_ORDER]
    cap_rob = cap_iq = cap_lq = cap_sq = 0

    # ------------------------------------------------------------------
    # Trace precompute.
    # ------------------------------------------------------------------
    (r_opc, r_kind, r_jdec, r_pc, r_npc, r_taken, r_block, r_run,
     r_load, r_store, r_mem, r_line, r_chunk, r_mask, r_nprod, r_dprod,
     r_ops) = _precompute_cached(
        trace, dcache.line_shift, dcache.chunk_shift, dcache.line_size,
        icache.fetch_bytes)
    total = len(trace)

    # ------------------------------------------------------------------
    # Pipeline state: an in-flight instruction is its trace position.
    # The ROB is [commit_pos, dispatch_pos), the fetch queue
    # [dispatch_pos, trace_pos); each mutable field is a list indexed
    # by position.
    # ------------------------------------------------------------------
    far = _FAR
    done_at = [far] * total      # complete cycle; far until completed
    nwait = [0] * total          # outstanding operand producers
    dwait = [0] * total          # outstanding store-data producers
    acyc = [-1] * total          # address-resolve cycle; -1 until known
    msrc = [0] * total           # load data source (probe code); 0: none
    blk = [0] * total            # why the LSQ last skipped the load
    scanep = [-1] * total        # epoch of the load's last negative scan
    # Consumers of a pending producer, by kind of operand.  Dispatch
    # resolves each operand to its producer's position (the precompute
    # already named every register's static last writer); a list is
    # made for the first consumer of a pending producer and released
    # when the producer completes.
    ncons: list[list[int] | None] = [None] * total
    dcons: list[list[int] | None] = [None] * total
    commit_pos = dispatch_pos = trace_pos = 0
    # Issue queue, split: iq_ready holds only entries whose name
    # operands are all resolved (nwait == 0), in position order, and
    # each can issue the cycle it is scanned (readiness is implicit);
    # waiters are reachable solely through their producers' consumer
    # lists and enter iq_ready at wakeup.  iq_count tracks total
    # occupancy for the dispatch capacity check.
    iq_ready: list[int] = []
    iq_count = 0
    lq_count = 0              # loads in the ROB
    sq: list[int] = []        # stores in the ROB, in position order
    # Resolved stores by cache line (each list position-ascending): the
    # store-forwarding scan only looks at same-line stores.
    sq_by_line: dict[int, list[int]] = {}
    sqline_get = sq_by_line.get
    ev_complete: dict[int, list[int]] = {}
    ev_addr: dict[int, list[int]] = {}
    evc_pop = ev_complete.pop
    eva_pop = ev_addr.pop
    evc_get = ev_complete.get
    eva_get = ev_addr.get
    # Derived LSQ views, so the per-cycle scans touch only entries that
    # can act: loads with a resolved address and no scheduled access
    # (in position order: inserted when the address resolves, dropped
    # once scheduled), and the program-order queue of stores whose
    # address is still unknown (fed at dispatch, drained lazily from
    # the front — a store with an unknown address can never retire, so
    # the front is authoritative).
    act_loads: list[int] = []
    sq_unknown: list[int] = []
    wbl_lines: list[int] = []
    wbl_masks: list[int] = []
    # Occupancy count per line, so the per-load forwarding check is a
    # dict miss instead of a positional scan in the common no-overlap
    # case (without combining the same line can appear twice).
    wbl_count: dict[int, int] = {}
    banks_used: set[int] = set()

    cycle = 0
    last_activity = 0
    waiting_branch = -1       # position of the unresolved mispredict
    waiting_serialize = -1    # position of the serializing instruction
    fetch_blocked_until = 0
    fb_cause = ci_fetch
    memo_block = -1
    memo_ready = 0
    watchdog_limit = core._watchdog_limit

    # Memory-disambiguation epoch: bumped whenever the store set a load
    # scans against changes (store address resolved, store retired,
    # write-buffer alloc/combine/drain).  A load whose full scan came
    # back negative at the current epoch — order check passed, no
    # forwarding match, no write-buffer match — skips straight to the
    # port request on later cycles: the negative path emits no per-
    # cycle statistics, so replaying it is pure waste.  Disabled when a
    # line buffer is configured: the LB probe depends on the cycle
    # (fill pending, per-cycle read budget) and counts hits/misses.
    mem_epoch = 0
    scan_memo = not has_lb

    # Local statistic accumulators (flushed once, at loop exit).
    st_commit_store_port = st_commit_wb_full = 0
    st_issued = st_dispatched = 0
    st_rob_full = st_iq_full = st_lq_full = st_sq_full = 0
    st_fetched = st_f_branch = st_f_serial = st_f_redirect = 0
    st_f_queue = st_f_icache = st_f_serial_red = st_f_jdec = 0
    st_l_order = st_l_sqf = st_l_sqw = st_l_wbf = st_l_wbc = 0
    st_l_lb = st_l_port = st_l_comb = st_l_comba = 0
    st_d_bankc = st_d_portu = st_d_lnp = st_d_lsec = 0
    st_d_lhit = st_d_lmiss = st_d_lmshr = 0
    st_d_snp = st_d_smerge = st_d_shit = st_d_smiss = st_d_smshr = 0
    st_w_comb = st_w_full = st_w_alloc = st_w_drain = 0
    st_w_lf = st_w_lc = 0
    st_b_hits = st_b_miss = st_b_fill = st_b_supd = 0
    st_p_br = st_p_brc = st_p_brm = 0
    st_p_j = st_p_jc = st_p_jm = 0
    st_i_acc = st_i_pend = st_i_hit = st_i_miss = 0
    fu_stalls = [0] * n_opc
    ll_counts: dict[int, int] = {}

    try:
        while commit_pos < total:
            # ----------------------------------------------------------
            # begin-cycle bookkeeping (DataCacheSystem.begin_cycle)
            # ----------------------------------------------------------
            dcache._cycle = cycle
            ports_used = 0
            if bank_mask:
                banks_used.clear()
            if len(dc_pending) > pending_cap:
                dc_pending = {line: ready for line, ready
                              in dc_pending.items() if ready > cycle}
                dcache._pending = dc_pending

            # ----------------------------------------------------------
            # 1. events: AGU address resolution, then FU completions
            # ----------------------------------------------------------
            addr_events = eva_pop(cycle, None)
            if addr_events is not None:
                for index in addr_events:
                    acyc[index] = cycle
                    if r_store[index]:
                        if dwait[index] == 0:
                            done_at[index] = cycle
                        line = r_line[index]
                        line_stores = sqline_get(line)
                        if line_stores is None:
                            sq_by_line[line] = [index]
                        else:
                            # addresses resolve out of order
                            insort(line_stores, index)
                        mem_epoch += 1
                    else:
                        insort(act_loads, index)
            complete_events = evc_pop(cycle, None)
            if complete_events is not None:
                for index in complete_events:
                    done_at[index] = cycle
                    consumers = ncons[index]
                    if consumers is not None:
                        ncons[index] = None
                        for consumer in consumers:
                            waits = nwait[consumer] - 1
                            nwait[consumer] = waits
                            if waits == 0:
                                insort(iq_ready, consumer)
                    consumers = dcons[index]
                    if consumers is not None:
                        dcons[index] = None
                        for consumer in consumers:
                            waits = dwait[consumer] - 1
                            dwait[consumer] = waits
                            if waits == 0 and acyc[consumer] >= 0:
                                done_at[consumer] = cycle
                    opc = r_opc[index]
                    if opc == opc_branch:
                        # BranchPredictor.resolve_branch, inlined.  A
                        # mispredicted branch or jump is exactly the
                        # one fetch waits on.
                        pc = r_pc[index]
                        taken = r_taken[index]
                        bp_update(pc, taken)
                        if taken:
                            btb_targets[(pc >> 2) & btb_mask] = \
                                (pc, r_npc[index])
                        st_p_br += 1
                        if index == waiting_branch:
                            st_p_brm += 1
                        else:
                            st_p_brc += 1
                    elif opc == opc_jump:
                        pc = r_pc[index]
                        btb_targets[(pc >> 2) & btb_mask] = \
                            (pc, r_npc[index])
                        st_p_j += 1
                        if index == waiting_branch:
                            st_p_jm += 1
                        else:
                            st_p_jc += 1
                    if index == waiting_branch:
                        waiting_branch = -1
                        fb_cause = ci_branch
                        resume = cycle + MISPREDICT_REDIRECT
                        if resume > fetch_blocked_until:
                            fetch_blocked_until = resume

            # ----------------------------------------------------------
            # 2. commit
            # ----------------------------------------------------------
            commits = 0
            commit_block = 0   # 0 none, 1 store_port, 2 wb_full
            if commit_pos < dispatch_pos and done_at[commit_pos] <= cycle:
                start = commit_pos
                stop = start + commit_width
                if dispatch_pos < stop:
                    stop = dispatch_pos
                while commit_pos < stop:
                    index = commit_pos
                    if done_at[index] > cycle:
                        break
                    if r_store[index]:
                        line = r_line[index]
                        if direct_stores:
                            # DataCacheSystem.store_access, inlined.
                            if ports_used >= n_ports:
                                st_d_snp += 1
                                st_commit_store_port += 1
                                commit_block = 1
                                break
                            if bank_mask and \
                                    (line & bank_mask) in banks_used:
                                st_d_bankc += 1
                                st_d_snp += 1
                                st_commit_store_port += 1
                                commit_block = 1
                                break
                            pending_ready = dc_pending.get(line, 0)
                            if pending_ready > cycle:
                                ports_used += 1
                                if bank_mask:
                                    banks_used.add(line & bank_mask)
                                st_d_portu += 1
                                st_d_smerge += 1
                                dset = dsets[line & dset_mask]
                                if line in dset:
                                    dset[line] = True
                                    od_move(dset, line)
                            else:
                                dset = dsets[line & dset_mask]
                                if line in dset:
                                    ports_used += 1
                                    if bank_mask:
                                        banks_used.add(line & bank_mask)
                                    st_d_portu += 1
                                    st_d_shit += 1
                                    dset[line] = True
                                    od_move(dset, line)
                                else:
                                    mshr_busy = 0
                                    for ready in dc_pending.values():
                                        if ready > cycle:
                                            mshr_busy += 1
                                    if mshr_busy >= n_mshrs:
                                        # The port is spent even on the
                                        # MSHR-full retry (as in the
                                        # slow path's _claim_port-then-
                                        # fail).
                                        ports_used += 1
                                        if bank_mask:
                                            banks_used.add(
                                                line & bank_mask)
                                        st_d_portu += 1
                                        st_d_smshr += 1
                                        st_commit_store_port += 1
                                        commit_block = 1
                                        break
                                    ports_used += 1
                                    if bank_mask:
                                        banks_used.add(line & bank_mask)
                                    st_d_portu += 1
                                    st_d_smiss += 1
                                    dcache._start_fill(line, dirty=True)
                            if has_lb and line in lb_lines:
                                od_move(lb_lines, line)
                                st_b_supd += 1
                        elif wb_combine and line in wbl_count:
                            # WriteBuffer.add, inlined.
                            wbl_masks[wbl_lines.index(line)] |= \
                                r_mask[index]
                            st_w_comb += 1
                        else:
                            if len(wbl_lines) >= wb_depth:
                                st_w_full += 1
                                st_commit_wb_full += 1
                                commit_block = 2
                                break
                            wbl_lines.append(line)
                            wbl_masks.append(r_mask[index])
                            if line in wbl_count:
                                wbl_count[line] += 1
                            else:
                                wbl_count[line] = 1
                            st_w_alloc += 1
                        assert sq[0] == index
                        del sq[0]
                        line_stores = sq_by_line[line]
                        assert line_stores[0] == index
                        if len(line_stores) == 1:
                            del sq_by_line[line]
                        else:
                            del line_stores[0]
                        mem_epoch += 1
                    elif r_load[index]:
                        lq_count -= 1
                    commit_pos = index + 1
                    if index == waiting_serialize:
                        waiting_serialize = -1
                        fb_cause = ci_serialize
                        resume = cycle + 1
                        if resume > fetch_blocked_until:
                            fetch_blocked_until = resume
                commits = commit_pos - start
                if commits:
                    last_activity = cycle

            # ----------------------------------------------------------
            # Stall attribution (StallLedger.account, inlined)
            # ----------------------------------------------------------
            lost = led_width - commits
            if lost > 0:
                if commit_block == 2:
                    ci = ci_wb_full
                elif commit_block == 1:
                    ci = ci_dcache_port
                elif commit_pos < dispatch_pos:
                    head = commit_pos
                    ci = ci_exec
                    if head == waiting_branch:
                        ci = ci_branch
                    elif head == waiting_serialize:
                        ci = ci_serialize
                    elif r_load[head] and done_at[head] == far:
                        source = msrc[head]
                        if source:
                            if source == SRC_MISS or \
                                    source == SRC_SECONDARY:
                                ci = ci_next_level
                            elif source == SRC_HIT:
                                ci = ci_lb_miss
                        elif acyc[head] >= 0:
                            block_code = blk[head]
                            if block_code >= BLK_NO_PORT:
                                ci = ci_dcache_port
                            elif block_code:
                                ci = ci_mem_order
                elif dispatch_pos < trace_pos:
                    ci = ci_fetch
                elif waiting_branch >= 0:
                    ci = ci_branch
                elif waiting_serialize >= 0:
                    ci = ci_serialize
                elif trace_pos >= total:
                    ci = ci_drain
                elif cycle < fetch_blocked_until:
                    ci = fb_cause
                else:
                    ci = ci_fetch
                if cycle >= led_end:
                    for ci_done in led_causes:
                        slots = led_now[ci_done]
                        if slots:
                            buckets = led_series[ci_done]
                            buckets[led_at] = buckets.get(led_at, 0) + slots
                            led_now[ci_done] = 0
                    led_at = cycle // led_interval
                    led_end = led_at * led_interval + led_interval
                led_now[ci] += lost

            # ----------------------------------------------------------
            # 3a. memory: LSQ load scheduling
            # ----------------------------------------------------------
            if act_loads:
                while sq_unknown and acyc[sq_unknown[0]] >= 0:
                    del sq_unknown[0]
                barrier = sq_unknown[0] if sq_unknown else total
                port_requests = None
                lb_reads = 0
                scheduled = 0
                for load in act_loads:
                    if scanep[load] == mem_epoch:
                        # Negative scan already proven at this epoch.
                        if port_requests is None:
                            port_requests = [load]
                        else:
                            port_requests.append(load)
                        continue
                    if load > barrier:
                        st_l_order += 1
                        blk[load] = BLK_ORDER
                        continue
                    load_line = r_line[load]
                    load_mask = r_mask[load]
                    # In-flight store forwarding (newest older
                    # match; only same-line resolved stores can match,
                    # which is exactly what sq_by_line holds).
                    action = 0
                    line_stores = sqline_get(load_line)
                    if line_stores is not None:
                        for store in reversed(line_stores):
                            if store > load:
                                continue
                            overlap = r_mask[store] & load_mask
                            if not overlap:
                                continue
                            if overlap == load_mask and \
                                    dwait[store] == 0:
                                action = 1
                            else:
                                action = 2
                            break
                    if action == 1:
                        st_l_sqf += 1
                        scheduled += 1
                        msrc[load] = SRC_SQ
                        blk[load] = 0
                        ready = cycle + 1
                        latency = ready - acyc[load]
                        if latency in ll_counts:
                            ll_counts[latency] += 1
                        else:
                            ll_counts[latency] = 1
                        bucket = evc_get(ready)
                        if bucket is None:
                            ev_complete[ready] = [load]
                        else:
                            bucket.append(load)
                        continue
                    if action == 2:
                        st_l_sqw += 1
                        blk[load] = BLK_SQ_WAIT
                        continue
                    # Write-buffer forwarding check (newest match).
                    wb_action = 0
                    if load_line in wbl_count:
                        for position in range(
                                len(wbl_lines) - 1, -1, -1):
                            if wbl_lines[position] != load_line:
                                continue
                            overlap = wbl_masks[position] & load_mask
                            if not overlap:
                                continue
                            if overlap == load_mask:
                                st_w_lf += 1
                                wb_action = 1
                            else:
                                st_w_lc += 1
                                wb_action = 2
                            break
                    if wb_action == 1:
                        st_l_wbf += 1
                        scheduled += 1
                        msrc[load] = SRC_WB
                        blk[load] = 0
                        ready = cycle + 1
                        latency = ready - acyc[load]
                        if latency in ll_counts:
                            ll_counts[latency] += 1
                        else:
                            ll_counts[latency] = 1
                        bucket = evc_get(ready)
                        if bucket is None:
                            ev_complete[ready] = [load]
                        else:
                            bucket.append(load)
                        continue
                    if wb_action == 2:
                        st_l_wbc += 1
                        blk[load] = BLK_WB_CONFLICT
                        continue
                    # Line buffer (DataCacheSystem.line_buffer_hit).
                    if lb_reads < max_combine and has_lb and \
                            not dc_pending.get(load_line, 0) > cycle:
                        if load_line in lb_lines:
                            od_move(lb_lines, load_line)
                            st_b_hits += 1
                            lb_reads += 1
                            st_l_lb += 1
                            scheduled += 1
                            msrc[load] = SRC_LB
                            blk[load] = 0
                            ready = cycle + LB_LATENCY
                            latency = ready - acyc[load]
                            if latency in ll_counts:
                                ll_counts[latency] += 1
                            else:
                                ll_counts[latency] = 1
                            bucket = evc_get(ready)
                            if bucket is None:
                                ev_complete[ready] = [load]
                            else:
                                bucket.append(load)
                            continue
                        st_b_miss += 1
                    elif scan_memo:
                        scanep[load] = mem_epoch
                    if port_requests is None:
                        port_requests = [load]
                    else:
                        port_requests.append(load)
                # Port scheduling with wide-port access combining.
                if port_requests is not None:
                    if combine_loads:
                        groups: dict[int, list] = {}
                        for load in port_requests:
                            chunk = r_chunk[load]
                            group = groups.get(chunk)
                            if group is None:
                                groups[chunk] = [load]
                            else:
                                group.append(load)
                        batches = []
                        for group in groups.values():
                            for start in range(0, len(group), max_combine):
                                batches.append(
                                    group[start:start + max_combine])
                        for batch_index, batch in enumerate(batches):
                            line = r_line[batch[0]]
                            # DataCacheSystem.load_access, inlined.
                            if ports_used >= n_ports:
                                st_d_lnp += 1
                                for blocked in batches[batch_index:]:
                                    for load in blocked:
                                        blk[load] = BLK_NO_PORT
                                break
                            if bank_mask and (line & bank_mask) in banks_used:
                                st_d_bankc += 1
                                st_d_lnp += 1
                                for load in batch:
                                    blk[load] = BLK_BANK
                                continue
                            pending_ready = dc_pending.get(line, 0)
                            if pending_ready > cycle:
                                ports_used += 1
                                if bank_mask:
                                    banks_used.add(line & bank_mask)
                                st_d_portu += 1
                                st_d_lsec += 1
                                ready = pending_ready
                                source = SRC_SECONDARY
                            else:
                                dset = dsets[line & dset_mask]
                                if line in dset:
                                    ports_used += 1
                                    if bank_mask:
                                        banks_used.add(line & bank_mask)
                                    st_d_portu += 1
                                    od_move(dset, line)
                                    st_d_lhit += 1
                                    ready = cycle + L1_HIT_LATENCY
                                    source = SRC_HIT
                                else:
                                    mshr_busy = 0
                                    for fill_ready in dc_pending.values():
                                        if fill_ready > cycle:
                                            mshr_busy += 1
                                    if mshr_busy >= n_mshrs:
                                        ports_used += 1
                                        if bank_mask:
                                            banks_used.add(line & bank_mask)
                                        st_d_portu += 1
                                        st_d_lmshr += 1
                                        for load in batch:
                                            blk[load] = BLK_MSHR
                                        continue
                                    ports_used += 1
                                    if bank_mask:
                                        banks_used.add(line & bank_mask)
                                    st_d_portu += 1
                                    st_d_lmiss += 1
                                    ready = dcache._start_fill(line)
                                    source = SRC_MISS
                                    dcache._maybe_prefetch(line + 1)
                            if lb_fill_on_access:
                                # LineBuffer.insert, inlined.
                                if line in lb_lines:
                                    od_move(lb_lines, line)
                                else:
                                    if len(lb_lines) >= lb_entries:
                                        od_popfirst(lb_lines, last=False)
                                    lb_lines[line] = None
                                    st_b_fill += 1
                            batch_size = len(batch)
                            scheduled += batch_size
                            st_l_port += batch_size
                            if batch_size > 1:
                                st_l_comb += batch_size - 1
                                st_l_comba += 1
                            assert ready > cycle, \
                                "load data cannot be ready in the past"
                            for load in batch:
                                msrc[load] = source
                                blk[load] = 0
                                latency = ready - acyc[load]
                                if latency in ll_counts:
                                    ll_counts[latency] += 1
                                else:
                                    ll_counts[latency] = 1
                            bucket = evc_get(ready)
                            if bucket is None:
                                ev_complete[ready] = batch
                            else:
                                bucket.extend(batch)
                    else:
                        # Single-access ports: iterate the requests
                        # directly — no per-load batch lists, and the
                        # port-exhausted tail is marked in place.
                        n_req = len(port_requests)
                        req_pos = 0
                        while req_pos < n_req:
                            if ports_used >= n_ports:
                                st_d_lnp += 1
                                for position in range(req_pos, n_req):
                                    blk[port_requests[position]] = \
                                        BLK_NO_PORT
                                break
                            load = port_requests[req_pos]
                            req_pos += 1
                            line = r_line[load]
                            # DataCacheSystem.load_access, inlined.
                            if bank_mask and \
                                    (line & bank_mask) in banks_used:
                                st_d_bankc += 1
                                st_d_lnp += 1
                                blk[load] = BLK_BANK
                                continue
                            pending_ready = dc_pending.get(line, 0)
                            if pending_ready > cycle:
                                ports_used += 1
                                if bank_mask:
                                    banks_used.add(line & bank_mask)
                                st_d_portu += 1
                                st_d_lsec += 1
                                ready = pending_ready
                                source = SRC_SECONDARY
                            else:
                                dset = dsets[line & dset_mask]
                                if line in dset:
                                    ports_used += 1
                                    if bank_mask:
                                        banks_used.add(line & bank_mask)
                                    st_d_portu += 1
                                    od_move(dset, line)
                                    st_d_lhit += 1
                                    ready = cycle + L1_HIT_LATENCY
                                    source = SRC_HIT
                                else:
                                    mshr_busy = 0
                                    for fill_ready in \
                                            dc_pending.values():
                                        if fill_ready > cycle:
                                            mshr_busy += 1
                                    if mshr_busy >= n_mshrs:
                                        ports_used += 1
                                        if bank_mask:
                                            banks_used.add(
                                                line & bank_mask)
                                        st_d_portu += 1
                                        st_d_lmshr += 1
                                        blk[load] = BLK_MSHR
                                        continue
                                    ports_used += 1
                                    if bank_mask:
                                        banks_used.add(line & bank_mask)
                                    st_d_portu += 1
                                    st_d_lmiss += 1
                                    ready = dcache._start_fill(line)
                                    source = SRC_MISS
                                    dcache._maybe_prefetch(line + 1)
                            if lb_fill_on_access:
                                # LineBuffer.insert, inlined.
                                if line in lb_lines:
                                    od_move(lb_lines, line)
                                else:
                                    if len(lb_lines) >= lb_entries:
                                        od_popfirst(lb_lines, last=False)
                                    lb_lines[line] = None
                                    st_b_fill += 1
                            scheduled += 1
                            st_l_port += 1
                            msrc[load] = source
                            blk[load] = 0
                            assert ready > cycle, \
                                "load data cannot be ready in the past"
                            latency = ready - acyc[load]
                            if latency in ll_counts:
                                ll_counts[latency] += 1
                            else:
                                ll_counts[latency] = 1
                            bucket = evc_get(ready)
                            if bucket is None:
                                ev_complete[ready] = [load]
                            else:
                                bucket.append(load)
                if scheduled == len(act_loads):
                    act_loads = []
                elif scheduled:
                    act_loads = [load for load in act_loads
                                 if not msrc[load]]

            # ----------------------------------------------------------
            # 3b. memory: write buffer drain into leftover port cycles
            # ----------------------------------------------------------
            while wbl_lines and ports_used < n_ports:
                line = wbl_lines[0]
                # DataCacheSystem.store_access, inlined (drain flavour).
                if bank_mask and (line & bank_mask) in banks_used:
                    st_d_bankc += 1
                    st_d_snp += 1
                    break
                ok = True
                pending_ready = dc_pending.get(line, 0)
                if pending_ready > cycle:
                    ports_used += 1
                    if bank_mask:
                        banks_used.add(line & bank_mask)
                    st_d_portu += 1
                    st_d_smerge += 1
                    dset = dsets[line & dset_mask]
                    if line in dset:
                        dset[line] = True
                        od_move(dset, line)
                else:
                    dset = dsets[line & dset_mask]
                    if line in dset:
                        ports_used += 1
                        if bank_mask:
                            banks_used.add(line & bank_mask)
                        st_d_portu += 1
                        st_d_shit += 1
                        dset[line] = True
                        od_move(dset, line)
                    else:
                        mshr_busy = 0
                        for fill_ready in dc_pending.values():
                            if fill_ready > cycle:
                                mshr_busy += 1
                        if mshr_busy >= n_mshrs:
                            ports_used += 1
                            if bank_mask:
                                banks_used.add(line & bank_mask)
                            st_d_portu += 1
                            st_d_smshr += 1
                            ok = False
                        else:
                            ports_used += 1
                            if bank_mask:
                                banks_used.add(line & bank_mask)
                            st_d_portu += 1
                            st_d_smiss += 1
                            dcache._start_fill(line, dirty=True)
                if ok:
                    if has_lb and line in lb_lines:
                        od_move(lb_lines, line)
                        st_b_supd += 1
                    del wbl_lines[0]
                    del wbl_masks[0]
                    remaining = wbl_count[line] - 1
                    if remaining:
                        wbl_count[line] = remaining
                    else:
                        del wbl_count[line]
                    st_w_drain += 1
                    mem_epoch += 1
                else:
                    break

            # ----------------------------------------------------------
            # 4. issue (wakeup/select + FU allocation)
            # ----------------------------------------------------------
            issued = 0
            if iq_ready:
                fu_used[:] = fu_unused
                keep = []
                for index in iq_ready:
                    opc = r_opc[index]
                    if fu_limited[opc]:
                        used = fu_used[opc]
                        if used >= fu_count[opc]:
                            fu_stalls[opc] += 1
                            keep.append(index)
                            continue
                        busy = fu_busy[opc]
                        if busy is not None:
                            busy[:] = [t for t in busy if t > cycle]
                            if len(busy) >= fu_count[opc]:
                                fu_stalls[opc] += 1
                                keep.append(index)
                                continue
                            busy.append(cycle + fu_latency[opc])
                        fu_used[opc] = used + 1
                    done = cycle + fu_latency[opc]
                    issued += 1
                    if r_mem[index]:
                        bucket = eva_get(done)
                        if bucket is None:
                            ev_addr[done] = [index]
                        else:
                            bucket.append(index)
                    else:
                        bucket = evc_get(done)
                        if bucket is None:
                            ev_complete[done] = [index]
                        else:
                            bucket.append(index)
                    if issued == issue_width:
                        # The width is spent: the unscanned tail waits,
                        # in order, behind the FU-blocked entries.
                        if keep:
                            keep += iq_ready[issued + len(keep):]
                        else:
                            keep = iq_ready[issued:]
                        break
                iq_ready = keep
                if issued:
                    iq_count -= issued
                    st_issued += issued

            # ----------------------------------------------------------
            # 5. dispatch (rename: dependences, ROB/IQ/LSQ allocation)
            # ----------------------------------------------------------
            dispatched = 0
            if dispatch_pos < trace_pos:
                start = dispatch_pos
                stop = start + dispatch_width
                if trace_pos < stop:
                    stop = trace_pos
                rob_stop = commit_pos + rob_size
                while dispatch_pos < stop:
                    index = dispatch_pos
                    if index >= rob_stop:
                        st_rob_full += 1
                        cap_rob += 1
                        break
                    if iq_count >= iq_size:
                        st_iq_full += 1
                        cap_iq += 1
                        break
                    if r_load[index]:
                        if lq_count >= lq_size:
                            st_lq_full += 1
                            cap_lq += 1
                            break
                        lq_count += 1
                    elif r_store[index]:
                        if len(sq) >= sq_size:
                            st_sq_full += 1
                            cap_sq += 1
                            break
                        sq.append(index)
                        sq_unknown.append(index)
                        producers = r_dprod[index]
                        if producers:
                            waits = 0
                            for producer in producers:
                                if done_at[producer] == far:
                                    consumers = dcons[producer]
                                    if consumers is None:
                                        dcons[producer] = [index]
                                    else:
                                        consumers.append(index)
                                    waits += 1
                            if waits:
                                dwait[index] = waits
                    dispatch_pos = index + 1
                    iq_count += 1
                    producers = r_nprod[index]
                    if producers:
                        waits = 0
                        for producer in producers:
                            if done_at[producer] == far:
                                consumers = ncons[producer]
                                if consumers is None:
                                    ncons[producer] = [index]
                                else:
                                    consumers.append(index)
                                waits += 1
                        if waits:
                            nwait[index] = waits
                            continue
                    iq_ready.append(index)
                dispatched = dispatch_pos - start
                if dispatched:
                    last_activity = cycle
                    st_dispatched += dispatched

            # ----------------------------------------------------------
            # 6. fetch
            # ----------------------------------------------------------
            fetched = 0
            while True:   # single-shot block: break == stage return
                if waiting_branch >= 0:
                    st_f_branch += 1
                    break
                if waiting_serialize >= 0:
                    st_f_serial += 1
                    break
                if cycle < fetch_blocked_until:
                    st_f_redirect += 1
                    break
                if trace_pos >= total:
                    break
                if trace_pos - dispatch_pos >= fetch_queue_size:
                    st_f_queue += 1
                    break
                block = r_block[trace_pos]
                if memo_block == block:
                    ready = memo_ready
                else:
                    # ICacheSystem.fetch, inlined.
                    st_i_acc += 1
                    ic_line = r_pc[trace_pos] >> ic_shift
                    pending_ready = ic_pending.get(ic_line, 0)
                    if pending_ready > cycle:
                        st_i_pend += 1
                        ready = pending_ready
                    else:
                        ic_set = ic_sets[ic_line & ic_set_mask]
                        if ic_line in ic_set:
                            od_move(ic_set, ic_line)
                            st_i_hit += 1
                            ready = cycle
                        else:
                            st_i_miss += 1
                            ready = next_level.request(ic_line, cycle)
                            ic_pending[ic_line] = ready
                            victim = ic_cache.fill(ic_line)
                            if victim is not None and victim[1]:
                                next_level.writeback(victim[0], cycle)
                            if len(ic_pending) > 64:
                                ic_pending = {
                                    line: fill_ready for line, fill_ready
                                    in ic_pending.items()
                                    if fill_ready > cycle}
                                icache._pending = ic_pending
                    memo_block = block
                    memo_ready = ready
                if ready > cycle:
                    fetch_blocked_until = ready
                    fb_cause = ci_fetch
                    st_f_icache += ready - cycle
                    break
                # Bounded by the fetch width, the queue's room and the
                # trace's end.  A plain run is taken in one step; only
                # a control or serializing instruction is looked at.
                start = trace_pos
                stop = start + fetch_width
                room = dispatch_pos + fetch_queue_size
                if room < stop:
                    stop = room
                if total < stop:
                    stop = total
                while trace_pos < stop:
                    index = trace_pos
                    if r_block[index] != block:
                        break
                    run = r_run[index]
                    if run:
                        trace_pos = index + run
                        if trace_pos > stop:
                            trace_pos = stop
                        continue
                    trace_pos = index + 1
                    kind = r_kind[index]
                    if kind == _K_BRANCH:
                        pc = r_pc[index]
                        predicted_taken = bp_predict(pc)
                        if predicted_taken:
                            entry = btb_targets[(pc >> 2) & btb_mask]
                            if entry is not None and entry[0] == pc:
                                predicted_target = entry[1]
                            else:
                                predicted_taken = False
                                predicted_target = None
                        else:
                            predicted_target = None
                        taken = r_taken[index]
                        if predicted_taken != taken or (
                                taken and predicted_target != r_npc[index]):
                            waiting_branch = index
                            break
                        if taken:
                            break
                    elif kind == _K_JUMP:
                        pc = r_pc[index]
                        entry = btb_targets[(pc >> 2) & btb_mask]
                        if entry is not None and entry[0] == pc and \
                                entry[1] == r_npc[index]:
                            break
                        if r_jdec[index]:
                            fetch_blocked_until = \
                                cycle + 1 + BTB_MISS_REDIRECT
                            fb_cause = ci_branch
                            st_f_jdec += 1
                            break
                        waiting_branch = index
                        break
                    else:   # _K_SERIALIZE
                        waiting_serialize = index
                        st_f_serial_red += 1
                        break
                fetched = trace_pos - start
                if fetched:
                    last_activity = cycle
                    st_fetched += fetched
                break

            # ----------------------------------------------------------
            # Idle-cycle skip.  When this cycle performed no work at
            # all, every stall statistic the reference loop would emit
            # is constant until the next scheduled event: events are
            # always scheduled in the future, a head that completes
            # does so at an event, and blocked loads re-classify
            # identically while the stores they wait on are unchanged.
            # Jump straight to the earliest cycle anything can change
            # and apply the per-cycle statistics in bulk —
            # byte-identical to running the intermediate cycles.
            # Cycles that touched a port, drained (or merely retried)
            # the write buffer, or blocked a commit are never skipped:
            # their cache-side statistics are not state-constant; nor
            # is one with a ready entry, which can issue next cycle.
            # ----------------------------------------------------------
            if not (commits or dispatched or issued or fetched or
                    commit_block or ports_used or wbl_lines or iq_ready):
                skip_to = last_activity + watchdog_limit + 1
                if ev_complete:
                    event_at = min(ev_complete)
                    if event_at < skip_to:
                        skip_to = event_at
                if ev_addr:
                    event_at = min(ev_addr)
                    if event_at < skip_to:
                        skip_to = event_at
                ok_skip = True
                if cycle < fetch_blocked_until < skip_to:
                    skip_to = fetch_blocked_until
                n_order = n_sqwait = 0
                for load in act_loads:
                    block_code = blk[load]
                    if block_code == BLK_ORDER:
                        n_order += 1
                    elif block_code == BLK_SQ_WAIT:
                        n_sqwait += 1
                    else:
                        # Port/bank/MSHR/WB-conflict blocks depend on
                        # per-cycle cache state: not skippable.
                        ok_skip = False
                        break
                dispatch_full = 0
                if ok_skip and dispatch_pos < trace_pos:
                    if dispatch_pos - commit_pos >= rob_size:
                        dispatch_full = 1
                    elif iq_count >= iq_size:
                        dispatch_full = 2
                    elif r_load[dispatch_pos] and lq_count >= lq_size:
                        dispatch_full = 3
                    elif r_store[dispatch_pos] and len(sq) >= sq_size:
                        dispatch_full = 4
                    else:
                        ok_skip = False   # would dispatch next cycle
                fetch_stall = 0
                if ok_skip:
                    if waiting_branch >= 0:
                        fetch_stall = 1
                    elif waiting_serialize >= 0:
                        fetch_stall = 2
                    elif cycle + 1 < fetch_blocked_until:
                        fetch_stall = 3
                    elif trace_pos >= total:
                        fetch_stall = 4   # drained: no statistic
                    elif trace_pos - dispatch_pos >= fetch_queue_size:
                        fetch_stall = 5
                    else:
                        ok_skip = False   # would fetch next cycle
                if ok_skip and skip_to - cycle > 1:
                    k = skip_to - cycle - 1
                    if fetch_stall == 1:
                        st_f_branch += k
                    elif fetch_stall == 2:
                        st_f_serial += k
                    elif fetch_stall == 3:
                        st_f_redirect += k
                    elif fetch_stall == 5:
                        st_f_queue += k
                    if dispatch_full == 1:
                        st_rob_full += k
                        cap_rob += k
                    elif dispatch_full == 2:
                        st_iq_full += k
                        cap_iq += k
                    elif dispatch_full == 3:
                        st_lq_full += k
                        cap_lq += k
                    elif dispatch_full == 4:
                        st_sq_full += k
                        cap_sq += k
                    if n_order:
                        st_l_order += n_order * k
                    if n_sqwait:
                        st_l_sqw += n_sqwait * k
                    # Stall-ledger attribution for the skipped cycles.
                    # commits == 0 and commit_block == 0 there, so only
                    # the tail of the reference chain can apply, and
                    # (as argued above) its verdict is constant across
                    # the window.
                    if led_width > 0:
                        if commit_pos < dispatch_pos:
                            head = commit_pos
                            ci = ci_exec
                            if head == waiting_branch:
                                ci = ci_branch
                            elif head == waiting_serialize:
                                ci = ci_serialize
                            elif r_load[head] and done_at[head] == far:
                                source = msrc[head]
                                if source:
                                    if source == SRC_MISS or \
                                            source == SRC_SECONDARY:
                                        ci = ci_next_level
                                    elif source == SRC_HIT:
                                        ci = ci_lb_miss
                                elif acyc[head] >= 0:
                                    block_code = blk[head]
                                    if block_code >= BLK_NO_PORT:
                                        ci = ci_dcache_port
                                    elif block_code:
                                        ci = ci_mem_order
                        elif dispatch_pos < trace_pos:
                            ci = ci_fetch
                        elif waiting_branch >= 0:
                            ci = ci_branch
                        elif waiting_serialize >= 0:
                            ci = ci_serialize
                        elif trace_pos >= total:
                            ci = ci_drain
                        elif cycle < fetch_blocked_until:
                            ci = fb_cause
                        else:
                            ci = ci_fetch
                        buckets = led_series[ci]
                        b_first = (cycle + 1) // led_interval
                        b_last = (cycle + k) // led_interval
                        if b_first == b_last:
                            if b_first in buckets:
                                buckets[b_first] += led_width * k
                            else:
                                buckets[b_first] = led_width * k
                        else:
                            for b in range(b_first, b_last + 1):
                                if b == b_first:
                                    span = led_interval - \
                                        ((cycle + 1) % led_interval)
                                elif b == b_last:
                                    span = \
                                        ((cycle + k) % led_interval) + 1
                                else:
                                    span = led_interval
                                slots = led_width * span
                                if b in buckets:
                                    buckets[b] += slots
                                else:
                                    buckets[b] = slots
                    cycle += k

            if cycle - last_activity > watchdog_limit:
                # OoOCore._deadlock_report, in its words: the head is
                # shown as the reference loop's Uop would print.
                head = None
                if commit_pos < dispatch_pos:
                    kind = "L" if r_load[commit_pos] else "S" \
                        if r_store[commit_pos] \
                        else f"opclass {r_opc[commit_pos]}"
                    head = (f"Uop#{commit_pos}({kind} completed="
                            f"{done_at[commit_pos] != far})")
                report = (
                    f"timing core made no progress for "
                    f"{watchdog_limit} cycles (cycle={cycle}, "
                    f"committed={commit_pos}, "
                    f"rob={dispatch_pos - commit_pos}, iq={iq_count}, "
                    f"fq={trace_pos - dispatch_pos}, head={head})")
                # The trip cycle ran: the exit below counts it, as the
                # reference loop's ledger does, and leaves the core's
                # cycle at it.
                cycle += 1
                raise SimError(report)
            cycle += 1
    finally:
        # --------------------------------------------------------------
        # Write the batched state back into the real objects, so the
        # caller (and post-mortem inspection after an exception) sees
        # what the reference loop would have left there.
        # --------------------------------------------------------------
        committed = commit_pos
        core._trace_pos = trace_pos
        core._cycle = cycle - 1 if cycle else 0
        core._committed = committed
        core._last_activity = last_activity
        core._fetch_blocked_until = fetch_blocked_until
        core._fetch_block_cause = CAUSE_ORDER[fb_cause]
        core._fetch_memo = (memo_block, memo_ready) \
            if memo_block >= 0 else None
        dcache._ports_used = ports_used
        if wbl_lines:
            from ..mem.writebuffer import WriteBufferEntry
            dcache.write_buffer._entries = [
                WriteBufferEntry(line, mask)
                for line, mask in zip(wbl_lines, wbl_masks)]

        inc = core.stats.inc
        for name, count in (
                ("core.commits", committed),
                ("core.commit_store_port_stalls", st_commit_store_port),
                ("core.commit_wb_full_stalls", st_commit_wb_full),
                ("core.issued", st_issued),
                ("core.dispatched", st_dispatched),
                ("core.dispatch_rob_full", st_rob_full),
                ("core.dispatch_iq_full", st_iq_full),
                ("core.dispatch_lq_full", st_lq_full),
                ("core.dispatch_sq_full", st_sq_full),
                ("fetch.fetched", st_fetched),
                ("fetch.stall_branch_cycles", st_f_branch),
                ("fetch.stall_serialize_cycles", st_f_serial),
                ("fetch.stall_redirect_cycles", st_f_redirect),
                ("fetch.stall_queue_cycles", st_f_queue),
                ("fetch.icache_stall_cycles", st_f_icache),
                ("fetch.serialize_redirects", st_f_serial_red),
                ("fetch.jump_decode_redirects", st_f_jdec),
                ("lsq.order_stalls", st_l_order),
                ("lsq.sq_forwards", st_l_sqf),
                ("lsq.sq_waits", st_l_sqw),
                ("lsq.wb_forwards", st_l_wbf),
                ("lsq.wb_conflicts", st_l_wbc),
                ("lsq.lb_loads", st_l_lb),
                ("lsq.port_loads", st_l_port),
                ("lsq.combined_loads", st_l_comb),
                ("lsq.combined_accesses", st_l_comba),
                ("dcache.bank_conflicts", st_d_bankc),
                ("dcache.port_uses", st_d_portu),
                ("dcache.load_no_port", st_d_lnp),
                ("dcache.load_secondary_misses", st_d_lsec),
                ("dcache.load_hits", st_d_lhit),
                ("dcache.load_misses", st_d_lmiss),
                ("dcache.load_mshr_full", st_d_lmshr),
                ("dcache.store_no_port", st_d_snp),
                ("dcache.store_mshr_merges", st_d_smerge),
                ("dcache.store_hits", st_d_shit),
                ("dcache.store_misses", st_d_smiss),
                ("dcache.store_mshr_full", st_d_smshr),
                ("wb.combined", st_w_comb),
                ("wb.full_stalls", st_w_full),
                ("wb.entries_allocated", st_w_alloc),
                ("wb.drains", st_w_drain),
                ("wb.load_forwards", st_w_lf),
                ("wb.load_conflicts", st_w_lc),
                ("lb.hits", st_b_hits),
                ("lb.misses", st_b_miss),
                ("lb.fills", st_b_fill),
                ("lb.store_updates", st_b_supd),
                ("bpred.branches", st_p_br),
                ("bpred.correct", st_p_brc),
                ("bpred.mispredicts", st_p_brm),
                ("bpred.jumps", st_p_j),
                ("bpred.jump_correct", st_p_jc),
                ("bpred.jump_mispredicts", st_p_jm),
                ("icache.accesses", st_i_acc),
                ("icache.pending_hits", st_i_pend),
                ("icache.hits", st_i_hit),
                ("icache.misses", st_i_miss)):
            if count:
                inc(name, count)
        if commit_pos == total:
            fu_ops = r_ops
        else:
            # After an exception: every committed instruction has
            # issued, and so has each in-flight one that has left the
            # issue queue.
            fu_ops = [0] * n_opc
            waiting = set(iq_ready)
            for index in range(dispatch_pos):
                if index < commit_pos or (nwait[index] == 0
                                          and index not in waiting):
                    fu_ops[r_opc[index]] += 1
        for index, count in enumerate(fu_ops):
            if count:
                inc(f"fu.{_OPCS[index].value}.ops", count)
        for index, count in enumerate(fu_stalls):
            if count:
                inc(f"fu.{_OPCS[index].value}.structural_stalls", count)

        histogram = core.load_latency
        if ll_counts:
            counts = histogram._counts
            for value, count in ll_counts.items():
                counts[value] += count
            histogram._total += sum(ll_counts.values())

        for ci in led_causes:
            slots = led_now[ci]
            if slots:
                buckets = led_series[ci]
                buckets[led_at] = buckets.get(led_at, 0) + slots
        ledger = core.ledger
        ledger.cycles += cycle
        ledger.committed += committed
        for ci, cause in enumerate(CAUSE_ORDER):
            buckets = led_series[ci]
            if not buckets:
                continue
            lost = sum(buckets.values())
            ledger.lost[cause] += lost
            series = ledger.series.get(cause)
            if series is None:
                series = ledger.series[cause] = Histogram(cause.value)
            series_counts = series._counts
            for bucket, slots in buckets.items():
                series_counts[bucket] += slots
            series._total += lost
        for name, count in (("rob", cap_rob), ("iq", cap_iq),
                            ("lq", cap_lq), ("sq", cap_sq)):
            if count:
                ledger.capacity[name] = ledger.capacity.get(name, 0) + count
    return cycle

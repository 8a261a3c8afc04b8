"""The specialized fast cycle loop — the uninstrumented twin of
:meth:`repro.core.pipeline.OoOCore._run_loop`.

When a core has nothing in its ``probe`` slot and no self-profiler
(``probe is None and profiler is None``: no tracer, validator, interval
metrics, pipe trace, critpath or hotspots recorder listens, and no
stage timer runs; see :mod:`repro.obs.probe`), :meth:`OoOCore.run`
dispatches here instead of the instrumented reference loop.  This
module is a flattened re-statement of the same machine:

* the six per-cycle stage calls, the LSQ scheduler, the D-cache port
  arbitration, the write/line buffers and the I-cache hit path are
  inlined into one loop body with every configuration constant and
  mutable structure hoisted into locals;
* in-flight instructions are **int-coded slot lists** instead of
  :class:`~repro.core.uop.Uop` attribute bags (one ``BUILD_LIST``
  instead of ~20 ``STORE_ATTR`` per instruction, constant-index
  subscripts instead of attribute lookups in the wakeup loops);
* per-record decode work (opclass index, fetch block, cache line /
  chunk / byte mask, the dependence-wiring plan) is precomputed from
  the trace's columns (:class:`repro.trace.io.Trace`) by vector ops,
  into flat int lists, without building a record.  A memo of the last
  four traces run builds what the trace alone determines once per
  trace and each geometry's columns once per geometry, so timing one
  trace on many machines pays for one precompute (:class:`_Precompute`);
* functional-unit arbitration uses per-opclass int-indexed arrays, so
  the issue loop never hashes an enum, and counts a class's use only
  when the class can run out in a cycle;
* per-cycle bookkeeping scales with the work done: the active-load
  list takes each load, in ``seq`` order, when its address resolves,
  and fetch and decode compute their bounds once per cycle, not once
  per instruction;
* statistics, the stall ledger and the load-latency histogram
  accumulate in plain local ints/dicts and are flushed into the real
  :class:`Stats` / :class:`StallLedger` / :class:`Histogram` objects
  once, at loop exit.  All hot-path counters are integer-valued and
  far below 2**53, so batched accumulation is float-exact, and a
  counter key is flushed only when its count is non-zero — exactly the
  keys the reference loop would have created.

Cold paths stay method calls on the real objects: L1 fills and victim
disposal (``DataCacheSystem._start_fill`` / ``_dispose_victim``),
next-line prefetch, the shared L2 (:class:`NextLevel`), and I-cache
misses.  They read ``dcache._cycle`` and the shared ``_pending`` dict,
which the loop keeps in step.

The contract — enforced by ``tests/test_fastpath_diff.py`` across the
F2 configuration grid and fuzzer-generated programs — is that
:func:`run_fast` produces a **byte-identical** :class:`CoreResult`
(cycles, every counter, the stall ledger, the load-latency histogram)
to the instrumented reference loop.
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..func.exceptions import SimError
from ..isa import OpClass
from ..mem.config import LineBufferFill, LineBufferOnStore
from ..obs.probe import (BLK_BANK, BLK_MSHR, BLK_NO_PORT, BLK_ORDER,
                         BLK_SQ_WAIT, BLK_WB_CONFLICT, SRC_HIT, SRC_LB,
                         SRC_MISS, SRC_SECONDARY, SRC_SQ, SRC_WB)
from ..obs.stall import CAUSE_ORDER, StallCause
from ..stats.histogram import Histogram
from ..trace.io import (MAX_SOURCES, NO_DEST, NO_SPLIT, F_CONTROL,
                        F_LOAD, F_REDIRECT, F_SERIALIZES, F_STORE, F_TAKEN,
                        OPCLASSES, Trace, as_trace)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..trace.record import TraceRecord
    from .pipeline import OoOCore

__all__ = ["run_fast"]

_INFINITY = float("inf")

#: Opclasses in a fixed order (the trace's ``opclass`` column order);
#: uops carry the index, the FU tables are indexed by it, and the enum
#: never gets hashed inside the loop.
_OPCS = OPCLASSES
_OPC_INDEX = {opclass: index for index, opclass in enumerate(_OPCS)}

# ----------------------------------------------------------------------
# Int-coded uop slots (a plain list per in-flight instruction).
# ----------------------------------------------------------------------
U_IDX = 0        # trace position (indexes the precomputed arrays)
U_SEQ = 1
U_OPC = 2        # opclass index into _OPCS
U_LOAD = 3
U_STORE = 4
U_FETCH = 5      # fetch cycle
U_DONE = 6       # completed
U_CCYC = 7       # complete cycle
U_NWAIT = 8      # outstanding operand producers
U_OPRDY = 9      # operands-ready cycle
U_CONS = 10      # consumers: list of (uop, is_data)
U_DWAIT = 11     # outstanding store-data producers
U_DRDY = 12      # store-data-ready cycle
U_AKNOWN = 13    # address resolved
U_LINE = 14
U_CHUNK = 15
U_MASK = 16
U_MEMDONE = 17   # load: serviced by the memory system
U_MEMSRC = 18    # where the load data came from (repro.obs.probe codes)
U_BLK = 19       # why the LSQ last skipped the load (the same table)
U_ACYC = 20      # address-resolve cycle
U_MISP = 21
U_PTAKEN = 22
U_SERIAL = 23
U_INIQ = 24
U_SCANEP = 25

#: Shared consumer list for non-producer uops.  Only instructions some
#: later instruction depends on (``r_is_prod``) ever receive appends,
#: and those get a private list at fetch — this one stays empty.
_EMPTY_CONS: list = []

# fetch kinds from the precompute pass.
_K_PLAIN = 0
_K_BRANCH = 1
_K_JUMP = 2
_K_SERIALIZE = 3


class _Precompute:
    """Everything derivable from one trace's records, as flat int lists,
    so the cycle loop never touches a record.  Reads the trace's columns
    (a plain record list is encoded first) with vector ops.

    What the trace alone determines (opclass, fetch kind, jump decode,
    pc, next pc, taken, load/store, producers) is built here, once.
    What a geometry adds (the fetch block for an I-cache's
    ``fetch_bytes``; the D-cache line, chunk and byte mask) is built on
    a geometry's first use and kept per value, so one entry serves
    every machine a sweep runs the trace on.  Holds a strong reference
    to the trace, which keeps an ``id()`` key on it safe.
    """

    __slots__ = ("trace", "_columns", "_static", "_blocks", "_shifted",
                 "_masks")

    def __init__(self, trace: Sequence["TraceRecord"]) -> None:
        self.trace = trace
        self._columns = columns = as_trace(trace)
        pc = columns.pc
        next_pc = columns.next_pc
        opclass = columns.opclass
        flags = columns.flags
        is_load = (flags & F_LOAD) != 0
        is_store = (flags & F_STORE) != 0
        control = (flags & F_CONTROL) != 0
        branch = opclass == _OPC_INDEX[OpClass.BRANCH]
        system = opclass == _OPC_INDEX[OpClass.SYSTEM]
        serializes = (next_pc != pc + 4) | (system
                                            & ((flags & F_SERIALIZES) != 0))
        kind = np.where(control, np.where(branch, _K_BRANCH, _K_JUMP),
                        np.where(serializes, _K_SERIALIZE, _K_PLAIN))
        jdec = control & ~branch & ((flags & F_REDIRECT) != 0)
        r_prod, r_is_prod = _producers(columns, is_store)
        self._static = (opclass.tolist(), kind.tolist(), jdec.tolist(),
                        pc.tolist(), next_pc.tolist(),
                        ((flags & F_TAKEN) != 0).tolist(), is_load.tolist(),
                        is_store.tolist(), r_prod, r_is_prod)
        self._blocks: dict[int, list] = {}    # by fetch_bytes
        self._shifted: dict[int, list] = {}   # address >> shift, by shift
        self._masks: dict[int, list] = {}     # by line size

    def lists(self, line_shift: int, chunk_shift: int, line_size: int,
              fetch_bytes: int) -> tuple:
        """The fourteen lists :func:`run_fast` unpacks, for one
        geometry."""
        (opclass, kind, jdec, pc, next_pc, taken, is_load, is_store,
         r_prod, r_is_prod) = self._static
        blocks = self._blocks.get(fetch_bytes)
        if blocks is None:
            blocks = self._blocks[fetch_bytes] = \
                (self._columns.pc // fetch_bytes).tolist()
        return (opclass, kind, jdec, pc, next_pc, taken, blocks, is_load,
                is_store, self._shift(line_shift), self._shift(chunk_shift),
                self._mask(line_size), r_prod, r_is_prod)

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
    """Each record's ``(producer index, is_data)`` pairs in operand
    order, and whether some later record depends on each record.

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
    is_producer = np.zeros(n, dtype=bool)
    operands = []
    for position in range(MAX_SOURCES):
        register = columns.src[:, position].astype(np.int64)
        key = keys[np.searchsorted(keys[:-1], register * n + index) - 1]
        found = (columns.nsrc > position) & (key // n == register)
        producer = np.where(found, key % n, -1)
        is_producer[producer[found]] = True
        operands.append((producer.tolist(),
                         (first_data <= position).tolist()))
    (first, first_is_data), (second, second_is_data) = operands
    # The pairs are a tuple or two per record.  Tuples of ints are
    # untracked at their first collection, so collections during this
    # burst would only re-traverse the rest of the heap: pause the
    # cyclic GC for it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        pairs = [((a, a_data), (b, b_data)) if a >= 0 and b >= 0
                 else ((a, a_data),) if a >= 0
                 else ((b, b_data),) if b >= 0 else ()
                 for a, a_data, b, b_data
                 in zip(first, first_is_data, second, second_is_data)]
    finally:
        if enabled:
            gc.enable()
    return pairs, is_producer.tolist()


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
    final cycle count.  Mutates the core exactly like the reference
    loop: stats, stall ledger, load-latency histogram, committed count
    and the drained pipeline structures."""
    # ------------------------------------------------------------------
    # Configuration constants.
    # ------------------------------------------------------------------
    cfg = core.cfg
    mem = core.mem
    dcache = mem.dcache
    icache = mem.icache
    dcfg = dcache.config
    bpred = core.bpred
    bpcfg = cfg.bpred

    fetch_width = cfg.fetch_width
    dispatch_width = cfg.dispatch_width
    issue_width = cfg.issue_width
    commit_width = cfg.commit_width
    rob_size = cfg.rob_size
    iq_size = cfg.iq_size
    lq_size = cfg.lq_size
    sq_size = cfg.sq_size
    decode_latency = cfg.decode_latency
    fetch_queue_size = cfg.fetch_queue_size
    lb_latency = cfg.lb_latency
    max_combine = cfg.max_combine
    speculative_loads = cfg.speculative_loads
    mispredict_redirect = bpcfg.mispredict_redirect
    btb_miss_redirect = bpcfg.btb_miss_redirect

    n_ports = dcfg.ports
    n_mshrs = dcfg.mshrs
    hit_latency = dcfg.hit_latency
    bank_mask = dcfg.banks - 1
    combine_loads = dcfg.combine_loads
    direct_stores = dcfg.write_buffer_depth == 0
    wb_depth = dcfg.write_buffer_depth
    wb_combine = dcfg.combine_stores
    pending_cap = 2 * n_mshrs

    line_buffer = dcache.line_buffer
    lb_fill_on_access = dcfg.line_buffer_fill is LineBufferFill.ON_ACCESS
    lb_fill_on_fill = dcfg.line_buffer_fill is LineBufferFill.ON_FILL
    lb_invalidate = dcfg.line_buffer_on_store is LineBufferOnStore.INVALIDATE
    lb_entries = dcfg.line_buffer_entries
    lb_lines = line_buffer._lines if line_buffer is not None else None
    has_lb = line_buffer is not None

    ic_hit_latency = icache.config.hit_latency
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

    led_width = core.ledger.width
    led_interval = core.ledger.interval
    led_lost = [0] * len(CAUSE_ORDER)
    led_series: list[dict[int, int]] = [{} for _ in CAUSE_ORDER]
    cap_rob = cap_iq = cap_lq = cap_sq = 0

    # ------------------------------------------------------------------
    # Trace precompute.
    # ------------------------------------------------------------------
    (r_opc, r_kind, r_jdec, r_pc, r_npc, r_taken, r_block,
     r_load, r_store, r_line, r_chunk, r_mask, r_prod, r_is_prod) = \
        _precompute_cached(trace, dcache.line_shift, dcache.chunk_shift,
                           dcache.line_size, icache.fetch_bytes)
    total = len(trace)

    # ------------------------------------------------------------------
    # Pipeline state (shared objects hoisted, scalars local).
    # ------------------------------------------------------------------
    rob = core._rob
    fq = core._fetch_queue
    # Issue queue, split: iq_ready holds only entries whose name
    # operands are all resolved (NWAIT == 0), kept in sequence order;
    # waiters are reachable solely through their producers' U_CONS
    # lists and re-enter iq_ready at wakeup.  iq_count tracks total
    # occupancy for the dispatch capacity check.
    iq_ready: list[list] = []
    iq_count = 0
    for uop in core._iq:
        while len(uop) <= U_INIQ:
            uop.append(False)
        uop[U_INIQ] = True
        iq_count += 1
        if uop[U_NWAIT] == 0:
            iq_ready.append(uop)
    # Producer tracking by trace index (replaces the register
    # scoreboard: the precompute pass already resolved every register
    # name to its static last writer).  idx_done_at[i] >= 0 once
    # instruction i has completed; idx_uop holds in-flight refs for
    # instructions some later instruction depends on, dropped at
    # completion so retired uops are not pinned.
    idx_done_at = [-1] * total
    idx_uop: list[list | None] = [None] * total
    # AKNOWN stores indexed by cache line (each list seq-ascending):
    # the store-forwarding scan only looks at same-line stores.
    sq_by_line: dict[int, list[list]] = {}
    sqline_get = sq_by_line.get
    ev_complete: dict[int, list] = {}
    ev_addr: dict[int, list] = {}
    evc_pop = ev_complete.pop
    eva_pop = ev_addr.pop
    evc_get = ev_complete.get
    eva_get = ev_addr.get
    rob_append = rob.append
    rob_popleft = rob.popleft
    fq_append = fq.append
    fq_popleft = fq.popleft
    empty_cons = _EMPTY_CONS
    lsq_loads: list[list] = core.lsq.loads
    lsq_stores: list[list] = core.lsq.stores
    # Derived LSQ views, so the per-cycle scans touch only entries that
    # can act: loads with a resolved address and no scheduled access
    # (in seq order, as lsq_loads holds them: inserted when the address
    # resolves, dropped once scheduled), and the program-order queue of
    # stores whose address is still unknown (fed at dispatch, drained
    # lazily from the front — a store with an unknown address can never
    # retire, so the front is authoritative).
    act_loads: list[list] = []
    sq_unknown: list[list] = []
    wbl_lines: list[int] = []
    wbl_masks: list[int] = []
    # Occupancy count per line, so the per-load forwarding check is a
    # dict miss instead of a positional scan in the common no-overlap
    # case (without combining the same line can appear twice).
    wbl_count: dict[int, int] = {}
    banks_used: set[int] = set()

    trace_pos = 0
    cycle = 0
    committed = 0
    last_activity = 0
    waiting_branch: list | None = None
    waiting_serialize: list | None = None
    fetch_blocked_until = 0
    fb_cause = ci_fetch
    memo_block = -1
    memo_ready = 0
    watchdog_limit = core._watchdog_limit
    # Earliest cycle any IQ entry could issue: the issue scan is
    # skipped entirely while cycle < iq_min_ready (identical to the
    # reference loop, which would scan and find nothing ready — no
    # stats fire on a scan that issues nothing and hits no FU limit).
    # Maintained conservatively low: wakeups and dispatches lower it,
    # each real scan recomputes it exactly.
    _FAR = 1 << 60
    iq_min_ready = 0

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
    st_b_hits = st_b_miss = st_b_fill = st_b_sinv = st_b_supd = 0
    st_p_br = st_p_brc = st_p_brm = 0
    st_p_j = st_p_jc = st_p_jm = 0
    st_i_acc = st_i_pend = st_i_hit = st_i_miss = 0
    fu_ops = [0] * n_opc
    fu_stalls = [0] * n_opc
    ll_counts: dict[int, int] = {}

    try:
        while trace_pos < total or rob or fq:
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
                for uop in addr_events:
                    uop[U_AKNOWN] = True
                    uop[U_ACYC] = cycle
                    if uop[U_STORE]:
                        if uop[U_DWAIT] == 0 and not uop[U_DONE]:
                            uop[U_DONE] = True
                            ready = uop[U_DRDY]
                            when = cycle if cycle >= ready else ready
                            uop[U_CCYC] = when
                            idx_done_at[uop[U_IDX]] = when
                        line = uop[U_LINE]
                        line_stores = sqline_get(line)
                        if line_stores is None:
                            sq_by_line[line] = [uop]
                            mem_epoch += 1
                        else:
                            # keep seq-ascending despite out-of-order
                            # address resolution
                            line_stores.append(uop)
                            position = len(line_stores) - 1
                            store_seq = uop[U_SEQ]
                            while position and \
                                    line_stores[position - 1][U_SEQ] \
                                    > store_seq:
                                line_stores[position] = \
                                    line_stores[position - 1]
                                position -= 1
                            line_stores[position] = uop
                        mem_epoch += 1
                    else:
                        position = len(act_loads)
                        load_seq = uop[U_SEQ]
                        while position and \
                                act_loads[position - 1][U_SEQ] > load_seq:
                            position -= 1
                        act_loads.insert(position, uop)
            complete_events = evc_pop(cycle, None)
            if complete_events is not None:
                for uop in complete_events:
                    uop[U_DONE] = True
                    uop[U_CCYC] = cycle
                    index = uop[U_IDX]
                    idx_done_at[index] = cycle
                    idx_uop[index] = None
                    for consumer, is_data in uop[U_CONS]:
                        if is_data:
                            consumer[U_DWAIT] -= 1
                            if cycle > consumer[U_DRDY]:
                                consumer[U_DRDY] = cycle
                            if consumer[U_AKNOWN] and \
                                    consumer[U_DWAIT] == 0 and \
                                    not consumer[U_DONE]:
                                consumer[U_DONE] = True
                                ready = consumer[U_DRDY]
                                when = cycle if cycle >= ready \
                                    else ready
                                consumer[U_CCYC] = when
                                idx_done_at[consumer[U_IDX]] = when
                        else:
                            consumer[U_NWAIT] -= 1
                            if cycle > consumer[U_OPRDY]:
                                consumer[U_OPRDY] = cycle
                            if consumer[U_NWAIT] == 0:
                                ready = consumer[U_OPRDY]
                                if ready < iq_min_ready:
                                    iq_min_ready = ready
                                position = len(iq_ready)
                                consumer_seq = consumer[U_SEQ]
                                while position and \
                                        iq_ready[position - 1][U_SEQ] \
                                        > consumer_seq:
                                    position -= 1
                                iq_ready.insert(position, consumer)
                    opc = uop[U_OPC]
                    if opc == opc_branch:
                        # BranchPredictor.resolve_branch, inlined.
                        pc = r_pc[index]
                        taken = r_taken[index]
                        bp_update(pc, taken)
                        if taken:
                            btb_targets[(pc >> 2) & btb_mask] = \
                                (pc, r_npc[index])
                        st_p_br += 1
                        if uop[U_MISP]:
                            st_p_brm += 1
                        else:
                            st_p_brc += 1
                    elif opc == opc_jump:
                        pc = r_pc[index]
                        btb_targets[(pc >> 2) & btb_mask] = \
                            (pc, r_npc[index])
                        st_p_j += 1
                        if uop[U_MISP]:
                            st_p_jm += 1
                        else:
                            st_p_jc += 1
                    if uop is waiting_branch:
                        waiting_branch = None
                        fb_cause = ci_branch
                        resume = cycle + mispredict_redirect
                        if resume > fetch_blocked_until:
                            fetch_blocked_until = resume

            # ----------------------------------------------------------
            # 2. commit
            # ----------------------------------------------------------
            commits = 0
            commit_block = 0   # 0 none, 1 store_port, 2 wb_full
            while rob and commits < commit_width:
                uop = rob[0]
                if not uop[U_DONE] or uop[U_CCYC] > cycle:
                    break
                if uop[U_STORE]:
                    line = uop[U_LINE]
                    if direct_stores:
                        # DataCacheSystem.store_access, inlined.
                        if ports_used >= n_ports:
                            st_d_snp += 1
                            st_commit_store_port += 1
                            commit_block = 1
                            break
                        if bank_mask and (line & bank_mask) in banks_used:
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
                                    # MSHR-full retry (as in the slow
                                    # path's _claim_port-then-fail).
                                    ports_used += 1
                                    if bank_mask:
                                        banks_used.add(line & bank_mask)
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
                            if lb_invalidate:
                                del lb_lines[line]
                                st_b_sinv += 1
                            else:
                                od_move(lb_lines, line)
                                st_b_supd += 1
                    else:
                        # WriteBuffer.add, inlined.
                        mask = uop[U_MASK]
                        added = False
                        if wb_combine and line in wbl_count:
                            position = wbl_lines.index(line)
                            wbl_masks[position] |= mask
                            st_w_comb += 1
                            mem_epoch += 1
                            added = True
                        if not added:
                            if len(wbl_lines) >= wb_depth:
                                st_w_full += 1
                                st_commit_wb_full += 1
                                commit_block = 2
                                break
                            wbl_lines.append(line)
                            wbl_masks.append(mask)
                            if line in wbl_count:
                                wbl_count[line] += 1
                            else:
                                wbl_count[line] = 1
                            st_w_alloc += 1
                            mem_epoch += 1
                    assert lsq_stores[0] is uop
                    del lsq_stores[0]
                    line_stores = sq_by_line[line]
                    if len(line_stores) == 1:
                        assert line_stores[0] is uop
                        del sq_by_line[line]
                    else:
                        assert line_stores[0] is uop
                        del line_stores[0]
                    mem_epoch += 1
                elif uop[U_LOAD]:
                    assert lsq_loads[0] is uop
                    del lsq_loads[0]
                rob_popleft()
                commits += 1
                if uop is waiting_serialize:
                    waiting_serialize = None
                    fb_cause = ci_serialize
                    resume = cycle + 1
                    if resume > fetch_blocked_until:
                        fetch_blocked_until = resume
            if commits:
                last_activity = cycle
                committed += commits

            # ----------------------------------------------------------
            # Stall attribution (StallLedger.account, inlined)
            # ----------------------------------------------------------
            lost = led_width - commits
            if lost > 0:
                if commit_block == 2:
                    ci = ci_wb_full
                elif commit_block == 1:
                    ci = ci_dcache_port
                elif rob:
                    head = rob[0]
                    ci = ci_exec
                    if head is waiting_branch:
                        ci = ci_branch
                    elif head is waiting_serialize:
                        ci = ci_serialize
                    elif head[U_LOAD] and not head[U_DONE]:
                        if head[U_MEMDONE]:
                            source = head[U_MEMSRC]
                            if source == SRC_MISS or \
                                    source == SRC_SECONDARY:
                                ci = ci_next_level
                            elif source == SRC_HIT:
                                ci = ci_lb_miss
                        elif head[U_AKNOWN]:
                            block_code = head[U_BLK]
                            if block_code >= BLK_NO_PORT:
                                ci = ci_dcache_port
                            elif block_code:
                                ci = ci_mem_order
                elif fq:
                    ci = ci_fetch
                elif waiting_branch is not None:
                    ci = ci_branch
                elif waiting_serialize is not None:
                    ci = ci_serialize
                elif trace_pos >= total:
                    ci = ci_drain
                elif cycle < fetch_blocked_until:
                    ci = fb_cause
                else:
                    ci = ci_fetch
                led_lost[ci] += lost
                buckets = led_series[ci]
                bucket = cycle // led_interval
                if bucket in buckets:
                    buckets[bucket] += lost
                else:
                    buckets[bucket] = lost

            # ----------------------------------------------------------
            # 3a. memory: LSQ load scheduling
            # ----------------------------------------------------------
            if act_loads:
                while sq_unknown and sq_unknown[0][U_AKNOWN]:
                    del sq_unknown[0]
                barrier = sq_unknown[0][U_SEQ] if sq_unknown \
                    else _INFINITY
                port_requests = None
                lb_reads = 0
                scheduled = 0
                for load in act_loads:
                    if load[U_SCANEP] == mem_epoch:
                        # Negative scan already proven at this epoch.
                        if port_requests is None:
                            port_requests = [load]
                        else:
                            port_requests.append(load)
                        continue
                    load_seq = load[U_SEQ]
                    if load_seq > barrier and not speculative_loads:
                        st_l_order += 1
                        load[U_BLK] = BLK_ORDER
                        continue
                    load_line = load[U_LINE]
                    load_mask = load[U_MASK]
                    # In-flight store forwarding (newest older
                    # match; only same-line AKNOWN stores can match,
                    # which is exactly what sq_by_line holds).
                    action = 0
                    line_stores = sqline_get(load_line)
                    if line_stores is not None:
                        for store in reversed(line_stores):
                            if store[U_SEQ] >= load_seq:
                                continue
                            overlap = store[U_MASK] & load_mask
                            if not overlap:
                                continue
                            if overlap == load_mask and \
                                    store[U_DWAIT] == 0 and \
                                    store[U_DRDY] <= cycle:
                                action = 1
                            else:
                                action = 2
                            break
                    if action == 1:
                        st_l_sqf += 1
                        scheduled += 1
                        load[U_MEMDONE] = True
                        load[U_MEMSRC] = SRC_SQ
                        load[U_BLK] = 0
                        ready = cycle + 1
                        latency = ready - load[U_ACYC]
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
                        load[U_BLK] = BLK_SQ_WAIT
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
                        load[U_MEMDONE] = True
                        load[U_MEMSRC] = SRC_WB
                        load[U_BLK] = 0
                        ready = cycle + 1
                        latency = ready - load[U_ACYC]
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
                        load[U_BLK] = BLK_WB_CONFLICT
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
                            load[U_MEMDONE] = True
                            load[U_MEMSRC] = SRC_LB
                            load[U_BLK] = 0
                            ready = cycle + lb_latency
                            assert ready > cycle
                            latency = ready - load[U_ACYC]
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
                        load[U_SCANEP] = mem_epoch
                    if port_requests is None:
                        port_requests = [load]
                    else:
                        port_requests.append(load)
                # Port scheduling with wide-port access combining.
                if port_requests is not None:
                    if combine_loads:
                        groups: dict[int, list] = {}
                        for load in port_requests:
                            chunk = load[U_CHUNK]
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
                            line = batch[0][U_LINE]
                            # DataCacheSystem.load_access, inlined.
                            if ports_used >= n_ports:
                                st_d_lnp += 1
                                for blocked in batches[batch_index:]:
                                    for load in blocked:
                                        load[U_BLK] = BLK_NO_PORT
                                break
                            if bank_mask and (line & bank_mask) in banks_used:
                                st_d_bankc += 1
                                st_d_lnp += 1
                                for load in batch:
                                    load[U_BLK] = BLK_BANK
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
                                    ready = cycle + hit_latency
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
                                            load[U_BLK] = BLK_MSHR
                                        continue
                                    ports_used += 1
                                    if bank_mask:
                                        banks_used.add(line & bank_mask)
                                    st_d_portu += 1
                                    st_d_lmiss += 1
                                    ready = dcache._start_fill(line)
                                    source = SRC_MISS
                                    dcache._maybe_prefetch(line + 1)
                            if lb_fill_on_access and has_lb:
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
                            for load in batch:
                                load[U_MEMDONE] = True
                                load[U_MEMSRC] = source
                                load[U_BLK] = 0
                                assert ready > cycle, \
                                    "load data cannot be ready in the past"
                                latency = ready - load[U_ACYC]
                                if latency in ll_counts:
                                    ll_counts[latency] += 1
                                else:
                                    ll_counts[latency] = 1
                                bucket = evc_get(ready)
                                if bucket is None:
                                    ev_complete[ready] = [load]
                                else:
                                    bucket.append(load)
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
                                    port_requests[position][U_BLK] = \
                                        BLK_NO_PORT
                                break
                            load = port_requests[req_pos]
                            req_pos += 1
                            line = load[U_LINE]
                            # DataCacheSystem.load_access, inlined.
                            if bank_mask and \
                                    (line & bank_mask) in banks_used:
                                st_d_bankc += 1
                                st_d_lnp += 1
                                load[U_BLK] = BLK_BANK
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
                                    ready = cycle + hit_latency
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
                                        load[U_BLK] = BLK_MSHR
                                        continue
                                    ports_used += 1
                                    if bank_mask:
                                        banks_used.add(line & bank_mask)
                                    st_d_portu += 1
                                    st_d_lmiss += 1
                                    ready = dcache._start_fill(line)
                                    source = SRC_MISS
                                    dcache._maybe_prefetch(line + 1)
                            if lb_fill_on_access and has_lb:
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
                            load[U_MEMDONE] = True
                            load[U_MEMSRC] = source
                            load[U_BLK] = 0
                            assert ready > cycle, \
                                "load data cannot be ready in the past"
                            latency = ready - load[U_ACYC]
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
                                 if not load[U_MEMDONE]]

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
                        if lb_invalidate:
                            del lb_lines[line]
                            st_b_sinv += 1
                        else:
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
            if iq_ready and iq_min_ready <= cycle:
                fu_used[:] = fu_unused
                keep = []
                next_ready = _FAR
                for uop in iq_ready:
                    if issued >= issue_width or uop[U_OPRDY] > cycle:
                        keep.append(uop)
                        if uop[U_OPRDY] < next_ready:
                            next_ready = uop[U_OPRDY]
                        continue
                    opc = uop[U_OPC]
                    if fu_limited[opc]:
                        used = fu_used[opc]
                        if used >= fu_count[opc]:
                            fu_stalls[opc] += 1
                            keep.append(uop)
                            next_ready = cycle
                            continue
                        busy = fu_busy[opc]
                        if busy is not None:
                            busy[:] = [t for t in busy if t > cycle]
                            if len(busy) >= fu_count[opc]:
                                fu_stalls[opc] += 1
                                keep.append(uop)
                                next_ready = cycle
                                continue
                            busy.append(cycle + fu_latency[opc])
                        fu_used[opc] = used + 1
                    fu_ops[opc] += 1
                    done_at = cycle + fu_latency[opc]
                    issued += 1
                    uop[U_INIQ] = False
                    iq_count -= 1
                    if uop[U_LOAD] or uop[U_STORE]:
                        bucket = eva_get(done_at)
                        if bucket is None:
                            ev_addr[done_at] = [uop]
                        else:
                            bucket.append(uop)
                    else:
                        bucket = evc_get(done_at)
                        if bucket is None:
                            ev_complete[done_at] = [uop]
                        else:
                            bucket.append(uop)
                iq_ready = keep
                iq_min_ready = next_ready
                if issued:
                    st_issued += issued

            # ----------------------------------------------------------
            # 5. dispatch (rename: dependences, ROB/IQ/LSQ allocation)
            # ----------------------------------------------------------
            dispatched = 0
            decoded_by = cycle - decode_latency   # latest visible fetch
            while fq and dispatched < dispatch_width:
                uop = fq[0]
                if uop[U_FETCH] > decoded_by:
                    break
                if len(rob) >= rob_size:
                    st_rob_full += 1
                    cap_rob += 1
                    break
                if iq_count >= iq_size:
                    st_iq_full += 1
                    cap_iq += 1
                    break
                is_load = uop[U_LOAD]
                is_store = uop[U_STORE]
                if is_load and len(lsq_loads) >= lq_size:
                    st_lq_full += 1
                    cap_lq += 1
                    break
                if is_store and len(lsq_stores) >= sq_size:
                    st_sq_full += 1
                    cap_sq += 1
                    break
                fq_popleft()
                index = uop[U_IDX]
                for producer_index, is_data in r_prod[index]:
                    when = idx_done_at[producer_index]
                    if when >= 0:
                        if is_data:
                            if when > uop[U_DRDY]:
                                uop[U_DRDY] = when
                        elif when > uop[U_OPRDY]:
                            uop[U_OPRDY] = when
                        continue
                    idx_uop[producer_index][U_CONS].append(
                        (uop, is_data))
                    if is_data:
                        uop[U_DWAIT] += 1
                    else:
                        uop[U_NWAIT] += 1
                if r_is_prod[index]:
                    idx_uop[index] = uop
                uop[U_INIQ] = True
                iq_count += 1
                if uop[U_NWAIT] == 0:
                    if uop[U_OPRDY] < iq_min_ready:
                        iq_min_ready = uop[U_OPRDY]
                    iq_ready.append(uop)
                rob_append(uop)
                if is_load:
                    lsq_loads.append(uop)
                elif is_store:
                    lsq_stores.append(uop)
                    sq_unknown.append(uop)
                dispatched += 1
            if dispatched:
                last_activity = cycle
                st_dispatched += dispatched

            # ----------------------------------------------------------
            # 6. fetch
            # ----------------------------------------------------------
            fetched = 0
            while True:   # single-shot block: break == stage return
                if waiting_branch is not None:
                    st_f_branch += 1
                    break
                if waiting_serialize is not None:
                    st_f_serial += 1
                    break
                if cycle < fetch_blocked_until:
                    st_f_redirect += 1
                    break
                if trace_pos >= total:
                    break
                if len(fq) >= fetch_queue_size:
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
                            ready = cycle + ic_hit_latency - 1
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
                # trace's end.
                start = trace_pos
                stop = start + fetch_width
                room = start + fetch_queue_size - len(fq)
                if room < stop:
                    stop = room
                if total < stop:
                    stop = total
                while trace_pos < stop:
                    index = trace_pos
                    if r_block[index] != block:
                        break
                    # A fresh uop.  The sequence number IS the trace
                    # index: fetch consumes the trace in order, one uop
                    # per record.  Producers get a private consumer
                    # list; everyone else shares the never-mutated
                    # empty one.
                    uop = [index, index, r_opc[index], r_load[index],
                           r_store[index], cycle, False, -1, 0, 0,
                           [] if r_is_prod[index] else empty_cons, 0, 0,
                           False, r_line[index], r_chunk[index],
                           r_mask[index], False, 0, 0, -1, False, False,
                           False, False, -1]
                    fq_append(uop)
                    trace_pos += 1
                    kind = r_kind[index]
                    if kind == _K_PLAIN:
                        continue
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
                        uop[U_PTAKEN] = predicted_taken
                        taken = r_taken[index]
                        correct = predicted_taken == taken and (
                            not taken or predicted_target == r_npc[index])
                        if not correct:
                            uop[U_MISP] = True
                            waiting_branch = uop
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
                                cycle + 1 + btb_miss_redirect
                            fb_cause = ci_branch
                            st_f_jdec += 1
                            break
                        uop[U_MISP] = True
                        waiting_branch = uop
                        break
                    elif kind == _K_SERIALIZE:
                        uop[U_SERIAL] = True
                        waiting_serialize = uop
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
            # always scheduled in the future, commit is capped by the
            # head's completion cycle, wakeup/issue by iq_min_ready,
            # decode by the head-of-queue fetch gate, and blocked loads
            # re-classify identically while the stores they wait on are
            # unchanged.  Jump straight to the earliest cycle anything
            # can change and apply the per-cycle statistics in bulk —
            # byte-identical to running the intermediate cycles.
            # Cycles that touched a port, drained (or merely retried)
            # the write buffer, or blocked a commit are never skipped:
            # their cache-side statistics are not state-constant.
            # ----------------------------------------------------------
            if not (commits or dispatched or issued or fetched or
                    commit_block or ports_used or wbl_lines):
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
                if rob:
                    sk_head = rob[0]
                    if sk_head[U_DONE] and sk_head[U_CCYC] < skip_to:
                        skip_to = sk_head[U_CCYC]
                if iq_ready and iq_min_ready < skip_to:
                    skip_to = iq_min_ready
                gate_passed = False
                if fq:
                    gate = fq[0][U_FETCH] + decode_latency
                    if gate > cycle:
                        if gate < skip_to:
                            skip_to = gate
                    else:
                        gate_passed = True
                if cycle < fetch_blocked_until < skip_to:
                    skip_to = fetch_blocked_until
                n_order = n_sqwait = 0
                for load in act_loads:
                    blk = load[U_BLK]
                    if blk == BLK_ORDER:
                        n_order += 1
                    elif blk == BLK_SQ_WAIT:
                        n_sqwait += 1
                    else:
                        # Port/bank/MSHR/WB-conflict blocks depend on
                        # per-cycle cache state: not skippable.
                        ok_skip = False
                        break
                if ok_skip and n_sqwait:
                    for store in lsq_stores:
                        drdy = store[U_DRDY]
                        if cycle < drdy < skip_to:
                            skip_to = drdy
                dispatch_full = 0
                if ok_skip and gate_passed:
                    sk_uop = fq[0]
                    if len(rob) >= rob_size:
                        dispatch_full = 1
                    elif iq_count >= iq_size:
                        dispatch_full = 2
                    elif sk_uop[U_LOAD] and len(lsq_loads) >= lq_size:
                        dispatch_full = 3
                    elif sk_uop[U_STORE] and \
                            len(lsq_stores) >= sq_size:
                        dispatch_full = 4
                    else:
                        ok_skip = False   # would dispatch next cycle
                fetch_stall = 0
                if ok_skip:
                    if waiting_branch is not None:
                        fetch_stall = 1
                    elif waiting_serialize is not None:
                        fetch_stall = 2
                    elif cycle + 1 < fetch_blocked_until:
                        fetch_stall = 3
                    elif trace_pos >= total:
                        fetch_stall = 4   # drained: no statistic
                    elif len(fq) >= fetch_queue_size:
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
                        if rob:
                            sk_head = rob[0]
                            ci = ci_exec
                            if sk_head is waiting_branch:
                                ci = ci_branch
                            elif sk_head is waiting_serialize:
                                ci = ci_serialize
                            elif sk_head[U_LOAD] and \
                                    not sk_head[U_DONE]:
                                if sk_head[U_MEMDONE]:
                                    source = sk_head[U_MEMSRC]
                                    if source == SRC_MISS or \
                                            source == SRC_SECONDARY:
                                        ci = ci_next_level
                                    elif source == SRC_HIT:
                                        ci = ci_lb_miss
                                elif sk_head[U_AKNOWN]:
                                    block_code = sk_head[U_BLK]
                                    if block_code >= BLK_NO_PORT:
                                        ci = ci_dcache_port
                                    elif block_code:
                                        ci = ci_mem_order
                        elif fq:
                            ci = ci_fetch
                        elif waiting_branch is not None:
                            ci = ci_branch
                        elif waiting_serialize is not None:
                            ci = ci_serialize
                        elif trace_pos >= total:
                            ci = ci_drain
                        elif cycle < fetch_blocked_until:
                            ci = fb_cause
                        else:
                            ci = ci_fetch
                        led_lost[ci] += led_width * k
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
                head = rob[0] if rob else None
                raise SimError(
                    f"timing core made no progress for "
                    f"{watchdog_limit} cycles (cycle={cycle}, "
                    f"committed={committed}, rob={len(rob)}, "
                    f"iq={iq_count}, fq={len(fq)}, head={head!r})")
            cycle += 1
    finally:
        # --------------------------------------------------------------
        # Write the batched state back into the real objects, so the
        # caller (and post-mortem inspection after an exception) sees
        # exactly what the reference loop would have produced.
        # --------------------------------------------------------------
        core._trace_pos = trace_pos
        core._cycle = cycle - 1 if cycle else 0
        core._committed = committed
        core._last_activity = last_activity
        core._iq = [uop for uop in rob if uop[U_INIQ]]
        core._events_complete = ev_complete
        core._events_addr = ev_addr
        core._waiting_branch = waiting_branch
        core._waiting_serialize = waiting_serialize
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
        if committed:
            inc("core.commits", committed)
        if st_commit_store_port:
            inc("core.commit_store_port_stalls", st_commit_store_port)
        if st_commit_wb_full:
            inc("core.commit_wb_full_stalls", st_commit_wb_full)
        if st_issued:
            inc("core.issued", st_issued)
        if st_dispatched:
            inc("core.dispatched", st_dispatched)
        if st_rob_full:
            inc("core.dispatch_rob_full", st_rob_full)
        if st_iq_full:
            inc("core.dispatch_iq_full", st_iq_full)
        if st_lq_full:
            inc("core.dispatch_lq_full", st_lq_full)
        if st_sq_full:
            inc("core.dispatch_sq_full", st_sq_full)
        if st_fetched:
            inc("fetch.fetched", st_fetched)
        if st_f_branch:
            inc("fetch.stall_branch_cycles", st_f_branch)
        if st_f_serial:
            inc("fetch.stall_serialize_cycles", st_f_serial)
        if st_f_redirect:
            inc("fetch.stall_redirect_cycles", st_f_redirect)
        if st_f_queue:
            inc("fetch.stall_queue_cycles", st_f_queue)
        if st_f_icache:
            inc("fetch.icache_stall_cycles", st_f_icache)
        if st_f_serial_red:
            inc("fetch.serialize_redirects", st_f_serial_red)
        if st_f_jdec:
            inc("fetch.jump_decode_redirects", st_f_jdec)
        if st_l_order:
            inc("lsq.order_stalls", st_l_order)
        if st_l_sqf:
            inc("lsq.sq_forwards", st_l_sqf)
        if st_l_sqw:
            inc("lsq.sq_waits", st_l_sqw)
        if st_l_wbf:
            inc("lsq.wb_forwards", st_l_wbf)
        if st_l_wbc:
            inc("lsq.wb_conflicts", st_l_wbc)
        if st_l_lb:
            inc("lsq.lb_loads", st_l_lb)
        if st_l_port:
            inc("lsq.port_loads", st_l_port)
        if st_l_comb:
            inc("lsq.combined_loads", st_l_comb)
        if st_l_comba:
            inc("lsq.combined_accesses", st_l_comba)
        if st_d_bankc:
            inc("dcache.bank_conflicts", st_d_bankc)
        if st_d_portu:
            inc("dcache.port_uses", st_d_portu)
        if st_d_lnp:
            inc("dcache.load_no_port", st_d_lnp)
        if st_d_lsec:
            inc("dcache.load_secondary_misses", st_d_lsec)
        if st_d_lhit:
            inc("dcache.load_hits", st_d_lhit)
        if st_d_lmiss:
            inc("dcache.load_misses", st_d_lmiss)
        if st_d_lmshr:
            inc("dcache.load_mshr_full", st_d_lmshr)
        if st_d_snp:
            inc("dcache.store_no_port", st_d_snp)
        if st_d_smerge:
            inc("dcache.store_mshr_merges", st_d_smerge)
        if st_d_shit:
            inc("dcache.store_hits", st_d_shit)
        if st_d_smiss:
            inc("dcache.store_misses", st_d_smiss)
        if st_d_smshr:
            inc("dcache.store_mshr_full", st_d_smshr)
        if st_w_comb:
            inc("wb.combined", st_w_comb)
        if st_w_full:
            inc("wb.full_stalls", st_w_full)
        if st_w_alloc:
            inc("wb.entries_allocated", st_w_alloc)
        if st_w_drain:
            inc("wb.drains", st_w_drain)
        if st_w_lf:
            inc("wb.load_forwards", st_w_lf)
        if st_w_lc:
            inc("wb.load_conflicts", st_w_lc)
        if st_b_hits:
            inc("lb.hits", st_b_hits)
        if st_b_miss:
            inc("lb.misses", st_b_miss)
        if st_b_fill:
            inc("lb.fills", st_b_fill)
        if st_b_sinv:
            inc("lb.store_invalidations", st_b_sinv)
        if st_b_supd:
            inc("lb.store_updates", st_b_supd)
        if st_p_br:
            inc("bpred.branches", st_p_br)
        if st_p_brc:
            inc("bpred.correct", st_p_brc)
        if st_p_brm:
            inc("bpred.mispredicts", st_p_brm)
        if st_p_j:
            inc("bpred.jumps", st_p_j)
        if st_p_jc:
            inc("bpred.jump_correct", st_p_jc)
        if st_p_jm:
            inc("bpred.jump_mispredicts", st_p_jm)
        if st_i_acc:
            inc("icache.accesses", st_i_acc)
        if st_i_pend:
            inc("icache.pending_hits", st_i_pend)
        if st_i_hit:
            inc("icache.hits", st_i_hit)
        if st_i_miss:
            inc("icache.misses", st_i_miss)
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

        ledger = core.ledger
        ledger.cycles += cycle
        ledger.committed += committed
        for ci, cause in enumerate(CAUSE_ORDER):
            lost = led_lost[ci]
            if not lost:
                continue
            ledger.lost[cause] += lost
            series = ledger.series.get(cause)
            if series is None:
                series = ledger.series[cause] = Histogram(cause.value)
            series_counts = series._counts
            for bucket, slots in led_series[ci].items():
                series_counts[bucket] += slots
            series._total += lost
        if cap_rob:
            ledger.capacity["rob"] = \
                ledger.capacity.get("rob", 0) + cap_rob
        if cap_iq:
            ledger.capacity["iq"] = ledger.capacity.get("iq", 0) + cap_iq
        if cap_lq:
            ledger.capacity["lq"] = ledger.capacity.get("lq", 0) + cap_lq
        if cap_sq:
            ledger.capacity["sq"] = ledger.capacity.get("sq", 0) + cap_sq
    return cycle

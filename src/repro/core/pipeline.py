"""The dynamic superscalar timing core.

Trace-driven, cycle-accurate where it matters for the paper: every data
cache access arbitrates for a physical port each cycle, and the
line-buffer / write-buffer / wide-port-combining techniques remove or
merge port uses.  Control flow is modelled with real branch prediction:
a mispredicted branch stalls fetch until it resolves (wrong-path fetch
is not simulated — the standard trace-driven approximation, noted in
EXPERIMENTS.md).

Stage order within a cycle (classic reverse-pipeline order so an
instruction advances at most one stage per cycle):

1. events (FU completions, AGU address resolution)
2. commit (stores enter the write buffer here)
3. memory (LSQ port scheduling, then write buffer drain)
4. issue (wakeup/select, functional unit allocation)
5. dispatch (rename: dependence wiring, ROB/IQ/LSQ allocation)
6. fetch (I-cache, branch prediction, redirect tracking)

The loop reads the trace's columns by ``seq`` (an instruction's trace
position), as Python lists built once per trace
(:meth:`repro.trace.io.Trace.lists`), and decodes no records: the
columns carry every timing hint (the store operand split, serialising
opcodes, decode-stage jump redirects).  It keeps its own register
scoreboard and address arithmetic, so the fast-path differential checks
the fast loop's precompute against an independent derivation.  Probe
events carry ints (see :mod:`repro.obs.probe`); ``cycle_end`` carries
one occupancy sample per cycle.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..func.exceptions import SimError
from ..isa import OpClass
from ..mem.hierarchy import MemorySystem
from ..obs.critpath import CritPathRecorder
from ..obs.hotspots import HotspotRecorder
from ..obs.metrics import IntervalMetrics
from ..obs.pipetrace import PipeTrace
from ..obs.probe import (BLK_NO_PORT, NO_SEQ, SRC_HIT, SRC_MISS, Probe)
from ..obs.stall import DEFAULT_INTERVAL, StallCause, StallLedger
from ..obs.tracer import Tracer
from ..stats.counters import Stats
from ..stats.histogram import Histogram
from ..trace.io import (F_CONTROL, F_LOAD, F_REDIRECT, F_SERIALIZES,
                        F_STORE, F_TAKEN, MAX_SOURCES, NO_DEST, NO_SPLIT,
                        OPCLASSES, Trace, as_trace)
from ..trace.record import TraceRecord
from .bpred import BranchPredictor
from .config import CoreConfig, MachineConfig
from .fastpath import run_fast
from .fu import FUPool
from .lsq import LoadStoreQueue
from .uop import Uop

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..validate.base import Validator

#: Lower bound for the zero-progress watchdog.  The actual limit is
#: scaled to the configured machine (see :func:`watchdog_limit`): a
#: maximal config — deep ROB, large write buffer draining at a barrier
#: under MSHR backpressure, slow memory — can legitimately go far
#: longer than any small config without committing anything.
_WATCHDOG_FLOOR = 50_000


def watchdog_limit(machine: MachineConfig) -> int:
    """Zero-progress cycle bound for *machine*.

    The worst legitimate commit-to-commit gap is bounded by every
    in-flight slot serially taking a worst-case trip through the memory
    system, so the limit scales with the total buffering in the machine
    times the worst per-operation latency (L2 + memory + queueing
    behind every MSHR, victim probe, L1 hit, the slowest FU, decode).
    The 4x margin keeps the bound loose — the watchdog exists to catch
    real deadlocks, not slow progress — and the floor keeps tiny
    configs from tripping on startup transients.
    """
    core = machine.core
    dcache = machine.mem.dcache
    next_level = machine.mem.next_level
    inflight = (core.rob_size + core.iq_size + core.lq_size +
                core.sq_size + core.fetch_queue_size +
                dcache.write_buffer_depth + dcache.mshrs)
    fill = (next_level.hit_latency + next_level.memory_latency +
            next_level.occupancy * (dcache.mshrs + 2))
    victim = dcache.victim_latency if dcache.victim_entries else 0
    max_fu = max(spec.latency for spec in core.fu_specs.values())
    per_op = (fill + victim + dcache.hit_latency + max_fu +
              core.decode_latency)
    return max(_WATCHDOG_FLOOR, 4 * inflight * per_op)

#: Opclass indices the loop tests (the trace's ``opclass`` column).
_BRANCH = OPCLASSES.index(OpClass.BRANCH)
_JUMP = OPCLASSES.index(OpClass.JUMP)
_SYSTEM = OPCLASSES.index(OpClass.SYSTEM)

#: ``REPRO_VALIDATE=1`` attaches a strict invariant checker to every
#: core that was not given an explicit validator — the switch CI uses
#: to run the whole tier-1 suite under invariant checking.
_ENV_VALIDATE = os.environ.get("REPRO_VALIDATE", "") not in ("", "0")


@dataclass
class CoreResult:
    """Outcome of one timing simulation."""

    name: str
    cycles: int
    instructions: int
    stats: Stats
    #: Distribution of load service latency (address-ready to data-ready
    #: cycles) — how the port techniques reshape the common case.
    load_latency: Histogram | None = None
    #: Per-cause lost-issue-slot ledger (see :mod:`repro.obs.stall`).
    ledger: StallLedger | None = None
    #: Interval telemetry (only when the run asked for it; see
    #: :mod:`repro.obs.metrics`).
    metrics: IntervalMetrics | None = None
    #: Whether the run took the fast cycle loop, and — when it did not
    #: — why the fast path was rejected (surfaced into ``repro.run/1``
    #: and ``repro.bench/1`` manifests).
    used_fastpath: bool = False
    fastpath_reason: str | None = None

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CoreResult({self.name!r}, cycles={self.cycles}, "
                f"instructions={self.instructions}, ipc={self.ipc:.3f})")


class OoOCore:
    """One configured machine instance; :meth:`run` consumes a trace."""

    def __init__(self, machine: MachineConfig,
                 tracer: Tracer | None = None,
                 stall_interval: int = DEFAULT_INTERVAL,
                 metrics_interval: int | None = None,
                 pipe_trace: PipeTrace | None = None,
                 validator: "Validator | None" = None,
                 fastpath: bool | None = None,
                 critpath: CritPathRecorder | None = None,
                 hotspots: HotspotRecorder | None = None) -> None:
        self.machine = machine
        self.cfg: CoreConfig = machine.core
        self.stats = Stats()
        if validator is None and _ENV_VALIDATE:
            from ..validate.invariants import InvariantChecker
            validator = InvariantChecker(strict=True)
        self._validate = validator
        self.metrics = IntervalMetrics(
            self.stats, ports=machine.mem.dcache.ports,
            interval=metrics_interval) if metrics_interval else None
        #: Every recorder slot, keyed by the reason it keeps a run off
        #: the fast loop, in the priority run/bench manifests record
        #: (also the order the probe calls its listeners in).
        self._attached = {"tracer attached": tracer,
                          "validator attached": validator,
                          "interval metrics attached": self.metrics,
                          "pipe trace attached": pipe_trace,
                          "critpath recorder attached": critpath,
                          "hotspots recorder attached": hotspots}
        listeners = [recorder for recorder in self._attached.values()
                     if recorder is not None]
        #: The one recorder slot (see repro.obs.probe).
        self.probe = Probe(listeners) if listeners else None
        self.mem = MemorySystem(machine.mem, stats=self.stats,
                                probe=self.probe)
        self.bpred = BranchPredictor(self.cfg.bpred, stats=self.stats)
        self.fu = FUPool(self.cfg.fu_specs, stats=self.stats)
        self.lsq = LoadStoreQueue(self.cfg, self.mem.dcache,
                                  stats=self.stats, probe=self.probe)
        # Stall attribution: one slot-conservation ledger per run.
        self.ledger = StallLedger(
            max(self.cfg.issue_width, self.cfg.commit_width),
            interval=stall_interval)
        # Pipeline state.
        self._fetch_queue: deque[Uop] = deque()
        self._rob: deque[Uop] = deque()
        self._iq: list[Uop] = []
        self._scoreboard: dict[int, Uop] = {}
        self._events_complete: dict[int, list[Uop]] = {}
        self._events_addr: dict[int, list[Uop]] = {}
        self._trace: Sequence[TraceRecord] | None = None
        self._trace_pos = 0
        self._cycle = 0
        self._fetch_blocked_until = 0
        self._waiting_branch: Uop | None = None
        self._waiting_serialize: Uop | None = None
        self._fetch_block_cause = StallCause.FETCH
        self._fetch_memo: tuple[int, int] | None = None
        self._committed = 0
        self._last_activity = 0
        self.load_latency = Histogram("load_latency")
        # Fast-path selection: None picks automatically at run() entry
        # (fast loop iff no instrumentation is attached), False forces
        # the instrumented reference loop, True demands the fast loop
        # and raises if any instrumentation would be silently dropped.
        self._fastpath = fastpath
        self.used_fastpath = False
        self.fastpath_reason: str | None = None
        self._watchdog_limit = watchdog_limit(machine)

    # ------------------------------------------------------------------
    def run(self, trace: Sequence[TraceRecord]) -> CoreResult:
        """Simulate the machine over *trace* (a :class:`Trace`, or a
        record list, which is encoded first); returns timing results.

        A core runs one trace: its caches, predictor, counters and
        ledger carry the run's end state, so a second call raises."""
        if self._trace is not None:
            raise ValueError("an OoOCore runs exactly one trace; build a "
                             "new core for another run")
        if not trace:
            raise ValueError("empty trace")
        self._trace = trace
        rejection = self._fastpath_rejection()
        if self._fastpath and rejection is not None:
            raise ValueError(f"fastpath=True requires no recorder "
                             f"({rejection})")
        use_fast = (rejection is None) if self._fastpath is None \
            else self._fastpath
        if not use_fast and rejection is None:
            rejection = "fastpath=False requested"
        self.used_fastpath = use_fast
        self.fastpath_reason = None if use_fast else rejection
        probe = self.probe
        if not use_fast:
            columns = as_trace(trace)
            if probe is not None:
                probe.run_begin(self, columns)
            self._read_columns(columns)
        if use_fast:
            cycle = run_fast(self, trace)
        else:
            cycle = self._run_loop()
        if probe is not None:
            probe.run_end(self, cycle, self._committed)
        self.stats.set("core.cycles", cycle)
        self.stats.set("core.committed", self._committed)
        for cause, slots in self.ledger.lost.items():
            if slots:
                self.stats.set(f"stall.{cause.value}", slots)
        return CoreResult(name=self.machine.name, cycles=cycle,
                          instructions=self._committed, stats=self.stats,
                          load_latency=self.load_latency,
                          ledger=self.ledger, metrics=self.metrics,
                          used_fastpath=self.used_fastpath,
                          fastpath_reason=self.fastpath_reason)

    def _read_columns(self, columns: Trace) -> None:
        """Point the reference loop at *columns*' lists, read by
        ``seq``."""
        lists = columns.lists()
        self._pcs = lists["pc"]
        self._next_pcs = lists["next_pc"]
        self._opclasses = lists["opclass"]
        self._flags = lists["flags"]
        self._dests = lists["dest"]
        self._srcs = lists["src"]
        self._nsrcs = lists["nsrc"]
        self._naddrs = lists["naddr"]
        self._addrs = lists["mem_addr"]
        self._sizes = lists["mem_size"]

    def _run_loop(self) -> int:
        """The reference per-cycle loop; returns the final cycle."""
        total = len(self._trace)
        probe = self.probe
        sampled = probe is not None and probe.listens("cycle_end")
        cycle = 0
        while self._trace_pos < total or self._rob or self._fetch_queue:
            self._cycle = cycle
            self.mem.begin_cycle(cycle)
            self.fu.begin_cycle(cycle)
            self._process_events(cycle)
            self._commit_stage(cycle)
            self.lsq.schedule(cycle, self._schedule_load_completion)
            self.mem.end_cycle()
            self._issue_stage(cycle)
            self._dispatch_stage(cycle)
            self._fetch_stage(cycle)
            if sampled:
                probe.cycle_end(cycle, self._sample())
            self._watchdog(cycle)
            cycle += 1
        return cycle

    def _sample(self) -> tuple[int, ...]:
        """This cycle's occupancy sample (``SAMPLE_FIELDS`` in
        :mod:`repro.obs.probe`)."""
        lsq = self.lsq
        dcache = self.mem.dcache
        return (self._committed, len(self._rob), len(self._iq),
                len(lsq.loads), len(lsq.stores), len(dcache.write_buffer),
                dcache.ports_used, dcache.mshrs_busy())

    def in_flight(self) -> dict[str, int]:
        """What the machine still holds: ROB, issue-queue and
        fetch-queue entries and scheduled events (all zero once a run
        drains)."""
        events = sum(map(len, self._events_complete.values())) \
            + sum(map(len, self._events_addr.values()))
        return {"rob": len(self._rob), "iq": len(self._iq),
                "fq": len(self._fetch_queue), "events": events}

    def _fastpath_rejection(self) -> str | None:
        """Why the fast loop cannot run, or ``None`` when it can.

        The fast loop fires no probe events; the returned reason is
        surfaced through :attr:`CoreResult.fastpath_reason` into
        run/bench manifests."""
        if self.probe is None:
            return None
        return next(reason for reason, recorder in self._attached.items()
                    if recorder is not None)

    def _watchdog(self, cycle: int) -> None:
        """The reference loop's zero-progress check."""
        if cycle - self._last_activity > self._watchdog_limit:
            raise SimError(self._deadlock_report(cycle))

    # ------------------------------------------------------------------
    # 1. events
    # ------------------------------------------------------------------
    def _process_events(self, cycle: int) -> None:
        for uop in self._events_addr.pop(cycle, ()):
            self._resolve_address(uop, cycle)
        for uop in self._events_complete.pop(cycle, ()):
            self._complete(uop, cycle)

    def _resolve_address(self, uop: Uop, cycle: int) -> None:
        seq = uop.seq
        self.lsq.resolve_address(uop, self._addrs[seq], self._sizes[seq])
        uop.addr_cycle = cycle
        if uop.is_store:
            self._maybe_complete_store(uop, cycle)

    def _maybe_complete_store(self, uop: Uop, cycle: int) -> None:
        if uop.addr_known and uop.data_waiting == 0 and not uop.completed:
            uop.completed = True
            uop.complete_cycle = max(cycle, uop.data_ready_cycle)

    def _schedule_load_completion(self, uop: Uop, ready: int) -> None:
        assert ready > self._cycle, "load data cannot be ready in the past"
        self.load_latency.record(ready - uop.addr_cycle)
        self._events_complete.setdefault(ready, []).append(uop)

    def _complete(self, uop: Uop, cycle: int) -> None:
        uop.completed = True
        uop.complete_cycle = cycle
        for consumer, is_data in uop.consumers:
            if is_data:
                consumer.data_waiting -= 1
                if cycle > consumer.data_ready_cycle:
                    consumer.data_ready_cycle = cycle
                self._maybe_complete_store(consumer, cycle)
            else:
                consumer.num_waiting -= 1
                if cycle > consumer.operands_ready:
                    consumer.operands_ready = cycle
        opclass = uop.opclass
        if opclass == _BRANCH:
            seq = uop.seq
            self.bpred.resolve_branch(self._pcs[seq],
                                      (self._flags[seq] & F_TAKEN) != 0,
                                      self._next_pcs[seq],
                                      uop.predicted_taken,
                                      not uop.mispredicted)
        elif opclass == _JUMP:
            seq = uop.seq
            self.bpred.resolve_jump(self._pcs[seq], self._next_pcs[seq],
                                    not uop.mispredicted)
        if uop is self._waiting_branch:
            self._waiting_branch = None
            self._redirect(cycle, "branch", uop,
                           cycle + self.cfg.bpred.mispredict_redirect)

    def _redirect(self, cycle: int, kind: str, uop: Uop,
                  resume: int) -> None:
        """Hold fetch until *resume* because of *uop*: a ``branch``
        resolved, a ``serialize`` instruction committed, or a
        ``decode``-stage jump redirect."""
        self._fetch_block_cause = StallCause.SERIALIZE \
            if kind == "serialize" else StallCause.BRANCH
        if resume > self._fetch_blocked_until:
            self._fetch_blocked_until = resume
        if self.probe is not None:
            self.probe.redirect(cycle, kind, uop.seq, resume)

    # ------------------------------------------------------------------
    # 2. commit
    # ------------------------------------------------------------------
    def _commit_stage(self, cycle: int) -> None:
        rob = self._rob
        dcache = self.mem.dcache
        probe = self.probe
        direct_stores = self.machine.mem.dcache.write_buffer_depth == 0
        commits = 0
        commit_block: str | None = None
        while rob and commits < self.cfg.commit_width:
            uop = rob[0]
            if not uop.completed or uop.complete_cycle > cycle:
                break
            if uop.is_store:
                if direct_stores:
                    if not dcache.store_access(uop.line, uop.seq).ok:
                        self.stats.inc("core.commit_store_port_stalls")
                        commit_block = "store_port"
                elif not dcache.buffer_store(uop.line, uop.byte_mask):
                    self.stats.inc("core.commit_wb_full_stalls")
                    commit_block = "wb_full"
                if commit_block is not None:
                    if probe is not None:
                        probe.commit_block(uop.seq, commit_block)
                    break
                self.lsq.retire_store(uop)
            elif uop.is_load:
                self.lsq.retire_load(uop)
            rob.popleft()
            commits += 1
            self._committed += 1
            if uop is self._waiting_serialize:
                self._waiting_serialize = None
                self._redirect(cycle, "serialize", uop, cycle + 1)
            if probe is not None:
                probe.commit(uop.seq, cycle, uop.times())
        if commits:
            self._last_activity = cycle
            self.stats.inc("core.commits", commits)
            if probe is not None:
                probe.commit_count(cycle, commits)
        self._attribute_cycle(cycle, commits, commit_block)

    # ------------------------------------------------------------------
    # Stall attribution (see repro.obs.stall for the model)
    # ------------------------------------------------------------------
    def _attribute_cycle(self, cycle: int, commits: int,
                         commit_block: str | None) -> None:
        """Charge this cycle's lost issue slots to one cause."""
        ledger = self.ledger
        if commits >= ledger.width:
            ledger.account(cycle, commits, StallCause.DRAIN)  # nothing lost
            return
        cause = self._classify_stall(cycle, commit_block)
        ledger.account(cycle, commits, cause)
        if self.probe is not None:
            # The head is the uop the classifier blamed (None: empty
            # window, the frontend's shortfall).
            self.probe.stall(cycle, cause, ledger.width - commits,
                             self._rob[0].seq if self._rob else NO_SEQ)

    def _classify_stall(self, cycle: int,
                        commit_block: str | None) -> StallCause:
        """Why the commit head (or the frontend) failed to fill the
        cycle.  Priority: explicit commit blocks, then the oldest
        in-flight uop's wait, then frontend state."""
        if commit_block == "wb_full":
            return StallCause.WRITE_BUFFER_FULL
        if commit_block == "store_port":
            return StallCause.DCACHE_PORT
        rob = self._rob
        if rob:
            head = rob[0]
            if head is self._waiting_branch:
                return StallCause.BRANCH
            if head is self._waiting_serialize:
                return StallCause.SERIALIZE
            if head.is_load and not head.completed:
                if head.mem_done:
                    # Data is on its way; where is it coming from?
                    source = head.mem_source
                    if source >= SRC_MISS:    # a miss or secondary miss
                        return StallCause.NEXT_LEVEL
                    if source == SRC_HIT:
                        # A port access that hit L1: latency a line
                        # buffer would have hidden.
                        return StallCause.LINE_BUFFER_MISS
                    return StallCause.EXEC  # forwarded / line-buffer read
                if head.addr_known:
                    block = head.lsq_block
                    if block >= BLK_NO_PORT:  # no port, bank, MSHR full
                        return StallCause.DCACHE_PORT
                    if block:                 # order, SQ or WB wait
                        return StallCause.MEM_ORDER
            return StallCause.EXEC
        # Empty window: the frontend owns the shortfall.
        if self._fetch_queue:
            return StallCause.FETCH      # uops decoding / queued
        if self._waiting_branch is not None:
            return StallCause.BRANCH
        if self._waiting_serialize is not None:
            return StallCause.SERIALIZE
        if self._trace_pos >= len(self._trace):
            return StallCause.DRAIN      # end-of-trace wind-down
        if cycle < self._fetch_blocked_until:
            return self._fetch_block_cause
        return StallCause.FETCH

    # ------------------------------------------------------------------
    # 4. issue
    # ------------------------------------------------------------------
    def _issue_stage(self, cycle: int) -> None:
        issued = 0
        width = self.cfg.issue_width
        keep: list[Uop] = []
        for uop in self._iq:
            if issued >= width or uop.num_waiting > 0 or \
                    uop.operands_ready > cycle:
                keep.append(uop)
                continue
            done_at = self.fu.try_issue(uop.opclass, cycle)
            if done_at is None:
                keep.append(uop)
                continue
            uop.issued = True
            uop.issue_cycle = cycle
            issued += 1
            if uop.is_load or uop.is_store:
                self._events_addr.setdefault(done_at, []).append(uop)
            else:
                self._events_complete.setdefault(done_at, []).append(uop)
        self._iq = keep
        if issued:
            self.stats.inc("core.issued", issued)

    # ------------------------------------------------------------------
    # 5. dispatch
    # ------------------------------------------------------------------
    def _dispatch_stage(self, cycle: int) -> None:
        fq = self._fetch_queue
        cfg = self.cfg
        dispatched = 0
        while fq and dispatched < cfg.dispatch_width:
            uop = fq[0]
            if uop.fetch_cycle + cfg.decode_latency > cycle:
                break
            if len(self._rob) >= cfg.rob_size:
                full = "rob"
            elif len(self._iq) >= cfg.iq_size:
                full = "iq"
            elif uop.is_load and self.lsq.lq_full:
                full = "lq"
            elif uop.is_store and self.lsq.sq_full:
                full = "sq"
            else:
                full = None
            if full is not None:
                self.stats.inc(f"core.dispatch_{full}_full")
                self.ledger.note_capacity(full)
                if self.probe is not None:
                    self.probe.dispatch_block(uop.seq, full)
                break
            fq.popleft()
            self._wire_dependences(uop)
            uop.dispatch_cycle = cycle
            self._rob.append(uop)
            self._iq.append(uop)
            if uop.is_load:
                self.lsq.add_load(uop)
            elif uop.is_store:
                self.lsq.add_store(uop)
            dispatched += 1
        if dispatched:
            self._last_activity = cycle
            self.stats.inc("core.dispatched", dispatched)

    def _wire_dependences(self, uop: Uop) -> None:
        """Wire *uop*'s operands to their producers in the scoreboard.
        A store's operands from its ``naddr``-th on feed the store data;
        with no persisted split (synthetic traces) the first operand is
        the address base and the rest are data."""
        seq = uop.seq
        first_data = MAX_SOURCES
        if uop.is_store:
            first_data = self._naddrs[seq]
            if first_data == NO_SPLIT:
                first_data = 1
        registers = self._srcs[seq]
        for position in range(self._nsrcs[seq]):
            self._add_dep(uop, registers[position], position >= first_data)
        dest = self._dests[seq]
        if dest != NO_DEST:
            self._scoreboard[dest] = uop

    def _add_dep(self, uop: Uop, reg: int, is_data: bool) -> None:
        producer = self._scoreboard.get(reg)
        if producer is None:
            return
        if producer.completed:
            when = producer.complete_cycle
            if is_data:
                if when > uop.data_ready_cycle:
                    uop.data_ready_cycle = when
            elif when > uop.operands_ready:
                uop.operands_ready = when
            return
        producer.consumers.append((uop, is_data))
        if self.probe is not None:
            self.probe.dep_wired(uop.seq, producer.seq, is_data)
        if is_data:
            uop.data_waiting += 1
        else:
            uop.num_waiting += 1

    # ------------------------------------------------------------------
    # 6. fetch
    # ------------------------------------------------------------------
    def _fetch_stage(self, cycle: int) -> None:
        if self._waiting_branch is not None:
            self.stats.inc("fetch.stall_branch_cycles")
            return
        if self._waiting_serialize is not None:
            self.stats.inc("fetch.stall_serialize_cycles")
            return
        if cycle < self._fetch_blocked_until:
            self.stats.inc("fetch.stall_redirect_cycles")
            return
        total = len(self._trace)
        if self._trace_pos >= total:
            return
        fq = self._fetch_queue
        cfg = self.cfg
        if len(fq) >= cfg.fetch_queue_size:
            self.stats.inc("fetch.stall_queue_cycles")
            return
        icache = self.mem.icache
        pcs = self._pcs
        first_pc = pcs[self._trace_pos]
        block = icache.block_of(first_pc)
        if self._fetch_memo is not None and self._fetch_memo[0] == block:
            ready = self._fetch_memo[1]
        else:
            ready = icache.fetch(first_pc, cycle)
            self._fetch_memo = (block, ready)
        if ready > cycle:
            self._fetch_blocked_until = ready
            self._fetch_block_cause = StallCause.FETCH
            self.stats.inc("fetch.icache_stall_cycles", ready - cycle)
            return
        fetched = 0
        while (self._trace_pos < total and fetched < cfg.fetch_width
               and len(fq) < cfg.fetch_queue_size):
            seq = self._trace_pos
            pc = pcs[seq]
            if icache.block_of(pc) != block:
                break
            flags = self._flags[seq]
            opclass = self._opclasses[seq]
            uop = Uop(seq, opclass, (flags & F_LOAD) != 0,
                      (flags & F_STORE) != 0)
            uop.fetch_cycle = cycle
            fq.append(uop)
            fetched += 1
            self._trace_pos += 1
            if flags & F_CONTROL:
                if self._handle_control_fetch(uop, cycle):
                    break
            elif self._next_pcs[seq] != pc + 4 or \
                    opclass == _SYSTEM and flags & F_SERIALIZES:
                # A non-branch redirect: trap, interrupt or eret.  The
                # pipeline flushes; fetch resumes after the instruction
                # commits.
                uop.serialize = True
                self._waiting_serialize = uop
                self.stats.inc("fetch.serialize_redirects")
                break
        if fetched:
            self._last_activity = cycle
            self.stats.inc("fetch.fetched", fetched)

    def _handle_control_fetch(self, uop: Uop, cycle: int) -> bool:
        """Predict a control transfer at fetch; returns True to stop
        fetching this cycle."""
        seq = uop.seq
        pc = self._pcs[seq]
        next_pc = self._next_pcs[seq]
        cfg = self.cfg.bpred
        if uop.opclass == _BRANCH:
            taken = (self._flags[seq] & F_TAKEN) != 0
            predicted_taken, predicted_target = self.bpred.predict_branch(pc)
            uop.predicted_taken = predicted_taken
            correct = predicted_taken == taken and (
                not taken or predicted_target == next_pc)
            if not correct:
                uop.mispredicted = True
                self._waiting_branch = uop
                if self.probe is not None:
                    self.probe.mispredict(cycle, pc, seq)
                return True
            return taken  # a taken branch ends the fetch block
        # Unconditional transfers.
        predicted_target = self.bpred.predict_jump(pc)
        if predicted_target == next_pc:
            return True  # correctly predicted taken: block ends
        if self._flags[seq] & F_REDIRECT:
            # Target is in the instruction word (J/JAL): redirect at
            # decode (fetch runs only unblocked, so this moves the block
            # later).
            self.stats.inc("fetch.jump_decode_redirects")
            self._redirect(cycle, "decode", uop,
                           cycle + 1 + cfg.btb_miss_redirect)
            return True
        # Register-indirect target: wait for execute.
        uop.mispredicted = True
        self._waiting_branch = uop
        return True

    # ------------------------------------------------------------------
    def _deadlock_report(self, cycle: int) -> str:
        head = self._rob[0] if self._rob else None
        return (f"timing core made no progress for "
                f"{self._watchdog_limit} cycles "
                f"(cycle={cycle}, committed={self._committed}, "
                f"rob={len(self._rob)}, iq={len(self._iq)}, "
                f"fq={len(self._fetch_queue)}, head={head!r})")


def simulate(trace: Sequence[TraceRecord],
             machine: MachineConfig,
             tracer: Tracer | None = None,
             metrics_interval: int | None = None,
             pipe_trace: PipeTrace | None = None,
             validator: "Validator | None" = None,
             fastpath: bool | None = None,
             critpath: CritPathRecorder | None = None,
             hotspots: HotspotRecorder | None = None) -> CoreResult:
    """Convenience: run *trace* through a fresh machine instance."""
    return OoOCore(machine, tracer=tracer,
                   metrics_interval=metrics_interval,
                   pipe_trace=pipe_trace, validator=validator,
                   fastpath=fastpath, critpath=critpath,
                   hotspots=hotspots).run(trace)

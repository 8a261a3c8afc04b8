r"""Microarchitectural invariant checking for the timing core.

The catalogue (documented in ``docs/VALIDATION.md``):

* **rob.order / rob.incomplete / rob.premature** — the ROB retires in
  strict program order, and only uops whose completion cycle has passed.
* **lsq.load_order / lsq.store_order** — the load and store queues stay
  age-ordered (they are filled at dispatch, in program order).
* **lsq.forward.\*** — forwarding legality: a load serviced from the
  store queue must have an older, address-known, data-ready store fully
  covering its bytes; a write-buffer forward must be covered by a
  buffered entry; a line-buffer service requires the line resident with
  no fill in flight.
* **lsq.ready_past** — load data can never be ready in the past.
* **dcache.ports / dcache.mshrs** — per-cycle port issue and in-flight
  fills never exceed the configured counts.
* **wb.occupancy / lb.occupancy / victim.occupancy / rob.occupancy /
  iq.occupancy / lq.occupancy / sq.occupancy** — structure occupancy
  never exceeds capacity.
* **drain.\*** — at end of run the LSQ, ROB, fetch queue and event
  queues are empty, every trace record committed, and no MSHR leaked.

The per-cycle checks test the occupancy sample ``cycle_end`` carries
against every capacity in one comparison, and take the reporting path
only when one is exceeded.
"""

from __future__ import annotations

from operator import gt
from typing import TYPE_CHECKING

from ..obs.probe import SRC_LB, SRC_SQ, SRC_WB
from ..trace.io import Trace
from .base import MAX_VIOLATIONS, Validator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.pipeline import OoOCore


class InvariantChecker(Validator):
    """Checks the structural invariants above on every hook."""

    def __init__(self, strict: bool = False,
                 max_violations: int = MAX_VIOLATIONS) -> None:
        super().__init__(strict=strict, max_violations=max_violations)
        self._last_seq: int | None = None

    def run_begin(self, core: "OoOCore", trace: Trace) -> None:
        super().run_begin(core, trace)
        cfg = core.cfg
        self._lsq = core.lsq
        self._dcache = dcache = core.mem.dcache
        dconf = dcache.config
        #: Capacity of each sample field (committed is unbounded).
        self._caps = (float("inf"), cfg.rob_size, cfg.iq_size,
                      cfg.lq_size, cfg.sq_size, dconf.write_buffer_depth,
                      dconf.ports, dconf.mshrs)
        #: Buffers outside the sample: (name, buffer, capacity).
        self._buffers = [(name, buffer, buffer.entries) for name, buffer
                         in (("lb", dcache.line_buffer),
                             ("victim", dcache.victim_cache))
                         if buffer is not None]
        lists = trace.lists()
        self._pcs = lists["pc"]
        self._addrs = lists["mem_addr"]
        self._sizes = lists["mem_size"]
        self._records = len(trace)

    # ------------------------------------------------------------------
    def commit(self, seq: int, cycle: int, times: tuple) -> None:
        if self._last_seq is not None and seq <= self._last_seq:
            self.report(cycle, "rob.order",
                        f"committed seq {seq} after seq "
                        f"{self._last_seq} (pc={self._pcs[seq]:#x})")
        self._last_seq = seq
        complete = times[-1]
        if complete < 0:
            self.report(cycle, "rob.incomplete",
                        f"seq {seq} (pc={self._pcs[seq]:#x}) committed "
                        f"without completing")
        elif complete > cycle:
            self.report(cycle, "rob.premature",
                        f"seq {seq} committed at cycle {cycle} but "
                        f"completes at {complete}")

    # ------------------------------------------------------------------
    def load_serviced(self, cycle: int, seq: int, line: int, source: int,
                      block: int, ready: int) -> None:
        if ready <= cycle:
            self.report(cycle, "lsq.ready_past",
                        f"load seq {seq} data ready at {ready} "
                        f"<= current cycle")
        if source == SRC_SQ:
            mask = self._byte_mask(seq)
            if not self._sq_forward_legal(seq, line, mask):
                self.report(cycle, "lsq.forward.sq",
                            f"load seq {seq} line {line} "
                            f"mask {mask:#x} forwarded with no "
                            f"covering older data-ready store")
        elif source == SRC_WB:
            mask = self._byte_mask(seq)
            if not self._dcache.write_buffer.covers(line, mask):
                self.report(cycle, "lsq.forward.wb",
                            f"load seq {seq} line {line} "
                            f"mask {mask:#x} forwarded from an "
                            f"uncovering write buffer")
        elif source == SRC_LB:
            dcache = self._dcache
            if dcache.line_buffer is None or \
                    not dcache.line_buffer.contains(line):
                self.report(cycle, "lsq.forward.lb",
                            f"load seq {seq} serviced by the line "
                            f"buffer but line {line} is not resident")
            elif dcache.fill_pending(line):
                self.report(cycle, "lsq.forward.lb",
                            f"load seq {seq} read line {line} "
                            f"from the line buffer while its fill is "
                            f"still in flight")

    def _byte_mask(self, seq: int) -> int:
        """Load *seq*'s byte mask within its line, from the trace."""
        offset = self._addrs[seq] & (self._dcache.line_size - 1)
        return ((1 << self._sizes[seq]) - 1) << offset

    def _sq_forward_legal(self, seq: int, line: int, mask: int) -> bool:
        for store in self._lsq.stores:
            if store.seq >= seq or not store.addr_known:
                continue
            if store.line != line or store.data_waiting:
                continue
            if store.byte_mask & mask == mask:
                return True
        return False

    # ------------------------------------------------------------------
    def cycle_end(self, cycle: int, sample: tuple[int, ...]) -> None:
        over = any(map(gt, sample, self._caps))
        for _, buffer, capacity in self._buffers:
            if len(buffer) > capacity:
                over = True
        if over:
            self._report_capacity(cycle, sample)
        lsq = self._lsq
        for check, queue in (("lsq.load_order", lsq.loads),
                             ("lsq.store_order", lsq.stores)):
            previous = -1
            for uop in queue:
                if uop.seq <= previous:
                    self.report(cycle, check, f"seq {uop.seq} queued "
                                              f"behind seq {previous}")
                    break
                previous = uop.seq

    def _report_capacity(self, cycle: int, sample: tuple[int, ...]) -> None:
        _, rob, iq, lq, sq, wb, ports, mshrs = sample
        _, rob_size, iq_size, lq_size, sq_size, wb_depth, n_ports, \
            n_mshrs = self._caps
        if ports > n_ports:
            self.report(cycle, "dcache.ports",
                        f"{ports} port issues with {n_ports} ports")
        if mshrs > n_mshrs:
            self.report(cycle, "dcache.mshrs",
                        f"{mshrs} fills in flight with {n_mshrs} MSHRs")
        self._check_occupancy(cycle, "wb", wb, wb_depth)
        for name, buffer, capacity in self._buffers:
            self._check_occupancy(cycle, name, len(buffer), capacity)
        self._check_occupancy(cycle, "rob", rob, rob_size)
        self._check_occupancy(cycle, "iq", iq, iq_size)
        self._check_occupancy(cycle, "lq", lq, lq_size)
        self._check_occupancy(cycle, "sq", sq, sq_size)

    def _check_occupancy(self, cycle: int, name: str, occupancy: int,
                         capacity: int) -> None:
        if occupancy > capacity:
            self.report(cycle, f"{name}.occupancy",
                        f"{occupancy} entries in a {capacity}-entry "
                        f"structure")

    # ------------------------------------------------------------------
    def run_end(self, core: "OoOCore", cycle: int,
                instructions: int) -> None:
        lsq = self._lsq
        if lsq.loads or lsq.stores:
            self.report(cycle, "drain.lsq",
                        f"{len(lsq.loads)} loads / {len(lsq.stores)} "
                        f"stores leaked in the LSQ")
        held = core.in_flight()
        if held["rob"] or held["fq"] or held["iq"]:
            self.report(cycle, "drain.core",
                        f"rob={held['rob']} iq={held['iq']} "
                        f"fq={held['fq']} not empty at drain")
        if held["events"]:
            self.report(cycle, "drain.events",
                        f"{held['events']} scheduled events never fired")
        dcache = self._dcache
        if dcache.mshrs_busy() > dcache.config.mshrs:
            self.report(cycle, "drain.mshrs",
                        f"{dcache.mshrs_busy()} fills in flight at drain "
                        f"with {dcache.config.mshrs} MSHRs")
        if instructions != self._records:
            self.report(cycle, "drain.commit_count",
                        f"committed {instructions} of "
                        f"{self._records} trace records")

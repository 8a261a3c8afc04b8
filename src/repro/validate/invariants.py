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
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .base import MAX_VIOLATIONS, Validator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.lsq import LoadStoreQueue
    from ..core.pipeline import OoOCore
    from ..core.uop import Uop


class InvariantChecker(Validator):
    """Checks the structural invariants above on every hook."""

    def __init__(self, strict: bool = False,
                 max_violations: int = MAX_VIOLATIONS) -> None:
        super().__init__(strict=strict, max_violations=max_violations)
        self._last_seq: int | None = None

    # ------------------------------------------------------------------
    def commit(self, uop: "Uop", cycle: int) -> None:
        if self._last_seq is not None and uop.seq <= self._last_seq:
            self.report(cycle, "rob.order",
                        f"committed seq {uop.seq} after seq "
                        f"{self._last_seq} (pc={uop.record.pc:#x})")
        self._last_seq = uop.seq
        if not uop.completed:
            self.report(cycle, "rob.incomplete",
                        f"seq {uop.seq} (pc={uop.record.pc:#x}) committed "
                        f"without completing")
        elif uop.complete_cycle > cycle:
            self.report(cycle, "rob.premature",
                        f"seq {uop.seq} committed at cycle {cycle} but "
                        f"completes at {uop.complete_cycle}")

    # ------------------------------------------------------------------
    def load_serviced(self, lsq: "LoadStoreQueue", load: "Uop",
                      ready: int, source: str, cycle: int) -> None:
        if ready <= cycle:
            self.report(cycle, "lsq.ready_past",
                        f"load seq {load.seq} data ready at {ready} "
                        f"<= current cycle")
        if source == "sq":
            if not self._sq_forward_legal(lsq, load):
                self.report(cycle, "lsq.forward.sq",
                            f"load seq {load.seq} line {load.line} "
                            f"mask {load.byte_mask:#x} forwarded with no "
                            f"covering older data-ready store")
        elif source == "wb":
            if not lsq.dcache.write_buffer.covers(load.line,
                                                  load.byte_mask):
                self.report(cycle, "lsq.forward.wb",
                            f"load seq {load.seq} line {load.line} "
                            f"mask {load.byte_mask:#x} forwarded from an "
                            f"uncovering write buffer")
        elif source == "lb":
            dcache = lsq.dcache
            if dcache.line_buffer is None or \
                    not dcache.line_buffer.contains(load.line):
                self.report(cycle, "lsq.forward.lb",
                            f"load seq {load.seq} serviced by the line "
                            f"buffer but line {load.line} is not resident")
            elif dcache.fill_pending(load.line):
                self.report(cycle, "lsq.forward.lb",
                            f"load seq {load.seq} read line {load.line} "
                            f"from the line buffer while its fill is "
                            f"still in flight")

    @staticmethod
    def _sq_forward_legal(lsq: "LoadStoreQueue", load: "Uop") -> bool:
        for store in lsq.stores:
            if store.seq >= load.seq or not store.addr_known:
                continue
            if store.line != load.line or store.data_waiting:
                continue
            if store.byte_mask & load.byte_mask == load.byte_mask:
                return True
        return False

    # ------------------------------------------------------------------
    def cycle_end(self, core: "OoOCore", cycle: int) -> None:
        cfg = core.cfg
        dcache = core.mem.dcache
        dconf = dcache.config
        if dcache.ports_used > dconf.ports:
            self.report(cycle, "dcache.ports",
                        f"{dcache.ports_used} port issues with "
                        f"{dconf.ports} ports")
        if dcache.mshrs_busy() > dconf.mshrs:
            self.report(cycle, "dcache.mshrs",
                        f"{dcache.mshrs_busy()} fills in flight with "
                        f"{dconf.mshrs} MSHRs")
        self._check_occupancy(cycle, "wb", len(dcache.write_buffer),
                              dconf.write_buffer_depth)
        if dcache.line_buffer is not None:
            self._check_occupancy(cycle, "lb", len(dcache.line_buffer),
                                  dcache.line_buffer.entries)
        if dcache.victim_cache is not None:
            self._check_occupancy(cycle, "victim",
                                  len(dcache.victim_cache),
                                  dcache.victim_cache.entries)
        self._check_occupancy(cycle, "rob", len(core._rob), cfg.rob_size)
        self._check_occupancy(cycle, "iq", len(core._iq), cfg.iq_size)
        self._check_occupancy(cycle, "lq", len(core.lsq.loads),
                              cfg.lq_size)
        self._check_occupancy(cycle, "sq", len(core.lsq.stores),
                              cfg.sq_size)
        self._check_age_order(cycle, "lsq.load_order", core.lsq.loads)
        self._check_age_order(cycle, "lsq.store_order", core.lsq.stores)

    def _check_occupancy(self, cycle: int, name: str, occupancy: int,
                         capacity: int) -> None:
        if occupancy > capacity:
            self.report(cycle, f"{name}.occupancy",
                        f"{occupancy} entries in a {capacity}-entry "
                        f"structure")

    def _check_age_order(self, cycle: int, check: str,
                         queue: list["Uop"]) -> None:
        previous = -1
        for uop in queue:
            if uop.seq <= previous:
                self.report(cycle, check,
                            f"seq {uop.seq} queued behind seq {previous}")
                return
            previous = uop.seq

    # ------------------------------------------------------------------
    def run_end(self, core: "OoOCore", cycle: int,
                instructions: int) -> None:
        lsq = core.lsq
        if lsq.loads or lsq.stores:
            self.report(cycle, "drain.lsq",
                        f"{len(lsq.loads)} loads / {len(lsq.stores)} "
                        f"stores leaked in the LSQ")
        if core._rob or core._fetch_queue or core._iq:
            self.report(cycle, "drain.core",
                        f"rob={len(core._rob)} iq={len(core._iq)} "
                        f"fq={len(core._fetch_queue)} not empty at drain")
        pending = sum(len(uops) for uops in core._events_complete.values())
        pending += sum(len(uops) for uops in core._events_addr.values())
        if pending:
            self.report(cycle, "drain.events",
                        f"{pending} scheduled events never fired")
        dcache = core.mem.dcache
        if dcache.mshrs_busy() > dcache.config.mshrs:
            self.report(cycle, "drain.mshrs",
                        f"{dcache.mshrs_busy()} fills in flight at drain "
                        f"with {dcache.config.mshrs} MSHRs")
        if core._committed != len(core._trace):
            self.report(cycle, "drain.commit_count",
                        f"committed {core._committed} of "
                        f"{len(core._trace)} trace records")

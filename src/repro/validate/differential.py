"""The fast-path differential: the fast cycle loop against the reference.

:func:`repro.core.fastpath.run_fast` must leave a byte-identical
:class:`~repro.core.pipeline.CoreResult` to the instrumented reference
loop.  :func:`differential_views` runs one trace through both loops on
identical machines and returns what each exposes, as :func:`result_view`
flattens it; :func:`fastpath_divergence` names the fields where they
differ.  The fast-path tests, ``repro corpus verify`` and ``repro fuzz``
all compare through these; the last two hand
:func:`fastpath_divergence` the reference-loop run they made with the
invariant checker attached, so each (trace, config) runs the reference
loop once.
"""

from __future__ import annotations

from typing import Sequence

from ..core import pipeline
from ..core.config import MachineConfig
from ..core.pipeline import OoOCore
from ..obs.compare import compare_documents
from ..presets import machine


def result_view(result) -> dict:
    """Everything :class:`CoreResult` exposes, flattened to comparable
    plain values: the byte-identity contract of the differential."""
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "stats": result.stats.as_dict(),
        "ledger": result.ledger.as_dict(),
        "load_latency": result.load_latency.as_dict(),
    }


def differential_views(config: str | MachineConfig,
                       trace: Sequence) -> tuple[dict, dict]:
    """Run *trace* through the reference loop and the fast loop on
    identical machines (a preset name or a machine); returns both
    :func:`result_view` dicts, reference first.

    The implicit ``REPRO_VALIDATE`` checker would keep both cores on
    the reference loop, so it is off for the pair and restored after;
    ``fastpath=True`` raises rather than fall back to the reference.
    """
    if isinstance(config, str):
        config = machine(config)
    return (result_view(_bare_run(config, trace, fastpath=False)),
            result_view(_bare_run(config, trace, fastpath=True)))


def _bare_run(config: MachineConfig, trace: Sequence, fastpath: bool):
    saved = pipeline._ENV_VALIDATE
    pipeline._ENV_VALIDATE = False
    try:
        return OoOCore(config, fastpath=fastpath).run(trace)
    finally:
        pipeline._ENV_VALIDATE = saved


def fastpath_divergence(config: str | MachineConfig,
                        trace: Sequence,
                        checked=None) -> str | None:
    """:func:`differential_views` of *trace* on *config*, as a failure
    detail naming the first differing fields, or None when the fast
    loop matches the reference.

    *checked*, the :class:`CoreResult` of a reference-loop run of the
    same trace on the same machine with only checkers attached, stands
    in for the bare reference run: checkers observe and change nothing,
    so its view equals a bare run's.
    """
    if isinstance(config, str):
        config = machine(config)
    if checked is None:
        views = differential_views(config, trace)
    else:
        if checked.used_fastpath:
            raise ValueError("the checked run must be a reference-loop "
                             "run")
        views = (result_view(checked),
                 result_view(_bare_run(config, trace, fastpath=True)))
    fields = [delta["path"] for delta in
              compare_documents(*views, ignore=frozenset())["deltas"]]
    if not fields:
        return None
    more = f" and {len(fields) - 5} more" if len(fields) > 5 else ""
    return (f"fast loop diverges from the reference loop in "
            f"{', '.join(fields[:5])}{more}")


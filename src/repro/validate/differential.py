"""The fast-path differential: the fast cycle loop against the reference.

:func:`repro.core.fastpath.run_fast` must leave a byte-identical
:class:`~repro.core.pipeline.CoreResult` to the instrumented reference
loop.  :func:`differential_views` runs one trace through both loops on
identical machines and returns what each exposes, as :func:`result_view`
flattens it; :func:`fastpath_divergence` names the fields where they
differ.  The fast-path tests, ``repro corpus verify`` and ``repro fuzz``
all compare through these.
"""

from __future__ import annotations

from typing import Sequence

from ..core import pipeline
from ..core.config import MachineConfig
from ..core.pipeline import OoOCore
from ..presets import machine

_MISSING = object()


def result_view(result) -> dict:
    """Everything :class:`CoreResult` exposes, flattened to comparable
    plain values: the byte-identity contract of the differential."""
    return {
        "cycles": result.cycles,
        "instructions": result.instructions,
        "stats": result.stats.as_dict(),
        "ledger": result.ledger.as_dict(),
        "load_latency": result.load_latency.as_dict(),
        "digests": result.digests,
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
    saved = pipeline._ENV_VALIDATE
    pipeline._ENV_VALIDATE = False
    try:
        reference = OoOCore(config, fastpath=False).run(trace)
        fast = OoOCore(config, fastpath=True).run(trace)
    finally:
        pipeline._ENV_VALIDATE = saved
    return result_view(reference), result_view(fast)


def fastpath_divergence(config: str | MachineConfig,
                        trace: Sequence) -> str | None:
    """:func:`differential_views` of *trace* on *config*, as a failure
    detail naming the first differing fields, or None when the fast
    loop matches the reference."""
    fields = _diverging_fields(*differential_views(config, trace))
    if not fields:
        return None
    more = f" and {len(fields) - 5} more" if len(fields) > 5 else ""
    return (f"fast loop diverges from the reference loop in "
            f"{', '.join(fields[:5])}{more}")


def _diverging_fields(reference: dict, fast: dict) -> list[str]:
    """The dotted paths of the view entries that differ, in sorted key
    order (``cycles``, ``stats.core.issued``, ``ledger.lost.fetch``);
    an entry one side lacks differs."""
    fields: list[str] = []

    def walk(path: str, left: object, right: object) -> None:
        if isinstance(left, dict) and isinstance(right, dict):
            for key in sorted(left.keys() | right.keys(), key=str):
                walk(f"{path}.{key}" if path else str(key),
                     left.get(key, _MISSING), right.get(key, _MISSING))
        elif left != right:
            fields.append(path)

    walk("", reference, fast)
    return fields

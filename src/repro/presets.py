"""The paper's machine configurations.

Six D-cache port configurations over one fixed 4-issue dynamic
superscalar core (see ``DESIGN.md``).  The naming follows the paper's
experiment matrix:

========================  ====================================================
``1P``                    single 64-bit port, plain write buffer (baseline)
``1P+LB``                 + line buffer ("load all" extra buffering)
``1P-wide``               single 128-bit port with LSQ access combining
``1P-wide+LB``            wide port and line buffer together
``1P-wide+LB+SC``         + store combining (all techniques; the headline)
``2P``                    true dual-ported 64-bit cache (expensive reference)
``2P+SC``                 dual-ported + store combining (strong reference)
========================  ====================================================
"""

from __future__ import annotations

from dataclasses import replace

from .core.config import CoreConfig, MachineConfig
from .mem.config import (
    CacheGeometry,
    DCacheConfig,
    ICacheConfig,
    MemSystemConfig,
    NextLevelConfig,
)

#: Narrow (64-bit) and wide (128-bit) port widths, in bytes.
NARROW_PORT = 8
WIDE_PORT = 16

#: Canonical configuration names, in presentation order.
CONFIG_NAMES = ("1P", "1P+LB", "1P-wide", "1P-wide+LB", "1P-wide+LB+SC",
                "2P", "2P+SC")

#: The configuration the paper's 91% headline refers to.
BEST_SINGLE_PORT = "1P-wide+LB+SC"
DUAL_PORT = "2P"
#: Dual port with the same coalescing write buffer as the techniques
#: config — the conservative reference point.
STRONG_DUAL_PORT = "2P+SC"


def default_core(issue_width: int = 4) -> CoreConfig:
    """The fixed 4-issue core used across configurations."""
    width = issue_width
    return CoreConfig(
        fetch_width=width,
        dispatch_width=width,
        issue_width=width,
        commit_width=width,
        rob_size=16 * width,
        iq_size=8 * width,
        lq_size=4 * width,
        sq_size=4 * width,
    )


def _dcache(ports: int, port_width: int, line_buffer: bool,
            combine_loads: bool, combine_stores: bool,
            write_buffer_depth: int = 8,
            line_buffer_entries: int = 1) -> DCacheConfig:
    return DCacheConfig(
        geometry=CacheGeometry(size=32 * 1024, line_size=32, assoc=2),
        ports=ports,
        port_width=port_width,
        combine_loads=combine_loads,
        line_buffer_entries=line_buffer_entries if line_buffer else 0,
        write_buffer_depth=write_buffer_depth,
        combine_stores=combine_stores,
    )


_DCACHE_RECIPES: dict[str, DCacheConfig] = {
    "1P": _dcache(1, NARROW_PORT, line_buffer=False, combine_loads=False,
                  combine_stores=False),
    "1P+LB": _dcache(1, NARROW_PORT, line_buffer=True, combine_loads=False,
                     combine_stores=False),
    "1P-wide": _dcache(1, WIDE_PORT, line_buffer=False, combine_loads=True,
                       combine_stores=False),
    "1P-wide+LB": _dcache(1, WIDE_PORT, line_buffer=True, combine_loads=True,
                          combine_stores=False),
    "1P-wide+LB+SC": _dcache(1, WIDE_PORT, line_buffer=True,
                             combine_loads=True, combine_stores=True),
    "2P": _dcache(2, NARROW_PORT, line_buffer=False, combine_loads=False,
                  combine_stores=False),
    "2P+SC": _dcache(2, NARROW_PORT, line_buffer=False, combine_loads=False,
                     combine_stores=True),
}

# Extended (beyond the paper's matrix): line-interleaved banking, the
# era's other cheap pseudo-dual-porting alternative.  Two address paths
# into N single-ported banks; same-bank pairs conflict.
_DCACHE_RECIPES["2R-2B"] = replace(
    _DCACHE_RECIPES["2P"], ports=2, banks=2)
_DCACHE_RECIPES["2R-4B"] = replace(
    _DCACHE_RECIPES["2P"], ports=2, banks=4)
_DCACHE_RECIPES["2R-8B"] = replace(
    _DCACHE_RECIPES["2P"], ports=2, banks=8)

#: Extra configurations used by the banking ablation (A4).
EXTENDED_CONFIG_NAMES = ("2R-2B", "2R-4B", "2R-8B")


def mem_system(config_name: str) -> MemSystemConfig:
    """Memory system for one named port configuration."""
    try:
        dcache = _DCACHE_RECIPES[config_name]
    except KeyError:
        raise ValueError(
            f"unknown configuration {config_name!r}; "
            f"choose from {CONFIG_NAMES}") from None
    return MemSystemConfig(
        dcache=dcache,
        icache=ICacheConfig(
            geometry=CacheGeometry(size=32 * 1024, line_size=32, assoc=2),
            fetch_bytes=16),
        next_level=NextLevelConfig(),
    )


def machine(config_name: str, issue_width: int = 4,
            **dcache_overrides: object) -> MachineConfig:
    """Build a complete machine for one named port configuration.

    ``dcache_overrides`` are applied with :func:`dataclasses.replace` on
    the D-cache config — handy for sweeps (write buffer depth, line
    buffer entries, MSHRs, ...).
    """
    mem = mem_system(config_name)
    if dcache_overrides:
        mem = replace(mem, dcache=replace(mem.dcache, **dcache_overrides))
    return MachineConfig(name=config_name, core=default_core(issue_width),
                         mem=mem)


def paper_machines(issue_width: int = 4) -> dict[str, MachineConfig]:
    """All six configurations, keyed by name, in presentation order."""
    return {name: machine(name, issue_width) for name in CONFIG_NAMES}

"""The machine's settable surface, pinned.

Every field below is turned by an experiment, a preset, a CLI flag or a
test corner; values nothing turns are constants (``repro.core.bpred``,
``repro.mem.config``).  A change that adds a setting updates this list
and names, in CHANGES.md, what turns it -- as ``stage_table_pins.json``
does for the fast loop's bytecodes.
"""

import dataclasses
import inspect

from repro.core.config import CoreConfig, FUSpec, MachineConfig
from repro.core.pipeline import OoOCore
from repro.mem.config import (CacheGeometry, DCacheConfig, ICacheConfig,
                              MemSystemConfig, NextLevelConfig)

SURFACE = {
    CoreConfig: ("fetch_width", "dispatch_width", "issue_width",
                 "commit_width", "rob_size", "iq_size", "lq_size",
                 "sq_size", "fetch_queue_size", "max_combine", "fu_specs",
                 "predictor"),
    FUSpec: ("count", "latency", "pipelined"),
    DCacheConfig: ("geometry", "ports", "port_width", "mshrs",
                   "combine_loads", "line_buffer_entries",
                   "line_buffer_fill", "write_buffer_depth",
                   "combine_stores", "banks", "prefetch_next_line",
                   "victim_entries"),
    ICacheConfig: ("geometry", "fetch_bytes"),
    NextLevelConfig: ("geometry", "hit_latency", "memory_latency",
                      "occupancy"),
    CacheGeometry: ("size", "line_size", "assoc"),
    MemSystemConfig: ("dcache", "icache", "next_level"),
    MachineConfig: ("name", "core", "mem"),
}

CORE_PARAMETERS = ("machine", "tracer", "metrics_interval", "pipe_trace",
                   "validator", "fastpath", "critpath", "hotspots")


def test_config_fields_are_pinned():
    for config, expected in SURFACE.items():
        fields = tuple(field.name for field in dataclasses.fields(config))
        assert fields == expected, config.__name__


def test_core_parameters_are_pinned():
    parameters = tuple(inspect.signature(OoOCore.__init__).parameters)
    assert parameters == ("self", *CORE_PARAMETERS)


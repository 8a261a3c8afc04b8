"""Dynamic instruction traces: records, generators, serialisation."""

from .io import Trace, load_trace, save_trace, save_trace_atomic
from .record import TraceRecord
from .synthetic import DATA_BASE, TEXT_BASE, SyntheticConfig, generate

__all__ = [
    "Trace",
    "load_trace",
    "save_trace",
    "save_trace_atomic",
    "TraceRecord",
    "DATA_BASE",
    "TEXT_BASE",
    "SyntheticConfig",
    "generate",
]

"""Cycle-level observability: stall attribution, event tracing, reports.

The layers below are optional from the timing core's point of view:

* :mod:`repro.obs.stall` — a per-cycle **stall-attribution ledger**.
  Every cycle the core commits fewer uops than the machine width, the
  lost issue slots are charged to exactly one cause (fetch, branch,
  cache port, next-level latency, ...), so the ledger is *conservative*:
  attributed lost slots + committed uops == cycles × width.
* :mod:`repro.obs.probe` — the **probe**: one event vocabulary and one
  ``probe`` slot in the core, LSQ, D-cache and buffers, ``None`` unless
  a recorder listens, so every hook site is one ``is not None`` check;
  a :class:`Probe` fans each event out to the recorders defining it.
* :mod:`repro.obs.tracer` — an opt-in **structured event tracer**, a
  probe recorder: :class:`JsonlTracer` streams one JSON object per
  event (optionally gzipped).
* :mod:`repro.obs.report` — versioned **machine-readable run reports**
  combining configuration, counters, the stall ledger and host
  throughput, for ``repro simulate --json`` / ``repro experiment
  --json`` and the benchmark harness.
* :mod:`repro.obs.metrics` — opt-in **interval time-series telemetry**
  (IPC, port utilisation, buffer hit rates, occupancy histograms per
  sampling interval) whose interval sums are conservation-checked
  against the end-of-run counters.
* :mod:`repro.obs.pipetrace` — per-instruction **pipeline-trace export**
  in the Konata/Kanata text format, with a matching parser.
* :mod:`repro.obs.compare` — **differential run comparison**: a
  deterministic deep diff of two report documents with a relative
  tolerance, behind ``repro compare``.
* :mod:`repro.obs.selfprof` — **simulator self-profiling**: host
  wall-clock attributed to pipeline stage groups per interval.
* :mod:`repro.obs.spans` — **host-time span tracing**: nested
  begin/end spans over the simulator's own wall-clock, exported in the
  Chrome Trace Event Format for Perfetto, with per-worker tracks that
  merge into one fleet timeline.
* :mod:`repro.obs.ledger` — the **persistent results ledger**: a
  dependency-free SQLite store that ingests every ``repro.*/1``
  manifest, normalized and keyed by ``(trace_digest, config_digest,
  code_version)``, with idempotent ingest and longitudinal queries.
* :mod:`repro.obs.dash` — ``repro dash``: a **self-contained static
  HTML dashboard** (inline CSS/SVG, no external deps) over the ledger.
* :mod:`repro.obs.watch` — ``repro watch``: the **perf-regression
  watchdog** gating a fresh manifest against ledger history.
* :mod:`repro.obs.codeversion` — the ``code_version`` stamp (git SHA
  plus dirty flag, package-version fallback) every manifest carries.
* :mod:`repro.obs.critpath` — **causal observability**: a streaming
  dependence-graph critical-path profiler whose CPI stack reconciles
  exactly with total cycles, plus a what-if engine predicting the
  cycles of relaxed configurations (``repro critpath``, ``simulate
  --critpath``).
* :mod:`repro.obs.hotspots` — **program-level attribution**: a
  per-static-PC hotspot profiler (executions, per-port cache accesses,
  conflict losses, buffer hits, stall cycles by cause) with per-PC
  address-stream analytics (dominant stride, set/bank heatmaps,
  working-set cardinality) and a kernel/user split, all
  conservation-checked against the global counters (``repro
  hotspots``, ``simulate --hotspots``).

See ``docs/OBSERVABILITY.md`` for the event schema and stall taxonomy.
"""

from .codeversion import code_version
from .critpath import (
    CRITPATH_SCHEMA,
    EDGE_CLASSES,
    WHATIF_PORT,
    WHATIF_PORT_BOUND,
    CritPathRecorder,
    build_critpath_report,
    render_critpath_report,
    validate_critpath_report,
)
from .compare import (
    COMPARE_SCHEMA,
    compare_documents,
    expand_manifest_paths,
    render_comparison,
)
from .dash import build_dashboard
from .hotspots import (
    HOTSPOT_SORTS,
    HOTSPOTS_SCHEMA,
    HotspotRecorder,
    build_hotspots_report,
    render_hotspots_report,
    validate_hotspots_report,
)
from .ledger import (
    LEDGER_DB_VERSION,
    LEDGER_ENV,
    Ledger,
    LedgerError,
    config_digest_of,
    detect_kind,
    manifest_digest,
    resolve_ledger_path,
    trace_digest_of,
)
from .metrics import (
    DEFAULT_METRICS_INTERVAL,
    Interval,
    IntervalMetrics,
)
from .pipetrace import (
    KONATA_HEADER,
    ParsedOp,
    PipeRecord,
    PipeTrace,
    parse_konata,
)
from .probe import Probe
from .report import (
    SCHEMA_VERSION,
    SchemaError,
    build_experiment_manifest,
    build_run_report,
    validate_experiment_manifest,
    validate_run_report,
)
from .selfprof import SELFPROFILE_SCHEMA, SelfProfiler
from .spans import (
    NULL_SPANS,
    Span,
    SpanRecorder,
    SpanTracer,
    chrome_trace,
    count_spans,
    merge_events,
    parse_chrome_trace,
    write_chrome_trace,
)
from .stall import StallCause, StallLedger
from .tracer import (EVENT_SCHEMA, JsonlTracer, Tracer, iter_events,
                     summarize_events)
from .watch import WATCH_SCHEMA, exit_code, render_watch, watch_document

__all__ = [
    "code_version",
    "CRITPATH_SCHEMA",
    "EDGE_CLASSES",
    "WHATIF_PORT",
    "WHATIF_PORT_BOUND",
    "CritPathRecorder",
    "build_critpath_report",
    "render_critpath_report",
    "validate_critpath_report",
    "COMPARE_SCHEMA",
    "compare_documents",
    "expand_manifest_paths",
    "render_comparison",
    "build_dashboard",
    "HOTSPOT_SORTS",
    "HOTSPOTS_SCHEMA",
    "HotspotRecorder",
    "build_hotspots_report",
    "render_hotspots_report",
    "validate_hotspots_report",
    "LEDGER_DB_VERSION",
    "LEDGER_ENV",
    "Ledger",
    "LedgerError",
    "config_digest_of",
    "detect_kind",
    "manifest_digest",
    "resolve_ledger_path",
    "trace_digest_of",
    "WATCH_SCHEMA",
    "exit_code",
    "render_watch",
    "watch_document",
    "DEFAULT_METRICS_INTERVAL",
    "Interval",
    "IntervalMetrics",
    "KONATA_HEADER",
    "ParsedOp",
    "PipeRecord",
    "PipeTrace",
    "parse_konata",
    "Probe",
    "SELFPROFILE_SCHEMA",
    "SelfProfiler",
    "NULL_SPANS",
    "Span",
    "SpanRecorder",
    "SpanTracer",
    "chrome_trace",
    "count_spans",
    "merge_events",
    "parse_chrome_trace",
    "write_chrome_trace",
    "SCHEMA_VERSION",
    "SchemaError",
    "build_experiment_manifest",
    "build_run_report",
    "validate_experiment_manifest",
    "validate_run_report",
    "StallCause",
    "StallLedger",
    "EVENT_SCHEMA",
    "JsonlTracer",
    "Tracer",
    "iter_events",
    "summarize_events",
]

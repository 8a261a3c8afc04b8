"""Simulator-performance benchmarking: the ``repro bench`` harness.

This package measures the **simulator's own** throughput — how fast
the host machine pushes simulated instructions and cycles — so a
change to the timing core's hot loop shows up as a number, not a
hunch.  It is the host-performance counterpart to ``repro
experiment``'s simulated-performance tables:

* :mod:`repro.bench.harness` runs a pinned matrix of workloads ×
  machine configurations with warmup and repeats, records
  median/IQR kilo-instructions-per-second (kIPS) and cycles-per-second
  figures plus cold/warm trace-generation timings, and assembles a
  versioned ``repro.bench/1`` manifest (``BENCH_<host>_<date>.json``
  by convention).
* :mod:`repro.bench.compare` validates manifests and diffs two of
  them: simulated results (instructions, cycles, the matrix itself)
  must match **exactly**; host throughput fails only when it fell more
  than a relative tolerance below the baseline.  ``repro bench
  --compare baseline.json`` builds the regression-gating workflow on
  top.

See the "Simulator performance" section of ``docs/OBSERVABILITY.md``.
"""

from .compare import (
    compare_bench,
    default_bench_path,
    render_bench_comparison,
    throughput_regressed,
    validate_bench_manifest,
)
from .harness import (
    BENCH_SCHEMA,
    FULL_MATRIX,
    QUICK_MATRIX,
    run_bench,
)

__all__ = [
    "BENCH_SCHEMA",
    "FULL_MATRIX",
    "QUICK_MATRIX",
    "compare_bench",
    "default_bench_path",
    "render_bench_comparison",
    "run_bench",
    "throughput_regressed",
    "validate_bench_manifest",
]

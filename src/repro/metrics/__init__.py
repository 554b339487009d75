"""Performance metrics: cost normalization and NAVG+ (Section V).

The benchmark's metric unit is::

    NAVG+(P) = NAVG(NC(p)) + sigma+(NC(p))

the average of the *normalized costs* of a process type's instances plus
the positive standard deviation — rewarding systems with predictable
performance.

Two normalization paths are provided:

* the engines in this repository model per-instance costs directly
  (C_c + C_m + C_p), which are normalized by construction, and
* :func:`normalize_intervals` implements the paper's harder case —
  recovering per-instance normalized costs from wall-clock intervals of
  *concurrently* executing instances, by sharing each span of time
  equally among the instances active during it.  No run measures such
  intervals; ``benchmarks/test_bench_ablation_metric.py`` exercises it.

:func:`compute_metrics` applies the formula per process type.
"""

from repro.metrics.normalize import ActiveInterval, normalize_intervals
from repro.metrics.navg import (
    MetricReport,
    ProcessTypeMetrics,
    compute_metrics,
)

__all__ = [
    "ActiveInterval",
    "normalize_intervals",
    "ProcessTypeMetrics",
    "MetricReport",
    "compute_metrics",
]

"""Order statistics for the benchmark's timing samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is only reported when at least this many samples lie
#: beyond it (choosing-metrics §1): below that the "tail" is one or two
#: noisy-neighbour hiccups, not a property of the program.
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(values: Sequence[float], point: float, strict: bool = True) -> float:
    """Nearest-rank percentile (``point`` in (0, 100)), an observed value.

    Raises :class:`TooFewSamples` when fewer than
    :data:`MIN_SAMPLES_BEYOND` samples lie beyond the chosen rank;
    ``strict=False`` (``--quick`` smoke runs only) waives that.
    """
    if not 0 < point < 100:
        raise ValueError(f"percentile point must be in (0, 100): {point}")
    n = len(values)
    rank = max(1, math.ceil(n * point / 100.0))
    if strict and n - rank < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{point:g} of {n} samples leaves {max(n - rank, 0)} beyond it; "
            f"need at least {MIN_SAMPLES_BEYOND}"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    """Plain median; 0.0 for an empty sample (a layer that never ran)."""
    return statistics.median(values) if values else 0.0


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median — the driver's
    steadiness measure (``statistics.quantiles(values, n=4)``)."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0

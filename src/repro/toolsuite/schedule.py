"""The benchmark scheduling series of Table II and the scale factors.

Deadlines are computed in abstract time units (tu); the time scale factor
t maps ``1 tu = 1/t`` engine time units, so a larger t compresses the
schedule relative to the (unchanged) processing costs — "a shorter
interval … reduces the performance of the system" — and the Monitor maps
measured costs back into tu for reporting.

Series (Table II), with T0(S) the stream start and T1(x) the completion
of x:

====  =========================================================
P01   T0(A) + 2(m-1),   1 <= m <= (100-k)*d/2 + 1
P02   T0(A) + 2m,       1 <= m <= (100-k)*d/2 + 1
P03   T1(P01) ∧ T1(P02)
P04   T0(B) + 2(m-1),   1 <= m <= 1100*d + 1
P05   T1(P04);  P06 = T1(P05);  P07 = T1(P06)
P08   T0(B) + 2000 + 3(m-1),    1 <= m <= 900*d + 1
P09   T1(P08)
P10   T0(B) + 3000 + 2.5(m-1),  1 <= m <= 1050*d + 1
P11   T1(StreamB)
P12   T0(C);   P13 = T0(C) + 10
P14   T0(D);   P15 = T1(P14)
====  =========================================================

The decreasing P01/P02 instance count over periods k models "a realistic
scaling of master data management".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ScaleFactorError


@dataclass(frozen=True)
class ScaleFactors:
    """The three-dimensional scale space (Section V).

    * ``datasize`` d — scales dataset sizes and E1 instance counts,
    * ``time`` t — compresses/stretches the schedule (1 tu = 1/t units),
    * ``distribution`` f — 0 uniform, 1 zipf, 2 normal, 3 exponential.
    """

    datasize: float = 0.05
    time: float = 1.0
    distribution: int = 0

    def __post_init__(self) -> None:
        if self.datasize <= 0:
            raise ScaleFactorError(f"datasize must be > 0: {self.datasize}")
        if self.time <= 0:
            raise ScaleFactorError(f"time must be > 0: {self.time}")
        if self.distribution not in (0, 1, 2, 3):
            raise ScaleFactorError(
                f"distribution must be in {{0,1,2,3}}: {self.distribution}"
            )

    def tu_to_engine(self, tu: float) -> float:
        """Convert schedule tu into engine time units (1 tu = 1/t units)."""
        return tu / self.time

def instances_p01(period: int, d: float) -> int:
    """Number of P01 instances in period k: floor((100-k)*d/2) + 1."""
    if not 0 <= period <= 99:
        raise ScaleFactorError(f"period must be in [0, 99]: {period}")
    return int(math.floor((100 - period) * d / 2.0)) + 1


def instances_p02(period: int, d: float) -> int:
    """P02 shares P01's decreasing instance-count series."""
    return instances_p01(period, d)


def instances_p04(d: float) -> int:
    return int(math.floor(1100 * d)) + 1


def instances_p08(d: float) -> int:
    return int(math.floor(900 * d)) + 1


def instances_p10(d: float) -> int:
    return int(math.floor(1050 * d)) + 1


def deadlines_p01(period: int, d: float) -> list[float]:
    """P01 deadlines in tu: T0 + 2(m-1)."""
    return [2.0 * (m - 1) for m in range(1, instances_p01(period, d) + 1)]


def deadlines_p02(period: int, d: float) -> list[float]:
    """P02 deadlines in tu: T0 + 2m (interleaved with P01)."""
    return [2.0 * m for m in range(1, instances_p02(period, d) + 1)]


def deadlines_p04(d: float) -> list[float]:
    return [2.0 * (m - 1) for m in range(1, instances_p04(d) + 1)]


def deadlines_p08(d: float) -> list[float]:
    """Shifted by 2000 tu: the Asian business day starts later but the
    execution windows overlap (Section V)."""
    return [2000.0 + 3.0 * (m - 1) for m in range(1, instances_p08(d) + 1)]


def deadlines_p10(d: float) -> list[float]:
    return [3000.0 + 2.5 * (m - 1) for m in range(1, instances_p10(d) + 1)]


@dataclass
class StreamSchedule:
    """All E1 deadlines (in tu) of one benchmark period.

    The E2 deadlines are *dependent* (T1 terms) and are resolved by the
    client at run time from actual completions.
    """

    period: int
    factors: ScaleFactors
    p01: list[float] = field(default_factory=list)
    p02: list[float] = field(default_factory=list)
    p04: list[float] = field(default_factory=list)
    p08: list[float] = field(default_factory=list)
    p10: list[float] = field(default_factory=list)

    @property
    def message_event_count(self) -> int:
        return (
            len(self.p01) + len(self.p02) + len(self.p04)
            + len(self.p08) + len(self.p10)
        )

    def series(self, process_id: str) -> list[float]:
        try:
            return getattr(self, process_id.lower())
        except AttributeError:
            raise ScaleFactorError(
                f"{process_id} has no static series (it is schedule-dependent)"
            ) from None


def build_schedule(period: int, factors: ScaleFactors) -> StreamSchedule:
    """Build the static (E1) part of one period's schedule."""
    d = factors.datasize
    return StreamSchedule(
        period=period,
        factors=factors,
        p01=deadlines_p01(period, d),
        p02=deadlines_p02(period, d),
        p04=deadlines_p04(d),
        p08=deadlines_p08(d),
        p10=deadlines_p10(d),
    )

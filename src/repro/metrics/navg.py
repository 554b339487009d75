"""NAVG+ computation and per-run metric reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.engine.base import InstanceHistory, InstanceRecord


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _std(values: Sequence[float]) -> float:
    """Population standard deviation (the paper's sigma+ term)."""
    if len(values) < 2:
        return 0.0
    mu = _mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


@dataclass(frozen=True)
class ProcessTypeMetrics:
    """Aggregated metrics of one process type over a benchmark run."""

    process_id: str
    instance_count: int
    navg: float
    sigma: float
    navg_plus: float
    communication_mean: float
    management_mean: float
    processing_mean: float
    error_count: int

    @property
    def relative_sigma(self) -> float:
        """sigma / NAVG; the data-intensive types show the larger values."""
        return self.sigma / self.navg if self.navg else 0.0


@dataclass
class MetricReport:
    """All process types of one run, in process-id order."""

    per_type: dict[str, ProcessTypeMetrics] = field(default_factory=dict)

    def __getitem__(self, process_id: str) -> ProcessTypeMetrics:
        return self.per_type[process_id]

    @property
    def process_ids(self) -> list[str]:
        return sorted(self.per_type)

    def rows(self) -> list[ProcessTypeMetrics]:
        return [self.per_type[pid] for pid in self.process_ids]

    def as_table(self) -> str:
        """Fixed-width text table (the Monitor's report format)."""
        header = (
            f"{'type':<6}{'n':>6}{'NAVG':>12}{'sigma':>12}{'NAVG+':>12}"
            f"{'C_c':>10}{'C_m':>10}{'C_p':>10}{'err':>5}"
        )
        lines = [header, "-" * len(header)]
        for m in self.rows():
            lines.append(
                f"{m.process_id:<6}{m.instance_count:>6}{m.navg:>12.2f}"
                f"{m.sigma:>12.2f}{m.navg_plus:>12.2f}"
                f"{m.communication_mean:>10.2f}{m.management_mean:>10.2f}"
                f"{m.processing_mean:>10.2f}{m.error_count:>5}"
            )
        return "\n".join(lines)


def compute_metrics(records: Iterable[InstanceRecord]) -> MetricReport:
    """Aggregate instance records into per-process-type NAVG+ metrics.

    Instances that errored are excluded from the cost statistics but
    counted in ``error_count`` (a failing instance has no meaningful
    cost; its failure is reported separately, as the toolsuite's phase
    *post* does).  Reads the columns of an :class:`InstanceHistory`
    (other iterables of records are encoded first) and builds no record.
    """
    report = MetricReport()
    by_type = InstanceHistory.of(records).groups("process_id")
    for process_id, type_records in by_type.items():
        ok = type_records.where("status", lambda status: status == "ok")
        errors = len(type_records) - len(ok)
        if not ok:
            report.per_type[process_id] = ProcessTypeMetrics(
                process_id, len(type_records), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, errors
            )
            continue
        parts = [ok.column(n) for n in ("communication", "management", "processing")]
        costs = [c + m + p for c, m, p in zip(*parts)]
        mu = _mean(costs)
        sigma = _std(costs)
        report.per_type[process_id] = ProcessTypeMetrics(
            process_id=process_id,
            instance_count=len(type_records),
            navg=mu,
            sigma=sigma,
            navg_plus=mu + sigma,
            communication_mean=_mean(parts[0]),
            management_mean=_mean(parts[1]),
            processing_mean=_mean(parts[2]),
            error_count=errors,
        )
    return report

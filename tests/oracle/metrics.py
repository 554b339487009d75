"""The reference model of NAVG+ aggregation.

This is the body ``repro.metrics.navg.compute_metrics`` had while a
run's history was a list of record objects, verbatim: it groups the
records by process id and reads every cost through the record.
Production reads the columns of an ``InstanceHistory`` and builds no
record; ``tests/engine/test_instance_history.py`` holds it to *this*
module: the same process types in the same order, every float equal
bit for bit, the same table.

Independence is the point: nothing here may import
``repro.metrics.navg``'s aggregation or ``InstanceHistory`` (the report
types and the record are shared vocabulary — the input of the oracle
and the shape of its answer, not what it checks).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.engine.base import InstanceRecord
from repro.metrics.navg import MetricReport, ProcessTypeMetrics


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _std(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    mu = _mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def compute_metrics(records: Iterable[InstanceRecord]) -> MetricReport:
    by_type: dict[str, list[InstanceRecord]] = {}
    for record in records:
        by_type.setdefault(record.process_id, []).append(record)

    report = MetricReport()
    for process_id, type_records in by_type.items():
        ok = [r for r in type_records if r.status == "ok"]
        errors = len(type_records) - len(ok)
        if not ok:
            report.per_type[process_id] = ProcessTypeMetrics(
                process_id, len(type_records), 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, errors
            )
            continue
        costs = [r.normalized_cost for r in ok]
        mu = _mean(costs)
        sigma = _std(costs)
        report.per_type[process_id] = ProcessTypeMetrics(
            process_id=process_id,
            instance_count=len(type_records),
            navg=mu,
            sigma=sigma,
            navg_plus=mu + sigma,
            communication_mean=_mean([r.costs.communication for r in ok]),
            management_mean=_mean([r.costs.management for r in ok]),
            processing_mean=_mean([r.costs.processing for r in ok]),
            error_count=errors,
        )
    return report

"""The NAVG+ metric."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.base import InstanceRecord
from repro.engine.costs import CostBreakdown
from repro.metrics.navg import compute_metrics


def record(pid, total, instance_id=0, status="ok"):
    return InstanceRecord(
        instance_id=instance_id,
        process_id=pid,
        period=0,
        stream="A",
        arrival=0.0,
        start=0.0,
        completion=total,
        costs=CostBreakdown(processing=total),
        status=status,
    )


def navg_plus(normalized_costs):
    """NAVG+ of one process type whose instances cost these values."""
    records = [record("P", cost, i) for i, cost in enumerate(normalized_costs)]
    return compute_metrics(records)["P"].navg_plus


class TestNavgPlus:
    def test_single_value_no_sigma(self):
        assert navg_plus([5.0]) == 5.0

    def test_constant_values(self):
        assert navg_plus([4.0, 4.0, 4.0]) == 4.0

    def test_mean_plus_population_std(self):
        values = [2.0, 4.0]
        expected = 3.0 + math.sqrt(((2 - 3) ** 2 + (4 - 3) ** 2) / 2)
        assert navg_plus(values) == pytest.approx(expected)

    def test_empty_rejected(self):
        """An empty instance set has no NAVG+ row."""
        assert compute_metrics([]).process_ids == []
        with pytest.raises(KeyError):
            navg_plus([])

    @given(st.lists(st.floats(0.1, 1e6), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_navg_plus_at_least_mean(self, values):
        """sigma+ only ever rewards *predictable* systems: the metric is
        bounded below by the plain average."""
        mean = sum(values) / len(values)
        assert navg_plus(values) >= mean - 1e-9

    @given(st.floats(1.0, 100.0), st.floats(0.1, 50.0),
           st.integers(1, 10))
    @settings(max_examples=60)
    def test_jitter_penalized(self, base, spread, pairs):
        """Same mean, added spread -> strictly higher NAVG+ than a
        perfectly predictable system (the metric's stated purpose)."""
        stable = [base] * (2 * pairs)
        jittery = [base - spread, base + spread] * pairs
        assert navg_plus(jittery) > navg_plus(stable)
        assert sum(jittery) / len(jittery) == pytest.approx(base)


class TestComputeMetrics:
    def test_grouping_by_type(self):
        records = [record("P01", 10.0, 1), record("P01", 20.0, 2),
                   record("P02", 5.0, 3)]
        report = compute_metrics(records)
        assert report.process_ids == ["P01", "P02"]
        assert report["P01"].instance_count == 2
        assert report["P01"].navg == pytest.approx(15.0)
        assert report["P01"].navg_plus == pytest.approx(20.0)
        assert report["P02"].sigma == 0.0

    def test_errors_excluded_from_costs(self):
        records = [record("P01", 10.0, 1),
                   record("P01", 99999.0, 2, status="error")]
        report = compute_metrics(records)
        assert report["P01"].navg == pytest.approx(10.0)
        assert report["P01"].error_count == 1
        assert report["P01"].instance_count == 2

    def test_all_errors(self):
        report = compute_metrics([record("P01", 1.0, 1, status="error")])
        assert report["P01"].navg == 0.0
        assert report["P01"].error_count == 1

    def test_cost_category_means(self):
        r = record("P01", 10.0, 1)
        r.costs.communication = 3.0
        r.costs.management = 2.0
        report = compute_metrics([r])
        assert report["P01"].communication_mean == 3.0
        assert report["P01"].management_mean == 2.0

    def test_relative_sigma(self):
        records = [record("P01", 10.0, 1), record("P01", 20.0, 2)]
        m = compute_metrics(records)["P01"]
        assert m.relative_sigma == pytest.approx(m.sigma / m.navg)

    def test_as_table_renders_all_types(self):
        records = [record("P01", 10.0, 1), record("P13", 100.0, 2)]
        table = compute_metrics(records).as_table()
        assert "P01" in table and "P13" in table
        assert "NAVG+" in table

    def test_contains(self):
        report = compute_metrics([record("P01", 1.0, 1)])
        assert "P01" in report.per_type
        assert "P99" not in report.per_type

"""MetricsRegistry: counters, gauges, histograms, labels, exporters."""

import pytest

from repro.observability import (
    Counter,
    Histogram,
    MetricsRegistry,
    ObservabilityError,
    export_prometheus,
)


class TestCounter:
    def test_inc_defaults_to_one(self):
        reg = MetricsRegistry()
        counter = reg.counter("hits")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_counter_is_monotonic(self):
        counter = MetricsRegistry().counter("hits")
        with pytest.raises(ObservabilityError):
            counter.inc(-1.0)

    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("hits") is reg.counter("hits")

    def test_labels_separate_series(self):
        reg = MetricsRegistry()
        reg.counter("hits", labels={"p": "P01"}).inc()
        reg.counter("hits", labels={"p": "P02"}).inc(5)
        assert reg.counter("hits", labels={"p": "P01"}).value == 1
        assert reg.counter("hits", labels={"p": "P02"}).value == 5

    def test_type_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError):
            reg.gauge("x")


class TestGauge:
    def test_set_and_move(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(4)
        gauge.set(3)
        assert gauge.value == 3.0

    def test_set_max_keeps_high_water_mark(self):
        gauge = MetricsRegistry().gauge("peak")
        gauge.set_max(5)
        gauge.set_max(3)
        assert gauge.value == 5.0


class TestHistogram:
    def test_bucketing(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 100.0):
            hist.observe(value)
        # 0.5 and 1.0 land in le=1.0; 5.0 in le=10.0; 100.0 in +Inf.
        assert hist.counts == [2, 1, 1]
        assert hist.cumulative_counts() == [2, 3, 4]
        assert hist.count == 4
        assert hist.sum == pytest.approx(106.5)

    def test_buckets_must_increase(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ObservabilityError):
            MetricsRegistry().histogram("h", buckets=())


class TestRegistry:
    def test_snapshot_is_flat_and_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.gauge("a").set(2)
        reg.histogram("c", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap == {"a": 2.0, "b": 1.0, "c.sum": 0.5, "c.count": 1.0}

    def test_collect_order_stable(self):
        reg = MetricsRegistry()
        reg.counter("z")
        reg.counter("a", labels={"k": "2"})
        reg.counter("a", labels={"k": "1"})
        names = [(i.name, i.labels) for i in reg.collect()]
        assert names == [
            ("a", (("k", "1"),)),
            ("a", (("k", "2"),)),
            ("z", ()),
        ]


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        reg = MetricsRegistry()
        reg.counter("hits", help="total hits", labels={"p": "P01"}).inc(3)
        reg.gauge("depth").set(1.5)
        text = export_prometheus(reg)
        assert "# HELP hits total hits" in text
        assert "# TYPE hits counter" in text
        assert 'hits{p="P01"} 3' in text
        assert "depth 1.5" in text

    def test_histogram_exposition_is_cumulative(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat", buckets=(1.0, 5.0))
        for value in (0.5, 2.0, 9.0):
            hist.observe(value)
        text = export_prometheus(reg)
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="5"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 11.5" in text
        assert "lat_count 3" in text

    def test_deterministic_output(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("b", labels={"x": "1"}).inc()
            reg.counter("a").inc(2)
            return export_prometheus(reg)

        assert build() == build()

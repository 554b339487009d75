"""Property-based tests on the Table II schedule and scale factors."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.toolsuite.schedule import (
    ScaleFactors,
    build_schedule,
    deadlines_p01,
    deadlines_p04,
    deadlines_p08,
    deadlines_p10,
    instances_p01,
)

d_values = st.floats(0.01, 3.0, allow_nan=False)
periods = st.integers(0, 99)


class TestSeriesProperties:
    @given(periods, d_values)
    @settings(max_examples=100)
    def test_p01_count_matches_formula(self, k, d):
        assert instances_p01(k, d) == math.floor((100 - k) * d / 2.0) + 1

    @given(periods, d_values)
    @settings(max_examples=100)
    def test_p01_deadlines_strictly_increasing(self, k, d):
        deadlines = deadlines_p01(k, d)
        assert all(b > a for a, b in zip(deadlines, deadlines[1:]))
        assert deadlines[0] == 0.0

    @given(d_values)
    @settings(max_examples=100)
    def test_stream_b_series_sorted_and_shifted(self, d):
        p04 = deadlines_p04(d)
        p08 = deadlines_p08(d)
        p10 = deadlines_p10(d)
        assert p04[0] == 0.0
        assert p08[0] == 2000.0
        assert p10[0] == 3000.0
        for series in (p04, p08, p10):
            assert all(b > a for a, b in zip(series, series[1:]))

    @given(periods, d_values)
    @settings(max_examples=100)
    def test_monotone_in_datasize(self, k, d):
        smaller = build_schedule(k, ScaleFactors(datasize=d))
        larger = build_schedule(k, ScaleFactors(datasize=d * 2))
        assert larger.message_event_count >= smaller.message_event_count

    @given(periods)
    @settings(max_examples=100)
    def test_monotone_in_period(self, k):
        """Stream A shrinks over periods; stream B is period-invariant."""
        factors = ScaleFactors(datasize=1.0)
        now = build_schedule(k, factors)
        later = build_schedule(min(k + 1, 99), factors)
        assert len(later.p01) <= len(now.p01)
        assert len(later.p04) == len(now.p04)

    @given(d_values, st.floats(0.1, 10.0, allow_nan=False))
    @settings(max_examples=100)
    def test_time_factor_is_a_pure_rescaling(self, d, t):
        factors = ScaleFactors(datasize=d, time=t)
        deadlines_tu = deadlines_p04(d)
        engine_units = [factors.tu_to_engine(x) for x in deadlines_tu]
        assert [x * t for x in engine_units] == pytest.approx(deadlines_tu)

    @given(periods, d_values)
    @settings(max_examples=50)
    def test_p02_always_after_matching_p01(self, k, d):
        """P02's m-th event (T0+2m) trails P01's m-th (T0+2(m-1))."""
        p01 = deadlines_p01(k, d)
        schedule = build_schedule(k, ScaleFactors(datasize=d))
        for a, b in zip(p01, schedule.p02):
            assert b == a + 2.0

"""The Table II scheduling series and the scale factors."""

import pytest

from repro.errors import ScaleFactorError
from repro.toolsuite.schedule import (
    ScaleFactors,
    build_schedule,
    deadlines_p01,
    deadlines_p02,
    deadlines_p04,
    deadlines_p08,
    deadlines_p10,
    instances_p01,
    instances_p04,
    instances_p08,
    instances_p10,
)


class TestScaleFactors:
    def test_defaults(self):
        factors = ScaleFactors()
        assert factors.datasize == 0.05
        assert factors.time == 1.0
        assert factors.distribution == 0

    @pytest.mark.parametrize("bad", [
        {"datasize": 0}, {"datasize": -1}, {"time": 0}, {"distribution": 7},
    ])
    def test_validation(self, bad):
        with pytest.raises(ScaleFactorError):
            ScaleFactors(**bad)

    def test_higher_t_compresses_schedule(self):
        """1 tu = 1/t: raising t shrinks inter-arrival gaps (Fig. 8 right)."""
        slow = ScaleFactors(time=0.5).tu_to_engine(2.0)
        fast = ScaleFactors(time=2.0).tu_to_engine(2.0)
        assert fast < slow


class TestInstanceCounts:
    def test_p01_decreases_with_period(self):
        """Fig. 8 left: the decreasing P01 series models realistic master
        data management."""
        d = 1.0
        counts = [instances_p01(k, d) for k in range(100)]
        assert counts[0] == 51  # floor(100*1/2)+1
        assert counts[99] == 1  # floor(1*1/2)+1
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_p01_scales_with_d(self):
        assert instances_p01(0, 0.1) < instances_p01(0, 1.0)

    def test_table_2_formulas(self):
        d = 0.05
        assert instances_p04(d) == int(1100 * d) + 1  # 56
        assert instances_p08(d) == int(900 * d) + 1  # 46
        assert instances_p10(d) == int(1050 * d) + 1  # 53

    def test_period_bounds(self):
        with pytest.raises(ScaleFactorError):
            instances_p01(100, 1.0)
        with pytest.raises(ScaleFactorError):
            instances_p01(-1, 1.0)


class TestDeadlineSeries:
    def test_p01_spacing(self):
        deadlines = deadlines_p01(0, 0.1)
        assert deadlines[0] == 0.0
        assert all(b - a == 2.0 for a, b in zip(deadlines, deadlines[1:]))

    def test_p02_interleaves_with_p01(self):
        """P01 at T0+2(m-1), P02 at T0+2m: offset by 2 tu."""
        p01 = deadlines_p01(0, 0.1)
        p02 = deadlines_p02(0, 0.1)
        assert p02[0] == 2.0
        assert len(p01) == len(p02)

    def test_p08_shifted_asian_day(self):
        assert deadlines_p08(0.05)[0] == 2000.0
        spacing = deadlines_p08(0.05)
        assert spacing[1] - spacing[0] == 3.0

    def test_p10_shifted_american_day(self):
        assert deadlines_p10(0.05)[0] == 3000.0
        spacing = deadlines_p10(0.05)
        assert spacing[1] - spacing[0] == 2.5

    def test_overlapping_business_days(self):
        """P04/P08/P10 windows overlap (core working hours, Section V)."""
        d = 0.5
        p04_end = deadlines_p04(d)[-1]
        p08_start = deadlines_p08(d)[0]
        p10_start = deadlines_p10(d)[0]
        assert p08_start > 0 and p10_start > p08_start
        p08_end = deadlines_p08(d)[-1]
        assert p08_end > p10_start  # Asia still sending when America starts


class TestStreamSchedule:
    def test_build_schedule_counts(self):
        schedule = build_schedule(0, ScaleFactors(datasize=0.05))
        assert len(schedule.p04) == 56
        assert len(schedule.p08) == 46
        assert len(schedule.p10) == 53
        assert schedule.message_event_count == sum(
            map(len, (schedule.p01, schedule.p02, schedule.p04,
                      schedule.p08, schedule.p10))
        )

    def test_series_accessor(self):
        schedule = build_schedule(0, ScaleFactors())
        assert schedule.series("P04") == schedule.p04
        with pytest.raises(ScaleFactorError):
            schedule.series("P03")  # dependent, not static

    def test_datasize_raises_message_volume(self):
        small = build_schedule(0, ScaleFactors(datasize=0.05))
        large = build_schedule(0, ScaleFactors(datasize=0.1))
        assert large.message_event_count > small.message_event_count

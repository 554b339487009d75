"""Timeline consistency validation of fault specs.

A spec that schedules overlapping same-kind faults on one endpoint, a
degradation of a severed link, or a crash inside an active partition of
the engine host describes a physically impossible experiment — it must
be rejected up front, with an error naming both offending events.
"""

import pytest

from repro.errors import FaultSpecError
from repro.parallel import RunSpec, client_from_spec
from repro.resilience import FaultEvent, FaultSpec


def _client_with(events):
    return client_from_spec(RunSpec(
        periods=1, seed=3, durability="wal",
        faults=FaultSpec(name="t", events=tuple(events)),
    ))


class TestOverlappingSameKind:
    def test_overlapping_outages_rejected(self):
        spec = FaultSpec(events=(
            FaultEvent(at=10.0, kind="outage", service="svc", duration=50.0),
            FaultEvent(at=30.0, kind="outage", service="svc", duration=10.0),
        ))
        problems = spec.timeline_problems()
        assert len(problems) == 1
        # The error names both offending events.
        assert "t=    10.0" in problems[0]
        assert "t=    30.0" in problems[0]
        assert "overlapping outage" in problems[0]

    def test_overlapping_partitions_rejected_direction_insensitive(self):
        spec = FaultSpec(events=(
            FaultEvent(at=5.0, kind="partition", src="ES", dst="CS",
                       duration=100.0),
            FaultEvent(at=50.0, kind="partition", src="CS", dst="ES",
                       duration=10.0),
        ))
        assert any(
            "overlapping partition" in p for p in spec.timeline_problems()
        )

    def test_unrecovered_fault_is_open_ended(self):
        # No duration and no explicit restore: the window runs to period
        # end, so a later same-endpoint fault overlaps it.
        spec = FaultSpec(events=(
            FaultEvent(at=10.0, kind="outage", service="svc"),
            FaultEvent(at=500.0, kind="outage", service="svc"),
        ))
        assert spec.timeline_problems()

    def test_explicit_recovery_closes_the_window(self):
        spec = FaultSpec(events=(
            FaultEvent(at=10.0, kind="outage", service="svc"),
            FaultEvent(at=40.0, kind="restore", service="svc"),
            FaultEvent(at=40.0, kind="outage", service="svc", duration=5.0),
        ))
        assert spec.timeline_problems() == []

    def test_sequential_faults_are_fine(self):
        spec = FaultSpec(events=(
            FaultEvent(at=10.0, kind="outage", service="svc", duration=20.0),
            FaultEvent(at=30.0, kind="outage", service="svc", duration=10.0),
            FaultEvent(at=10.0, kind="outage", service="other",
                       duration=100.0),
        ))
        assert spec.timeline_problems() == []


class TestContradictoryKinds:
    def test_degrade_inside_partition_rejected(self):
        spec = FaultSpec(events=(
            FaultEvent(at=10.0, kind="partition", src="ES", dst="IS",
                       duration=40.0),
            FaultEvent(at=20.0, kind="degrade", src="IS", dst="ES",
                       factor=3.0, duration=5.0),
        ))
        problems = spec.timeline_problems()
        assert len(problems) == 1
        assert "cannot degrade a partitioned link" in problems[0]

    def test_partition_starting_inside_degrade_rejected(self):
        # Either order is contradictory: the overlap matters, not which
        # fault struck first.
        spec = FaultSpec(events=(
            FaultEvent(at=10.0, kind="degrade", src="ES", dst="IS",
                       factor=2.0, duration=40.0),
            FaultEvent(at=20.0, kind="partition", src="ES", dst="IS",
                       duration=5.0),
        ))
        assert any(
            "cannot degrade a partitioned link" in p
            for p in spec.timeline_problems()
        )

    def test_degrade_on_a_different_link_is_fine(self):
        spec = FaultSpec(events=(
            FaultEvent(at=10.0, kind="partition", src="ES", dst="CS",
                       duration=40.0),
            FaultEvent(at=20.0, kind="degrade", src="ES", dst="IS",
                       factor=3.0, duration=5.0),
        ))
        assert spec.timeline_problems() == []


class TestCrashInsidePartition:
    def test_crash_during_engine_host_partition_rejected(self):
        spec = FaultSpec(events=(
            FaultEvent(at=10.0, kind="partition", src="ES", dst="IS",
                       duration=40.0),
            FaultEvent(at=20.0, kind="crash", point="arrival"),
        ))
        problems = spec.timeline_problems()
        assert len(problems) == 1
        assert "crash during an active partition" in problems[0]

    def test_crash_after_the_partition_heals_is_fine(self):
        spec = FaultSpec(events=(
            FaultEvent(at=10.0, kind="partition", src="ES", dst="IS",
                       duration=40.0),
            FaultEvent(at=60.0, kind="crash", point="commit"),
        ))
        assert spec.timeline_problems() == []

    def test_crash_during_non_engine_partition_is_fine(self):
        spec = FaultSpec(events=(
            FaultEvent(at=10.0, kind="partition", src="ES", dst="CS",
                       duration=40.0),
            FaultEvent(at=20.0, kind="crash", point="arrival"),
        ))
        assert spec.timeline_problems() == []


class TestPeriodScoping:
    def test_different_periods_do_not_conflict(self):
        spec = FaultSpec(events=(
            FaultEvent(at=10.0, kind="outage", service="svc",
                       duration=50.0, period=0),
            FaultEvent(at=30.0, kind="outage", service="svc",
                       duration=10.0, period=1),
        ))
        assert spec.timeline_problems() == []

    def test_every_period_event_conflicts_with_pinned_one(self):
        # period=None recurs in every period, so it overlaps the
        # period-1 pinned event too.
        spec = FaultSpec(events=(
            FaultEvent(at=10.0, kind="outage", service="svc",
                       duration=50.0),
            FaultEvent(at=30.0, kind="outage", service="svc",
                       duration=10.0, period=1),
        ))
        assert spec.timeline_problems()


class TestValidateIntegration:
    def test_validate_surfaces_timeline_problems(self):
        spec = FaultSpec(events=(
            FaultEvent(at=10.0, kind="partition", src="ES", dst="IS",
                       duration=40.0),
            FaultEvent(at=20.0, kind="crash", point="arrival"),
        ))
        assert any(
            "crash during an active partition" in p for p in spec.validate()
        )

    def test_client_rejects_contradictory_spec(self):
        with pytest.raises(FaultSpecError) as err:
            _client_with((
                FaultEvent(at=10.0, kind="outage",
                           service="beijing",
                           duration=50.0),
                FaultEvent(at=30.0, kind="outage",
                           service="beijing",
                           duration=10.0),
            ))
        assert "overlapping outage" in str(err.value)

    def test_client_accepts_consistent_spec(self):
        client = _client_with((
            FaultEvent(at=10.0, kind="outage",
                       service="beijing", duration=20.0),
            FaultEvent(at=100.0, kind="crash", point="commit"),
        ))
        assert client.resilience is not None

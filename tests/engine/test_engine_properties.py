"""Property-based tests on the engine's virtual-time queueing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import MtmInterpreterEngine, ProcessEvent
from repro.engine.costs import CostParameters
from repro.mtm import EventType, ProcessGroup, ProcessType, Sequence, Signal
from repro.services import Network, ServiceRegistry


def make_engine(workers: int, service_units: float = 5.0):
    net = Network()
    net.add_host("IS")
    engine = MtmInterpreterEngine(ServiceRegistry(net), worker_count=workers)
    engine.cost_parameters = CostParameters(
        control_unit=service_units, plan_cost=0.0, reorg_per_queued=0.0
    )
    engine.deploy(
        ProcessType("PX", ProcessGroup.B, "t", EventType.E2_SCHEDULE,
                    Sequence([Signal()]))
    )
    return engine


arrivals_strategy = st.lists(
    st.floats(0.0, 500.0, allow_nan=False), min_size=1, max_size=40
).map(sorted)


class TestQueueInvariants:
    @given(arrivals_strategy, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_causality(self, arrivals, workers):
        """completion > start >= arrival for every instance."""
        engine = make_engine(workers)
        for at in arrivals:
            record = engine.handle_event(ProcessEvent("PX", at))
            assert record.start >= record.arrival
            assert record.completion > record.start

    @given(arrivals_strategy, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_bounded_concurrency(self, arrivals, workers):
        """At no point do more than ``workers`` instances overlap in
        service."""
        engine = make_engine(workers)
        records = [engine.handle_event(ProcessEvent("PX", at))
                   for at in arrivals]
        boundaries = sorted(
            {r.start for r in records} | {r.completion for r in records}
        )
        for left, right in zip(boundaries, boundaries[1:]):
            mid = (left + right) / 2
            active = sum(
                1 for r in records if r.start <= mid < r.completion
            )
            assert active <= workers

    @given(arrivals_strategy)
    @settings(max_examples=60, deadline=None)
    def test_single_worker_fifo(self, arrivals):
        """One worker: services never overlap and run in arrival order."""
        engine = make_engine(1)
        records = [engine.handle_event(ProcessEvent("PX", at))
                   for at in arrivals]
        for earlier, later in zip(records, records[1:]):
            assert later.start >= earlier.completion

    @given(arrivals_strategy, st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_work_conservation(self, arrivals, workers):
        """Total busy time equals the sum of service times."""
        engine = make_engine(workers, service_units=5.0)
        records = [engine.handle_event(ProcessEvent("PX", at))
                   for at in arrivals]
        total_service = sum(r.completion - r.start for r in records)
        assert total_service == pytest.approx(5.0 * len(arrivals))

    @given(arrivals_strategy)
    @settings(max_examples=40, deadline=None)
    def test_more_workers_never_slower(self, arrivals):
        """Adding workers can only reduce (or keep) each completion."""
        slow = make_engine(1)
        fast = make_engine(4)
        slow_records = [slow.handle_event(ProcessEvent("PX", at))
                        for at in arrivals]
        fast_records = [fast.handle_event(ProcessEvent("PX", at))
                        for at in arrivals]
        for a, b in zip(fast_records, slow_records):
            assert a.completion <= b.completion + 1e-9


class TestManagementCostMonotonicity:
    @given(st.integers(2, 30))
    @settings(max_examples=30, deadline=None)
    def test_burst_arrivals_raise_management_costs(self, burst):
        """A simultaneous burst: later admissions see a longer queue and
        pay at least as much C_m (up to the cap)."""
        net = Network()
        net.add_host("IS")
        engine = MtmInterpreterEngine(ServiceRegistry(net), worker_count=1)
        engine.cost_parameters = CostParameters(
            control_unit=10.0, plan_cost=1.0, reorg_per_queued=0.5
        )
        engine.deploy(
            ProcessType("PX", ProcessGroup.B, "t", EventType.E2_SCHEDULE,
                        Sequence([Signal()]))
        )
        records = [engine.handle_event(ProcessEvent("PX", 0.0))
                   for _ in range(burst)]
        managements = [r.costs.management for r in records]
        assert all(b >= a for a, b in zip(managements, managements[1:]))
        assert managements[-1] > managements[0]

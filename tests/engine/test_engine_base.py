"""Engine base: deployment, worker queue, event handling."""

import pytest

from repro.db import Database
from repro.engine import ENGINES, MtmInterpreterEngine, ProcessEvent
from repro.engine.costs import CostParameters
from repro.errors import DeploymentError, EngineError
from repro.mtm import (
    Assign,
    EventType,
    Message,
    ProcessGroup,
    ProcessType,
    Receive,
    Sequence,
    Signal,
    Subprocess,
)
from repro.services import Network, ServiceRegistry


def fresh_registry():
    net = Network()
    net.add_host("IS")
    return ServiceRegistry(net)


def simple_e2(pid="PX", steps=1):
    return ProcessType(
        pid, ProcessGroup.B, "test", EventType.E2_SCHEDULE,
        Sequence([Signal() for _ in range(steps)]),
    )


def simple_e1(pid="PY"):
    return ProcessType(
        pid, ProcessGroup.B, "test", EventType.E1_MESSAGE,
        Sequence([Receive("m"), Signal()]),
    )


class TestDeployment:
    def test_deploy_and_list(self):
        engine = MtmInterpreterEngine(fresh_registry())
        engine.deploy(simple_e2("PA"))
        engine.deploy(simple_e1("PB"))
        assert engine.deployed_ids == ["PA", "PB"]

    def test_duplicate_deploy_rejected(self):
        engine = MtmInterpreterEngine(fresh_registry())
        engine.deploy(simple_e2())
        with pytest.raises(DeploymentError):
            engine.deploy(simple_e2())

    def test_unknown_process_event(self):
        engine = MtmInterpreterEngine(fresh_registry())
        with pytest.raises(DeploymentError):
            engine.handle_event(ProcessEvent("GHOST", 0.0))

    def test_deploy_all_checks_subprocess_closure(self):
        engine = MtmInterpreterEngine(fresh_registry())
        parent = ProcessType(
            "PP", ProcessGroup.D, "t", EventType.E2_SCHEDULE,
            Sequence([Subprocess("MISSING")]),
        )
        with pytest.raises(DeploymentError, match="MISSING"):
            engine.deploy_all([parent])

    def test_forward_subprocess_reference_allowed(self):
        engine = MtmInterpreterEngine(fresh_registry())
        parent = ProcessType(
            "PP", ProcessGroup.D, "t", EventType.E2_SCHEDULE,
            Sequence([Subprocess("CHILD")]),
        )
        child = ProcessType(
            "CHILD", ProcessGroup.D, "t", EventType.E2_SCHEDULE,
            Sequence([Signal()]), subprocess_only=True,
        )
        engine.deploy_all([parent, child])  # no error
        assert engine.deployed_ids == ["CHILD", "PP"]

    def test_invalid_definition_rejected_at_deploy(self):
        engine = MtmInterpreterEngine(fresh_registry())
        bad = ProcessType(
            "PB", ProcessGroup.B, "t", EventType.E1_MESSAGE,
            Sequence([Signal()]),
        )
        with pytest.raises(Exception):
            engine.deploy(bad)

    def test_worker_count_validated(self):
        with pytest.raises(EngineError):
            MtmInterpreterEngine(fresh_registry(), worker_count=0)

    @pytest.mark.parametrize("name", sorted(ENGINES))
    def test_engine_declares_its_cost_profile(self, name):
        engine_class = ENGINES[name]
        assert isinstance(engine_class.cost_parameters, CostParameters)
        assert 0.0 <= engine_class.parallel_efficiency <= 1.0


class TestEventHandling:
    def test_event_type_mismatch(self):
        engine = MtmInterpreterEngine(fresh_registry())
        engine.deploy(simple_e2("PA"))
        with pytest.raises(EngineError):
            engine.handle_event(ProcessEvent("PA", 0.0, message=Message(1)))

    def test_e1_event_without_message_rejected(self):
        engine = MtmInterpreterEngine(fresh_registry())
        engine.deploy(simple_e1("PB"))
        with pytest.raises(EngineError):
            engine.handle_event(ProcessEvent("PB", 0.0))

    def test_record_fields(self):
        engine = MtmInterpreterEngine(fresh_registry())
        engine.deploy(simple_e2("PA"))
        record = engine.handle_event(
            ProcessEvent("PA", 5.0, period=3, stream="B")
        )
        assert record.process_id == "PA"
        assert record.arrival == 5.0
        assert record.period == 3
        assert record.stream == "B"
        assert record.status == "ok"
        assert record.completion > record.start >= record.arrival
        assert record.normalized_cost == record.costs.total

    def test_failed_instance_recorded_not_raised(self):
        engine = MtmInterpreterEngine(fresh_registry())
        boom = ProcessType(
            "PF", ProcessGroup.B, "t", EventType.E2_SCHEDULE,
            Sequence([Assign("x", lambda c: 1 / 0)]),
        )
        engine.deploy(boom)
        record = engine.handle_event(ProcessEvent("PF", 0.0))
        assert record.status == "error"
        assert "ZeroDivisionError" in record.error
        assert engine.error_records() == [record]

    def test_inbound_message_delivery_charged(self):
        """E1 messages travel ES -> IS: that transfer lands in C_c."""
        net = Network()
        net.add_host("IS")
        net.add_host("ES")
        engine = MtmInterpreterEngine(ServiceRegistry(net))
        engine.deploy(simple_e1("PB"))
        record = engine.handle_event(
            ProcessEvent("PB", 0.0, message=Message("payload"))
        )
        assert record.costs.communication > 0

    def test_no_source_host_no_inbound_charge(self):
        net = Network()
        net.add_host("IS")  # no ES registered
        engine = MtmInterpreterEngine(ServiceRegistry(net))
        engine.deploy(simple_e1("PB"))
        record = engine.handle_event(
            ProcessEvent("PB", 0.0, message=Message("payload"))
        )
        assert record.costs.communication == 0.0

    def test_records_for(self):
        engine = MtmInterpreterEngine(fresh_registry())
        engine.deploy(simple_e2("PA"))
        engine.deploy(simple_e2("PB"))
        engine.handle_event(ProcessEvent("PA", 0.0))
        engine.handle_event(ProcessEvent("PB", 0.0))
        assert len(engine.records.where("process_id", lambda p: p == "PA")) == 1


class TestWorkerQueue:
    def _engine(self, workers):
        engine = MtmInterpreterEngine(fresh_registry(), worker_count=workers)
        engine.cost_parameters = CostParameters(
            control_unit=10.0, plan_cost=0.0, reorg_per_queued=0.0
        )
        engine.deploy(simple_e2("PA", steps=1))  # 10 units service time
        return engine

    def test_single_worker_serializes(self):
        engine = self._engine(1)
        first = engine.handle_event(ProcessEvent("PA", 0.0))
        second = engine.handle_event(ProcessEvent("PA", 0.0))
        assert first.wait == 0.0
        assert second.start == pytest.approx(first.completion)
        assert second.wait > 0

    def test_two_workers_run_concurrently(self):
        engine = self._engine(2)
        engine.handle_event(ProcessEvent("PA", 0.0))
        second = engine.handle_event(ProcessEvent("PA", 0.0))
        assert second.wait == 0.0

    def test_queue_length_feeds_management_cost(self):
        engine = MtmInterpreterEngine(fresh_registry(), worker_count=1)
        engine.cost_parameters = CostParameters(
            control_unit=10.0, plan_cost=1.0, reorg_per_queued=5.0
        )
        engine.deploy(simple_e2("PA"))
        first = engine.handle_event(ProcessEvent("PA", 0.0))
        second = engine.handle_event(ProcessEvent("PA", 0.0))
        assert second.costs.management > first.costs.management
        assert second.queue_length_at_arrival == 1

    def test_idle_gap_resets_queue(self):
        engine = self._engine(1)
        first = engine.handle_event(ProcessEvent("PA", 0.0))
        late = engine.handle_event(
            ProcessEvent("PA", first.completion + 100.0)
        )
        assert late.wait == 0.0
        assert late.queue_length_at_arrival == 0

    def test_reset_workers(self):
        engine = self._engine(1)
        engine.handle_event(ProcessEvent("PA", 0.0))
        engine.reset_workers()
        record = engine.handle_event(ProcessEvent("PA", 0.0))
        assert record.wait == 0.0

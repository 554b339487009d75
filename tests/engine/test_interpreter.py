"""The MTM interpreter engine end-to-end on small processes."""

import pytest

from repro.db import Column, Database, TableSchema, col, lit
from repro.engine import MtmInterpreterEngine, ProcessEvent
from repro.mtm import (
    Assign,
    EventType,
    Invoke,
    Message,
    ProcessGroup,
    ProcessType,
    Receive,
    Sequence,
    Signal,
    Subprocess,
)
from repro.observability import Observability, Tracer
from repro.services import DatabaseService, Envelope, Network, ServiceRegistry


@pytest.fixture()
def world():
    net = Network()
    net.add_host("IS")
    registry = ServiceRegistry(net)
    db = Database("target")
    db.create_table(
        TableSchema("t", [Column("k", "BIGINT", nullable=False)],
                    primary_key=("k",))
    )
    registry.register(DatabaseService("target", "ES", db))
    return registry, db


class TestExecution:
    def test_e1_message_flows_to_target(self, world):
        registry, db = world
        process = ProcessType(
            "P_IN", ProcessGroup.B, "t", EventType.E1_MESSAGE,
            Sequence([
                Receive("msg"),
                Invoke(
                    "target",
                    lambda c: Envelope.update_request(
                        "t", [{"k": c.get("msg").payload}]
                    ),
                ),
                Signal(),
            ]),
        )
        engine = MtmInterpreterEngine(registry)
        engine.deploy(process)
        record = engine.handle_event(
            ProcessEvent("P_IN", 0.0, message=Message(41))
        )
        assert record.status == "ok"
        assert db.table("t").get(41) is not None
        assert record.costs.communication > 0
        assert record.costs.processing > 0

    def test_trace_collection(self, world):
        registry, _ = world
        tracer = Tracer()
        engine = MtmInterpreterEngine(registry)
        engine.observability = Observability(tracer)
        engine.deploy(
            ProcessType("P_T", ProcessGroup.A, "t", EventType.E2_SCHEDULE,
                        Sequence([Signal(name="end")]))
        )
        engine.handle_event(ProcessEvent("P_T", 0.0))
        assert [s.name for s in tracer.spans_of_kind("instance")] == ["P_T#1"]
        assert [s.name for s in tracer.spans_of_kind("operator")] \
            == ["signal:end"]


class TestSubprocesses:
    def test_child_costs_fold_into_parent(self, world):
        registry, _ = world
        child = ProcessType(
            "CHILD", ProcessGroup.D, "t", EventType.E2_SCHEDULE,
            Sequence([Signal(), Signal(), Signal()]),
            subprocess_only=True,
        )
        parent = ProcessType(
            "PARENT", ProcessGroup.D, "t", EventType.E2_SCHEDULE,
            Sequence([Subprocess("CHILD"), Signal()]),
        )
        solo = ProcessType(
            "SOLO", ProcessGroup.D, "t", EventType.E2_SCHEDULE,
            Sequence([Signal()]),
        )
        engine = MtmInterpreterEngine(registry)
        engine.deploy_all([child, parent, solo])
        parent_record = engine.handle_event(ProcessEvent("PARENT", 0.0))
        solo_record = engine.handle_event(ProcessEvent("SOLO", 1000.0))
        assert parent_record.costs.processing > solo_record.costs.processing

    def test_child_result_binds_to_output(self, world):
        registry, _ = world
        child = ProcessType(
            "CHILD", ProcessGroup.D, "t", EventType.E2_SCHEDULE,
            Sequence([Assign("__out", 99)]),
            subprocess_only=True,
        )
        results = []
        parent = ProcessType(
            "PARENT", ProcessGroup.D, "t", EventType.E2_SCHEDULE,
            Sequence([
                Subprocess("CHILD", output="got"),
                Assign("check", lambda c: results.append(c.get("got").payload)),
            ]),
        )
        engine = MtmInterpreterEngine(registry)
        engine.deploy_all([child, parent])
        engine.handle_event(ProcessEvent("PARENT", 0.0))
        assert results == [99]

    def test_child_variables_isolated_from_parent(self, world):
        registry, _ = world
        observations = []
        child = ProcessType(
            "CHILD", ProcessGroup.D, "t", EventType.E2_SCHEDULE,
            Sequence([
                Assign("probe", lambda c: observations.append(c.has("secret"))),
            ]),
            subprocess_only=True,
        )
        parent = ProcessType(
            "PARENT", ProcessGroup.D, "t", EventType.E2_SCHEDULE,
            Sequence([Assign("secret", 1), Subprocess("CHILD"), Signal()]),
        )
        engine = MtmInterpreterEngine(registry)
        engine.deploy_all([child, parent])
        engine.handle_event(ProcessEvent("PARENT", 0.0))
        assert observations == [False]

    def test_input_message_passed_to_child(self, world):
        registry, _ = world
        received = []
        child = ProcessType(
            "CHILD", ProcessGroup.D, "t", EventType.E2_SCHEDULE,
            Sequence([
                Receive("in_msg"),
                Assign("x", lambda c: received.append(c.get("in_msg").payload)),
            ]),
            subprocess_only=True,
        )
        parent = ProcessType(
            "PARENT", ProcessGroup.D, "t", EventType.E2_SCHEDULE,
            Sequence([
                Assign("data", "hello"),
                Subprocess("CHILD", input="data"),
            ]),
        )
        engine = MtmInterpreterEngine(registry)
        engine.deploy_all([child, parent])
        engine.handle_event(ProcessEvent("PARENT", 0.0))
        assert received == ["hello"]

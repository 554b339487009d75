"""The federated DBMS realization (Fig. 9)."""

import pytest

from repro.db import Column, Database, TableSchema
from repro.engine import FederatedEngine, MtmInterpreterEngine, ProcessEvent
from repro.mtm import (
    EventType,
    Invoke,
    Message,
    ProcessGroup,
    ProcessType,
    Receive,
    Sequence,
    Signal,
)
from repro.services import DatabaseService, Envelope, Network, ServiceRegistry
from repro.xmlkit.doc import parse_xml


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


def e1_process(pid="P_M"):
    return ProcessType(
        pid, ProcessGroup.B, "msg", EventType.E1_MESSAGE,
        Sequence([
            Receive("msg"),
            Invoke(
                "target",
                lambda c: Envelope.update_request(
                    "t", [{"k": int(c.get("msg").xml().child_text("K"))}]
                ),
            ),
            Signal(),
        ]),
    )


def e2_process(pid="P_S"):
    return ProcessType(
        pid, ProcessGroup.C, "scheduled", EventType.E2_SCHEDULE,
        Sequence([
            Invoke("target", lambda c: Envelope.update_request("t", [{"k": 7}])),
            Signal(),
        ]),
    )


class TestFig9Realization:
    def test_e1_deploys_queue_table_and_trigger(self, world):
        registry, _ = world
        engine = FederatedEngine(registry)
        engine.deploy(e1_process())
        assert engine.internal_db.has_table("P_M_Queue")
        schema = engine.internal_db.table("P_M_Queue").schema
        assert schema.column("tid").sql_type == "BIGINT"
        assert schema.column("msg").sql_type == "CLOB"
        assert engine.internal_db._triggers["trg_P_M"].table == "P_M_Queue"

    def test_e2_deploys_stored_procedure(self, world):
        registry, _ = world
        engine = FederatedEngine(registry)
        engine.deploy(e2_process())
        assert "P_S" in engine.internal_db._procedures

    def test_message_round_trips_through_clob(self, world):
        registry, db = world
        engine = FederatedEngine(registry)
        engine.deploy(e1_process())
        message = Message(parse_xml("<M><K>5</K></M>"), "msg")
        record = engine.handle_event(ProcessEvent("P_M", 0.0, message=message))
        assert record.status == "ok"
        assert db.table("t").get(5) is not None
        # The CLOB physically sits in the queue table.
        queued = engine.internal_db.table("P_M_Queue").scan()
        assert len(queued) == 1
        assert "<K>5</K>" in queued[0]["msg"]
        assert engine.queue_depth("P_M") == 1

    def test_e2_runs_via_procedure(self, world):
        registry, db = world
        engine = FederatedEngine(registry)
        engine.deploy(e2_process())
        record = engine.handle_event(ProcessEvent("P_S", 0.0))
        assert record.status == "ok"
        assert db.table("t").get(7) is not None
        assert engine.internal_db._procedures["P_S"].call_count == 1


class TestCostProfile:
    def test_receive_overhead_charged_for_messages(self, world):
        registry, _ = world
        engine = FederatedEngine(registry)
        engine.deploy(e1_process())
        engine.deploy(e2_process())
        e1_record = engine.handle_event(
            ProcessEvent("P_M", 0.0, message=Message(parse_xml("<M><K>1</K></M>")))
        )
        engine.reset_workers()
        e2_record = engine.handle_event(ProcessEvent("P_S", 10_000.0))
        assert e1_record.costs.management > e2_record.costs.management

    def test_xml_heavier_than_interpreter(self, world):
        """The paper's central observation about System A: message-driven
        (XML) processes cost disproportionately more on the federated
        realization, while relational work stays cheap."""
        registry, _ = world
        fed, interp = FederatedEngine(registry), MtmInterpreterEngine(registry)
        for engine in (fed, interp):
            engine.deploy(e1_process())
        message = Message(parse_xml("<M><K>2</K></M>"))
        fed_cost = fed.handle_event(
            ProcessEvent("P_M", 0.0, message=message)
        ).costs
        interp_cost = interp.handle_event(
            ProcessEvent("P_M", 0.0, message=message.copy())
        ).costs
        assert fed_cost.processing > interp_cost.processing
        assert fed_cost.management > interp_cost.management

    def test_trigger_outside_execution_rejected(self, world):
        registry, _ = world
        engine = FederatedEngine(registry)
        engine.deploy(e1_process())
        from repro.errors import EngineError

        with pytest.raises(EngineError):
            engine.internal_db.insert(
                "P_M_Queue", {"tid": 999, "msg": "<M><K>1</K></M>"}
            )

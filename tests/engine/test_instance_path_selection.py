"""What the instance path binds, it re-reads when it could have changed.

``handle_event`` reads the engine's own attachments *at every event*: a
client that attaches resilience, storage or observability to a running
engine gets retries, commits and spans from the next event on.  Operator
plans are bound once, from fields that refuse an edit; a tree rewritten
by the optimizer and redeployed carries new operators, which bind their
own.  The input-dependent checks still run per call, with the seed's
error text.
"""

from __future__ import annotations

import pytest

from repro.db.expressions import col, lit
from repro.db.relation import ProjectionPlan, Relation
from repro.engine import MtmInterpreterEngine, ProcessEvent
from repro.engine.costs import CostParameters
from repro.errors import (
    EngineError,
    NetworkError,
    ProcessRuntimeError,
    QueryError,
)
from repro.mtm import (
    Assign,
    Convert,
    Delete,
    EventType,
    Message,
    ProcessGroup,
    ProcessType,
    Projection,
    Receive,
    Sequence,
    Signal,
    ValidateRows,
)
from repro.mtm.context import ExecutionContext
from repro.observability import Observability
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracer import Tracer
from repro.optimizer.rules import merge_projections
from repro.resilience import (
    FaultEvent,
    FaultInjector,
    FaultSpec,
    ResilienceContext,
    RetryPolicy,
)
from repro.services import Network
from repro.storage import StorageManager
from repro.xmlkit.convert import rows_to_resultset
from tests.engine.test_engine_base import fresh_registry, simple_e2


def event(process_id="PX", deadline=0.0, message=None):
    return ProcessEvent(process_id, deadline, message=message)


# ------------------------------------------------------------- path selection


class TestAttachBetweenTwoEvents:
    def test_resilience_attached_mid_run_retries_the_next_event(self):
        engine = MtmInterpreterEngine(fresh_registry())
        engine.deploy(simple_e2())
        first = engine.handle_event(event(deadline=0.0))
        assert (first.status, first.attempts) == ("ok", 1)

        faults = FaultSpec(
            events=(FaultEvent(at=0.0, kind="engine_fault", process="PX"),)
        )
        engine.resilience = ResilienceContext(
            policy=RetryPolicy(max_attempts=3),
            injector=FaultInjector(faults, registry=engine.registry),
        )
        engine.resilience.begin_period(0)
        second = engine.handle_event(event(deadline=10.0))
        assert (second.status, second.attempts) == ("ok", 2)
        assert second.fault_types == ("TransientEngineFault",)
        assert second.recovered

        engine.resilience = None  # and detached again: fail-fast
        third = engine.handle_event(event(deadline=50.0))
        assert (third.attempts, third.fault_types) == (1, ())

    def test_storage_attached_mid_run_commits_the_next_event(self):
        engine = MtmInterpreterEngine(fresh_registry())
        engine.deploy(simple_e2())
        engine.handle_event(event(deadline=0.0))

        storage = StorageManager(mode="wal")
        storage.attach_engine(engine)
        storage.begin_period(0, engine)
        assert storage.commit_count == 0
        record = engine.handle_event(event(deadline=10.0))
        assert storage.commit_count == 1
        assert record.instance_id == 2

    def test_observability_enabled_mid_run_emits_spans_for_the_next_event(self):
        engine = MtmInterpreterEngine(fresh_registry())
        engine.deploy(simple_e2(steps=3))
        engine.handle_event(event(deadline=0.0))

        obs = Observability(tracer=Tracer(), metrics=MetricsRegistry())
        engine.observability = obs
        record = engine.handle_event(event(deadline=10.0))
        instance_spans = obs.tracer.spans_of_kind("instance")
        assert [s.name for s in instance_spans] == [f"PX#{record.instance_id}"]
        assert len(obs.tracer.spans_of_kind("operator")) == 3

        engine.observability = None
        engine.handle_event(event(deadline=20.0))
        assert len(obs.tracer.spans_of_kind("instance")) == 1

    def test_tracing_switched_on_mid_run_logs_the_next_instance(self):
        engine = MtmInterpreterEngine(fresh_registry())
        engine.deploy(simple_e2(steps=2))
        engine.handle_event(event(deadline=0.0))
        assert engine.traces == []
        engine.trace = True
        engine.handle_event(event(deadline=10.0))
        assert engine.traces == [
            ("PX", ["sequence:sequence", "signal:signal", "signal:signal"])
        ]

    def test_failure_on_a_bare_engine_is_the_fail_fast_record(self):
        engine = MtmInterpreterEngine(fresh_registry())
        engine.deploy(
            ProcessType(
                "PF", ProcessGroup.B, "t", EventType.E2_SCHEDULE,
                # Deployment's flow check does not see a DELETE unbind.
                Sequence([Assign("ghost", 1), Delete("ghost"),
                          Projection("ghost", "out", {"a": "a"})]),
            ),
        )
        record = engine.handle_event(event("PF", deadline=3.0))
        assert record.status == "error"
        assert record.error_type == "ProcessRuntimeError"
        assert record.error == (
            "ProcessRuntimeError: message variable 'ghost' is unbound; bound: []"
        )
        assert (record.operators_executed, record.attempts) == (0, 1)
        assert record.costs.processing == record.costs.communication == 0.0
        assert record.costs.management == engine.cost_parameters.management_cost(0)


# ------------------------------------------------------------------ bound plans


def order_message(amount="5.0"):
    document = rows_to_resultset(
        ("orderkey", "amount"), [{"orderkey": 7, "amount": amount}], "orders"
    )
    return Message(document, "Order")


def feed_process(seen, projection, convert, validate):
    """RECEIVE → CONVERT → VALIDATE_ROWS → PROJECTION, probed at the end."""

    def probe(context):
        seen.append(context.get("out").relation().to_dicts())
        return 0

    return ProcessType(
        "FEED", ProcessGroup.A, "t", EventType.E1_MESSAGE,
        Sequence([Receive("msg"), convert, validate, projection,
                  Assign("probe", probe)]),
    )


@pytest.fixture()
def feed():
    seen: list = []
    projection = Projection("valid", "out", {"key": "orderkey", "amt": "amount"})
    convert = Convert(
        "msg", "rows", "xml_to_relation", columns=("orderkey", "amount"),
        types={"orderkey": "BIGINT", "amount": "DOUBLE"},
    )
    validate = ValidateRows(
        "rows", {"positive": col("amount") > lit(0.0)},
        output="valid", filter_invalid=True,
    )
    engine = MtmInterpreterEngine(fresh_registry())
    engine.deploy(feed_process(seen, projection, convert, validate))

    def run(amount="5.0"):
        record = engine.handle_event(
            event("FEED", message=order_message(amount))
        )
        assert record.status == "ok", record.error
        return seen[-1]

    assert run() == [{"key": 7, "amt": 5.0}]  # plans are bound from here on
    return run, projection, convert, validate


class TestPlansFollowTheirDefinition:
    def test_tree_rewritten_by_the_optimizer_and_redeployed(self):
        seen: list = []

        def probe(context):
            seen.append(context.get("out").relation().to_dicts())
            return 0

        convert = Convert(
            "msg", "rows", "xml_to_relation", columns=("orderkey", "amount"),
            types={"orderkey": "BIGINT", "amount": "DOUBLE"},
        )
        process = ProcessType(
            "FEED", ProcessGroup.A, "t", EventType.E1_MESSAGE,
            Sequence([
                Receive("msg"),
                convert,
                Projection("rows", "mid", {"k": "orderkey", "a": "amount"}),
                Projection("mid", "out", {"amt": "a", "key": "k"}),
                Assign("probe", probe),
            ]),
        )
        engine = MtmInterpreterEngine(fresh_registry())
        engine.deploy(process)
        engine.handle_event(event("FEED", message=order_message()))

        rewritten, report = merge_projections(process)
        assert report.projections_merged == 1
        merged = [
            op for op in rewritten.operators() if isinstance(op, Projection)
        ]
        assert len(merged) == 1 and merged[0]._plan is None
        # The rewrite keeps the other operators — and the plans they
        # bound on the first engine, still built from unchanged fields.
        assert convert in rewritten.operators() and convert._parsers is not None
        redeployed = MtmInterpreterEngine(fresh_registry())
        redeployed.deploy(rewritten)
        record = redeployed.handle_event(event("FEED", message=order_message()))
        assert record.status == "ok", record.error
        assert seen == [[{"amt": 5.0, "key": 7}]] * 2
        assert record.operators_executed == 5  # one projection fewer

    def test_a_plan_is_built_once_per_definition(self, feed):
        run, projection, convert, _ = feed
        bound = (projection._plan, convert._parsers)
        run()
        run()
        rebound = (projection._plan, convert._parsers)
        assert all(a is b for a, b in zip(bound, rebound))

    def test_project_takes_a_mapping_or_its_plan(self):
        relation = Relation(("a", "b"), [{"a": 1, "b": 2}])
        mapping = {"x": "a", "y": col("b") + lit(1)}
        plan = ProjectionPlan(mapping)
        by_plan = relation.project(plan)
        by_mapping = relation.project(mapping)
        assert by_plan.columns == by_mapping.columns == ("x", "y")
        assert by_plan.to_dicts() == by_mapping.to_dicts() == [{"x": 1, "y": 3}]


# ------------------------------------------- per-call checks, unchanged errors


class TestInputDependentChecksStillRunPerCall:
    def test_unknown_projected_column(self):
        projection = Projection("in", "out", {"x": "nope", "y": "a"})
        context = ExecutionContext(fresh_registry(), "IS")
        context.set("in", Message(Relation(("a",), [{"a": 1}])))
        for _ in range(2):  # unbound, then bound: the same refusal
            with pytest.raises(QueryError) as err:
                projection.execute(context)
            assert str(err.value) == "unknown columns ['nope']; have ('a',)"

    def test_computed_column_over_a_wide_relation(self):
        wide = Relation(("a", "b"), [{"a": 1, "b": 2}]).keep("a")
        projection = Projection("in", "out", {"x": col("b")})
        context = ExecutionContext(fresh_registry(), "IS")
        context.set("in", Message(wide))
        for _ in range(2):
            with pytest.raises(QueryError) as err:
                projection.execute(context)
            assert str(err.value) == "unknown column 'b'; row has ['a']"

    def test_unbound_variable(self):
        context = ExecutionContext(fresh_registry(), "IS")
        context.set("other", Message(1))
        with pytest.raises(ProcessRuntimeError) as err:
            Projection("missing", "out", {"a": "a"}).execute(context)
        assert str(err.value) == (
            "message variable 'missing' is unbound; bound: ['other']"
        )

    def test_unknown_work_kind(self):
        costs = CostParameters()
        assert costs.processing_cost({"relational": 10.0}) == pytest.approx(0.2)
        with pytest.raises(EngineError) as err:
            costs.processing_cost({"relational": 1.0, "quantum": 2.0, "astral": 1.0})
        assert str(err.value) == "unknown work kinds ['astral', 'quantum']"
        context = ExecutionContext(fresh_registry(), "IS")
        with pytest.raises(ProcessRuntimeError) as err:
            context.charge_work("quantum", 1.0)
        assert str(err.value) == "unknown work kind 'quantum'"

    def test_partitioned_and_unknown_host_pairs(self):
        network = Network()
        network.add_host("IS")
        network.add_host("ES")
        assert network.transfer_cost("IS", "ES", 200.0) == 2.0
        network.partition("IS", "ES")
        with pytest.raises(NetworkError) as err:
            network.transfer_cost("IS", "ES", 1.0)
        assert str(err.value) == "network partition between IS and ES"
        assert network._m_partition_errors.value == 1
        network.heal("IS", "ES")
        assert network.transfer_cost("ES", "IS", 0.0) == 1.0
        for src, dst, unknown in (("XX", "ES", "XX"), ("IS", "YY", "YY"),
                                  ("XX", "YY", "XX")):
            with pytest.raises(NetworkError) as err:
                network.transfer_cost(src, dst, 1.0)
            assert str(err.value) == (
                f"unknown host {unknown!r}; known: ['ES', 'IS']"
            )
        with pytest.raises(NetworkError) as err:
            network.transfer_cost("IS", "ES", -1.0)
        assert str(err.value) == "negative payload: -1.0"
        assert network.transfer_count == 2

    def test_unsupported_operation_names_the_endpoint(self):
        from repro.db import Database
        from repro.errors import OperationNotSupported
        from repro.services import DatabaseService, Envelope

        service = DatabaseService("berlin", "ES", Database("berlin"))
        for _ in range(2):
            with pytest.raises(OperationNotSupported) as err:
                service.handle(Envelope("teleport", None))
            assert str(err.value) == (
                "service berlin: no operation 'teleport' "
                "(supported: ['query', 'update', 'execute'])"
            )
        assert service.call_count == 0

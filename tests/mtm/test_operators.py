"""Atomic MTM operators, executed against a minimal context."""

import pytest

from repro.db import Column, Database, TableSchema, col, lit
from repro.db.relation import Relation
from repro.errors import (
    ProcessDefinitionError,
    ProcessRuntimeError,
    ValidationError,
)
from repro.mtm.context import ExecutionContext
from repro.mtm.message import Message
from repro.mtm.operators import (
    Assign,
    Convert,
    ExtractField,
    Invoke,
    Join,
    Projection,
    Receive,
    Selection,
    Signal,
    Translation,
    Union,
    Validate,
    ValidateRows,
)
from repro.services import DatabaseService, Envelope, Network, ServiceRegistry
from repro.xmlkit.convert import rows_to_resultset
from repro.xmlkit.doc import parse_xml
from repro.xmlkit.stx import RenameRule, Stylesheet
from repro.xmlkit.xsd import XsdElement, XsdSchema


@pytest.fixture()
def registry():
    net = Network()
    net.add_host("IS")
    registry = ServiceRegistry(net)
    db = Database("ext")
    db.create_table(
        TableSchema("t", [Column("k", "BIGINT", nullable=False)],
                    primary_key=("k",))
    )
    registry.register(DatabaseService("ext", "ES", db))
    return registry, db


@pytest.fixture()
def ctx(registry):
    reg, _ = registry
    return ExecutionContext(reg, "IS")


def run(op, ctx):
    op._run(ctx)
    return ctx


class TestReceive:
    def test_binds_inbound(self, ctx):
        ctx.set("__in", Message("payload", "typed"))
        run(Receive("msg1"), ctx)
        assert ctx.get("msg1").payload == "payload"

    def test_missing_inbound(self, ctx):
        with pytest.raises(ProcessRuntimeError):
            run(Receive("msg1"), ctx)

    def test_type_check(self, ctx):
        ctx.set("__in", Message("x", "wrong"))
        with pytest.raises(ProcessRuntimeError):
            run(Receive("msg1", expected_type="right"), ctx)


class TestAssignDelete:
    def test_assign_constant(self, ctx):
        run(Assign("v", 42), ctx)
        assert ctx.get("v").payload == 42

    def test_assign_callable(self, ctx):
        ctx.set("a", Message(2))
        run(Assign("b", lambda c: c.get("a").payload * 3), ctx)
        assert ctx.get("b").payload == 6

    def test_assign_message_passthrough(self, ctx):
        msg = Message("x", "t")
        run(Assign("v", msg), ctx)
        assert ctx.get("v") is msg

    def test_unbound_read_raises(self, ctx):
        with pytest.raises(ProcessRuntimeError, match="unbound"):
            ctx.get("nope")


class TestInvoke:
    def test_invoke_binds_output_and_charges(self, ctx, registry):
        _, db = registry
        db.insert("t", {"k": 1})
        op = Invoke("ext", lambda c: Envelope.query_request("t"), output="res")
        run(op, ctx)
        assert len(ctx.get("res").payload) == 1
        assert ctx.communication_cost > 0
        assert ctx.work_units["relational"] > 0

    def test_invoke_without_output(self, ctx):
        op = Invoke("ext", lambda c: Envelope.update_request("t", [{"k": 9}]))
        run(op, ctx)
        assert not ctx.has("result")

    def test_work_kind_routing(self, ctx):
        op = Invoke("ext", lambda c: Envelope.query_request("t"),
                    output="r", work_kind="xml")
        run(op, ctx)
        assert ctx.work_units["xml"] > 0
        assert ctx.work_units["relational"] == 0


class TestRelationalOperators:
    def test_selection(self, ctx):
        ctx.set("in", Message(Relation(("k",), [{"k": 1}, {"k": 5}])))
        run(Selection("in", "out", col("k") > lit(2)), ctx)
        assert len(ctx.get("out").relation()) == 1
        assert ctx.work_units["relational"] == 2.0

    def test_projection(self, ctx):
        ctx.set("in", Message(Relation(("a",), [{"a": 1}])))
        run(Projection("in", "out", {"b": "a"}), ctx)
        assert ctx.get("out").relation().columns == ("b",)

    def test_join(self, ctx):
        ctx.set("l", Message(Relation(("k",), [{"k": 1}])))
        ctx.set("r", Message(Relation(("k", "v"), [{"k": 1, "v": "x"}])))
        run(Join("l", "r", "out", on=[("k", "k")]), ctx)
        assert ctx.get("out").relation().rows[0]["v"] == "x"

    def test_union_distinct(self, ctx):
        ctx.set("a", Message(Relation(("k",), [{"k": 1}, {"k": 2}])))
        ctx.set("b", Message(Relation(("k",), [{"k": 2}, {"k": 3}])))
        run(Union(["a", "b"], "out", distinct_key=("k",)), ctx)
        assert len(ctx.get("out").relation()) == 3

    def test_union_all(self, ctx):
        ctx.set("a", Message(Relation(("k",), [{"k": 1}])))
        ctx.set("b", Message(Relation(("k",), [{"k": 1}])))
        run(Union(["a", "b"], "out"), ctx)
        assert len(ctx.get("out").relation()) == 2

    def test_union_needs_inputs(self):
        with pytest.raises(ProcessDefinitionError):
            Union([], "out")


class TestTranslation:
    def test_applies_stylesheet_and_charges_xml(self, ctx):
        sheet = Stylesheet("s", [RenameRule("/a", "z")])
        ctx.set("in", Message(parse_xml("<a><b/></a>"), "m"))
        run(Translation("in", "out", sheet), ctx)
        assert ctx.get("out").xml().tag == "z"
        assert ctx.get("out").message_type == "m"
        assert ctx.work_units["xml"] == 4.0  # 2 starts + 2 ends


class TestValidate:
    def _schema(self):
        return XsdSchema("s", XsdElement("ok"))

    def test_valid_passes(self, ctx):
        ctx.set("in", Message(parse_xml("<ok/>")))
        run(Validate("in", self._schema()), ctx)
        assert ctx.validation_failures == []

    def test_strict_failure_raises(self, ctx):
        ctx.set("in", Message(parse_xml("<bad/>")))
        with pytest.raises(ValidationError):
            run(Validate("in", self._schema()), ctx)
        assert len(ctx.validation_failures) == 1

    def test_on_fail_branch_runs(self, ctx):
        from repro.mtm.operators import _ValidationHandled

        handled = []
        branch = Assign("failnote", lambda c: handled.append(1) or "noted")
        ctx.set("in", Message(parse_xml("<bad/>")))
        with pytest.raises(_ValidationHandled):
            run(Validate("in", self._schema(), on_fail=branch), ctx)
        assert handled == [1]


class TestValidateRows:
    def test_strict_mode(self, ctx):
        ctx.set("in", Message(Relation(("k",), [{"k": -1}])))
        with pytest.raises(ValidationError):
            run(ValidateRows("in", {"pos": col("k") > lit(0)}), ctx)

    def test_filter_mode(self, ctx):
        ctx.set("in", Message(Relation(("k",), [{"k": -1}, {"k": 5}])))
        run(
            ValidateRows("in", {"pos": col("k") > lit(0)},
                         output="out", filter_invalid=True),
            ctx,
        )
        assert len(ctx.get("out").relation()) == 1
        assert len(ctx.validation_failures) == 1

    def test_needs_checks(self):
        with pytest.raises(ProcessDefinitionError):
            ValidateRows("in", {})

    def test_clean_rows_pass_through(self, ctx):
        ctx.set("in", Message(Relation(("k",), [{"k": 1}])))
        run(ValidateRows("in", {"pos": col("k") > lit(0)}), ctx)
        assert len(ctx.get("in").relation()) == 1


class TestConvert:
    def test_xml_to_relation(self, ctx):
        doc = rows_to_resultset(("k",), [{"k": 5}], "t")
        ctx.set("in", Message(doc))
        run(
            Convert("in", "out", "xml_to_relation",
                    columns=["k"], types={"k": "BIGINT"}),
            ctx,
        )
        assert ctx.get("out").relation().rows == [{"k": 5}]

    def test_relation_to_xml(self, ctx):
        ctx.set("in", Message(Relation(("k",), [{"k": 5}])))
        run(Convert("in", "out", "relation_to_xml", table="t"), ctx)
        doc = ctx.get("out").xml()
        assert doc.tag == "ResultSet"
        assert doc.attributes["table"] == "t"

    def test_empty_resultset_with_columns(self, ctx):
        ctx.set("in", Message(rows_to_resultset(("k",), [], "t")))
        run(Convert("in", "out", "xml_to_relation", columns=["k"]), ctx)
        assert len(ctx.get("out").relation()) == 0

    def test_empty_resultset_without_columns_raises(self, ctx):
        ctx.set("in", Message(rows_to_resultset(("k",), [], "t")))
        with pytest.raises(ProcessRuntimeError):
            run(Convert("in", "out", "xml_to_relation"), ctx)

    def test_bad_direction(self):
        with pytest.raises(ProcessDefinitionError):
            Convert("in", "out", "sideways")


class TestExtractField:
    def test_extract_with_conversion(self, ctx):
        ctx.set("in", Message(parse_xml("<m><k>42</k></m>")))
        run(ExtractField("in", "out", "/m/k", convert=int), ctx)
        assert ctx.get("out").payload == 42

    def test_missing_path_raises(self, ctx):
        ctx.set("in", Message(parse_xml("<m/>")))
        with pytest.raises(ProcessRuntimeError):
            run(ExtractField("in", "out", "/m/ghost"), ctx)


class TestSignalAndBookkeeping:
    def test_signal_charges_control(self, ctx):
        run(Signal(), ctx)
        assert ctx.work_units["control"] == 1.0

    def test_operator_counter(self, ctx):
        run(Signal(), ctx)
        run(Signal(), ctx)
        assert ctx.operators_executed == 2

    def test_trace(self, registry):
        reg, _ = registry
        traced = ExecutionContext(reg, "IS")
        traced.operator_log = []
        run(Signal(name="end"), traced)
        assert [(o.kind, o.name) for o in traced.operator_log] \
            == [("signal", "end")]

    def test_unknown_work_kind(self, ctx):
        with pytest.raises(ProcessRuntimeError):
            ctx.charge_work("quantum", 1.0)

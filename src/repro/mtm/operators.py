"""Atomic MTM operators.

Each operator is a small, configuration-carrying object with an
``execute(context)`` method.  Operators read message variables, write one
output variable, and report the work they performed (relational rows, XML
events, or control steps) so the engine can price it.

The operator set is exactly what the paper's 15 process types use:
RECEIVE, ASSIGN, INVOKE, TRANSLATION (STX), SELECTION, PROJECTION, JOIN,
UNION [DISTINCT], VALIDATE, CONVERT (XML ↔ relation), DELETE and SIGNAL.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ProcessDefinitionError, ProcessRuntimeError, ValidationError
from repro.db import fastpath
from repro.db.expressions import Expression
from repro.db.relation import ProjectionPlan, Relation
from repro.mtm.context import (
    WORK_CONTROL,
    WORK_RELATIONAL,
    WORK_XML,
    ExecutionContext,
)
from repro.mtm.message import Message
from repro.observability.profile import OperatorObservation
from repro.services.endpoints import Envelope
from repro.xmlkit.convert import ColumnParsers, resultset_to_rows, rows_to_resultset
from repro.xmlkit.stx import Stylesheet
from repro.xmlkit.xpath import xpath_text
from repro.xmlkit.xsd import XsdSchema


class Operator:
    """Base class for all operators (atomic and structured)."""

    #: Class-level operator kind for introspection/plots.
    kind = "operator"

    #: Whether this operator is an observability leaf: structured blocks
    #: (Sequence/Switch/Fork/Subprocess) run nested operators that log
    #: themselves, so logging the block too would double-count its work.
    profile_leaf = True

    def __init__(self, name: str = ""):
        self.name = name or type(self).__name__.lower()

    def execute(self, context: ExecutionContext) -> None:
        raise NotImplementedError

    def children(self) -> Sequence["Operator"]:
        """Nested operators (structured blocks override this)."""
        return ()

    def iter_tree(self) -> list["Operator"]:
        """This operator and all nested operators, pre-order."""
        out: list[Operator] = [self]
        for child in self.children():
            out.extend(child.iter_tree())
        return out

    def _run(self, context: ExecutionContext) -> None:
        context.operators_executed += 1
        log = context.operator_log
        if log is None or not self.profile_leaf:
            self.execute(context)
            return
        work_before = dict(context.work_units)
        communication_before = context.communication_cost
        network_log = context.network_log
        calls_before = len(network_log) if network_log is not None else 0
        fastpath_before = fastpath.STATS.copy()
        try:
            self.execute(context)
        finally:
            fastpath_delta = fastpath.STATS - fastpath_before
            log.append(
                OperatorObservation(
                    kind=self.kind,
                    name=self.name,
                    work={
                        kind: context.work_units[kind] - work_before.get(kind, 0.0)
                        for kind in context.work_units
                        if context.work_units[kind] != work_before.get(kind, 0.0)
                    },
                    communication=context.communication_cost
                    - communication_before,
                    network_calls=list(network_log[calls_before:])
                    if network_log is not None
                    else [],
                    fastpath={
                        key: value
                        for key, value in fastpath_delta.snapshot().items()
                        if value
                    },
                )
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class Receive(Operator):
    """Entry operator of event-type-E1 processes: binds the inbound
    message (placed by the engine under the reserved variable ``__in``)
    to ``output``."""

    kind = "receive"

    def __init__(self, output: str, expected_type: str = "", name: str = ""):
        super().__init__(name)
        self.output = output
        self.expected_type = expected_type

    def execute(self, context: ExecutionContext) -> None:
        if not context.has("__in"):
            raise ProcessRuntimeError(
                f"RECEIVE {self.name}: no inbound message was delivered"
            )
        message = context.get("__in")
        if self.expected_type and message.message_type != self.expected_type:
            raise ProcessRuntimeError(
                f"RECEIVE {self.name}: expected message type "
                f"{self.expected_type!r}, got {message.message_type!r}"
            )
        context.set(self.output, message)
        context.charge_work(WORK_CONTROL, 1.0)


class Assign(Operator):
    """Bind a variable to a constant or a computed value.

    ``value`` may be a Message, a plain payload, or a callable
    ``(context) -> Message | payload`` — the diagrams' ASSIGN boxes that
    set service parameters before an INVOKE.
    """

    kind = "assign"

    def __init__(self, output: str, value: Any, name: str = ""):
        super().__init__(name)
        self.output = output
        self.value = value

    def execute(self, context: ExecutionContext) -> None:
        value = self.value(context) if callable(self.value) else self.value
        message = value if isinstance(value, Message) else Message(value)
        context.set(self.output, message)
        context.charge_work(WORK_CONTROL, 1.0)


class Invoke(Operator):
    """Call an external service operation (Fig. 4/5's Invoke boxes).

    ``request_builder(context) -> Envelope`` builds the request from the
    bound variables; the response body is bound to ``output`` when given.
    Communication cost is charged by the context; the (de)serialization
    work is charged here, priced as XML work for web services and
    relational work for database services.
    """

    kind = "invoke"

    def __init__(
        self,
        service: str,
        request_builder: Callable[[ExecutionContext], Envelope],
        output: str | None = None,
        work_kind: str = WORK_RELATIONAL,
        name: str = "",
    ):
        super().__init__(name)
        self.service = service
        self.request_builder = request_builder
        self.output = output
        self.work_kind = work_kind

    def execute(self, context: ExecutionContext) -> None:
        request = self.request_builder(context)
        response = context.call_service(self.service, request)
        context.charge_work(
            self.work_kind, request.payload_units + response.payload_units
        )
        if self.output:
            context.set(self.output, Message(response.body, response.operation))


class Translation(Operator):
    """Apply an STX stylesheet to an XML message (P01, P02, P08, P09)."""

    kind = "translation"

    def __init__(self, input: str, output: str, stylesheet: Stylesheet, name: str = ""):
        super().__init__(name)
        self.input = input
        self.output = output
        self.stylesheet = stylesheet

    def execute(self, context: ExecutionContext) -> None:
        document = context.get(self.input).xml()
        result, events = self.stylesheet.transform(document)
        context.charge_work(WORK_XML, float(events))
        context.set(
            self.output, Message(result, context.get(self.input).message_type)
        )


class Selection(Operator):
    """Relational selection over a relation-valued message (P05/P06)."""

    kind = "selection"

    def __init__(self, input: str, output: str, predicate: Expression, name: str = ""):
        super().__init__(name)
        self.input = input
        self.output = output
        self.predicate = predicate

    def execute(self, context: ExecutionContext) -> None:
        relation = context.get(self.input).relation()
        context.charge_work(WORK_RELATIONAL, float(len(relation)))
        context.set(self.output, Message(relation.select(self.predicate)))


class Projection(Operator):
    """Relational projection/renaming (the schema mappings of P05–P07, P11)."""

    kind = "projection"

    def __init__(
        self,
        input: str,
        output: str,
        mapping: Mapping[str, str | Expression],
        name: str = "",
    ):
        super().__init__(name)
        self.input = input
        self.output = output
        self._mapping = MappingProxyType(dict(mapping))
        #: ``mapping`` as :meth:`Relation.project` runs it, built at the
        #: first instance.
        self._plan: ProjectionPlan | None = None

    @property
    def mapping(self) -> Mapping[str, str | Expression]:
        """Output column -> input column or expression (read-only)."""
        return self._mapping

    def execute(self, context: ExecutionContext) -> None:
        relation = context.get(self.input).relation()
        context.charge_work(WORK_RELATIONAL, float(len(relation)))
        plan = self._plan
        if plan is None:
            plan = self._plan = ProjectionPlan(self._mapping)
        context.set(self.output, Message(relation.project(plan)))


class Join(Operator):
    """Inner hash join of two relation-valued messages (message
    enrichment, P04)."""

    kind = "join"

    def __init__(
        self,
        left: str,
        right: str,
        output: str,
        on: Sequence[tuple[str, str]],
        name: str = "",
    ):
        super().__init__(name)
        self.left = left
        self.right = right
        self.output = output
        self.on = list(on)

    def execute(self, context: ExecutionContext) -> None:
        left = context.get(self.left).relation()
        right = context.get(self.right).relation()
        context.charge_work(WORK_RELATIONAL, float(len(left) + len(right)))
        context.set(self.output, Message(left.join(right, self.on)))


class Union(Operator):
    """UNION ALL / UNION DISTINCT of several relation messages.

    With ``distinct_key`` this is the keyed UNION DISTINCT of P03 and P09
    ("concerning the Orderkey, Custkey and Productkey").
    """

    kind = "union"

    def __init__(
        self,
        inputs: Sequence[str],
        output: str,
        distinct_key: Sequence[str] | None = None,
        name: str = "",
    ):
        if len(inputs) < 1:
            raise ProcessDefinitionError("UNION needs at least one input")
        super().__init__(name)
        self.inputs = list(inputs)
        self.output = output
        self.distinct_key = list(distinct_key) if distinct_key else None

    def execute(self, context: ExecutionContext) -> None:
        relations = [context.get(name).relation() for name in self.inputs]
        total_rows = sum(len(r) for r in relations)
        context.charge_work(WORK_RELATIONAL, float(total_rows))
        merged = relations[0]
        for relation in relations[1:]:
            merged = merged.union_all(relation)
        if self.distinct_key is not None:
            merged = merged.distinct(self.distinct_key)
            context.charge_work(WORK_RELATIONAL, float(total_rows))
        context.set(self.output, Message(merged))


class Validate(Operator):
    """Validate an XML message against an XSD schema (P10, P12, P13).

    On failure: raises :class:`ValidationError` when ``on_fail`` is None
    (strict mode, P12/P13 abort the load), or routes the message to the
    failed-data branch when ``on_fail`` is an operator (P10's special
    destinations for failed data).
    """

    kind = "validate"

    def __init__(
        self,
        input: str,
        schema: XsdSchema,
        on_fail: "Operator | None" = None,
        name: str = "",
    ):
        super().__init__(name)
        self.input = input
        self.schema = schema
        self.on_fail = on_fail

    def children(self) -> Sequence[Operator]:
        return (self.on_fail,) if self.on_fail is not None else ()

    def execute(self, context: ExecutionContext) -> None:
        message = context.get(self.input)
        document = message.xml()
        context.charge_work(WORK_XML, float(document.size()))
        violations = self.schema.validate(document)
        if not violations:
            return
        context.validation_failures.append(violations)
        if self.on_fail is None:
            raise ValidationError(
                f"VALIDATE {self.name}: message {message.message_id} failed "
                f"schema {self.schema.name}",
                violations,
            )
        self.on_fail._run(context)
        raise _ValidationHandled()


class _ValidationHandled(Exception):
    """Internal control flow: a Validate routed to its failure branch.

    Sequence blocks catch this and stop the normal flow, mirroring how
    P10 inserts failed data and ends the instance.
    """


class Convert(Operator):
    """Convert between XML result sets and relations.

    ``direction`` is ``"xml_to_relation"`` (with ``types``/``columns``)
    or ``"relation_to_xml"`` (with ``table``).  Used where the Asian
    result sets enter the relational flow (P09) and for building outbound
    result sets (P01).
    """

    kind = "convert"

    def __init__(
        self,
        input: str,
        output: str,
        direction: str,
        columns: Sequence[str] | None = None,
        types: Mapping[str, str] | None = None,
        table: str = "",
        name: str = "",
    ):
        if direction not in ("xml_to_relation", "relation_to_xml"):
            raise ProcessDefinitionError(f"unknown Convert direction {direction!r}")
        super().__init__(name)
        self.input = input
        self.output = output
        self.direction = direction
        self.columns = list(columns) if columns else None
        self._types = MappingProxyType(dict(types)) if types else None
        self.table = table
        #: The column -> parser table of ``types``, built at the first
        #: instance.
        self._parsers: ColumnParsers | None = None

    @property
    def types(self) -> Mapping[str, str] | None:
        """Column -> SQL type of the parsed cells (read-only)."""
        return self._types

    def execute(self, context: ExecutionContext) -> None:
        message = context.get(self.input)
        if self.direction == "xml_to_relation":
            document = message.xml()
            context.charge_work(WORK_XML, float(document.size()))
            parsers = self._parsers
            if parsers is None:
                parsers = self._parsers = ColumnParsers(self._types)
            rows = resultset_to_rows(document, parsers)
            if self.columns is None:
                if not rows:
                    raise ProcessRuntimeError(
                        f"CONVERT {self.name}: empty result set and no "
                        "declared columns"
                    )
                columns = list(rows[0].keys())
            else:
                columns = self.columns
            context.set(self.output, Message(Relation(columns, rows)))
        else:
            relation = message.relation()
            context.charge_work(WORK_XML, float(len(relation)))
            document = rows_to_resultset(relation.columns, relation.rows, self.table)
            context.set(self.output, Message(document))


class ValidateRows(Operator):
    """Validate a relation-valued message row by row (P12/P13).

    ``checks`` maps a human-readable rule name to a predicate Expression
    that must evaluate to true for every row.  In strict mode (default)
    any violation raises :class:`ValidationError` — the data warehouse
    load aborts on dirty data, which is why the cleansing procedures run
    first.  With ``filter_invalid=True`` the operator instead drops the
    offending rows and records the violation count.
    """

    kind = "validate_rows"

    def __init__(
        self,
        input: str,
        checks: Mapping[str, Expression],
        output: str | None = None,
        filter_invalid: bool = False,
        name: str = "",
    ):
        if not checks:
            raise ProcessDefinitionError("ValidateRows needs at least one check")
        super().__init__(name)
        self.input = input
        self._checks = MappingProxyType(dict(checks))
        self.output = output or input
        self.filter_invalid = filter_invalid

    @property
    def checks(self) -> Mapping[str, Expression]:
        """Rule name -> predicate every row must satisfy (read-only)."""
        return self._checks

    def execute(self, context: ExecutionContext) -> None:
        relation = context.get(self.input).relation()
        checks = self._checks
        context.charge_work(WORK_RELATIONAL, float(len(relation) * len(checks)))
        compiled = []
        for rule_name, predicate in checks.items():
            relation._guard_expression(predicate)
            compiled.append((rule_name, predicate.compile()))
        narrow = relation._wide
        violations: list[str] = []
        good_rows = []
        for row in relation.rows:
            row_ok = True
            for rule_name, check in compiled:
                if check(row) is not True:
                    # Violation text must not leak extra keys a shared
                    # wide row physically carries.
                    shown = relation._narrow_row(row) if narrow else row
                    violations.append(f"{rule_name}: {shown!r}")
                    row_ok = False
            if row_ok:
                good_rows.append(row)
        if violations and not self.filter_invalid:
            context.validation_failures.append(violations)
            raise ValidationError(
                f"VALIDATE_ROWS {self.name}: {len(violations)} violation(s)",
                violations,
            )
        if violations:
            context.validation_failures.append(violations)
        result = Relation.from_trusted(
            relation.columns, good_rows, wide=relation._wide
        )
        context.set(self.output, Message(result))


class Signal(Operator):
    """Terminal no-op marking the end of a flow (diagram end-circles)."""

    kind = "signal"

    def execute(self, context: ExecutionContext) -> None:
        context.charge_work(WORK_CONTROL, 1.0)


class ExtractField(Operator):
    """Pull a scalar out of an XML message into a variable via XPath.

    Used by SWITCH conditions (P02 evaluates the Customer identifier from
    the translated message) and by enrichment joins that need a key.
    """

    kind = "extract_field"

    def __init__(
        self,
        input: str,
        output: str,
        path: str,
        convert: Callable[[str], Any] | None = None,
        name: str = "",
    ):
        super().__init__(name)
        self.input = input
        self.output = output
        self.path = path
        self.convert = convert

    def execute(self, context: ExecutionContext) -> None:
        document = context.get(self.input).xml()
        text = xpath_text(document, self.path)
        if text is None:
            raise ProcessRuntimeError(
                f"EXTRACT {self.name}: path {self.path!r} matched nothing"
            )
        value: Any = self.convert(text) if self.convert else text
        context.set(self.output, Message(value))
        context.charge_work(WORK_XML, 1.0)

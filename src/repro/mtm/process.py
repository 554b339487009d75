"""Process types: named, validated MTM process definitions.

A :class:`ProcessType` couples an identifier (``P01`` … ``P15``), its
group (A–D, Table I), its initiating event type (E1 incoming message /
E2 time-based schedule, Section IV) and the operator tree.

``validate_definition`` performs the static checks a deployment step
would: E1 processes must start with a RECEIVE, E2 processes must not
contain one, variables must be bound before use along every path, and
referenced subprocesses must exist in the accompanying registry.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Mapping

from repro.db.expressions import Expression
from repro.errors import ProcessDefinitionError
from repro.mtm.blocks import Fork, Sequence, Subprocess, Switch
from repro.mtm.operators import (
    Assign,
    Convert,
    Delete,
    ExtractField,
    Invoke,
    Join,
    Operator,
    Projection,
    Receive,
    Selection,
    Signal,
    Translation,
    Union,
    Validate,
    ValidateRows,
)


class EventType(enum.Enum):
    """How instances of a process type are initiated (Section IV)."""

    E1_MESSAGE = "E1"
    E2_SCHEDULE = "E2"


class ProcessGroup(enum.Enum):
    """The four process groups of Table I."""

    A = "Source System Management"
    B = "Data Consolidation"
    C = "Data Warehouse Update"
    D = "Data Mart Update"


class ProcessType:
    """One benchmark process type.

    >>> from repro.mtm import Receive, Sequence, Signal
    >>> pt = ProcessType("P99", ProcessGroup.B, "demo",
    ...                  EventType.E1_MESSAGE,
    ...                  Sequence([Receive("msg1"), Signal()]))
    >>> pt.process_id
    'P99'
    """

    def __init__(
        self,
        process_id: str,
        group: ProcessGroup,
        description: str,
        event_type: EventType,
        root: Operator,
        subprocess_only: bool = False,
    ):
        if not process_id:
            raise ProcessDefinitionError("process type needs an id")
        self.process_id = process_id
        self.group = group
        self.description = description
        self.event_type = event_type
        self._root = root
        #: Subprocess-only types (P14_S1 … S4) are never scheduled by the
        #: client; they are invoked via the Subprocess operator, may read
        #: the inbound ``__in`` regardless of event type, and may use
        #: RECEIVE to bind it.
        self.subprocess_only = subprocess_only
        #: :meth:`expressions`, scanned at its first call.
        self._expressions: list[tuple[Expression, bool]] | None = None

    @property
    def root(self) -> Operator:
        """The operator tree (read-only: the optimizer builds new trees)."""
        return self._root

    def expressions(self) -> list[tuple[Expression, bool]]:
        """Every distinct expression of the plan, operands before the
        expression holding them, each with whether an operator field
        holds it (the plan's predicates and computed columns).

        Scanned once: a built tree is not edited (docs/architecture.md),
        so a deploy reads this list instead of every field of every
        operator.
        """
        if self._expressions is None:
            held = dict.fromkeys(_held_expressions(self._root))
            ordered: dict[Expression, None] = {}
            for expression in held:
                _operands_first(expression, ordered)
            self._expressions = [(e, e in held) for e in ordered]
        return self._expressions

    def operators(self) -> list[Operator]:
        return self.root.iter_tree()

    def operator_count(self) -> int:
        return len(self.operators())

    def subprocess_ids(self) -> list[str]:
        return [
            op.process_id for op in self.operators() if isinstance(op, Subprocess)
        ]

    def __repr__(self) -> str:
        return (
            f"ProcessType({self.process_id}, group={self.group.name}, "
            f"event={self.event_type.value}, operators={self.operator_count()})"
        )


#: Field types that cannot hold an expression: skipped unexamined.
_PLAIN = frozenset({str, int, float, bool, type(None)})


def _held_expressions(root: Operator) -> Iterator[Expression]:
    """The expressions operator fields of a tree hold: directly, as
    values of a mapping, as items of a sequence (or their ``guard``:
    SwitchCase), or as the ``predicate`` of a request builder."""
    for node in root.iter_tree():
        for value in vars(node).values():
            if type(value) in _PLAIN:
                continue
            if isinstance(value, Mapping):
                candidates = value.values()
            elif isinstance(value, (list, tuple)):
                candidates = [getattr(item, "guard", item) for item in value]
            else:
                candidates = (getattr(value, "predicate", value),)
            for candidate in candidates:
                if isinstance(candidate, Expression):
                    yield candidate


def _operands_first(expression: Expression, ordered: dict) -> None:
    if expression not in ordered:
        for operand in expression.operands():
            _operands_first(operand, ordered)
        ordered[expression] = None


def _writes_of(op: Operator) -> list[str]:
    if isinstance(op, (Receive,)):
        return [op.output]
    if isinstance(op, (Assign, Translation, Selection, Projection, Join, Union,
                       Convert, ExtractField, ValidateRows)):
        return [op.output]
    if isinstance(op, Invoke):
        return [op.output] if op.output else []
    if isinstance(op, Subprocess):
        return [op.output] if op.output else []
    return []


def _reads_of(op: Operator) -> list[str]:
    if isinstance(op, Invoke):
        # Request builders constructed via the scenario helpers expose
        # their variable dependency (``input_var``); ad-hoc closures are
        # opaque to the static analysis.
        input_var = getattr(op.request_builder, "input_var", None)
        return [input_var] if input_var else []
    if isinstance(op, Translation):
        return [op.input]
    if isinstance(op, (Selection, Projection, Convert, ExtractField, ValidateRows)):
        return [op.input]
    if isinstance(op, Validate):
        return [op.input]
    if isinstance(op, Join):
        return [op.left, op.right]
    if isinstance(op, Union):
        return list(op.inputs)
    if isinstance(op, Subprocess):
        return [op.input] if op.input else []
    return []


def _check_flow(
    op: Operator, bound: set[str], errors: list[str], path: str
) -> set[str]:
    """Walk the tree tracking bound variables; returns bindings after op."""
    label = f"{path}/{op.kind}:{op.name}"
    for read in _reads_of(op):
        if read not in bound:
            errors.append(f"{label}: reads unbound variable {read!r}")

    if isinstance(op, Sequence):
        current = set(bound)
        for step in op.steps:
            current = _check_flow(step, current, errors, label)
        return current
    if isinstance(op, Switch):
        outcomes = []
        for index, case in enumerate(op.cases):
            outcomes.append(
                _check_flow(case.body, set(bound), errors, f"{label}[{index}]")
            )
        if op.otherwise is not None:
            outcomes.append(
                _check_flow(op.otherwise, set(bound), errors, f"{label}[else]")
            )
            # Only variables bound on *every* branch are safely bound after.
            return set(bound) | set.intersection(*outcomes)
        return set(bound)
    if isinstance(op, Fork):
        after = set(bound)
        seen_writes: dict[str, int] = {}
        for index, branch in enumerate(op.branches):
            branch_after = _check_flow(branch, set(bound), errors, f"{label}[{index}]")
            for name in branch_after - bound:
                if name in seen_writes:
                    errors.append(
                        f"{label}: branches {seen_writes[name]} and {index} "
                        f"both write {name!r}"
                    )
                seen_writes[name] = index
            after |= branch_after
        return after
    if isinstance(op, Validate) and op.on_fail is not None:
        _check_flow(op.on_fail, set(bound), errors, f"{label}[on_fail]")
        return set(bound)

    return set(bound) | set(_writes_of(op))


def validate_definition(
    process: ProcessType,
    known_processes: Iterable[str] | Mapping[str, "ProcessType"] = (),
) -> list[str]:
    """Static validation; returns a list of problems (empty = valid)."""
    errors: list[str] = []
    operators = process.operators()

    receives = [op for op in operators if isinstance(op, Receive)]
    if process.subprocess_only:
        pass  # subprocesses may or may not bind their inbound message
    elif process.event_type is EventType.E1_MESSAGE:
        if not receives:
            errors.append(
                f"{process.process_id}: E1 process must contain a RECEIVE"
            )
        else:
            first_atomic = _first_atomic(process.root)
            if not isinstance(first_atomic, Receive):
                errors.append(
                    f"{process.process_id}: E1 process must *start* with "
                    f"RECEIVE, starts with {type(first_atomic).__name__}"
                )
    else:
        if receives:
            errors.append(
                f"{process.process_id}: E2 (scheduled) process must not "
                "contain a RECEIVE"
            )

    known = set(known_processes)
    for sub_id in process.subprocess_ids():
        if known and sub_id not in known:
            errors.append(
                f"{process.process_id}: unknown subprocess {sub_id!r}"
            )

    bound: set[str] = (
        {"__in"}
        if process.event_type is EventType.E1_MESSAGE or process.subprocess_only
        else set()
    )
    _check_flow(process.root, bound, errors, process.process_id)
    return errors


def _first_atomic(op: Operator) -> Operator:
    if isinstance(op, Sequence):
        return _first_atomic(op.steps[0])
    return op


def assert_valid_definition(
    process: ProcessType,
    known_processes: Iterable[str] | Mapping[str, "ProcessType"] = (),
) -> None:
    """Raise :class:`ProcessDefinitionError` listing every problem."""
    errors = validate_definition(process, known_processes)
    if errors:
        raise ProcessDefinitionError(
            f"invalid process definition {process.process_id}: "
            + "; ".join(errors)
        )

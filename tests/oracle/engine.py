"""The reference model of the instance path.

These are the bodies the engine, the MTM operators, ``Relation.project``
and the event scheduler had before the instance path stopped re-deriving
what a deployed definition fixes, verbatim: :func:`handle_event` is one
150-line attempt loop with the attempt and the record constructor
written out inside it; :func:`run_operator` (``Operator._run``)
formats a trace line and tests the operator log for every operator and
:func:`sequence_execute` sends every step through it; :func:`project`
re-splits its mapping and re-fetches the compiled closures on every
call, as :func:`convert_execute` does with its column parsers (through
the XML oracle's seven-way type chain); :class:`EventScheduler` orders
:class:`ScheduledEvent` dataclasses through a generated ``__lt__``.
Production binds plans once per definition, runs unobserved steps
through ``execute`` directly, gives ``handle_event`` one attempt body
and orders ``(deadline, seqno, event)`` tuples;
``tests/engine/test_instance_path_equivalence.py`` holds it to *this*
module: same instance records field for field (costs by ``float.hex``),
same operator and trace logs, same landscape digests.

:func:`seed_bodies` installs the whole reference over the production
classes for the length of a ``with`` block.

Independence is the point: nothing here may import ``IntegrationEngine``,
the operator or block classes, the plan types, ``repro.simtime.scheduler``
or ``repro.xmlkit.convert`` (records, cost breakdowns, observations,
messages, errors, the clock and ``Relation`` as a row container are
shared vocabulary — the input of the oracle, not what it checks).
"""

from __future__ import annotations

import contextlib
import heapq
import importlib
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator
from unittest import mock

from repro.db import fastpath
from repro.db.expressions import Expression
from repro.db.relation import Relation
from repro.engine.base import InstanceRecord
from repro.engine.costs import CostBreakdown
from repro.errors import (
    AttemptTimeout,
    EngineCrashed,
    EngineError,
    ProcessRuntimeError,
)
from repro.mtm.context import WORK_RELATIONAL, WORK_XML
from repro.mtm.message import Message
from repro.mtm.operators import _ValidationHandled
from repro.observability.metrics import MetricsRegistry
from repro.observability.profile import OperatorObservation
from repro.simtime.clock import Clock, VirtualClock
from tests.oracle.xml import resultset_to_rows, rows_to_resultset

Row = dict[str, Any]

# ---------------------------------------------------------------------- engine


def handle_event(self, event) -> InstanceRecord:
    """Execute one process-initiating event; returns its record.

    With a resilience context attached, transient failures retry
    with exponential backoff in virtual time and non-retryable or
    exhausted failures are dead-lettered instead of ending the
    instance as a bare error; without one, behavior is the classic
    single-attempt fail-fast path.
    """
    process = self.process_type(event.process_id)
    if process.event_type is not event.event_type:
        raise EngineError(
            f"{event.process_id} is {process.event_type.value}-initiated "
            f"but received a {event.event_type.value} event"
        )
    res = self.resilience
    attempt = 0
    attempt_time = event.deadline
    first_failure: float | None = None
    fault_types: list[str] = []
    while True:
        attempt += 1
        self._current_attempt = attempt
        if res is not None:
            # Apply due fault events (partitions heal, endpoints come
            # back ...) and move the breaker clock before each attempt.
            res.at(attempt_time)
            if res.injector is not None and res.injector.take_crash(
                "arrival"
            ):
                self.crash()
                raise EngineCrashed(
                    f"{self.engine_name} crashed before admitting "
                    f"{event.process_id}",
                    at=attempt_time,
                )
        # An armed commit-point crash is consumed *before* execution:
        # the instance runs, then dies with its effects uncommitted.
        # The pristine message copy lets the client re-dispatch the
        # instance with exactly the original input after recovery.
        crash_at_commit = (
            res is not None
            and res.injector is not None
            and res.injector.take_crash("commit")
        )
        pristine = (
            event.message.copy()
            if crash_at_commit and event.message is not None
            else None
        )
        queue_length = self._queue_length(attempt_time)
        status, error, error_type = "ok", "", ""
        violations: tuple[str, ...] = ()
        inbound_cost = 0.0
        self._last_profile = None
        try:
            self._raise_injected_faults(event, res)
            costs, operators, failures = self._execute_instance(
                process, event, queue_length
            )
            if crash_at_commit:
                self.crash()
                raise EngineCrashed(
                    f"{self.engine_name} lost an in-flight "
                    f"{event.process_id} instance at commit",
                    pristine_message=pristine,
                    at=attempt_time,
                )
            if (
                res is not None
                and res.policy.timeout is not None
                and costs.total > res.policy.timeout
            ):
                raise AttemptTimeout(
                    f"{event.process_id}: attempt cost {costs.total:.2f} "
                    f"exceeded the {res.policy.timeout:.2f} budget"
                )
            # Inbound message delivery is itself a network transfer
            # (C_c includes waiting for external systems, Section V).
            if event.message is not None and self.registry.network.has_host(
                self.message_source_host
            ):
                inbound_cost = self.registry.network.transfer_cost(
                    self.message_source_host, self.host,
                    event.message.size_units,
                )
                costs.communication += inbound_cost
            break
        except EngineCrashed:
            # Not an instance failure: the engine itself is gone.
            # Propagate past retry/dead-letter handling to the
            # benchmark client, which owns durable recovery.
            raise
        except Exception as exc:  # instance failure, not engine crash
            costs = CostBreakdown(
                management=self.cost_parameters.management_cost(queue_length)
            )
            operators, failures = 0, 0
            error_type = type(exc).__name__
            error = f"{error_type}: {exc}"
            violations = tuple(getattr(exc, "violations", ()) or ())
            inbound_cost = 0.0
            self._last_profile = None
            if res is None:
                status = "error"
                break
            fault_types.append(error_type)
            if first_failure is None:
                first_failure = attempt_time
            if res.retryable(exc) and attempt < res.policy.max_attempts:
                delay = res.next_delay(attempt)
                res.observe_retry(event.process_id, delay)
                attempt_time += delay
                continue
            status = "dead-letter"
            break
    self._current_attempt = 1
    start, completion = self._admit(
        attempt_time, costs.management + costs.processing + costs.communication
    )
    record = InstanceRecord(
        instance_id=self._new_instance_id(),
        process_id=event.process_id,
        period=event.period,
        stream=event.stream,
        arrival=event.deadline,
        start=start,
        completion=completion,
        costs=costs,
        status=status,
        error=error,
        queue_length_at_arrival=queue_length,
        operators_executed=operators,
        validation_failures=failures,
        error_type=error_type,
        error_violations=violations,
        attempts=attempt,
        fault_types=tuple(fault_types),
    )
    self.records.append(record)
    if self.storage is not None:
        self.storage.commit_instance(self, record)
    if res is not None:
        mttr = (
            attempt_time - first_failure
            if record.recovered and first_failure is not None
            else None
        )
        res.account(record, mttr)
    if self._observability.enabled:
        self._observe_instance(record, self._last_profile, inbound_cost)
    return record


# ------------------------------------------------------------------- operators


def run_operator(self, context) -> None:
    context.operators_executed += 1
    context.trace(f"{self.kind}:{self.name}")
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


def sequence_execute(self, context) -> None:
    try:
        for step in self.steps:
            step._run(context)
    except _ValidationHandled:
        context.trace(f"sequence:{self.name}: stopped by failed validation")


def projection_execute(self, context) -> None:
    relation = context.get(self.input).relation()
    context.charge_work(WORK_RELATIONAL, float(len(relation)))
    context.set(self.output, Message(relation.project(self.mapping)))


def convert_execute(self, context) -> None:
    message = context.get(self.input)
    if self.direction == "xml_to_relation":
        document = message.xml()
        context.charge_work(WORK_XML, float(document.size()))
        rows = resultset_to_rows(document, self.types)
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


# -------------------------------------------------------------------- relation


def project(self, mapping) -> Relation:
    """Projection with renaming and computed columns.

    ``mapping`` maps *output* column name to either an input column
    name (pure rename/keep) or an :class:`Expression` (computed).
    This is the "projection … in order to rename the attributes"
    of process types P05–P07 and the schema mappings of P11/P14.
    """
    plain: dict[str, str] = {}
    computed: dict[str, Expression] = {}
    for out_name, source in mapping.items():
        if isinstance(source, Expression):
            computed[out_name] = source
        else:
            plain[out_name] = source
    self._require_columns(plain.values())
    out_columns = tuple(mapping.keys())
    out_rows: list[Row] = []
    compiled: list[tuple[str, Callable[[Row], Any]]] = []
    for out_name, expr in computed.items():
        self._guard_expression(expr)
        compiled.append((out_name, expr.compile()))
    plain_items = list(plain.items())
    for row in self.rows:
        new_row: Row = {}
        for out_name, in_name in plain_items:
            new_row[out_name] = row[in_name]
        for out_name, fn in compiled:
            new_row[out_name] = fn(row)
        out_rows.append(new_row)
    fastpath.STATS.rows_copied += len(out_rows)
    return Relation.from_trusted(out_columns, out_rows)


# ------------------------------------------------------------------- scheduler


@dataclass(order=True, frozen=True)
class ScheduledEvent:
    """An event in the queue, ordered by (deadline, sequence number)."""

    deadline: float
    seqno: int
    payload: Any = field(compare=False)


class EventScheduler:
    """A discrete-event queue bound to a :class:`Clock`.

    Events may be pushed in any order; :meth:`run` pops them in deadline
    order, advances the clock to each deadline, and invokes the handler.
    Handlers may push further events (e.g. a process that re-schedules
    itself), which is why draining re-examines the heap after every call.
    """

    def __init__(
        self,
        clock: Clock | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        self.clock = clock if clock is not None else VirtualClock()
        self._heap: list[ScheduledEvent] = []
        self._counter = itertools.count()
        self._metrics = metrics
        if metrics is not None:
            self._m_pushed = metrics.counter(
                "scheduler_events_pushed_total",
                help="Events pushed into the discrete-event queue",
            )
            self._m_dispatched = metrics.counter(
                "scheduler_events_dispatched_total",
                help="Events popped and dispatched in deadline order",
            )
            self._m_peak = metrics.gauge(
                "scheduler_queue_peak",
                help="High-water mark of pending events in the queue",
            )

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, deadline: float, payload: Any) -> ScheduledEvent:
        """Schedule ``payload`` for ``deadline`` (absolute, in tu)."""
        if deadline < 0:
            raise ValueError(f"deadline must be >= 0, got {deadline}")
        event = ScheduledEvent(deadline, next(self._counter), payload)
        heapq.heappush(self._heap, event)
        if self._metrics is not None:
            self._m_pushed.inc()
            self._m_peak.set_max(len(self._heap))
        return event

    def push_after(self, delay: float, payload: Any) -> ScheduledEvent:
        """Schedule ``payload`` ``delay`` tu from the current clock time."""
        return self.push(self.clock.now() + delay, payload)

    def peek(self) -> ScheduledEvent | None:
        """Return the next event without removing it, or None if empty."""
        return self._heap[0] if self._heap else None

    def pop(self) -> ScheduledEvent:
        """Remove and return the next event, advancing the clock to it."""
        if not self._heap:
            raise IndexError("pop from an empty event scheduler")
        event = heapq.heappop(self._heap)
        self.clock.advance_to(event.deadline)
        if self._metrics is not None:
            self._m_dispatched.inc()
        return event

    def drain(self) -> Iterator[ScheduledEvent]:
        """Yield all events in deadline order, advancing the clock."""
        while self._heap:
            yield self.pop()

    def drain_until(self, deadline: float) -> Iterator[ScheduledEvent]:
        """Yield events due at or before ``deadline``, advancing the clock.

        The fault injector uses this to apply every fault whose time has
        come whenever the engine advances virtual time.

        Equal deadlines dispatch in push (FIFO) order, including events
        pushed *during* the drain at exactly ``deadline`` — they sort
        behind already-queued ties by sequence number.  After the drain
        the clock rests exactly at ``deadline`` (never behind it), so a
        subsequent :meth:`push_after` is anchored at the drained-to time
        instead of the last event's — without this, two schedulers that
        drained through different event prefixes would compute different
        absolute deadlines for the same relative delay, and worker-local
        schedules could diverge from the serial run.
        """
        while self._heap and self._heap[0].deadline <= deadline:
            yield self.pop()
        self.clock.advance_to(deadline)

    def run(self, handler: Callable[[ScheduledEvent], None]) -> int:
        """Drain the queue through ``handler``; return the number handled."""
        handled = 0
        for event in self.drain():
            handler(event)
            handled += 1
        return handled

    def clear(self) -> None:
        """Drop all pending events (used between benchmark periods)."""
        self._heap.clear()


# ------------------------------------------------------------------ installing

#: Modules that imported the production ``EventScheduler`` by name.
_SCHEDULER_USERS = (
    "repro.simtime.scheduler",
    "repro.simtime",
    "repro.synth.runner",
    "repro.toolsuite.client",
    "repro.resilience.injector",
)


@contextlib.contextmanager
def seed_bodies() -> Iterator[None]:
    """Run everything inside the block on the reference bodies."""
    engine_base = importlib.import_module("repro.engine.base")
    operators = importlib.import_module("repro.mtm.operators")
    blocks = importlib.import_module("repro.mtm.blocks")
    relation = importlib.import_module("repro.db.relation")
    patch = mock.patch.object
    with contextlib.ExitStack() as stack:
        for owner, name, body in (
            (engine_base.IntegrationEngine, "handle_event", handle_event),
            (operators.Operator, "_run", run_operator),
            (blocks.Sequence, "execute", sequence_execute),
            (operators.Projection, "execute", projection_execute),
            (operators.Convert, "execute", convert_execute),
            (relation.Relation, "project", project),
        ):
            stack.enter_context(patch(owner, name, body))
        for module_name in _SCHEDULER_USERS:
            module = importlib.import_module(module_name)
            stack.enter_context(patch(module, "EventScheduler", EventScheduler))
        yield

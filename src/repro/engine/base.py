"""Engine base: events, instance records, the worker queue model.

An engine receives *process-initiating events* (the serialized streams of
Section V): for event type E1 an inbound message with a deadline, for E2 a
bare timer.  Execution happens in virtual time against a bounded worker
pool — arrivals that outpace service build a queue, instances wait, and
the management cost of later arrivals grows, which is how the benchmark's
time scale factor t translates into measurable pressure.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, fields
from functools import cache
from itertools import chain, repeat
from operator import countOf, itemgetter
from struct import Struct
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import (
    DeploymentError,
    EngineCrashed,
    EngineError,
    TransientEngineFault,
)
from repro.db import fastpath, partition
from repro.db.expressions import Expression, compile_expression
from repro.engine.costs import CostBreakdown, CostParameters, INTERPRETER_COSTS
from repro.mtm.context import ExecutionContext
from repro.mtm.message import Message
from repro.mtm.process import EventType, ProcessType, assert_valid_definition
from repro.observability import (
    ExecutionProfile,
    Observability,
    OperatorObservation,
    QUEUE_WAIT_BUCKETS,
)
from repro.services.registry import ServiceRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import Database
    from repro.resilience.policy import ResilienceContext
    from repro.storage.manager import StorageManager


@dataclass(frozen=True)
class ProcessEvent:
    """One process-initiating event from a benchmark stream.

    ``deadline`` is the scheduled execution timestamp in tu (Table II);
    ``message`` is present exactly for event type E1.
    """

    process_id: str
    deadline: float
    message: Message | None = None
    period: int = 0
    stream: str = ""

    @property
    def event_type(self) -> EventType:
        return EventType.E1_MESSAGE if self.message is not None else EventType.E2_SCHEDULE


@dataclass
class InstanceRecord:
    """Execution record of one process instance.

    ``arrival`` is the schedule deadline, ``start`` when a worker picked
    the instance up, ``completion`` when it finished.  ``costs`` holds the
    modeled C_c/C_m/C_p; ``costs.total`` is the normalized cost NC(p) the
    metric consumes (independent of queue wait, hence comparable across
    concurrency levels — the normalization Section V calls for).
    """

    instance_id: int
    process_id: str
    period: int
    stream: str
    arrival: float
    start: float
    completion: float
    costs: CostBreakdown
    status: str = "ok"
    error: str = ""
    queue_length_at_arrival: int = 0
    operators_executed: int = 0
    validation_failures: int = 0
    #: Structured failure class (exception type name) so dead-letter
    #: routing and tests can match without parsing ``error`` strings.
    error_type: str = ""
    #: XSD/validation violations carried by the failing exception
    #: (P10-style failures keep their detail through dead-lettering).
    error_violations: tuple[str, ...] = ()
    #: Execution attempts made (1 = no retries).
    attempts: int = 1
    #: Exception class names seen across failed attempts, in order.
    fault_types: tuple[str, ...] = ()

    @property
    def elapsed(self) -> float:
        return self.completion - self.arrival

    @property
    def wait(self) -> float:
        return self.start - self.arrival

    @property
    def retries(self) -> int:
        return self.attempts - 1

    @property
    def recovered(self) -> bool:
        """Completed successfully but only after at least one retry."""
        return self.status == "ok" and self.attempts > 1

    @property
    def normalized_cost(self) -> float:
        return self.costs.total

    def row(self) -> tuple:
        """The record as one flat tuple of atomic values, fields in
        declaration order with ``costs`` spread over its three floats."""
        costs = self.costs
        return (
            self.instance_id, self.process_id, self.period, self.stream,
            self.arrival, self.start, self.completion, costs.communication,
            costs.management, costs.processing, self.status, self.error,
            self.queue_length_at_arrival, self.operators_executed,
            self.validation_failures, self.error_type, self.error_violations,
            self.attempts, self.fault_types,
        )

    @classmethod
    def from_row(cls, row: tuple) -> "InstanceRecord":
        return cls(*row[:7], CostBreakdown(*row[7:10]), *row[10:])


#: Each field of an :meth:`InstanceRecord.row` with its exact type.
_KINDS = {
    f.name: {"int": int, "float": float, "str": str}.get(getattr(f.type, "__name__", f.type), tuple)
    for record_field in fields(InstanceRecord)
    for f in (fields(CostBreakdown) if record_field.name == "costs" else (record_field,))
}
#: The per-instance numbers, an ``array`` column each; every other field
#: belongs to the record's shape.
_NUMBERS = ("instance_id", "period", "arrival", "start", "completion",
            "communication", "management", "processing")
_TYPECODES = ["d" if _KINDS[name] is float else "q" for name in _NUMBERS] + ["I"]
_SHAPE = {name: i for i, name in enumerate(n for n in _KINDS if n not in _NUMBERS)}
_pick_numbers = itemgetter(*map(list(_KINDS).index, _NUMBERS))
_pick_shape = itemgetter(*map(list(_KINDS).index, _SHAPE))
_to_row = itemgetter(*map([*_NUMBERS, *_SHAPE].index, _KINDS))
_packer = cache(lambda count, code: Struct(f"{count}{code}").pack)
_BATCH = 128  # rows buffered before they move into the columns
_INT64 = (-(1 << 63), (1 << 63) - 1)  # what a "q" column holds


class InstanceHistory:
    """A run's instance records as an ``array`` column per per-instance
    number and an ``array('I')`` of codes into ``shapes``, the distinct
    tuples of every other field, so a kept record owns no object.  Rows
    move into the columns ``_BATCH`` at a time or before a read; a record
    with a field not exactly of its declared type is refused then, so no
    shape merges values of different ``repr``, and so is one whose
    ``instance_id`` or ``period`` a 64-bit column cannot hold.  Slicing
    copies; ``where`` and ``groups`` return read-only selections
    (positions ``at``) of the same columns.  Append-only: checkpoints
    keep a watermark."""

    __slots__ = ("columns", "shapes", "_pending", "_at")

    def __init__(self, records: Iterable[InstanceRecord] = (), columns=None, shapes=None, at=None):
        self.columns = columns or list(map(array, _TYPECODES))
        self.shapes = {} if shapes is None else shapes
        self._pending, self._at = list(map(InstanceRecord.row, records)), at

    @classmethod
    def of(cls, records: Iterable[InstanceRecord]) -> "InstanceHistory":
        """``records`` itself when it is a history, else encoded."""
        return records if isinstance(records, cls) else cls(records)

    def _flush(self) -> None:
        rows = self._pending
        if not rows:
            return
        transposed = list(zip(*rows))
        for (name, kind), values in zip(_KINDS.items(), transposed):
            if countOf(map(type, values), kind) != len(rows) or kind is tuple and any(values) and (
                countOf(map(type, chain.from_iterable(values)), str) != sum(map(len, values))
            ):
                bad = next(i for i, v in enumerate(values) if type(v) is not kind
                           or kind is tuple and not all(type(m) is str for m in v))
                raise TypeError(f"instance record {rows.pop(bad)[0]!r} refused: {name} is "
                                f"{values[bad]!r}, not exactly a {kind.__name__}")
        numbers = _pick_numbers(transposed)
        for name, column, values in zip(_NUMBERS, self.columns, numbers):
            if column.typecode == "q" and not _INT64[0] <= min(values) <= max(values) <= _INT64[1]:
                bad = next(i for i, v in enumerate(values) if not _INT64[0] <= v <= _INT64[1])
                raise OverflowError(f"instance record {rows.pop(bad)[0]!r} refused: {name} is "
                                    f"{values[bad]!r}, outside a 64-bit integer")
        for column, values in zip(self.columns, numbers):
            column.frombytes(_packer(len(rows), column.typecode)(*values))
        self.columns[-1].extend(self._codes_of(zip(*_pick_shape(transposed))))
        rows.clear()

    def _codes_of(self, shapes: Iterable[tuple]):
        """The code of each shape, a new shape getting the next one."""
        return map(self.shapes.setdefault, shapes, map(len, repeat(self.shapes)))

    def _values(self, name: str):
        """One field (``"shape"``: the shape code) of every record, in order."""
        self._flush()
        column = self.columns[-1 if name in _SHAPE or name == "shape" else _NUMBERS.index(name)]
        values = column if self._at is None else map(column.__getitem__, self._at)
        if name in _SHAPE:
            return map(list(map(itemgetter(_SHAPE[name]), self.shapes)).__getitem__, values)
        return values

    def _select(self, at: list[int]) -> "InstanceHistory":
        return InstanceHistory(columns=self.columns, shapes=self.shapes, at=at)

    def _writable(self) -> None:
        if self._at is not None:
            raise TypeError("a selection of an instance history is read-only")

    def append(self, record: InstanceRecord) -> None:
        if self._at is not None:
            self._writable()
        self._pending.append(record.row())
        if len(self._pending) >= _BATCH:
            self._flush()

    def extend(self, records: Iterable[InstanceRecord]) -> None:
        """Append records; another history's columns are copied, its shape
        codes mapped to this history's."""
        self._writable()
        if isinstance(records, InstanceHistory):
            self._flush()
            for name, column in zip(_NUMBERS, self.columns):
                column.extend(records._values(name))
            codes = list(self._codes_of(records.shapes))
            self.columns[-1].extend(list(map(codes.__getitem__, records._values("shape"))))
            return
        self._pending.extend(map(InstanceRecord.row, records))
        if len(self._pending) >= _BATCH:
            self._flush()

    def __len__(self) -> int:
        return len(self.columns[-1]) + len(self._pending) if self._at is None else len(self._at)

    def __iter__(self):
        numbers = zip(*map(self._values, _NUMBERS))
        shapes = map(list(self.shapes).__getitem__, self._values("shape"))
        return map(InstanceRecord.from_row, map(_to_row, map(tuple.__add__, numbers, shapes)))

    def __getitem__(self, index):
        self._flush()
        if isinstance(index, slice) and self._at is None:
            return InstanceHistory(columns=[c[index] for c in self.columns], shapes=self.shapes)
        if isinstance(index, slice):
            return self._select(self._at[index])
        return next(iter(self._select([index if self._at is None else self._at[index]])))

    def __delitem__(self, index) -> None:
        self._writable()
        self._flush()
        for column in self.columns:
            del column[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, InstanceHistory):
            return all(self.column(name) == other.column(name) for name in _KINDS)
        return list(self) == other

    def column(self, name: str) -> list:
        """One field of every record, in order."""
        return list(self._values(name))

    def where(self, name: str, test: Callable[[Any], bool]) -> "InstanceHistory":
        """The records whose field ``name`` passes ``test``, in order."""
        at = range(len(self)) if self._at is None else self._at
        return self._select([p for p, v in zip(at, self._values(name)) if test(v)])

    def groups(self, name: str) -> "dict[Any, InstanceHistory]":
        """The records by field ``name``, in order of first appearance."""
        grouped: dict[Any, list[int]] = {}
        at = range(len(self)) if self._at is None else self._at
        for position, value in zip(at, self._values(name)):
            grouped.setdefault(value, []).append(position)
        return {value: self._select(at) for value, at in grouped.items()}

    def recovered(self) -> "InstanceHistory":
        """The records that are :attr:`InstanceRecord.recovered`."""
        ok = self.where("status", lambda status: status == "ok")
        return ok.where("attempts", lambda attempts: attempts > 1)

    def elapsed(self) -> list[float]:
        """:attr:`InstanceRecord.elapsed` of every record."""
        pairs = zip(self._values("arrival"), self._values("completion"))
        return [completion - arrival for arrival, completion in pairs]


def _compile_anew(cached: Any, expression: Expression) -> None:
    """Run an identity-cached compiler as on an expression it has not
    seen: a lookup that hits is compiled (and counted) once more."""
    misses = cached.cache_info().misses
    cached(expression)
    if cached.cache_info().misses == misses:
        cached.__wrapped__(expression)


class IntegrationEngine:
    """Base engine: deployment, the worker queue, the instance body.

    An engine is a name, a price list (:attr:`cost_parameters`,
    :attr:`parallel_efficiency`) and, where the system triggers a process
    its own way, :meth:`_run_process`; :meth:`_execute_instance` runs
    and prices every instance the same way on each of them.
    """

    #: Human-readable engine kind for plots/reports.
    engine_name = "abstract"
    #: The integration-system host of the landscape every engine runs on.
    host = "IS"
    #: Where E1 messages physically come from: the applications
    #: (Vienna, San Diego, MDM, Hongkong) all live on the external
    #: systems host, so inbound delivery is a network transfer too.
    message_source_host = "ES"
    #: The unit prices of the kind of integration system modeled
    #: (the interpreter's balanced profile unless a subclass overrides).
    cost_parameters: CostParameters = INTERPRETER_COSTS
    #: Share of a Fork's branch costs that overlap (1.0 = the slowest
    #: branch only, 0.0 = the sum of the branches).
    parallel_efficiency = 1.0

    def __init__(self, registry: ServiceRegistry, worker_count: int = 4):
        if worker_count < 1:
            raise EngineError(f"worker count must be >= 1, got {worker_count}")
        self.registry = registry
        self.worker_count = worker_count
        self._processes: dict[str, ProcessType] = {}
        #: Deployed definitions still waiting for a subprocess reference
        #: to resolve, hence not validated yet (see :meth:`deploy`).
        self._unvalidated: dict[str, ProcessType] = {}
        #: Expressions this deployment has compiled (definitions share
        #: some: see :meth:`deploy`).
        self._compiled: set[Expression] = set()
        self._next_instance_id = 1
        #: Completion times of busy workers (virtual-time worker pool).
        self._worker_free: list[float] = []
        #: Completion times of every admitted instance still in the
        #: system (in service *or* queued) — the load signal feeding the
        #: management-cost model.
        self._in_system: list[float] = []
        #: Load beyond this many queued instances no longer increases
        #: per-instance management cost (admission control keeps the
        #: self-management effect bounded).
        self.management_queue_cap = 16
        self.records = InstanceHistory()
        #: Execution profile of the most recent ``_execute_instance``
        #: when observing (None otherwise).
        self._last_profile: ExecutionProfile | None = None
        #: Retry/backoff + fault-injection context (attached by the
        #: BenchmarkClient, like observability); None = fail-fast, the
        #: exact pre-resilience behavior.
        self.resilience: "ResilienceContext | None" = None
        #: 1-based attempt number of the execution currently in flight,
        #: exposed to operators through the execution context.
        self._current_attempt = 1
        #: Durability layer (attached by the BenchmarkClient via
        #: StorageManager.attach_engine); None = no durability, the
        #: exact pre-storage behavior.
        self.storage: "StorageManager | None" = None
        self.observability = None

    # -- observability ---------------------------------------------------------

    @property
    def observability(self) -> Observability:
        return self._observability

    @observability.setter
    def observability(self, obs: Observability | None) -> None:
        """Attach (or detach with None) the run's observability bundle.

        The BenchmarkClient assigns this after construction, so metric
        handles are re-bound here rather than in ``__init__``.
        """
        self._observability = obs if obs is not None else Observability()
        metrics = self._observability.metrics
        if metrics is None:
            return
        self._m_queue_wait = metrics.histogram(
            "engine_queue_wait",
            buckets=QUEUE_WAIT_BUCKETS,
            help="Instance queue wait (start - arrival) in engine units",
        )
        self._m_operator_cost = metrics.histogram(
            "engine_operator_cost",
            help="Priced cost of one leaf operator in engine units",
        )
        self._m_operators = metrics.counter(
            "engine_operators_total", help="Leaf operators executed"
        )

    # -- deployment -----------------------------------------------------------

    def deploy(self, process: ProcessType) -> None:
        """Validate and install one process type, and warm its plan cache.

        Every expression of the tree is compiled here (see
        ``repro.db.expressions.compile_expression``) — an integration
        system's plan cache, a DBMS preparing its trigger and procedure
        bodies at CREATE time — so no instance pays compilation.  A
        deployment compiles each distinct expression once, also one
        whose closure an earlier deployment of the same tree left in
        the cache: what a deploy compiles, and counts, is fixed by the
        definitions and not by what ran before in the process.
        """
        if process.process_id in self._processes:
            raise DeploymentError(
                f"{self.engine_name}: {process.process_id} already deployed"
            )
        self._processes[process.process_id] = process
        # Subprocess references may point at processes deployed later:
        # a definition is validated once, at the deploy that resolves
        # the last of its references, in deployment order.
        self._unvalidated[process.process_id] = process
        for waiting in list(self._unvalidated.values()):
            if all(s in self._processes for s in waiting.subprocess_ids()):
                assert_valid_definition(waiting)
                del self._unvalidated[waiting.process_id]
        for expression in process.expressions():
            if expression not in self._compiled:
                self._compiled.add(expression)
                _compile_anew(compile_expression, expression)

    def deploy_all(self, processes: Iterable[ProcessType]) -> None:
        for process in processes:
            self.deploy(process)
        missing: list[str] = []
        for process in self._unvalidated.values():
            missing.extend(
                s for s in process.subprocess_ids() if s not in self._processes
            )
        if missing:
            raise DeploymentError(
                f"{self.engine_name}: unresolved subprocesses {sorted(set(missing))}"
            )

    def process_type(self, process_id: str) -> ProcessType:
        try:
            return self._processes[process_id]
        except KeyError:
            raise DeploymentError(
                f"{self.engine_name}: process {process_id!r} not deployed"
            ) from None

    @property
    def deployed_ids(self) -> list[str]:
        return sorted(self._processes)

    # -- worker-pool model ---------------------------------------------------------

    def _queue_length(self, at_time: float) -> int:
        """Instances still in the system (in service or queued) at
        ``at_time``, capped at :attr:`management_queue_cap`.

        This is the load signal for the management-cost model: arrivals
        that outpace service pile up here, which is how "a shorter
        interval … reduces the time for self-management and thus reduces
        the performance of the system" becomes measurable.
        """
        while self._in_system and self._in_system[0] <= at_time:
            heapq.heappop(self._in_system)
        return min(len(self._in_system), self.management_queue_cap)

    def _admit(self, arrival: float, service_time: float) -> tuple[float, float]:
        """Admit one instance; returns (start, completion) in tu."""
        while self._worker_free and self._worker_free[0] <= arrival:
            heapq.heappop(self._worker_free)
        if len(self._worker_free) < self.worker_count:
            start = arrival
        else:
            start = heapq.heappop(self._worker_free)
        completion = start + service_time
        heapq.heappush(self._worker_free, completion)
        heapq.heappush(self._in_system, completion)
        return start, completion

    def reset_workers(self) -> None:
        """Clear the worker pool between benchmark periods."""
        self._worker_free.clear()
        self._in_system.clear()

    def _new_instance_id(self) -> int:
        instance_id = self._next_instance_id
        self._next_instance_id += 1
        return instance_id

    # -- durability hooks ----------------------------------------------------------

    def durable_databases(self) -> "list[Database]":
        """Engine-internal databases the durability layer must protect
        (the federated engine's catalog; empty for stateless engines)."""
        return []

    def runtime_state(self) -> dict:
        """Volatile scheduling state, captured at each durable commit.

        Copies are plain lists (the heaps are already heap-ordered), so
        a stored state is immune to later engine mutation.
        """
        return {
            "worker_free": list(self._worker_free),
            "in_system": list(self._in_system),
            "next_instance_id": self._next_instance_id,
        }

    def restore_runtime_state(self, state: dict) -> None:
        """Adopt a previously captured :meth:`runtime_state`."""
        self._worker_free = list(state["worker_free"])
        heapq.heapify(self._worker_free)
        self._in_system = list(state["in_system"])
        heapq.heapify(self._in_system)
        self._next_instance_id = state["next_instance_id"]

    def crash(self) -> None:
        """Hard-kill: every volatile structure is lost.

        Deployments, instance records, the worker pool and id counters
        all vanish — exactly what :class:`RecoveryManager` must rebuild.
        The durability layer (if attached) drops its uncommitted buffers;
        durable logs and checkpoints survive by definition.
        """
        self._processes.clear()
        self._unvalidated.clear()
        self._compiled.clear()
        self.records = InstanceHistory()
        self.reset_workers()
        self._next_instance_id = 1
        self._last_profile = None
        self._current_attempt = 1
        if self.storage is not None:
            self.storage.on_crash(self)

    # -- event handling ----------------------------------------------------------

    def handle_event(self, event: ProcessEvent) -> InstanceRecord:
        """Execute one process-initiating event; returns its record.

        With a resilience context attached, transient failures retry
        with exponential backoff in virtual time and non-retryable or
        exhausted failures are dead-lettered instead of ending the
        instance as a bare error; without one, behavior is the classic
        single-attempt fail-fast path.  Resilience, storage and
        observability are read here at every event, so attaching one to
        a running engine takes effect at the next.
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
            armed: EngineCrashed | None = None
            if res is not None:
                # Apply due fault events (partitions heal, endpoints come
                # back ...) and move the breaker clock before each attempt.
                res.at(attempt_time)
                injector = res.injector
                if injector.take_crash("arrival"):
                    self.crash()
                    raise EngineCrashed(
                        f"{self.engine_name} crashed before admitting "
                        f"{event.process_id}",
                        at=attempt_time,
                    )
                # An armed commit-point crash is consumed *before*
                # execution: the instance runs, then dies with its
                # effects uncommitted.  The pristine message copy lets
                # the client re-dispatch the instance with exactly the
                # original input after recovery.
                if injector.take_crash("commit"):
                    armed = EngineCrashed(
                        f"{self.engine_name} lost an in-flight "
                        f"{event.process_id} instance at commit",
                        pristine_message=event.message.copy()
                        if event.message is not None
                        else None,
                        at=attempt_time,
                    )
            queue_length = self._queue_length(attempt_time)
            outcome, status, failure = None, "ok", None
            try:
                outcome = self._attempt(process, event, queue_length, res, armed)
                break
            except EngineCrashed:
                # Not an instance failure: the engine itself is gone.
                # Propagate past retry/dead-letter handling to the
                # benchmark client, which owns durable recovery.
                raise
            except Exception as exc:  # instance failure, not engine crash
                failure = exc
                self._last_profile = None
                if res is None:
                    status = "error"
                    break
                fault_types.append(type(exc).__name__)
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
        record = self._record(
            event, attempt_time, queue_length, outcome, failure, status,
            attempt, tuple(fault_types),
        )
        if self.storage is not None:
            self.storage.commit_instance(self, record)
        if res is not None:
            mttr = (
                attempt_time - first_failure
                if record.recovered and first_failure is not None
                else None
            )
            res.account(record, mttr)
        obs = self._observability
        if obs.tracer is not None or obs.metrics is not None:
            self._observe_instance(
                record, self._last_profile, outcome[3] if outcome else 0.0
            )
        return record

    def _attempt(
        self,
        process: ProcessType,
        event: ProcessEvent,
        queue_length: int,
        res: "ResilienceContext | None",
        armed: EngineCrashed | None,
    ) -> tuple[CostBreakdown, int, int, float]:
        """One execution attempt: (costs, operators executed, validation
        failures, inbound delivery cost); raises what the instance raised.

        ``armed`` is the commit-point crash this attempt dies of after
        running, when the injector scheduled one.
        """
        self._last_profile = None
        self._raise_injected_faults(event, res)
        costs, operators, failures = self._execute_instance(
            process, event, queue_length
        )
        if armed is not None:
            self.crash()
            raise armed
        # Inbound message delivery is itself a network transfer
        # (C_c includes waiting for external systems, Section V).
        inbound_cost = 0.0
        message = event.message
        if message is not None:
            network = self.registry.network
            if network.has_host(self.message_source_host):
                inbound_cost = network.transfer_cost(
                    self.message_source_host, self.host, message.size_units
                )
                costs.communication += inbound_cost
        return costs, operators, failures, inbound_cost

    def _record(
        self,
        event: ProcessEvent,
        attempt_time: float,
        queue_length: int,
        outcome: tuple[CostBreakdown, int, int, float] | None,
        exc: Exception | None,
        status: str,
        attempts: int,
        fault_types: tuple[str, ...],
    ) -> InstanceRecord:
        """Admit and record one finished instance: the outcome of its
        last attempt, or — given the exception that ended it — a failure
        that cost its management share only."""
        error = error_type = ""
        violations: tuple[str, ...] = ()
        if outcome is not None:
            costs, operators, failures, _ = outcome
        else:
            costs = CostBreakdown(
                management=self.cost_parameters.management_cost(queue_length)
            )
            operators = failures = 0
            error_type = type(exc).__name__
            error = f"{error_type}: {exc}"
            violations = tuple(getattr(exc, "violations", ()) or ())
        start, completion = self._admit(
            attempt_time, costs.management + costs.processing + costs.communication
        )
        record = InstanceRecord(
            self._new_instance_id(), event.process_id, event.period,
            event.stream, event.deadline, start, completion, costs, status,
            error, queue_length, operators, failures, error_type, violations,
            attempts, fault_types,
        )
        self.records.append(record)
        return record

    def _raise_injected_faults(
        self, event: ProcessEvent, res: "ResilienceContext | None"
    ) -> None:
        """Surface injected faults targeting this instance, if any.

        Transient engine faults raise :class:`TransientEngineFault`
        (retryable); a corrupted inbound message is validated against
        its declared XSD and raises a real ``XsdValidationError``
        (poison, dead-lettered).
        """
        if res is None:
            return
        if res.injector.take_engine_fault(event.process_id):
            raise TransientEngineFault(
                f"injected transient engine fault for {event.process_id}"
            )
        if event.message is not None:
            schema = res.injector.corruption_schema(event.message)
            if schema is not None:
                schema.assert_valid(event.message.xml())

    def record_failure(self, event: ProcessEvent, exc: BaseException) -> InstanceRecord:
        """Record an event the engine could not execute at all.

        The client boundary uses this when :meth:`handle_event` itself
        raises (deployment/config errors): the period continues with an
        error record instead of aborting the whole run.
        """
        record = InstanceRecord(
            instance_id=self._new_instance_id(),
            process_id=event.process_id,
            period=event.period,
            stream=event.stream,
            arrival=event.deadline,
            start=event.deadline,
            completion=event.deadline,
            costs=CostBreakdown(),
            status="error",
            error=f"{type(exc).__name__}: {exc}",
            error_type=type(exc).__name__,
            error_violations=tuple(getattr(exc, "violations", ()) or ()),
        )
        self.records.append(record)
        if self.storage is not None:
            self.storage.commit_instance(self, record)
        metrics = self._observability.metrics
        if metrics is not None:
            metrics.counter(
                "engine_instances_total",
                help="Process instances executed",
                labels={
                    "engine": self.engine_name,
                    "process": record.process_id,
                    "status": "error",
                },
            ).inc()
        return record

    def _execute_instance(
        self, process: ProcessType, event: ProcessEvent, queue_length: int
    ) -> tuple[CostBreakdown, int, int]:
        """Run one instance and price it as C_c + C_m + C_p; returns
        (costs, operators executed, validation failures).  Override
        :meth:`_run_process` to trigger a process differently, this
        method to price it differently."""
        context = self._new_context()
        obs = self._observability
        observed = obs.tracer is not None or obs.metrics is not None
        if observed:
            context.operator_log = []
            context.network_log = []
            fastpath_base = fastpath.STATS.copy()
            partition_base = partition.STATS.copy()
        message = event.message
        if message is not None:
            context.set("__in", message)
        self._run_process(process, event, context)
        if observed:
            delta = fastpath.STATS - fastpath_base
            counters = {
                key: value for key, value in delta.snapshot().items() if value
            }
            # Spill activity rides in the same per-instance counter dict
            # under a partition_ prefix; unbudgeted runs spill nothing,
            # so their profile payloads stay byte-identical.
            spill_delta = partition.STATS - partition_base
            for key, value in spill_delta.snapshot().items():
                if value:
                    counters[f"partition_{key}"] = value
            self._last_profile = ExecutionProfile(context.operator_log, counters)
        prices = self.cost_parameters
        management = prices.management_cost(queue_length)
        if message is not None:
            management += prices.receive_overhead
        costs = CostBreakdown(
            context.communication_cost,
            management,
            prices.processing_cost(context.work_units),
        )
        return costs, context.operators_executed, len(context.validation_failures)

    def _run_process(
        self, process: ProcessType, event: ProcessEvent, context: ExecutionContext
    ) -> None:
        """Trigger one instance on ``context`` (``__in`` already bound
        for a message): an integration system runs the operator tree."""
        process.root._run(context)

    def _new_context(self) -> ExecutionContext:
        context = ExecutionContext(
            self.registry,
            self.host,
            subprocess_runner=self._run_subprocess,
        )
        context.parallel_efficiency = self.parallel_efficiency
        context.attempt = self._current_attempt
        return context

    def _run_subprocess(
        self, process_id: str, message: Message | None, parent: ExecutionContext
    ) -> Message | None:
        """Run a child process inline; costs accumulate into the parent.

        Children execute with a fresh variable scope (their own ``__in``)
        but share the parent's cost accounting, so a P14 instance carries
        the full cost of its four subprocesses.
        """
        child_type = self.process_type(process_id)
        saved_variables = parent.variables
        parent.variables = {}
        if message is not None:
            parent.variables["__in"] = message
        try:
            child_type.root._run(parent)
            result = parent.variables.get("__out")
        finally:
            parent.variables = saved_variables
        return result

    # -- span/metric emission ------------------------------------------------------

    def _operator_weight(self, observation: OperatorObservation) -> float:
        """Priced cost of one leaf operator (processing + communication)."""
        try:
            priced = self.cost_parameters.processing_cost(observation.work)
        except EngineError:  # unknown work kinds from custom operators
            priced = 0.0
        return priced + observation.communication

    def _observe_instance(
        self,
        record: InstanceRecord,
        profile: ExecutionProfile | None,
        inbound_cost: float,
    ) -> None:
        """Emit the instance span tree plus run-wide metrics.

        Child spans are laid out inside the instance's service window
        proportionally to each leaf operator's priced cost, so the
        virtual-time layout is deterministic and internally consistent
        (children nest inside parents, durations sum to the window).
        """
        obs = self._observability
        operators = profile.operators if profile is not None else []
        weights = [self._operator_weight(op) for op in operators]

        metrics = obs.metrics
        if metrics is not None:
            metrics.counter(
                "engine_instances_total",
                help="Process instances executed",
                labels={
                    "engine": self.engine_name,
                    "process": record.process_id,
                    "status": record.status,
                },
            ).inc()
            self._m_queue_wait.observe(record.wait)
            if record.operators_executed:
                self._m_operators.inc(record.operators_executed)
            for weight in weights:
                self._m_operator_cost.observe(weight)

        tracer = obs.tracer
        if tracer is None:
            return
        span = tracer.begin(
            f"{record.process_id}#{record.instance_id}",
            start=record.arrival,
            kind="instance",
            attributes={
                "process": record.process_id,
                "period": record.period,
                "stream": record.stream,
                "engine": self.engine_name,
                "queue_length": record.queue_length_at_arrival,
                "operators": record.operators_executed,
                "cost": record.normalized_cost,
            },
        )
        # Only annotate degraded instances: fault-free runs keep
        # byte-identical exports with or without the resilience layer.
        if record.attempts > 1:
            span.set_attribute("attempts", record.attempts)
        if record.error_type:
            span.set_attribute("error_type", record.error_type)
        if profile is not None:
            for key, value in profile.fastpath.items():
                span.set_attribute(f"db_{key}", value)
        if record.start > record.arrival:
            tracer.record(
                "queue-wait", record.arrival, record.start,
                kind="queue", parent=span,
            )
        cursor = record.start
        if record.costs.management > 0:
            tracer.record(
                "management", cursor, cursor + record.costs.management,
                kind="management", parent=span,
            )
            cursor += record.costs.management
        if inbound_cost > 0:
            tracer.record(
                f"deliver:{self.message_source_host}->{self.host}",
                cursor, cursor + inbound_cost,
                kind="network", parent=span,
                attributes={"cost": inbound_cost},
            )
            cursor += inbound_cost
        window = record.completion - cursor
        if operators and window > 0:
            total = sum(weights)
            if total <= 0:
                weights = [1.0] * len(operators)
                total = float(len(operators))
            for observation, weight in zip(operators, weights):
                share = window * (weight / total)
                op_span = tracer.record(
                    f"{observation.kind}:{observation.name}",
                    cursor, cursor + share,
                    kind="operator", parent=span,
                    attributes={
                        "communication": observation.communication,
                        **{f"work_{k}": v for k, v in observation.work.items()},
                        **{f"db_{k}": v for k, v in observation.fastpath.items()},
                    },
                )
                calls = observation.network_calls
                if calls and share > 0:
                    call_total = sum(c.cost for c in calls)
                    call_cursor = cursor
                    for call in calls:
                        call_share = (
                            share * (call.cost / call_total)
                            if call_total > 0
                            else share / len(calls)
                        )
                        tracer.record(
                            f"call:{call.service}",
                            call_cursor, call_cursor + call_share,
                            kind="network", parent=op_span,
                            attributes={
                                "operation": call.operation,
                                "cost": call.cost,
                                "payload_units": call.payload_units,
                            },
                        )
                        call_cursor += call_share
                cursor += share
        span.end(record.completion, status=record.status, error=record.error)

    # -- statistics ---------------------------------------------------------------

    def error_records(self) -> list[InstanceRecord]:
        return list(self.records.where("status", lambda s: s != "ok"))

"""The federated DBMS reference realization (Section VI, Fig. 9).

The paper's first reference implementation maps the benchmark onto a
commercial federated DBMS:

* event type *message stream* (a): a queue table (``P0x_Queue`` with
  ``TID BIGINT PRIMARY KEY, MSG CLOB``) receives the inbound message; an
  AFTER INSERT trigger evaluates the logical ``inserted`` table and runs
  the integration logic, invoking external systems through the federation
  layer;
* event type *time events* (b): the process is a stored procedure
  (``EXECUTE P03``) using temporary tables as local materialization points.

We realize exactly that on our own relational substrate: deployment
creates real queue tables, triggers and procedures inside an internal
:class:`~repro.db.database.Database`, and E1 messages physically round-trip
through CLOB serialization — which is why this engine pays the paper's
observed premium on XML-heavy concurrent process types while its
relational bulk processes stay cheap (optimizer-covered).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING

from repro.errors import EngineError
from repro.db.database import Database
from repro.db.schema import Column, TableSchema
from repro.engine.base import IntegrationEngine, ProcessEvent
from repro.engine.costs import CostBreakdown, FEDERATED_COSTS, CostParameters
from repro.mtm.context import WORK_XML, ExecutionContext
from repro.mtm.message import Message
from repro.mtm.process import EventType, ProcessType
from repro.observability import Observability
from repro.services.registry import ServiceRegistry
from repro.xmlkit.doc import parse_xml, serialize_xml

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.policy import ResilienceContext


class FederatedEngine(IntegrationEngine):
    """Federated-DBMS realization of the benchmark processes ("System A")."""

    engine_name = "federated-dbms"

    def __init__(
        self,
        registry: ServiceRegistry,
        host: str = "IS",
        costs: CostParameters | None = None,
        worker_count: int = 4,
        parallel_efficiency: float = 0.6,
        trace: bool = False,
        observability: Observability | None = None,
        resilience: "ResilienceContext | None" = None,
        mem_budget: int | None = None,
    ):
        super().__init__(
            registry,
            host,
            costs or FEDERATED_COSTS,
            worker_count,
            parallel_efficiency,
            observability=observability,
            resilience=resilience,
            mem_budget=mem_budget,
        )
        #: The engine's own catalog: queue tables, triggers, procedures.
        self.internal_db = Database("federation_catalog")
        if self.mem_budget is not None:
            self.internal_db.set_memory_budget(self.mem_budget)
        #: Volatile routing metadata: ``db name -> current primary host``
        #: (written by the cluster layer's failover rerouting).
        self.catalog_routes: dict[str, str] = {}
        self.trace = trace
        self._next_tid = 1
        # Per-execution scratch: the context used by the running trigger or
        # procedure body (triggers receive only (db, row), so the engine
        # threads the context through this slot).
        self._active_context: ExecutionContext | None = None
        self._active_process: ProcessType | None = None

    # -- deployment ----------------------------------------------------------

    def deploy(self, process: ProcessType) -> None:
        super().deploy(process)
        if process.event_type is EventType.E1_MESSAGE:
            self._deploy_queue_table(process)
        else:
            self._deploy_procedure(process)
        # The DBMS analogue of preparing the trigger/procedure body:
        # every expression of the plan is compiled once at CREATE time.
        self._warm_plan_cache(process)

    def queue_table_name(self, process_id: str) -> str:
        return f"{process_id}_Queue"

    def _deploy_queue_table(self, process: ProcessType) -> None:
        """Fig. 9a: queue table + AFTER INSERT trigger."""
        # Weakly: a strong reference makes the engine and the landscape it
        # serves a cycle, which outlives its run until a full collection.
        engine = weakref.proxy(self)
        table_name = self.queue_table_name(process.process_id)
        self.internal_db.create_table(
            TableSchema(
                table_name,
                [
                    Column("tid", "BIGINT", nullable=False),
                    Column("msg", "CLOB"),
                ],
                primary_key=("tid",),
            )
        )

        def trigger_body(db: Database, row: dict) -> None:
            context = engine._active_context
            if context is None:
                raise EngineError(
                    f"trigger for {process.process_id} fired outside an "
                    "engine execution"
                )
            clob = row["msg"]
            if clob is not None:
                # Parse the queued CLOB back into a document: the physical
                # price of the queue-table realization.
                document = parse_xml(clob)
                context.charge_work(WORK_XML, float(document.size()))
                inbound = Message(document, context.variables["__in"].message_type
                                  if context.has("__in") else "")
                context.set("__in", inbound)
            process.root._run(context)

        self.internal_db.create_trigger(
            f"trg_{process.process_id}", table_name, trigger_body
        )

    def _deploy_procedure(self, process: ProcessType) -> None:
        """Fig. 9b: the process body as a stored procedure."""
        engine = weakref.proxy(self)  # as in _deploy_queue_table

        def procedure_body(db: Database) -> None:
            context = engine._active_context
            if context is None:
                raise EngineError(
                    f"procedure {process.process_id} called outside an "
                    "engine execution"
                )
            process.root._run(context)

        self.internal_db.create_procedure(
            process.process_id,
            procedure_body,
            description=process.description,
        )

    # -- execution ---------------------------------------------------------------

    def _execute_instance(
        self, process: ProcessType, event: ProcessEvent, queue_length: int
    ) -> tuple[CostBreakdown, int, int]:
        context = self._new_context()
        self._enable_profiling(context)
        self._active_context = context
        try:
            if event.message is not None:
                context.set("__in", event.message)
                self._enqueue_message(process, event.message, context)
            else:
                self.internal_db.call_procedure(process.process_id)
        finally:
            self._active_context = None
        self._capture_profile(context)
        if self.trace:
            self.traces.append((process.process_id, context.trace_log))
        management = self.cost_parameters.management_cost(queue_length)
        if event.message is not None:
            management += self.cost_parameters.receive_overhead
        costs = CostBreakdown(
            communication=context.communication_cost,
            management=management,
            processing=self.cost_parameters.processing_cost(context.work_units),
        )
        return costs, context.operators_executed, len(context.validation_failures)

    def _enqueue_message(
        self, process: ProcessType, message: Message, context: ExecutionContext
    ) -> None:
        """INSERT INTO P0x_Queue VALUES (@msg): serialization + trigger."""
        if message.is_xml:
            clob = serialize_xml(message.xml())
            context.charge_work(WORK_XML, float(message.xml().size()))
        else:
            clob = None  # non-XML payloads ride along in the context
        tid = self._next_tid
        self._next_tid += 1
        self.internal_db.insert(
            self.queue_table_name(process.process_id),
            {"tid": tid, "msg": clob},
        )

    # -- durability ----------------------------------------------------------------

    def durable_databases(self) -> list[Database]:
        """The federation catalog (queue tables) rides under the WAL."""
        return [self.internal_db]

    def runtime_state(self) -> dict:
        state = super().runtime_state()
        state["next_tid"] = self._next_tid
        return state

    def restore_runtime_state(self, state: dict) -> None:
        super().restore_runtime_state(state)
        self._next_tid = state.get("next_tid", 1)

    def note_catalog_reroute(self, routes: dict[str, str]) -> None:
        """Cluster failover repointed the federation's database routes.

        The routes live beside the catalog as volatile metadata — never
        as catalog *rows*, which would perturb the replicated queue
        tables' digests.  ``catalog_routes`` is what the wrappers would
        consult to reach each database's current primary.
        """
        self.catalog_routes = dict(routes)

    def crash(self) -> None:
        """A crash also loses the in-memory federation catalog.

        A *fresh* catalog replaces it; redeployment recreates queue
        tables, triggers and procedures, and the client's
        ``StorageManager.reattach_engine`` re-binds the WAL before
        recovery restores the committed queue rows.
        """
        self.internal_db = Database("federation_catalog")
        self.catalog_routes = {}
        self._next_tid = 1
        self._active_context = None
        self._active_process = None
        self.traces.clear()
        super().crash()

    # -- introspection -------------------------------------------------------------

    def queue_depth(self, process_id: str) -> int:
        """Messages ever queued for one E1 process type."""
        return len(self.internal_db.table(self.queue_table_name(process_id)))

"""Execution context: what an operator sees while it runs.

The context is the seam between the engine-agnostic process model and a
concrete integration engine.  Operators read and write message variables,
invoke external services through the registry, and report the work they
performed; the engine turns those reports into the paper's cost
categories (C_c communication, C_m management, C_p processing).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import ProcessRuntimeError
from repro.mtm.message import Message
from repro.observability.profile import NetworkObservation, OperatorObservation
from repro.services.endpoints import Envelope
from repro.services.registry import ServiceRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.mtm.process import ProcessType

#: Work kinds an operator may report; engines price them differently
#: (the paper's federated DBMS optimizes relational work but not XML work).
WORK_RELATIONAL = "relational"
WORK_XML = "xml"
WORK_CONTROL = "control"

WORK_KINDS = (WORK_RELATIONAL, WORK_XML, WORK_CONTROL)


class ExecutionContext:
    """Runtime state of one process-instance execution.

    ``subprocess_runner`` is supplied by the engine so a Subprocess block
    can execute a child process type and have its costs folded into the
    parent instance (P14's structure).
    """

    def __init__(
        self,
        registry: ServiceRegistry,
        caller_host: str,
        subprocess_runner: Callable[[str, Message | None, "ExecutionContext"], Message | None]
        | None = None,
    ):
        self.registry = registry
        self.caller_host = caller_host
        self.variables: dict[str, Message] = {}
        self.communication_cost = 0.0
        self.work_units: dict[str, float] = dict.fromkeys(WORK_KINDS, 0.0)
        self.operators_executed = 0
        self._subprocess_runner = subprocess_runner
        #: 1-based execution attempt of the owning instance (> 1 while a
        #: resilience retry is re-running the process).
        self.attempt = 1
        #: Share of a Fork's branch costs that overlap; the engine sets
        #: its own (1.0 = the slowest branch only, 0.0 = their sum).
        self.parallel_efficiency = 1.0
        #: Validation failures routed to failed-data destinations (P10).
        self.validation_failures: list[list[str]] = []
        #: Observability hooks: when an engine runs with tracing/metrics
        #: on, it replaces these with lists and the operators/service
        #: calls log themselves (see repro.observability.profile).
        self.operator_log: list[OperatorObservation] | None = None
        self.network_log: list[NetworkObservation] | None = None
        #: What one step of this instance leaves for a later one, keyed
        #: by the definition that reads it back: run state stays here,
        #: never on a definition shared by every instance.
        self.scratch: dict[str, object] = {}

    # -- variables -------------------------------------------------------------

    def get(self, name: str) -> Message:
        try:
            return self.variables[name]
        except KeyError:
            raise ProcessRuntimeError(
                f"message variable {name!r} is unbound; "
                f"bound: {sorted(self.variables)}"
            ) from None

    def set(self, name: str, message: Message) -> None:
        self.variables[name] = message

    def has(self, name: str) -> bool:
        return name in self.variables

    # -- cost reporting -----------------------------------------------------------

    def charge_communication(self, cost: float) -> None:
        self.communication_cost += cost

    def charge_work(self, kind: str, units: float) -> None:
        if kind not in self.work_units:
            raise ProcessRuntimeError(f"unknown work kind {kind!r}")
        self.work_units[kind] += units

    # -- services / subprocesses --------------------------------------------------

    def call_service(self, service: str, request: Envelope) -> Envelope:
        """Invoke an external service; the transfer cost lands in C_c."""
        outcome = self.registry.call(self.caller_host, service, request)
        self.charge_communication(outcome.communication_cost)
        if self.network_log is not None:
            self.network_log.append(
                NetworkObservation(
                    service=service,
                    operation=request.operation,
                    cost=outcome.communication_cost,
                    payload_units=request.payload_units
                    + outcome.response.payload_units,
                )
            )
        return outcome.response

    def run_subprocess(self, process_id: str, message: Message | None) -> Message | None:
        if self._subprocess_runner is None:
            raise ProcessRuntimeError(
                f"engine provided no subprocess runner (needed for {process_id})"
            )
        return self._subprocess_runner(process_id, message, self)

"""The MTM interpreter engine: a dedicated integration system.

Executes operator trees directly against the service registry.  This is
the "integration system" flavour of the system under test — structurally
an EAI/ETL engine with a worker pool, a plan cache and native operators.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.base import IntegrationEngine, ProcessEvent
from repro.engine.costs import CostBreakdown, INTERPRETER_COSTS, CostParameters
from repro.mtm.process import ProcessType
from repro.observability import Observability
from repro.services.registry import ServiceRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.resilience.policy import ResilienceContext


class MtmInterpreterEngine(IntegrationEngine):
    """Directly interprets MTM process definitions.

    >>> # see examples/quickstart.py for an end-to-end run
    """

    engine_name = "mtm-interpreter"

    #: The profile an argument left at None falls back to; subclasses
    #: that model another kind of integration system override these.
    default_costs = INTERPRETER_COSTS
    default_worker_count = 4
    default_parallel_efficiency = 1.0

    def __init__(
        self,
        registry: ServiceRegistry,
        host: str = "IS",
        costs: CostParameters | None = None,
        worker_count: int | None = None,
        parallel_efficiency: float | None = None,
        trace: bool = False,
        observability: Observability | None = None,
        resilience: "ResilienceContext | None" = None,
        mem_budget: int | None = None,
    ):
        super().__init__(
            registry,
            host,
            costs or self.default_costs,
            self.default_worker_count if worker_count is None else worker_count,
            self.default_parallel_efficiency
            if parallel_efficiency is None
            else parallel_efficiency,
            observability=observability,
            resilience=resilience,
            mem_budget=mem_budget,
        )
        self.trace = trace

    def deploy(self, process: ProcessType) -> None:
        """Install one process and warm its plan cache.

        Compiling every expression of the plan at deploy time is the
        interpreter's plan cache: instances then run entirely on
        compiled closures.
        """
        super().deploy(process)
        self._warm_plan_cache(process)

    def _execute_instance(
        self, process: ProcessType, event: ProcessEvent, queue_length: int
    ) -> tuple[CostBreakdown, int, int]:
        context = self._new_context()
        self._enable_profiling(context)
        if event.message is not None:
            context.set("__in", event.message)
        process.root._run(context)
        self._capture_profile(context)
        if self.trace:
            self.traces.append((process.process_id, context.trace_log))
        costs = CostBreakdown(
            communication=context.communication_cost,
            management=self.cost_parameters.management_cost(queue_length),
            processing=self.cost_parameters.processing_cost(context.work_units),
        )
        return costs, context.operators_executed, len(context.validation_failures)

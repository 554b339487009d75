"""The MTM interpreter engine: a dedicated integration system.

Executes operator trees directly against the service registry.  This is
the "integration system" flavour of the system under test — structurally
an EAI/ETL engine with a worker pool, a plan cache and native operators.
"""

from __future__ import annotations

from repro.engine.base import IntegrationEngine, ProcessEvent
from repro.engine.costs import CostBreakdown
from repro.mtm.process import ProcessType


class MtmInterpreterEngine(IntegrationEngine):
    """Directly interprets MTM process definitions.

    >>> # see examples/quickstart.py for an end-to-end run
    """

    engine_name = "mtm-interpreter"

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
        costs = CostBreakdown(
            communication=context.communication_cost,
            management=self.cost_parameters.management_cost(queue_length),
            processing=self.cost_parameters.processing_cost(context.work_units),
        )
        return costs, context.operators_executed, len(context.validation_failures)

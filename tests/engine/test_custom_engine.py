"""Extensibility: a complete third-party engine in a few lines.

Documents (and pins) the extension seam described in
docs/architecture.md: subclassing IntegrationEngine with one method is
enough to run the full benchmark and get comparable NAVG+ metrics.
"""

import pytest

from repro.engine import ENGINES, IntegrationEngine
from repro.engine.costs import CostBreakdown, CostParameters
from repro.mtm.context import ExecutionContext
from repro.parallel import RunSpec, client_from_spec


class FlatRateEngine(IntegrationEngine):
    """A deliberately naive engine: executes the MTM tree but charges a
    flat rate per operator instead of pricing work units — the kind of
    engine a vendor might enter into the benchmark."""

    engine_name = "flat-rate"
    cost_parameters = CostParameters()

    def __init__(self, registry, flat_rate: float = 0.8, **kwargs):
        super().__init__(registry, **kwargs)
        self.flat_rate = flat_rate

    def _execute_instance(self, process, event, queue_length):
        context = ExecutionContext(
            self.registry, self.host, subprocess_runner=self._run_subprocess
        )
        context.parallel_efficiency = self.parallel_efficiency
        if event.message is not None:
            context.set("__in", event.message)
        process.root._run(context)
        costs = CostBreakdown(
            communication=context.communication_cost,
            management=self.cost_parameters.management_cost(queue_length),
            processing=self.flat_rate * context.operators_executed,
        )
        return costs, context.operators_executed, len(context.validation_failures)

    def _run_subprocess(self, process_id, message, parent):
        child = self.process_type(process_id)
        saved = parent.variables
        parent.variables = {}
        if message is not None:
            parent.variables["__in"] = message
        try:
            child.root._run(parent)
            return parent.variables.get("__out")
        finally:
            parent.variables = saved


class TestCustomEngine:
    @pytest.fixture(scope="class")
    def result(self):
        # A third-party engine registers itself; a spec then names it.
        ENGINES["flat-rate"] = FlatRateEngine
        try:
            spec = RunSpec(engine="flat-rate", datasize=0.05, periods=1, seed=5)
            return client_from_spec(spec).run()
        finally:
            del ENGINES["flat-rate"]

    def test_full_benchmark_runs(self, result):
        assert result.engine_name == "flat-rate"
        assert result.error_instances == 0

    def test_verification_passes(self, result):
        """A third engine must still integrate the data correctly."""
        assert result.verification.ok, result.verification.summary()

    def test_metrics_comparable(self, result):
        assert result.metrics.process_ids == [
            f"P{i:02d}" for i in range(1, 16)
        ]
        # Flat-rate pricing flattens the spread: P13's many rows no longer
        # dominate a message type by orders of magnitude.
        p13 = result.metrics["P13"].navg_plus
        p04 = result.metrics["P04"].navg_plus
        assert p13 / p04 < 20

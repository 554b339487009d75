"""Cost model parameters and breakdowns."""

import pytest

from repro.engine.costs import (
    CostBreakdown,
    CostParameters,
    FEDERATED_COSTS,
    INTERPRETER_COSTS,
)
from repro.errors import EngineError


class TestCostParameters:
    def test_processing_cost_prices_each_kind(self):
        params = CostParameters(relational_unit=1.0, xml_unit=2.0,
                                control_unit=3.0)
        cost = params.processing_cost(
            {"relational": 2.0, "xml": 3.0, "control": 1.0}
        )
        assert cost == pytest.approx(2 + 6 + 3)

    def test_unknown_kind_rejected(self):
        with pytest.raises(EngineError):
            CostParameters().processing_cost({"quantum": 1.0})

    def test_management_grows_with_queue(self):
        params = CostParameters(plan_cost=1.0, reorg_per_queued=0.5)
        assert params.management_cost(0) == 1.0
        assert params.management_cost(4) == 3.0

    def test_negative_queue_rejected(self):
        with pytest.raises(EngineError):
            CostParameters().management_cost(-1)

    def test_federated_profile_penalizes_xml(self):
        """The paper's observation: relational ops are optimizer-covered,
        XML functions are not."""
        assert FEDERATED_COSTS.xml_unit > INTERPRETER_COSTS.xml_unit
        assert FEDERATED_COSTS.relational_unit < INTERPRETER_COSTS.relational_unit
        assert FEDERATED_COSTS.receive_overhead > 0
        assert INTERPRETER_COSTS.receive_overhead == 0


class TestCostBreakdown:
    def test_total(self):
        b = CostBreakdown(1.0, 2.0, 3.0)
        assert b.total == 6.0

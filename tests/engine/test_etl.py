"""The ETL-tool realization (the paper's announced future work)."""

import pytest

from repro.engine.eai import EAI_COSTS, ETL_COSTS
from repro.parallel import RunSpec, client_from_spec


class TestEtlProfile:
    def test_bulk_native_message_hostile(self):
        assert ETL_COSTS.relational_unit < EAI_COSTS.relational_unit
        assert ETL_COSTS.plan_cost > EAI_COSTS.plan_cost  # job startup
        assert ETL_COSTS.receive_overhead > 0

    def test_defaults(self):
        engine = client_from_spec(RunSpec(engine="etl")).engine
        assert engine.engine_name == "etl-tool"
        assert engine.worker_count == RunSpec().engine_workers


class TestEtlBenchmark:
    @pytest.fixture(scope="class")
    def pair(self):
        results = {}
        for name in ("etl", "eai"):
            client = client_from_spec(
                RunSpec(engine=name, datasize=0.05, periods=2, seed=5)
            )
            results[name] = client.run()
        return results

    def test_functionally_correct(self, pair):
        for name, result in pair.items():
            assert result.error_instances == 0, name
            assert result.verification.ok, name

    def test_etl_wins_the_bulk_loads(self, pair):
        """Its purpose-built path: the scheduled warehouse loads."""
        for pid in ("P11", "P12", "P13"):
            assert (
                pair["etl"].metrics[pid].navg_plus
                < pair["eai"].metrics[pid].navg_plus
            ), pid

    def test_etl_loses_the_message_types(self, pair):
        """The anti-pattern: per-message job startup and pickup."""
        for pid in ("P04", "P08", "P10"):
            assert (
                pair["etl"].metrics[pid].navg_plus
                > pair["eai"].metrics[pid].navg_plus
            ), pid

    def test_message_pickup_charged_to_management(self, pair):
        etl_metrics = pair["etl"].metrics
        assert (
            etl_metrics["P04"].management_mean
            > pair["eai"].metrics["P04"].management_mean
        )

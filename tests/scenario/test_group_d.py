"""Group D: the parallel data-mart refresh (P14 + subprocesses, P15)."""

import pytest

from repro.engine import ProcessEvent

MARTS = ("dm_europe", "dm_united_states", "dm_asia")


@pytest.fixture()
def warehoused(initialized, engine):
    """Scenario with the DWH loaded (streams A, B, C executed)."""
    scenario, population = initialized
    engine.handle_event(ProcessEvent("P03", 0.0, stream="A"))
    for pid, at in (("P05", 100.0), ("P06", 200.0), ("P07", 300.0),
                    ("P09", 400.0), ("P11", 500.0)):
        engine.handle_event(ProcessEvent(pid, at, stream="B"))
    engine.handle_event(ProcessEvent("P12", 1000.0, stream="C"))
    engine.handle_event(ProcessEvent("P13", 1010.0, stream="C"))
    return scenario, population


class TestP14:
    def test_marts_loaded(self, warehoused, engine):
        scenario, _ = warehoused
        record = engine.handle_event(ProcessEvent("P14", 2000.0, stream="D"))
        assert record.status == "ok"
        for mart in MARTS:
            db = scenario.databases[mart]
            assert len(db.table("customer")) > 0, mart
            assert len(db.table("orders")) > 0, mart

    def test_marts_partition_the_warehouse(self, warehoused, engine):
        scenario, _ = warehoused
        engine.handle_event(ProcessEvent("P14", 2000.0, stream="D"))
        dwh_orders = len(scenario.databases["dwh"].table("orders"))
        mart_orders = sum(
            len(scenario.databases[m].table("orders")) for m in MARTS
        )
        assert mart_orders == dwh_orders
        # Customers partition too (every customer has exactly one region).
        dwh_customers = len(scenario.databases["dwh"].table("customer"))
        mart_customers = sum(
            len(scenario.databases[m].table("customer")) for m in MARTS
        )
        assert mart_customers == dwh_customers

    def test_denormalization_variants(self, warehoused, engine):
        scenario, _ = warehoused
        engine.handle_event(ProcessEvent("P14", 2000.0, stream="D"))
        europe = scenario.databases["dm_europe"]
        assert len(europe.table("dim_product")) > 0
        assert len(europe.table("dim_location")) > 0
        us = scenario.databases["dm_united_states"]
        assert len(us.table("dim_location")) > 0
        assert len(us.table("product")) > 0  # normalized product dim
        asia = scenario.databases["dm_asia"]
        assert len(asia.table("dim_product")) > 0
        assert len(asia.table("city")) > 0  # normalized location dim

    def test_location_dims_partitioned_by_region(self, warehoused, engine):
        scenario, _ = warehoused
        engine.handle_event(ProcessEvent("P14", 2000.0, stream="D"))
        europe_locations = scenario.databases["dm_europe"].table("dim_location")
        assert all(
            r["region_name"] == "Europe" for r in europe_locations.scan()
        )
        us_locations = scenario.databases["dm_united_states"].table("dim_location")
        assert all(
            r["region_name"] == "America" for r in us_locations.scan()
        )

    def test_denormalized_product_carries_group_and_line(self, warehoused,
                                                         engine):
        scenario, _ = warehoused
        engine.handle_event(ProcessEvent("P14", 2000.0, stream="D"))
        products = scenario.databases["dm_europe"].table("dim_product").scan()
        assert all(p["group_name"] and p["line_name"] for p in products)

    def test_mart_referential_integrity(self, warehoused, engine):
        scenario, _ = warehoused
        engine.handle_event(ProcessEvent("P14", 2000.0, stream="D"))
        for mart in MARTS:
            assert scenario.databases[mart].check_integrity() == [], mart

    def test_subprocess_costs_folded_into_p14(self, warehoused, engine):
        record = engine.handle_event(ProcessEvent("P14", 2000.0, stream="D"))
        assert record.operators_executed > 50  # main + 4 subprocesses
        ids = [r.process_id for r in engine.records]
        assert ids.count("P14") == 1
        assert "P14_S1" not in ids  # children have no records


class TestP15:
    def test_views_refreshed_in_parallel(self, warehoused, engine):
        scenario, _ = warehoused
        engine.handle_event(ProcessEvent("P14", 2000.0, stream="D"))
        record = engine.handle_event(ProcessEvent("P15", 3000.0, stream="D"))
        assert record.status == "ok"
        for mart in MARTS:
            view = scenario.databases[mart].materialized_view("OrdersMV")
            assert view.is_populated, mart
            assert len(view.snapshot) > 0

    def test_mart_view_aggregates_by_segment(self, warehoused, engine):
        scenario, _ = warehoused
        engine.handle_event(ProcessEvent("P14", 2000.0, stream="D"))
        engine.handle_event(ProcessEvent("P15", 3000.0, stream="D"))
        snapshot = (
            scenario.databases["dm_europe"].materialized_view("OrdersMV").snapshot
        )
        assert set(snapshot.columns) == {"segment", "order_count", "revenue"}
        total = sum(r["order_count"] for r in snapshot)
        assert total == len(scenario.databases["dm_europe"].table("orders"))

    def test_parallel_cheaper_than_serial_refresh(self, warehoused):
        """The fork makes P15 cost roughly one refresh, not three."""
        scenario, _ = warehoused
        from repro.engine import MtmInterpreterEngine
        from repro.scenario import build_processes

        parallel = MtmInterpreterEngine(scenario.registry)
        parallel.parallel_efficiency = 1.0
        serial = MtmInterpreterEngine(scenario.registry)
        serial.parallel_efficiency = 0.0
        for engine in (parallel, serial):
            engine.deploy_all(build_processes().values())
        parallel.handle_event(ProcessEvent("P14", 0.0, stream="D"))
        cost_parallel = parallel.handle_event(
            ProcessEvent("P15", 10_000.0, stream="D")
        ).costs
        cost_serial = serial.handle_event(
            ProcessEvent("P15", 20_000.0, stream="D")
        ).costs
        assert cost_parallel.communication < cost_serial.communication

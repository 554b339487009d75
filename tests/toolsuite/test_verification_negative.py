"""Phase post must actually *catch* broken integration outcomes.

Each test runs a clean period, then sabotages one aspect of the final
state and asserts the corresponding verification check fails — the
benchmark's functional-correctness net has to be load-bearing, not
decorative.
"""

import pytest

from repro.parallel import RunSpec, client_from_spec
from repro.toolsuite.verification import verify_period


@pytest.fixture()
def finished():
    client = client_from_spec(RunSpec(periods=1, seed=5))
    result = client.run()
    assert result.verification.ok
    return client.scenario, client.engine, client._last_factory


def failing_checks(scenario, engine, factory):
    report = verify_period(scenario, engine, factory)
    return {failure.split(":")[0] for failure in report.failures}


class TestSabotage:
    def test_lost_failed_message_detected(self, finished):
        scenario, engine, factory = finished
        cdb = scenario.databases["sales_cleaning"]
        cdb.table("failed_messages").delete()
        assert "p10_failed_message_capture" in failing_checks(
            scenario, engine, factory
        )

    def test_surviving_dirt_detected(self, finished):
        scenario, engine, factory = finished
        cdb = scenario.databases["sales_cleaning"]
        cdb.insert("customer", {
            "custkey": 999_000_001, "name": "##corrupt", "address": "x",
            "phone": "y", "citykey": 1, "segment": "Z", "integrated": True,
        })
        assert "p12_no_corrupted_master_data" in failing_checks(
            scenario, engine, factory
        )

    def test_unflagged_master_data_detected(self, finished):
        scenario, engine, factory = finished
        cdb = scenario.databases["sales_cleaning"]
        cdb.insert("customer", {
            "custkey": 999_000_002, "name": "Customer#999000002",
            "address": "unique-x", "phone": "unique-y", "citykey": 1,
            "segment": "Z", "integrated": False,
        })
        assert "p12_master_data_flagged_integrated" in failing_checks(
            scenario, engine, factory
        )

    def test_leftover_movement_delta_detected(self, finished):
        scenario, engine, factory = finished
        cdb = scenario.databases["sales_cleaning"]
        cdb.insert("orders", {
            "orderkey": 999_000_003, "custkey": 1,
            "orderdate": "2007-01-01", "status": "O",
            "priority": "5-LOW", "totalprice": 1,
        })
        assert "p13_cdb_movement_cleared" in failing_checks(
            scenario, engine, factory
        )

    def test_lost_warehouse_order_detected(self, finished):
        """Dropping a delivered order breaks the reconciliation."""
        scenario, engine, factory = finished
        dwh = scenario.databases["dwh"]
        orderkey, _ = factory.vienna_orderkeys[0]
        from repro.db.expressions import col, lit

        removed = dwh.table("orders").delete(col("orderkey") == lit(orderkey))
        if removed:  # the order survived cleansing in this seed
            fails = failing_checks(scenario, engine, factory)
            assert "vienna_orders_reconciled" in fails or \
                "p14_marts_partition_dwh_orders" in fails

    def test_stale_mdm_subscription_detected(self, finished):
        scenario, engine, factory = finished
        custkey, expected = next(iter(factory.mdm_updates.items()))
        from repro.scenario.topology import EUROPE_TRONDHEIM_THRESHOLD

        db_name = ("berlin_paris" if custkey < EUROPE_TRONDHEIM_THRESHOLD
                   else "trondheim")
        scenario.databases[db_name].table("eu_customer").update(
            {"cust_address": "STALE"},
            lambda row: row["cust_id"] == custkey,
        )
        assert "p02_subscription_applied" in failing_checks(
            scenario, engine, factory
        )

    def test_unrefreshed_mart_view_detected(self, finished):
        scenario, engine, factory = finished
        scenario.databases["dm_asia"].materialized_view("OrdersMV").invalidate()
        assert "p15_dm_asia_view_refreshed" in failing_checks(
            scenario, engine, factory
        )

    def test_missing_seoul_master_data_detected(self, finished):
        scenario, engine, factory = finished
        scenario.web_service_databases["seoul"].table("customer").truncate()
        assert "p01_seoul_master_data_present" in failing_checks(
            scenario, engine, factory
        )

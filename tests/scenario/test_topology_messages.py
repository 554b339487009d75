"""Topology (Fig. 1), message factories, stored procedures."""

import pytest

from repro.db.expressions import col, lit
from repro.scenario import PROCESS_TABLE, build_processes, build_scenario
from repro.scenario.messages import MessageFactory, Population
from repro.scenario.procedures import (
    sp_run_master_data_cleansing,
    sp_run_movement_data_cleansing,
)
from repro.scenario.topology import KEY_RANGES
from repro.scenario.xmlschemas import (
    beijing_schema,
    hongkong_schema,
    mdm_schema,
    sandiego_schema,
    vienna_schema,
)


class TestTopology:
    def test_three_hosts(self, scenario):
        assert scenario.network.hosts == ["CS", "ES", "IS"]

    def test_eleven_database_instances(self, scenario):
        """The paper's ES ran one DBMS with eleven database instances."""
        assert len(scenario.databases) == 11

    def test_three_web_services(self, scenario):
        assert sorted(scenario.web_service_databases) == [
            "beijing", "hongkong", "seoul",
        ]

    def test_all_endpoints_registered(self, scenario):
        expected = set(scenario.databases) | set(scenario.web_service_databases)
        assert set(scenario.registry.service_names) == expected

    def test_all_endpoints_on_es(self, scenario):
        for name in scenario.registry.service_names:
            assert scenario.registry.lookup(name).host == "ES"

    def test_dialects_differ_between_beijing_and_seoul(self, scenario):
        beijing = scenario.registry.lookup("beijing")
        seoul = scenario.registry.lookup("seoul")
        assert beijing.result_tag != seoul.result_tag

    def test_uninitialize_empties_everything(self, initialized):
        scenario, _ = initialized
        scenario.uninitialize()
        for name, db in scenario.all_databases.items():
            for table_name in db.table_names:
                assert len(db.table(table_name)) == 0, (name, table_name)

    def test_database_accessor_covers_web_services(self, scenario):
        assert scenario.database("beijing").name == "beijing_store"
        assert scenario.database("dwh").name == "dwh"


class TestProcessTable:
    def test_fifteen_types(self):
        assert len(PROCESS_TABLE) == 15
        assert [row[1] for row in PROCESS_TABLE] == [
            f"P{i:02d}" for i in range(1, 16)
        ]

    def test_group_sizes_match_table_1(self):
        groups = [row[0] for row in PROCESS_TABLE]
        assert groups.count("A") == 3
        assert groups.count("B") == 8
        assert groups.count("C") == 2
        assert groups.count("D") == 2

    def test_build_processes_covers_table_plus_subprocesses(self):
        processes = build_processes()
        table_ids = {row[1] for row in PROCESS_TABLE}
        assert table_ids <= set(processes)
        subs = set(processes) - table_ids
        assert subs == {"P14_S1", "P14_S2", "P14_S3", "P14_S4"}
        assert all(processes[s].subprocess_only for s in subs)

    def test_groups_assigned_correctly(self):
        processes = build_processes()
        for group, pid, _ in PROCESS_TABLE:
            assert processes[pid].group.name == group, pid


class TestMessageFactory:
    def test_messages_conform_to_their_schemas(self, factory):
        assert vienna_schema().is_valid(factory.vienna_order().xml())
        assert mdm_schema().is_valid(factory.mdm_customer_update().xml())
        assert hongkong_schema().is_valid(factory.hongkong_order().xml())
        assert beijing_schema().is_valid(factory.beijing_master_data().xml())

    def test_clean_sandiego_conforms(self, initialized):
        _, population = initialized
        clean = MessageFactory(population, seed=1, error_rate=0.0)
        for _ in range(10):
            assert sandiego_schema().is_valid(clean.sandiego_order().xml())
        assert clean.sandiego_invalid == 0

    def test_dirty_sandiego_violates(self, initialized):
        _, population = initialized
        dirty = MessageFactory(population, seed=1, error_rate=1.0)
        for _ in range(10):
            assert not sandiego_schema().is_valid(dirty.sandiego_order().xml())
        assert dirty.sandiego_invalid == 10

    def test_order_keys_unique_across_messages(self, factory):
        keys = set()
        for _ in range(20):
            keys.add(int(factory.vienna_order().xml().find("Kopf")
                         .child_text("Auftrag")))
            keys.add(int(factory.hongkong_order().xml().child_text("Id")))
        assert len(keys) == 40

    def test_key_ranges_respected(self, factory):
        vienna_key = int(
            factory.vienna_order().xml().find("Kopf").child_text("Auftrag")
        )
        assert vienna_key > KEY_RANGES["vienna_orders"]
        hk_key = int(factory.hongkong_order().xml().child_text("Id"))
        assert hk_key > KEY_RANGES["hongkong_orders"]

    def test_population_guard(self):
        empty = Population()
        with pytest.raises(ValueError):
            empty.customers_of("berlin")

    def test_europe_keys_are_gathered_once_and_only_when_needed(self, initialized):
        _, population = initialized
        factory = MessageFactory(population, seed=9)
        assert "_europe_customers" not in vars(factory)
        factory.vienna_order()
        gathered = vars(factory)["_europe_customers"]
        assert gathered == [
            key
            for source in ("berlin", "paris", "trondheim")
            for key in population.customers_of(source)
        ]
        factory.mdm_customer_update()
        assert vars(factory)["_europe_customers"] is gathered
        # A population without Europe still fails at the message, not before.
        asia_only = MessageFactory(
            Population(customer_keys={"beijing": [1]}), seed=9
        )
        for send in (asia_only.vienna_order, asia_only.mdm_customer_update):
            with pytest.raises(ValueError, match="no customers for 'berlin'"):
                send()
        assert asia_only.vienna_sent == 0 and next(asia_only._vienna_orders) == (
            KEY_RANGES["vienna_orders"] + 1
        )

    def test_deterministic_with_seed(self, initialized):
        _, population = initialized
        a = MessageFactory(population, seed=9)
        b = MessageFactory(population, seed=9)
        from repro.xmlkit.doc import serialize_xml

        assert serialize_xml(a.vienna_order().xml()) == serialize_xml(
            b.vienna_order().xml()
        )


class TestProcedures:
    def test_master_cleansing_report(self, initialized):
        scenario, _ = initialized
        cdb = scenario.databases["sales_cleaning"]
        cdb.insert("customer", {"custkey": 1, "name": "Customer#000000001",
                                "address": "a", "phone": "p",
                                "citykey": 1, "segment": "X",
                                "integrated": False})
        cdb.insert("customer", {"custkey": 2, "name": "XXbroken",
                                "address": "b", "phone": "q",
                                "citykey": 1, "segment": "X",
                                "integrated": False})
        cdb.insert("customer", {"custkey": 3, "name": "Customer#000000003",
                                "address": "a", "phone": "p",  # duplicate of 1
                                "citykey": 1, "segment": "X",
                                "integrated": False})
        report = sp_run_master_data_cleansing(cdb)
        assert report["customer_errors"] == 1
        assert report["customer_duplicates"] == 1
        survivors = {c["custkey"] for c in cdb.table("customer").scan()}
        assert survivors == {1}

    def test_movement_cleansing_removes_orphans(self, initialized):
        scenario, _ = initialized
        cdb = scenario.databases["sales_cleaning"]
        cdb.insert("customer", {"custkey": 1, "name": "Customer#000000001",
                                "address": "a", "phone": "p",
                                "citykey": 1, "segment": "X",
                                "integrated": False})
        cdb.insert("product", {"prodkey": 1, "name": "widget", "brand": "B",
                               "price": 5, "groupkey": 1})
        cdb.insert("orders", {"orderkey": 1, "custkey": 1,
                              "orderdate": "2007-01-01", "status": "O",
                              "priority": "5-LOW", "totalprice": 5})
        cdb.insert("orders", {"orderkey": 2, "custkey": 99,  # orphan
                              "orderdate": "2007-01-01", "status": "O",
                              "priority": "5-LOW", "totalprice": 5})
        cdb.insert("orderline", {"orderkey": 1, "linenumber": 1, "prodkey": 1,
                                 "quantity": 1, "extendedprice": 5,
                                 "discount": 0})
        cdb.insert("orderline", {"orderkey": 1, "linenumber": 2, "prodkey": 77,
                                 "quantity": 1, "extendedprice": 5,
                                 "discount": 0})  # bad product
        report = sp_run_movement_data_cleansing(cdb)
        assert report["orphan_orders"] == 1
        assert report["bad_orderlines"] == 1

    def test_mark_integrated(self, initialized):
        scenario, _ = initialized
        cdb = scenario.databases["sales_cleaning"]
        cdb.insert("customer", {"custkey": 1, "name": "Customer#000000001",
                                "address": "a", "phone": "p",
                                "citykey": 1, "segment": "X",
                                "integrated": False})
        marked = cdb.call_procedure("sp_markMasterDataIntegrated")
        assert marked == 1
        assert cdb.table("customer").get(1)["integrated"] is True

    def test_clear_movement_data(self, initialized):
        scenario, _ = initialized
        cdb = scenario.databases["sales_cleaning"]
        cdb.insert("orders", {"orderkey": 1, "custkey": 1,
                              "orderdate": "2007-01-01", "status": "O",
                              "priority": "5-LOW", "totalprice": 5})
        result = cdb.call_procedure("sp_clearMovementData")
        assert result == {"orders": 1, "orderlines": 0}
        assert len(cdb.table("orders")) == 0

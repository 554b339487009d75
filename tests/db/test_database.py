"""Database catalog: DDL, triggers, procedures, MVs, integrity."""

import pytest

from repro.db import Column, Database, TableSchema
from repro.db.schema import ForeignKey
from repro.errors import IntegrityError, ProcedureError, SchemaError


@pytest.fixture()
def db():
    database = Database("test")
    database.create_table(
        TableSchema(
            "customer",
            [Column("custkey", "BIGINT", nullable=False),
             Column("name", "VARCHAR")],
            primary_key=("custkey",),
        )
    )
    database.create_table(
        TableSchema(
            "orders",
            [Column("orderkey", "BIGINT", nullable=False),
             Column("custkey", "BIGINT", nullable=False)],
            primary_key=("orderkey",),
            foreign_keys=[ForeignKey(("custkey",), "customer", ("custkey",))],
        )
    )
    return database


class TestDdl:
    def test_duplicate_table_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_table(TableSchema("customer", [Column("x", "INTEGER")]))

    def test_table_names_sorted(self, db):
        assert db.table_names == ["customer", "orders"]



class TestTriggers:
    def test_after_insert_fires(self, db):
        fired = []
        db.create_trigger("t", "customer", lambda d, row: fired.append(row))
        db.insert("customer", {"custkey": 1, "name": "A"})
        assert fired == [{"custkey": 1, "name": "A"}]

    def test_trigger_sees_database(self, db):
        """Fig. 9a: the trigger body runs integration logic on the db."""

        def body(database, row):
            database.table("orders").insert(
                {"orderkey": row["custkey"] * 100, "custkey": row["custkey"]}
            )

        db.create_trigger("t", "customer", body)
        db.insert("customer", {"custkey": 2})
        assert len(db.table("orders")) == 1

    def test_fire_count(self, db):
        trigger = db.create_trigger("t", "customer", lambda d, r: None)
        db.insert_many("customer", [{"custkey": i} for i in range(3)])
        assert trigger.fire_count == 3

    def test_trigger_on_unknown_table(self, db):
        with pytest.raises(SchemaError):
            db.create_trigger("t", "ghost", lambda d, r: None)

    def test_duplicate_trigger_name(self, db):
        db.create_trigger("t", "customer", lambda d, r: None)
        with pytest.raises(SchemaError):
            db.create_trigger("t", "customer", lambda d, r: None)

    def test_direct_table_insert_bypasses_triggers(self, db):
        """Only Database.insert dispatches triggers (documented contract)."""
        fired = []
        db.create_trigger("t", "customer", lambda d, r: fired.append(1))
        db.table("customer").insert({"custkey": 9})
        assert not fired


class TestProcedures:
    def test_call_with_params(self, db):
        db.create_procedure("add", lambda d, a, b: a + b)
        assert db.call_procedure("add", a=2, b=3) == 5

    def test_procedure_gets_database(self, db):
        db.create_procedure("count", lambda d: len(d.table("customer")))
        db.insert("customer", {"custkey": 1})
        assert db.call_procedure("count") == 1

    def test_missing_procedure(self, db):
        with pytest.raises(ProcedureError):
            db.call_procedure("ghost")

    def test_failure_wrapped(self, db):
        db.create_procedure("boom", lambda d: 1 / 0)
        with pytest.raises(ProcedureError, match="boom"):
            db.call_procedure("boom")

    def test_call_count(self, db):
        proc = db.create_procedure("noop", lambda d: None)
        db.call_procedure("noop")
        db.call_procedure("noop")
        assert proc.call_count == 2

    def test_duplicate_name(self, db):
        db.create_procedure("p", lambda d: None)
        with pytest.raises(SchemaError):
            db.create_procedure("p", lambda d: None)


class TestMaterializedViews:
    def test_refresh_and_snapshot(self, db):
        view = db.create_materialized_view(
            "cust_mv", lambda d: d.query("customer")
        )
        db.insert("customer", {"custkey": 1})
        assert view.refresh(db) == 1
        assert len(view.snapshot) == 1

    def test_snapshot_is_stale_until_refresh(self, db):
        view = db.create_materialized_view("mv", lambda d: d.query("customer"))
        view.refresh(db)
        db.insert("customer", {"custkey": 1})
        assert len(view.snapshot) == 0

    def test_unrefreshed_snapshot_raises(self, db):
        view = db.create_materialized_view("mv", lambda d: d.query("customer"))
        with pytest.raises(ProcedureError):
            _ = view.snapshot

    def test_invalidate(self, db):
        view = db.create_materialized_view("mv", lambda d: d.query("customer"))
        view.refresh(db)
        view.invalidate()
        assert not view.is_populated


class TestMaintenance:
    def test_truncate_all_clears_tables_and_views(self, db):
        view = db.create_materialized_view("mv", lambda d: d.query("customer"))
        db.insert("customer", {"custkey": 1})
        view.refresh(db)
        db.truncate_all()
        assert len(db.table("customer")) == 0
        assert not view.is_populated

    def test_statistics_delta(self, db):
        before = db.statistics()
        db.insert("customer", {"custkey": 1})
        db.query("customer")
        delta = db.statistics() - before
        assert delta.rows_written == 1
        assert delta.rows_read == 1


class TestIntegrity:
    def test_clean_database_passes(self, db):
        db.insert("customer", {"custkey": 1})
        db.insert("orders", {"orderkey": 10, "custkey": 1})
        assert db.check_integrity() == []

    def test_orphan_detected(self, db):
        db.insert("orders", {"orderkey": 10, "custkey": 99})
        violations = db.check_integrity()
        assert len(violations) == 1
        assert "99" in violations[0]

    def test_null_fk_is_allowed(self):
        database = Database("t")
        database.create_table(TableSchema("p", [Column("k", "INTEGER", nullable=False)],
                                          primary_key=("k",)))
        database.create_table(
            TableSchema(
                "c",
                [Column("k", "INTEGER", nullable=False), Column("pk", "INTEGER")],
                primary_key=("k",),
                foreign_keys=[ForeignKey(("pk",), "p", ("k",))],
            )
        )
        database.insert("c", {"k": 1, "pk": None})
        assert database.check_integrity() == []

    def test_child_first_load_then_parent_passes(self, db):
        """Deferred checking: staging loads children before parents."""
        db.insert("orders", {"orderkey": 1, "custkey": 5})
        db.insert("customer", {"custkey": 5})
        assert db.check_integrity() == []

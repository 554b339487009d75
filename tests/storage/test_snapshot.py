"""Snapshot capture/restore and the landscape digest."""

import pytest

from repro.db.database import Database
from repro.db.schema import Column, TableSchema
from repro.storage import DatabaseSnapshot, database_digest, landscape_digest


def make_db():
    db = Database("cdb")
    db.create_table(
        TableSchema(
            "orders",
            [
                Column("orderkey", "BIGINT", nullable=False),
                Column("status", "VARCHAR"),
            ],
            primary_key=("orderkey",),
        )
    )
    db.table("orders").create_index("idx_status", ("status",))
    db.create_materialized_view("open_mv", lambda d: d.query("orders"))
    for k, status in ((1, "open"), (2, "done"), (3, "open")):
        db.insert("orders", {"orderkey": k, "status": status})
    return db


class TestCaptureRestore:
    def test_round_trip_restores_rows_and_indexes(self):
        db = make_db()
        db.materialized_view("open_mv").refresh(db)
        snapshot = DatabaseSnapshot.capture(db)
        assert snapshot.row_count == 3

        db.insert("orders", {"orderkey": 9, "status": "junk"})
        db.table("orders").drop_index("idx_status")
        restored = snapshot.restore_into(db)

        assert restored == 3
        assert len(db.table("orders")) == 3
        assert db.table("orders").has_index("idx_status")
        assert db.table("orders").get(9) is None
        # Index is live again, not just declared.
        assert [r["orderkey"] for r in
                db.table("orders").lookup("idx_status", ("open",))] == [1, 3]

    def test_restore_recreates_missing_tables(self):
        db = make_db()
        snapshot = DatabaseSnapshot.capture(db)
        fresh = Database("cdb")
        fresh.create_materialized_view("open_mv", lambda d: d.query("orders"))
        snapshot.restore_into(fresh)
        assert fresh.has_table("orders")
        assert len(fresh.table("orders")) == 3

    def test_populated_view_recomputed_unpopulated_invalidated(self):
        db = make_db()
        db.materialized_view("open_mv").refresh(db)
        populated = DatabaseSnapshot.capture(db)
        db.materialized_view("open_mv").invalidate()
        unpopulated = DatabaseSnapshot.capture(db)

        populated.restore_into(db)
        assert db.materialized_view("open_mv").is_populated
        assert len(db.materialized_view("open_mv").snapshot) == 3

        unpopulated.restore_into(db)
        assert not db.materialized_view("open_mv").is_populated

    def test_snapshot_rows_detached_from_live_table(self):
        db = make_db()
        snapshot = DatabaseSnapshot.capture(db)
        db.table("orders").update({"status": "mutated"})
        statuses = {r["status"] for r in snapshot.tables["orders"].rows}
        assert statuses == {"open", "done"}

    def test_capture_and_restore_do_not_touch_io_counters(self):
        db = make_db()
        before = db.statistics()
        snapshot = DatabaseSnapshot.capture(db)
        snapshot.restore_into(db)
        delta = db.statistics() - before
        assert delta.rows_read == 0
        assert delta.rows_written == 0


class TestDigest:
    def test_digest_stable_across_identical_content(self):
        assert database_digest(make_db()) == database_digest(make_db())

    def test_digest_sees_row_changes(self):
        db1, db2 = make_db(), make_db()
        db2.table("orders").update({"status": "late"},
                                   lambda row: row["orderkey"] == 1)
        assert database_digest(db1) != database_digest(db2)

    def test_digest_sees_view_population(self):
        db1, db2 = make_db(), make_db()
        db2.materialized_view("open_mv").refresh(db2)
        assert database_digest(db1) != database_digest(db2)

    def test_digesting_does_not_bump_read_counters(self):
        db = make_db()
        before = db.statistics()
        database_digest(db)
        assert (db.statistics() - before).rows_read == 0

    def test_landscape_digest_order_independent(self):
        a1, a2 = make_db(), make_db()
        b1, b2 = Database("other"), Database("other")
        assert landscape_digest([a1, b1]) == landscape_digest([b2, a2])


class TestSharedRows:
    """Checkpoints hold stored rows by reference; each test pins one
    reason that is safe, or one trap a snapshot that skipped "unchanged"
    tables would fall into."""

    def test_resident_snapshot_holds_the_stored_row_objects(self):
        # A reintroduced per-row copy fails here, not on a stopwatch.
        db = make_db()
        table = db.table("orders")
        rows = DatabaseSnapshot.capture(db).tables["orders"].rows
        assert len(rows) == len(table._rows) == 3
        assert all(a is b for a, b in zip(rows, table._rows))
        DatabaseSnapshot.capture(db).restore_into(db)
        assert all(a is b for a, b in zip(rows, table._rows))

    def test_later_writes_never_show_through_a_snapshot(self):
        # Copy-on-write: every write path replaces the dict it changes.
        db = make_db()
        table = db.table("orders")
        snapshot = DatabaseSnapshot.capture(db)
        expected = [dict(row) for row in table]
        table.update({"status": "updated"}, lambda row: row["orderkey"] == 1)
        table.upsert({"orderkey": 2, "status": "upsert-hit"})
        table.redo("set", (2, {"orderkey": 3, "status": "redone"}))
        table.delete(lambda row: row["orderkey"] == 1)
        table.upsert({"orderkey": 1, "status": "upsert-miss"})
        assert snapshot.tables["orders"].rows == expected

    def test_second_recovery_from_one_checkpoint_restores_the_same_bytes(self):
        db = make_db()
        snapshot = DatabaseSnapshot.capture(db)
        expected = database_digest(db)
        for status in ("first", "second"):
            db.table("orders").update({"status": status})
            db.table("orders").upsert({"orderkey": 2, "status": status + "!"})
            db.table("orders").delete(lambda row: row["orderkey"] == 3)
            assert database_digest(db) != expected
            snapshot.restore_into(db)
            assert database_digest(db) == expected

    def test_index_ddl_between_checkpoints_is_captured(self):
        # create_index / drop_index do not bump the table's generation,
        # so "same generation" does not mean "same snapshot".
        db = make_db()
        table = db.table("orders")
        first = DatabaseSnapshot.capture(db)
        generation = table._generation
        table.create_index("idx_key_status", ("orderkey", "status"))
        second = DatabaseSnapshot.capture(db)
        table.drop_index("idx_status")
        third = DatabaseSnapshot.capture(db)
        assert table._generation == generation
        assert first.tables["orders"].indexes == [("idx_status", ("status",))]
        assert second.tables["orders"].indexes == [
            ("idx_key_status", ("orderkey", "status")),
            ("idx_status", ("status",)),
        ]
        assert third.tables["orders"].indexes == [
            ("idx_key_status", ("orderkey", "status"))
        ]

    def test_recreated_table_is_captured_not_its_namesake(self):
        # A fresh table restarts its generation count and reaches
        # numbers the dropped one already had under the same name.
        db = make_db()
        old = db.table("orders")
        first = DatabaseSnapshot.capture(db)
        db.drop_table("orders")
        fresh = db.create_table(old.schema)
        fresh.create_index("idx_status", ("status",))
        for k in (7, 8, 9):
            fresh.insert({"orderkey": k, "status": "fresh"})
        assert fresh._generation == old._generation
        second = DatabaseSnapshot.capture(db)
        assert [r["orderkey"] for r in first.tables["orders"].rows] == [1, 2, 3]
        assert [r["orderkey"] for r in second.tables["orders"].rows] == [7, 8, 9]

"""Storage-facing table/database surface: incremental pk-index
maintenance, change listeners, redo, counters and statistics deltas."""

import pytest

from repro.db.database import Database, DatabaseStatistics
from repro.db.schema import Column, TableSchema
from repro.db.table import Table
from repro.errors import QueryError


def orders_schema():
    return TableSchema(
        "orders",
        [
            Column("orderkey", "BIGINT", nullable=False),
            Column("custkey", "BIGINT"),
            Column("status", "VARCHAR"),
        ],
        primary_key=("orderkey",),
    )


@pytest.fixture()
def orders():
    table = Table(orders_schema())
    for k, c, s in ((1, 10, "open"), (2, 20, "open"), (3, 10, "done")):
        table.insert({"orderkey": k, "custkey": c, "status": s})
    return table


def rebuilt_pk_index(table):
    """The ground truth: the pk index a full rebuild over the rows builds."""
    clone = Table(table.schema)
    clone.restore_rows([dict(r) for r in table])
    return clone._pk_index


class TestIncrementalIndexMaintenance:
    def test_upsert_moves_secondary_bucket(self, orders):
        # The pk entry keeps its position; the row behind it is replaced.
        orders.upsert({"orderkey": 2, "custkey": 10, "status": "open"})
        assert [r["orderkey"] for r in orders] == [1, 2, 3]
        assert orders.get(2)["custkey"] == 10
        assert orders._pk_index == rebuilt_pk_index(orders)

    def test_update_patches_pk_and_secondary(self, orders):
        orders.update({"custkey": 99},
                      lambda row: row["orderkey"] == 1)
        assert orders.get(1)["custkey"] == 99
        assert orders.get(3)["custkey"] == 10
        assert orders._pk_index == rebuilt_pk_index(orders)

    def test_update_of_pk_column_rekeys(self, orders):
        orders.update({"orderkey": 7},
                      lambda row: row["orderkey"] == 2)
        assert orders.get(2) is None
        assert orders.get(7)["custkey"] == 20

    def test_incremental_matches_full_rebuild_order(self, orders):
        # Interleave inserts, updates and upserts (one rekeying a row),
        # then compare against a clone whose index was built in one pass
        # over the final rows.
        orders.insert({"orderkey": 4, "custkey": 10, "status": "open"})
        orders.update({"custkey": 10}, lambda row: row["orderkey"] == 2)
        orders.update({"orderkey": 8}, lambda row: row["orderkey"] == 3)
        orders.upsert({"orderkey": 5, "custkey": 10, "status": "new"})
        orders.upsert({"orderkey": 1, "custkey": 30, "status": "done"})
        assert orders._pk_index == rebuilt_pk_index(orders)


class TestChangeListener:
    def collect(self, table):
        events = []
        table.listener = lambda name, op, payload: events.append((name, op))
        return events

    def test_dml_emits_logical_records(self, orders):
        events = self.collect(orders)
        orders.insert({"orderkey": 9, "custkey": 1})
        orders.upsert({"orderkey": 9, "custkey": 2})
        orders.delete(lambda row: row["orderkey"] == 9)
        orders.truncate()
        assert [op for _, op in events] \
            == ["insert", "upsert", "delete_at", "truncate"]

    def test_restore_and_dump_bypass_listener_and_counters(self, orders):
        events = self.collect(orders)
        written = orders.rows_written
        read = orders.rows_read
        rows = orders.dump_rows()
        orders.restore_rows(rows)
        assert events == []
        assert orders.rows_written == written
        assert orders.rows_read == read


class TestRedo:
    def test_redo_replays_dml_without_firing_triggers(self):
        db = Database("cdb")
        db.create_table(orders_schema())
        fired = []
        db.create_trigger("trg", "orders",
                          lambda d, row: fired.append(row["orderkey"]))
        db.redo("orders", "insert", ({"orderkey": 1, "custkey": 10,
                                      "status": "open"},))
        assert len(db.table("orders")) == 1
        assert fired == []  # trigger effects are journaled separately

    def test_redo_unknown_op_rejected(self, orders):
        with pytest.raises(QueryError, match="redo"):
            orders.redo("warp", ())

    @pytest.mark.parametrize("op, payload", [
        ("create_index", ("idx_cust", ("custkey",))),
        ("drop_index", ("idx_cust",)),
        ("drop_table", ()),
    ])
    def test_redo_rejects_index_ddl_and_drops(self, op, payload):
        """The primary key is a table's one index and a database never
        drops a table: a log carrying such DDL fails loudly instead of
        half-applying."""
        db = Database("cdb")
        db.create_table(orders_schema())
        db.insert("orders", {"orderkey": 1, "custkey": 10})
        with pytest.raises(QueryError, match=f"unknown redo op '{op}'"):
            db.redo("orders", op, payload)
        assert db.table_names == ["orders"]
        assert len(db.table("orders")) == 1


class TestStatistics:
    def test_subtraction_is_fieldwise(self):
        a = DatabaseStatistics(10, 8, 3, 2)
        b = DatabaseStatistics(4, 5, 1, 2)
        assert a - b == DatabaseStatistics(6, 3, 2, 0)

    def test_counter_state_round_trip(self):
        db = Database("cdb")
        db.create_table(orders_schema())
        db.insert("orders", {"orderkey": 1, "custkey": 10})
        saved = db.counter_state()
        before = db.statistics()

        # Divergent work after the "commit", then a crash-style restore.
        db.insert("orders", {"orderkey": 2, "custkey": 20})
        db.table("orders").scan()
        db.restore_counter_state(saved)

        assert db.statistics() == before
        assert db.statistics().rows_written == 1

    def test_replay_does_not_double_count(self):
        """Redo bumps live counters, but recovery overwrites them with
        the committed values — the statistics delta a monitor computes
        across a crash must equal the fault-free delta."""
        db = Database("cdb")
        db.create_table(orders_schema())
        db.insert("orders", {"orderkey": 1, "custkey": 10})
        committed = db.counter_state()
        stats_at_commit = db.statistics()

        # Crash: content lost, then redo replays the committed insert.
        db.table("orders").restore_rows([])
        db.redo("orders", "insert", ({"orderkey": 1, "custkey": 10,
                                      "status": None},))
        assert db.statistics().rows_written == 2  # replay counted twice...
        db.restore_counter_state(committed)
        assert db.statistics() == stats_at_commit  # ...until the overwrite

"""WriteAheadLog unit tests: buffering, commits, LSNs, truncation."""

import pytest

from repro.db.schema import Column, TableSchema
from repro.db.table import Table
from repro.errors import WalError
from repro.storage import WriteAheadLog


@pytest.fixture()
def wal():
    return WriteAheadLog("cdb")


class TestWritePath:
    def test_append_buffers_until_commit(self, wal):
        wal.append("orders", "insert", ({"k": 1},))
        assert wal.open_size == 1
        assert wal.tail_size == 0
        assert wal.committed_records() == []

    def test_commit_seals_records_in_lsn_order(self, wal):
        wal.append("orders", "insert", ({"k": 1},))
        wal.append("lines", "insert", ({"k": 1, "n": 1},))
        sealed = wal.commit(commit_id=7)
        assert sealed == 2
        records = wal.committed_records()
        assert [r.lsn for r in records] == [1, 2]
        assert all(r.commit_id == 7 for r in records)
        assert records[0].target == "orders"
        assert records[1].target == "lines"

    def test_lsns_continue_across_commits(self, wal):
        wal.append("t", "insert", ({"k": 1},))
        wal.commit(1)
        wal.append("t", "insert", ({"k": 2},))
        wal.commit(2)
        assert [r.lsn for r in wal.committed_records()] == [1, 2]
        assert [r.commit_id for r in wal.committed_records()] == [1, 2]

    def test_empty_commit_still_counts(self, wal):
        assert wal.commit(1) == 0
        assert wal.commits == 1
        assert wal.tail_size == 0

    def test_payload_rows_detached_from_caller(self, wal):
        """The caller is a ``Table``: payload rows are its stored rows,
        kept by reference, and no table-level mutation made after a
        change was journaled may show through the record."""
        table = Table(
            TableSchema(
                "t",
                [Column("k", "BIGINT", nullable=False), Column("v", "VARCHAR")],
                primary_key=("k",),
            )
        )
        table.listener = wal.append
        table.insert({"k": 1, "v": "a"})
        table.upsert({"k": 1, "v": "b"})
        table.update({"v": "c"}, lambda row: row["k"] == 1)
        journaled = len(wal.committed_records()) + wal.open_size
        table.listener = None
        table.upsert({"k": 1, "v": "upserted"})
        table.update({"v": "updated"})
        table.redo("set", (0, {"k": 1, "v": "redone"}))
        table.delete(lambda row: row["k"] == 1)
        table.insert({"k": 1, "v": "reinserted"})
        table.truncate()
        wal.commit(1)
        records = wal.committed_records()
        assert len(records) == journaled == 3
        assert [(r.op, r.payload[-1]) for r in records] == [
            ("insert", {"k": 1, "v": "a"}),
            ("upsert", {"k": 1, "v": "b"}),
            ("set", {"k": 1, "v": "c"}),
        ]


class TestCrashPath:
    def test_discard_open_drops_uncommitted_only(self, wal):
        wal.append("t", "insert", ({"k": 1},))
        wal.commit(1)
        wal.append("t", "insert", ({"k": 2},))
        dropped = wal.discard_open()
        assert dropped == 1
        assert wal.open_size == 0
        assert wal.tail_size == 1  # committed record survives
        assert wal.discarded == 1

    def test_truncate_drops_committed_tail(self, wal):
        wal.append("t", "insert", ({"k": 1},))
        wal.commit(1)
        assert wal.truncate() == 1
        assert wal.tail_size == 0
        # Lifetime counters survive truncation.
        assert wal.records_appended == 1
        assert wal.commits == 1

    def test_truncate_refused_mid_transaction(self, wal):
        wal.append("t", "insert", ({"k": 1},))
        with pytest.raises(WalError, match="uncommitted"):
            wal.truncate()

"""Table storage: DML, constraints, the primary-key index."""

import pytest

from repro.db.expressions import col, lit
from repro.db.schema import Column, TableSchema
from repro.db.table import Table
from repro.errors import IntegrityError, QueryError, SchemaError
from tests.oracle import relational as oracle


@pytest.fixture()
def customers():
    return Table(
        TableSchema(
            "customer",
            [
                Column("custkey", "BIGINT", nullable=False),
                Column("name", "VARCHAR"),
                Column("city", "VARCHAR"),
            ],
            primary_key=("custkey",),
        )
    )


class TestInsert:
    def test_insert_returns_normalized_row(self, customers):
        row = customers.insert({"custkey": "7", "name": "Ada"})
        assert row == {"custkey": 7, "name": "Ada", "city": None}

    def test_duplicate_pk_rejected(self, customers):
        customers.insert({"custkey": 1})
        with pytest.raises(IntegrityError):
            customers.insert({"custkey": 1})

    def test_not_null_enforced(self, customers):
        with pytest.raises(IntegrityError):
            customers.insert({"name": "missing key"})

    def test_unknown_column_rejected(self, customers):
        with pytest.raises(SchemaError):
            customers.insert({"custkey": 1, "ghost": 2})

    def test_insert_many_counts(self, customers):
        n = customers.insert_many({"custkey": i} for i in range(5))
        assert n == 5
        assert len(customers) == 5


class TestUpsert:
    def test_upsert_inserts_when_new(self, customers):
        customers.upsert({"custkey": 1, "name": "A"})
        assert len(customers) == 1

    def test_upsert_replaces_existing(self, customers):
        customers.upsert({"custkey": 1, "name": "old"})
        customers.upsert({"custkey": 1, "name": "new"})
        assert len(customers) == 1
        assert customers.get(1)["name"] == "new"

    def test_upsert_requires_pk(self):
        table = Table(TableSchema("t", [Column("a", "INTEGER")]))
        with pytest.raises(IntegrityError):
            table.upsert({"a": 1})


class TestDeleteUpdate:
    def test_delete_with_predicate(self, customers):
        customers.insert_many({"custkey": i, "city": "B" if i % 2 else "P"}
                              for i in range(6))
        removed = customers.delete(col("city") == lit("B"))
        assert removed == 3
        assert len(customers) == 3

    def test_delete_with_callable(self, customers):
        customers.insert_many({"custkey": i} for i in range(4))
        assert customers.delete(lambda r: r["custkey"] >= 2) == 2

    def test_delete_all(self, customers):
        customers.insert_many({"custkey": i} for i in range(4))
        assert customers.delete() == 4
        assert len(customers) == 0

    def test_truncate(self, customers):
        customers.insert({"custkey": 1})
        customers.truncate()
        assert len(customers) == 0

    def test_pk_index_rebuilt_after_delete(self, customers):
        customers.insert_many({"custkey": i} for i in range(4))
        customers.delete(col("custkey") == lit(0))
        assert customers.get(3)["custkey"] == 3
        assert customers.get(0) is None

    def test_update_with_expression_value(self, customers):
        customers.insert({"custkey": 1, "name": "a"})
        n = customers.update({"name": lit("b")}, col("custkey") == lit(1))
        assert n == 1
        assert customers.get(1)["name"] == "b"

    def test_update_all_rows(self, customers):
        customers.insert_many({"custkey": i} for i in range(3))
        assert customers.update({"city": "X"}) == 3

    def test_update_validates_types(self, customers):
        customers.insert({"custkey": 1})
        with pytest.raises(IntegrityError):
            customers.update({"custkey": None})


class TestReads:
    def test_get_by_scalar_key(self, customers):
        customers.insert({"custkey": 5, "name": "E"})
        assert customers.get(5)["name"] == "E"

    def test_get_missing_returns_none(self, customers):
        assert customers.get(99) is None

    def test_get_without_pk_raises(self):
        table = Table(TableSchema("t", [Column("a", "INTEGER")]))
        with pytest.raises(QueryError):
            table.get(1)

    def test_scan_with_filter(self, customers):
        customers.insert_many({"custkey": i, "city": "B"} for i in range(3))
        assert len(customers.scan(col("custkey") > lit(0))) == 2

    def test_oracle_scan_returns_copies(self, customers):
        reference = oracle.Table(customers.schema, [{"custkey": 1, "name": "x"}])
        rows = reference.scan()
        rows[0]["name"] = "mutated"
        assert reference.get(1)["name"] == "x"

    def test_scan_shares_rows_on_fast_path(self, customers):
        # Zero-copy contract: reads hand out the stored dicts by
        # reference; callers treat them as immutable and go through
        # update()/upsert() for writes (the table itself never mutates a
        # stored dict in place, so sharing is safe).
        customers.insert({"custkey": 1, "name": "x"})
        rows = customers.scan()
        assert rows[0] is customers.get(1)

    def test_to_relation(self, customers):
        customers.insert({"custkey": 1})
        relation = customers.to_relation()
        assert relation.columns == ("custkey", "name", "city")
        assert len(relation) == 1


class TestSecondaryIndexes:
    """A table's one index is its primary key: no index has a name."""

    def test_unknown_index_lookup(self, customers):
        with pytest.raises(QueryError):
            customers.lookup("ghost", 1)


class TestStatistics:
    def test_reads_and_writes_counted(self, customers):
        customers.insert({"custkey": 1})
        customers.scan()
        customers.get(1)
        assert customers.rows_written == 1
        assert customers.rows_read >= 2

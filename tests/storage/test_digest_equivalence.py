"""Differential conformance of the compiled landscape digest.

The oracle is ``tests/oracle/storage.py``: ``database_digest`` /
``landscape_digest`` as they were when every row was turned into
``repr(sorted(row.items()))`` and hashed with two ``update`` calls.
Production renders a row through a formatter bound once per column
tuple and hashes rows joined, at most ``CHUNK_ROWS`` per ``update``;
the bytes sha256 sees must be the same, so the hex must be — over all
ten SQL types, hostile strings, non-finite floats, empty and keyless
tables, views populated and not, spilled tables and every chunk edge.
"""

import datetime
import hashlib
import types
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, TableSchema
from repro.db.active import ViewQuery
from repro.db.relation import Relation
from repro.db.types import EXACT_TYPE
from repro.storage import database_digest, digest, landscape_digest
from tests.oracle import storage as oracle

#: Quotes, backslashes, the formatter's own ``%``, the digest's own
#: separators, and text outside ASCII.
HOSTILE = st.text(
    alphabet=st.sampled_from(list("'\"\\%rsd(){}[], \x00\x01\x02\n\tä€𝄞ab")),
    max_size=6,
)

VALUES = {
    "INTEGER": st.integers(-2**31, 2**31),
    "BIGINT": st.integers(-2**63, 2**63),
    "DECIMAL": st.one_of(
        st.decimals(allow_nan=False, allow_infinity=False, places=2,
                    min_value=-10**6, max_value=10**6),
        st.sampled_from([Decimal("1E+3"), Decimal("-0"), Decimal("1E-7"),
                         Decimal("0.10")]),
    ),
    "DOUBLE": st.one_of(
        st.floats(),
        st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
    ),
    "VARCHAR": HOSTILE,
    "CHAR": HOSTILE,
    "CLOB": HOSTILE,
    "DATE": st.dates(),
    "TIMESTAMP": st.datetimes(),
    "BOOLEAN": st.booleans(),
}
assert set(VALUES) == set(EXACT_TYPE)

#: Identifier column names (``Column`` demands that much), sorted
#: differently from their declaration order, one of them non-ASCII.
COLUMN_NAMES = ("z", "a", "B", "_m", "größe", "a1", "Z9", "k", "x_y", "b")


@st.composite
def tables(draw, name="t"):
    """``(schema, rows)``: 1..10 columns over the ten types, NULLs in."""
    types = draw(st.lists(st.sampled_from(sorted(VALUES)), min_size=1, max_size=10))
    columns = [Column(COLUMN_NAMES[i], t) for i, t in enumerate(types)]
    keyed = draw(st.booleans()) and types[0] in ("INTEGER", "BIGINT")
    schema = TableSchema(name, columns, primary_key=("z",) if keyed else ())
    count = draw(st.integers(0, 6))
    rows = []
    for index in range(count):
        row = {}
        for column in columns:
            value = draw(st.one_of(st.none(), VALUES[column.sql_type]))
            if column.name == "z" and keyed:
                value = index
            row[column.name] = value
        # Missing cells are NULL-filled by the write path.
        if len(row) > 1 and draw(st.booleans()):
            row.pop(columns[-1].name)
        rows.append(row)
    return schema, rows


def assert_same_digests(db):
    assert database_digest(db) == oracle.database_digest(db)
    assert database_digest(db, include_views=False) == oracle.database_digest(
        db, include_views=False
    )
    assert landscape_digest([db]) == oracle.landscape_digest([db])


class TestGeneratedTables:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(tables(), min_size=1, max_size=3))
    def test_any_table_over_the_ten_types(self, drawn):
        db = Database("d")
        for index, (schema, rows) in enumerate(drawn):
            schema = TableSchema(
                f"t{index}", list(schema.columns), schema.primary_key
            )
            db.create_table(schema)
            db.insert_many(schema.name, rows)
        assert_same_digests(db)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(HOSTILE.filter(bool), min_size=1, max_size=4, unique=True),
        st.lists(st.lists(st.one_of(st.none(), *VALUES.values()), min_size=4,
                          max_size=4), max_size=5),
        st.booleans(),
    )
    def test_view_columns_that_are_no_identifiers(self, names, cells, populated):
        """An opaque view may name its columns anything at all."""
        db = Database("d")
        db.create_table(TableSchema("t", [Column("k", "INTEGER")]))
        rows = [dict(zip(names, row)) for row in cells]
        view = db.create_materialized_view(
            "v", lambda _db: Relation(names, rows)
        )
        if populated:
            view.refresh(db)
        assert view.is_populated is populated
        assert_same_digests(db)


def _typed_db(rows_per_table):
    db = Database("typed")
    schema = TableSchema(
        "every_type",
        [Column(f"c_{t.lower()}", t) for t in sorted(VALUES)],
    )
    db.create_table(schema)
    samples = {
        "INTEGER": -7, "BIGINT": 2**62, "DECIMAL": Decimal("1E+3"),
        "DOUBLE": float("nan"), "VARCHAR": "it's \"q\" \\ %s %% \x00\x01\x02",
        "CHAR": "ä€𝄞", "CLOB": "<a b='1'>&amp;</a>",
        "DATE": datetime.date(2008, 4, 7),
        "TIMESTAMP": datetime.datetime(2008, 4, 7, 12, 30, 1, 5),
        "BOOLEAN": True,
    }
    for index in range(rows_per_table):
        row = {f"c_{t.lower()}": v for t, v in samples.items()}
        if index % 3 == 0:
            row = dict.fromkeys(row)  # an all-NULL row
        if index % 3 == 1:
            row["c_double"] = (-0.0, float("inf"), float("-inf"))[index % 3]
            row["c_boolean"] = False
        db.insert("every_type", row)
    return db


class TestNamedCorners:
    @pytest.mark.parametrize(
        "count",
        [0, 1, digest.CHUNK_ROWS - 1, digest.CHUNK_ROWS, digest.CHUNK_ROWS + 1,
         2 * digest.CHUNK_ROWS, 2 * digest.CHUNK_ROWS + 1],
    )
    def test_chunk_edges(self, count):
        assert_same_digests(_typed_db(count))

    def test_one_column_empty_and_keyless_tables(self):
        db = Database("d")
        db.create_table(TableSchema("one", [Column("only", "VARCHAR")]))
        db.create_table(TableSchema("empty", [Column("a", "INTEGER"),
                                              Column("b", "DATE")]))
        db.create_table(TableSchema("keyless", [Column("b", "DOUBLE"),
                                                Column("a", "BOOLEAN")]))
        for text in ("", "%", "%r", "%(a)s", "(1, 2)", "\x01"):
            db.insert("one", {"only": text})
        db.insert("one", {"only": None})
        for _ in range(3):  # duplicate rows are legal without a key
            db.insert("keyless", {"b": float("nan"), "a": None})
        assert_same_digests(db)

    def test_views_populated_and_not_with_alias_names(self):
        db = Database("d")
        db.create_table(
            TableSchema("f", [Column("k", "INTEGER", nullable=False),
                              Column("g", "VARCHAR"), Column("v", "DECIMAL")],
                        primary_key=("k",))
        )
        query = ViewQuery(
            fact_table="f",
            group_keys=("g",),
            aggregates=(
                ("sum(v) %", ("sum", "v")),
                ("count 'rows'", ("count", None)),
                ("max\\v\x00", ("max", "v")),
            ),
        )
        db.create_materialized_view("grouped", query)
        db.create_materialized_view("plain", ViewQuery(fact_table="f"))
        db.create_materialized_view("never", ViewQuery(fact_table="f"))
        for k in range(7):
            db.insert("f", {"k": k, "g": "ab"[k % 2] if k else None,
                            "v": Decimal(k) / 4})
        assert_same_digests(db)  # nothing populated yet
        db.materialized_view("grouped").refresh(db)
        db.materialized_view("plain").refresh(db)
        assert_same_digests(db)
        db.insert("f", {"k": 99, "g": "a", "v": None})  # incremental upkeep
        assert_same_digests(db)
        db.materialized_view("plain").invalidate()
        assert_same_digests(db)

    def test_width_shared_view_rows(self):
        """A ``keep``-shared snapshot holds more keys than it declares."""
        db = Database("d")
        db.create_table(TableSchema("t", [Column("k", "INTEGER")]))
        wide = [{"a": 1, "b": "x", "zz": None}, {"a": 2, "b": "y", "zz": 0.5}]
        narrow = [{"a": 3, "b": "z"}]
        view = db.create_materialized_view(
            "v",
            lambda _db: Relation.from_trusted(("a", "b"), wide + narrow, wide=True),
        )
        view.refresh(db)
        assert_same_digests(db)

    def test_a_spilled_table_digests_like_a_resident_one(self):
        resident, spilled = _typed_db(700), _typed_db(700)
        spilled.set_memory_budget(128, partition_rows=32)
        store = spilled.table("every_type")._rows
        assert store.has_spilled()
        assert database_digest(spilled) == oracle.database_digest(spilled)
        assert database_digest(spilled) == database_digest(resident)
        assert store.has_spilled()  # digesting did not pull the table in

    def test_landscape_order_and_database_names(self):
        dbs = []
        for name in ("b", "a", "ä", "A"):
            db = Database(name)
            db.create_table(TableSchema("t", [Column("k", "INTEGER")]))
            db.insert("t", {"k": len(dbs)})
            dbs.append(db)
        assert landscape_digest(dbs) == oracle.landscape_digest(dbs)
        assert landscape_digest(reversed(dbs)) == landscape_digest(dbs)
        assert landscape_digest([]) == oracle.landscape_digest([])


class TestUpdateCalls:
    def test_updates_are_bounded_by_chunks_not_rows(self, monkeypatch):
        """≤ 4 per database + 2 per table or view + rows / CHUNK_ROWS."""
        calls = []

        class CountingHasher:
            def __init__(self):
                self._inner = hashlib.sha256()

            def update(self, data):
                calls.append(len(data))
                self._inner.update(data)

            def hexdigest(self):
                return self._inner.hexdigest()

        db = _typed_db(3 * digest.CHUNK_ROWS + 5)
        db.create_materialized_view("v", ViewQuery(fact_table="every_type"))
        db.materialized_view("v").refresh(db)
        expected = oracle.landscape_digest([db])
        monkeypatch.setattr(
            digest, "hashlib", types.SimpleNamespace(sha256=CountingHasher)
        )
        assert landscape_digest([db]) == expected
        rows = 2 * (3 * digest.CHUNK_ROWS + 5)
        assert len(calls) <= 4 + 2 * 2 + rows / digest.CHUNK_ROWS
        # The transient buffer is a chunk, never a table.
        assert max(calls) < 400 * digest.CHUNK_ROWS


def test_scenario_landscape_after_a_period():
    from repro.parallel.spec import RunSpec
    from repro.toolsuite.client import BenchmarkClient

    client = BenchmarkClient.from_spec(
        RunSpec(engine="federated", datasize=0.02, periods=1, seed=3)
    )
    client.run()
    dbs = [*client.scenario.all_databases.values(),
           *client.engine.durable_databases()]
    assert landscape_digest(dbs) == oracle.landscape_digest(dbs)
    for db in dbs:
        assert database_digest(db, include_views=False) == oracle.database_digest(
            db, include_views=False
        )

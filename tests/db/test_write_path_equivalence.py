"""Differential conformance of the compiled write path.

The oracle is the write path as it was before normalization was
compiled per schema, kept *here*: ``seed_normalize`` is the old
``Table._normalize`` body and :class:`SeedTable` the old
``insert``/``insert_many``/``upsert`` bodies, verbatim.  Production code
must store equal rows (value **and** type), raise the same exception
types with the same messages, and leave the same pk index, counters,
change records and trigger fire order — on plain list
storage and under a tiny memory budget (PartitionStore).  The bulk
upsert (``insert_many(rows, replace=True)``) is held to a row-by-row
loop over the seed's ``upsert``, which is what the endpoints and the
Initializer ran before it.  ``Table.delete(predicate)`` is held to the
two-scan body it had before it collected removed positions and
survivors in one walk.  A relation typed like its target table
(``Relation.types`` equal to ``TableSchema.exact_types``) is stored by
copy instead of through ``normalize``; ``insert_many`` of such relations,
built from tables through the operators that keep their types, is held
to the seed normalizing the same rows one by one.
"""

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, TableSchema, col, lit
from repro.db.expressions import Expression
from repro.db.relation import Relation
from repro.db.table import Table
from repro.db.types import EXACT_TYPE, coerce_value, validate_type_name
from repro.errors import IntegrityError, SchemaError

# ----------------------------------------------------------------- the oracle


def seed_normalize(schema, values):
    """``Table._normalize`` as of the parent commit."""
    unknown = set(values) - set(column.name for column in schema.columns)
    if unknown:
        raise SchemaError(
            f"table {schema.name}: unknown columns {sorted(unknown)}"
        )
    row = {}
    for column in schema.columns:
        value = coerce_value(column.sql_type, values.get(column.name))
        if value is None and not column.nullable:
            raise IntegrityError(
                f"table {schema.name}: column {column.name} is NOT NULL"
            )
        row[column.name] = value
    return row


class SeedTable(Table):
    """``insert``/``insert_many``/``upsert`` as of the parent commit."""

    def insert(self, values):
        row = seed_normalize(self.schema, values)
        if self._pk_index is not None:
            key = tuple(row[c] for c in self.schema.primary_key)
            if key in self._pk_index:
                raise IntegrityError(
                    f"table {self.name}: duplicate primary key {key}"
                )
            self._pk_index[key] = len(self._rows)
        self._rows.append(row)
        self.rows_written += 1
        self._generation += 1
        if self.listener is not None:
            self.listener(self.name, "insert", (row,))
        return row

    def insert_many(self, rows):
        count = 0
        for values in rows:
            self.insert(values)
            count += 1
        return count

    def upsert(self, values):
        if self._pk_index is None:
            raise IntegrityError(f"table {self.name}: upsert needs a primary key")
        row = seed_normalize(self.schema, values)
        key = tuple(row[c] for c in self.schema.primary_key)
        position = self._pk_index.get(key)
        if position is None:
            return self.insert(values)
        self._replace_at(position, row)
        self.rows_written += 1
        if self.listener is not None:
            self.listener(self.name, "upsert", (row,))
        return row

    def delete(self, predicate):
        """The predicate form as it was while it scanned twice."""
        if isinstance(predicate, Expression):
            matches = predicate.compile()
            removed_at = [
                p for p, r in enumerate(self._rows) if matches(r) is True
            ]
        else:
            removed_at = [p for p, r in enumerate(self._rows) if predicate(r)]
        if removed_at:
            removed_set = set(removed_at)
            self._set_rows(
                [r for p, r in enumerate(self._rows) if p not in removed_set]
            )
            self._rebuild_indexes()
            self.rows_written += len(removed_at)
            self._generation += 1
            if self.listener is not None:
                self.listener(self.name, "delete_at", (tuple(removed_at),))
        return len(removed_at)


# ------------------------------------------------------- normalization, per cell

SQL_TYPES = ("INTEGER", "BIGINT", "DECIMAL", "DOUBLE", "VARCHAR", "CHAR",
             "DATE", "TIMESTAMP", "BOOLEAN", "CLOB")


class MyInt(int):
    pass


class MyStr(str):
    pass


class MyDate(datetime.date):
    pass


#: Every kind of value the issue names, the exact type of every column
#: included, so each SQL type sees its shortcut and every coercion branch.
VALUES = (
    None, True, False, 0, 7, -3, 2 ** 70, 1.5, -0.0, 2.00005,
    Decimal("1.25"), Decimal("7"), "12", "1.5", "abc", "", "2020-01-02",
    "2020-01-02T03:04:05", "2020-13-45", datetime.date(2021, 3, 4),
    datetime.datetime(2021, 3, 4, 5, 6, 7), MyInt(9), MyStr("sub"),
    MyStr("2020-01-02"), MyDate(2022, 2, 2), b"bytes", (1, 2),
)

#: One nullable and one NOT NULL column per SQL type.
TYPES_SCHEMA = TableSchema(
    "every_type",
    [
        Column(f"{sql_type.lower()}_{'opt' if nullable else 'req'}",
               sql_type, nullable=nullable)
        for sql_type in SQL_TYPES
        for nullable in (True, False)
    ],
)


def outcome(fn, *args):
    """``("ok", [(name, type, repr), ...])`` or ``("raised", type, text)``."""
    try:
        row = fn(*args)
    except Exception as exc:  # compared, not handled
        return ("raised", type(exc), str(exc))
    return ("ok", [(k, type(v), repr(v)) for k, v in row.items()])


class TestNormalizeMatchesSeed:
    @pytest.mark.parametrize("sql_type", SQL_TYPES)
    @pytest.mark.parametrize("nullable", (True, False))
    def test_every_type_times_every_value(self, sql_type, nullable):
        schema = TableSchema("t", [Column("c", sql_type, nullable=nullable)])
        for value in VALUES:
            assert outcome(schema.normalize, {"c": value}) == outcome(
                seed_normalize, schema, {"c": value}
            ), (sql_type, nullable, value)

    def test_every_supported_type_has_its_exact_type(self):
        assert sorted(EXACT_TYPE) == sorted(SQL_TYPES)
        for sql_type in SQL_TYPES:
            assert validate_type_name(sql_type) == sql_type

    def test_exact_typed_cells_are_stored_by_identity(self):
        schema = TableSchema("t", [Column("c", "VARCHAR"), Column("d", "DECIMAL")])
        text, amount = "x" * 40, Decimal("3.10")
        row = schema.normalize({"c": text, "d": amount})
        assert row["c"] is text and row["d"] is amount

    @settings(max_examples=300, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(
                [c.name for c in TYPES_SCHEMA.columns] + ["ghost", "zzz"]
            ),
            st.sampled_from(VALUES),
        )
    )
    def test_whole_rows_with_missing_and_unknown_columns(self, values):
        assert outcome(TYPES_SCHEMA.normalize, values) == outcome(
            seed_normalize, TYPES_SCHEMA, values
        )

    def test_result_is_in_column_order_whatever_the_input_order(self):
        schema = TableSchema("t", [Column("a", "INTEGER"), Column("b", "INTEGER")])
        assert list(schema.normalize({"b": 2, "a": 1})) == ["a", "b"]

    def test_tables_of_one_schema_share_one_normalizer(self):
        schema = TableSchema("t", [Column("a", "INTEGER")])
        assert "normalize" not in vars(schema)  # nothing compiled before a write
        first, second = Table(schema), Table(schema)
        first.insert({"a": 1})
        compiled = vars(schema)["normalize"]
        second.insert({"a": 2})
        assert vars(schema)["normalize"] is compiled


# ----------------------------------------------------- DML sequences, end to end

ORDERS = TableSchema(
    "orders",
    [
        Column("oid", "BIGINT", nullable=False),
        Column("line", "INTEGER", nullable=False),
        Column("cust", "BIGINT"),
        Column("status", "VARCHAR"),
        Column("amount", "DECIMAL"),
    ],
    primary_key=("oid", "line"),
)
AUDIT = TableSchema(
    "audit", [Column("seq", "BIGINT", nullable=False), Column("oid", "BIGINT")],
    primary_key=("seq",),
)
NOTES = TableSchema(
    "notes",
    [Column("nid", "INTEGER", nullable=False),
     Column("text", "VARCHAR", nullable=False)],
    primary_key=("nid",),
)

row_strategy = st.fixed_dictionaries(
    {
        "oid": st.sampled_from([1, 2, 3, 4, 5, "6", None, "x"]),
        "line": st.sampled_from([1, 2, True]),
        "cust": st.sampled_from([10, 20, None, 30.0]),
        "status": st.sampled_from(["new", "paid", None, 5]),
        "amount": st.sampled_from([Decimal("1.5"), 2.25, 3, "oops", None]),
    },
    optional={"ghost": st.just(1)},
)
op_strategy = st.one_of(
    st.tuples(st.just("insert"), row_strategy),
    st.tuples(st.just("upsert"), row_strategy),
    # Table.insert_many directly: the bulk loop over the pk index +
    # listener (no trigger fires at table level).
    st.tuples(st.just("table_insert_many"), st.lists(row_strategy, max_size=6)),
    # Database.insert_many on a table with triggers (row-by-row form) ...
    st.tuples(st.just("insert_many"), st.lists(row_strategy, max_size=6)),
    # Bulk upsert: hits and misses in one batch, over the same pk index.
    st.tuples(st.just("upsert_many"), st.lists(row_strategy, max_size=6)),
    st.tuples(
        st.just("notes_upsert_many"),
        st.lists(
            st.fixed_dictionaries(
                {
                    "nid": st.integers(min_value=0, max_value=5),
                    "text": st.sampled_from(["a", "b", None, 3]),
                },
                optional={"ghost": st.just(1)},
            ),
            max_size=5,
        ),
    ),
    # ... and on one without (bulk form).
    st.tuples(
        st.just("notes"),
        st.lists(
            st.fixed_dictionaries({
                "nid": st.integers(min_value=0, max_value=12),
                "text": st.sampled_from(["a", "b", None, 3]),
            }),
            max_size=5,
        ),
    ),
)


#: Predicates over NOTES for the delete differential: expressions whose
#: verdict is True / False / NULL, and callables returning non-bool
#: truthy and falsy values.
DELETE_PREDICATES = {
    "expr_eq": col("text") == lit("a"),
    "expr_null_verdict": col("text") == lit(None),
    "expr_range": (col("nid") > lit(3)) & (col("nid") <= lit(8)),
    "expr_none": col("nid") < lit(0),
    "callable_bool": lambda row: row["text"] == "b",
    "callable_truthy_int": lambda row: row["nid"] % 3,
    "callable_none": lambda row: None,
    "callable_all": lambda row: "yes",
}


class Landscape:
    """One database wired with every hook the write path must serve."""

    def __init__(self, table_class, budget):
        self.db = Database("d")
        if budget is not None:
            self.db.set_memory_budget(budget, partition_rows=2)
        self.records, self.fired = [], []
        for schema in (ORDERS, AUDIT, NOTES):
            self.db.create_table(schema).__class__ = table_class
        self.db.set_change_listener(
            lambda table, op, payload: self.records.append(
                (table, op, tuple(dict(p) if isinstance(p, dict) else p
                                  for p in payload))
            )
        )
        self.db.create_trigger("first", "orders", self._log_fire)
        self.db.create_trigger("second", "orders", self._audit)

    def _log_fire(self, db, row):
        self.fired.append(("first", row["oid"], row["line"]))

    def _audit(self, db, row):
        self.fired.append(("second", row["oid"], row["line"]))
        db.insert("audit", {"seq": len(db.table("audit")), "oid": row["oid"]})

    def apply(self, op, argument, bulk):
        """Run one op; ``bulk=False`` spells the bulk forms row by row."""
        try:
            if op == "insert":
                self.db.insert("orders", argument)
                return None
            if op == "upsert":
                self.db.table("orders").upsert(argument)
                return None
            name = "notes" if op.startswith("notes") else "orders"
            rows = (row for row in argument)  # as the endpoints pass them
            if op.endswith("upsert_many"):
                table = self.db.table(name)
                if bulk:
                    return table.insert_many(rows, replace=True)
                for row in rows:
                    table.upsert(row)
            elif op == "table_insert_many":
                table = self.db.table(name)
                if bulk:
                    return table.insert_many(rows)
                for row in rows:
                    table.insert(row)
            elif bulk:
                return self.db.insert_many(name, rows)
            else:
                for row in rows:
                    self.db.insert(name, row)
            return len(argument)
        except Exception as exc:  # compared, not handled
            return (type(exc), str(exc))

    def state(self):
        tables = {}
        for name in self.db.table_names:
            table = self.db.table(name)
            tables[name] = (
                [[(k, type(v), repr(v)) for k, v in row.items()] for row in table],
                table._pk_index,
                table.rows_read,
                table.rows_written,
                table._generation,
            )
        return (tables, self.records, self.fired, self.db.statistics())


@pytest.mark.parametrize("budget", [None, 4], ids=["resident", "budgeted"])
class TestDmlSequencesMatchSeed:
    @settings(max_examples=120, deadline=None)
    @given(ops=st.lists(op_strategy, max_size=12))
    def test_bulk_and_single_forms_match_the_seed_row_by_row(self, budget, ops):
        new = Landscape(Table, budget)
        seed = Landscape(SeedTable, budget)
        assert (new.db.table("orders").partition_store is not None) == (
            budget is not None
        )
        for op, argument in ops:
            assert new.apply(op, argument, bulk=True) == seed.apply(
                op, argument, bulk=False
            ), (op, argument)
            assert new.state() == seed.state()

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.fixed_dictionaries(
                {
                    "nid": st.integers(min_value=0, max_value=12),
                    "text": st.sampled_from(["a", "b", "c"]),
                }
            ),
            max_size=12,
        ),
        predicates=st.lists(st.sampled_from(sorted(DELETE_PREDICATES)), max_size=3),
    )
    def test_one_pass_delete_matches_the_two_scan_seed(
        self, budget, rows, predicates
    ):
        """Same rows gone, same ``delete_at`` positions journaled, same
        counters, generation step and rebuilt pk index —
        for expression predicates (only ``True`` deletes, NULL does not)
        and callables (any truthy verdict deletes)."""
        new, seed = Landscape(Table, budget), Landscape(SeedTable, budget)
        for side in (new, seed):
            side.apply("notes_upsert_many", rows, bulk=side is new)
        assert len(new.db.table("notes")) == len({r["nid"] for r in rows})
        for name in predicates:
            predicate = DELETE_PREDICATES[name]
            assert new.db.table("notes").delete(predicate) == seed.db.table(
                "notes"
            ).delete(predicate), name
            assert new.state() == seed.state(), name

    def test_a_failing_row_leaves_its_predecessors_stored(self, budget):
        new = Landscape(Table, budget)
        rows = [
            {"oid": 1, "line": 1, "cust": 10},
            {"oid": 2, "line": 1, "cust": 10},
            {"oid": 1, "line": 1, "cust": 99},  # duplicate key
            {"oid": 3, "line": 1},
        ]
        result = new.apply("insert_many", rows, bulk=True)
        assert result == (
            IntegrityError, "table orders: duplicate primary key (1, 1)"
        )
        orders = new.db.table("orders")
        assert [r["oid"] for r in orders] == [1, 2]
        assert orders.rows_written == 2
        assert orders._pk_index == {(1, 1): 0, (2, 1): 1}
        assert [f for f in new.fired if f[0] == "first"] == [
            ("first", 1, 1), ("first", 2, 1)
        ]

    def test_trigger_free_bulk_insert_journals_one_record_per_row(self, budget):
        new = Landscape(Table, budget)
        rows = [{"nid": 1, "text": "a"}, {"nid": 2, "text": "b"}]
        assert new.db.insert_many("notes", rows) == 2
        assert [(t, op) for t, op, _ in new.records] == [
            ("notes", "insert"), ("notes", "insert")
        ]

    def test_a_failing_upsert_row_leaves_its_predecessors_stored(self, budget):
        """Unknown column, then NOT NULL, each in the middle of a batch
        of a hit and misses: same error, same rows kept, as row by row."""
        for bad in ({"nid": 3, "text": "c", "ghost": 1}, {"nid": 3, "text": None}):
            new, seed = Landscape(Table, budget), Landscape(SeedTable, budget)
            rows = [
                {"nid": 1, "text": "a"},
                {"nid": 2, "text": "b"},
                {"nid": 1, "text": "hit"},
                bad,
                {"nid": 4, "text": "never"},
            ]
            result = new.apply("notes_upsert_many", rows, bulk=True)
            assert result == seed.apply("notes_upsert_many", rows, bulk=False)
            assert result[0] in (SchemaError, IntegrityError), result
            assert new.state() == seed.state()
            notes = new.db.table("notes")
            assert [(r["nid"], r["text"]) for r in notes] == [(1, "hit"), (2, "b")]
            assert notes.rows_written == 3
            assert [op for _, op, _ in new.records] == ["insert", "insert", "upsert"]

    def test_bulk_upsert_needs_a_primary_key_at_its_first_row(self, budget):
        keyless = TableSchema("log", [Column("line", "VARCHAR")])
        outcomes = []
        for table_class, bulk in ((Table, True), (SeedTable, False)):
            db = Database("d")
            if budget is not None:
                db.set_memory_budget(budget, partition_rows=2)
            table = db.create_table(keyless)
            table.__class__ = table_class
            consumed = []

            def rows():
                for line in ("a", "b"):
                    consumed.append(line)
                    yield {"line": line}

            if bulk:
                assert table.insert_many(iter(()), replace=True) == 0
                attempt = lambda: table.insert_many(rows(), replace=True)
            else:
                attempt = lambda: [table.upsert(row) for row in rows()]
            with pytest.raises(IntegrityError) as raised:
                attempt()
            outcomes.append((str(raised.value), consumed, len(table),
                             table.rows_written, table._generation))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:2] == ("table log: upsert needs a primary key", ["a"])


# ------------------------------------------ typed relations: the copy path
#
# A relation read from tables declares its column types, and
# ``Table.insert_many`` stores one typed like its target by copying each
# row after the NOT NULL check.  Held to the seed row by row: the seed
# normalizes ``iter_narrow()`` rows one ``insert``/``upsert`` at a time.

SRC = TableSchema(
    "src",
    [
        Column("k", "INTEGER", nullable=False),
        Column("name", "VARCHAR"),
        Column("amt", "DOUBLE"),
        Column("day", "DATE"),
    ],
    primary_key=("k",),
)
TAGS = TableSchema(
    "tags",
    [Column("tk", "BIGINT", nullable=False), Column("tag", "VARCHAR")],
    primary_key=("tk",),
)


def typed_targets():
    """Fresh target schemas (their per-row writers get spied on), each
    with the path a non-wide relation of its columns must take."""
    def schema(name, types, nullable_name=True, key=("k",), extra=()):
        k, name_type, amt, day = types
        return TableSchema(
            name,
            [
                Column("k", k, nullable=False),
                Column("name", name_type, nullable=nullable_name),
                Column("amt", amt),
                Column("day", day),
                *extra,
            ],
            primary_key=key,
        )

    return {
        # INTEGER -> BIGINT, VARCHAR -> CHAR, nullable -> NOT NULL.
        "bigint_char": (schema("bigint_char", ("BIGINT", "CHAR", "DOUBLE", "DATE"),
                               nullable_name=False), "copy_stored"),
        "int_clob": (schema("int_clob", ("INTEGER", "CLOB", "DOUBLE", "DATE")), "copy_stored"),
        "keyless": (schema("keyless", ("INTEGER", "VARCHAR", "DOUBLE", "DATE"),
                           key=()), "copy_stored"),
        # DOUBLE -> DECIMAL: same names, another exact type.
        "decimal": (schema("decimal", ("INTEGER", "VARCHAR", "DECIMAL", "DATE")),
                    "normalize"),
        "joined": (schema("joined", ("BIGINT", "VARCHAR", "DOUBLE", "DATE"),
                          extra=(Column("tag", "CLOB", nullable=False),)), "copy_stored"),
    }


def spy(schema, calls):
    """Count the rows ``schema``'s two per-row writers are handed."""
    for attr in ("normalize", "copy_stored"):
        writer = getattr(schema, attr)

        def counted(row, writer=writer, attr=attr):
            calls[attr] += 1
            return writer(row)

        vars(schema)[attr] = counted


class TypedLandscape(Landscape):
    """Source tables (filled through ``normalize``) and one target."""

    def __init__(self, table_class, budget, target, source_rows, tag_rows,
                 prefill):
        self.db = Database("d")
        if budget is not None:
            self.db.set_memory_budget(budget, partition_rows=2)
        self.records, self.fired = [], []
        for schema in (SRC, TAGS, target):
            self.db.create_table(schema)
        self.db.table(target.name).__class__ = table_class
        for values in source_rows:
            self.db.table("src").upsert(values)
        for values in tag_rows:
            self.db.table("tags").upsert(values)
        self.target = self.db.table(target.name)
        self.apply_rows(prefill, replace=True, bulk=False)
        self.db.set_change_listener(
            lambda table, op, payload: self.records.append(
                (table, op, tuple(dict(p) if isinstance(p, dict) else p
                                  for p in payload))
            )
        )

    def relation(self, steps, final):
        rel = self.db.query("src")
        for step in steps:
            if step == "select":
                rel = rel.select(col("k") > lit(1))
            elif step == "select_callable":
                rel = rel.select(lambda row: row["k"] % 2 == 0)
            elif step == "select_none":
                rel = rel.select(col("name") == lit(None))
            elif step == "pushdown":
                rel = rel.union_all(self.db.query("src", col("k") == lit(3)))
            elif step == "distinct":
                rel = rel.distinct(("k",))
            elif step == "keep":
                rel = rel.keep(*SRC.column_names)
            elif step == "union_self":
                rel = rel.union_all(rel)  # duplicate keys mid-batch
            elif step == "project":
                rel = rel.project({c: c for c in SRC.column_names})
        if final == "join":
            return rel.join(self.db.query("tags"), [("k", "tk")])
        if final == "wide":
            joined = rel.join(self.db.query("tags"), [("k", "tk")])
            return joined.keep(*SRC.column_names)
        return rel

    def apply_rows(self, rows, replace, bulk):
        try:
            if bulk:
                return self.target.insert_many(rows, replace=replace)
            if isinstance(rows, Relation):
                rows = rows.iter_narrow()
            count = 0
            for values in rows:
                (self.target.upsert if replace else self.target.insert)(values)
                count += 1
            return count
        except Exception as exc:  # compared, not handled
            return (type(exc), str(exc))


src_row = st.fixed_dictionaries(
    {
        "k": st.sampled_from([0, 1, 2, 3, 4, 5, "6", MyInt(7)]),
        "name": st.sampled_from(["a", "", "12", MyStr("sub"), None]),
        "amt": st.sampled_from([None, 1.5, -0.0, 2, "3.25"]),
        "day": st.sampled_from([
            None, datetime.date(2021, 3, 4), MyDate(2022, 2, 2), "2020-01-02",
            datetime.datetime(2021, 3, 4, 5, 6, 7),
        ]),
    }
)
tag_row = st.fixed_dictionaries(
    {
        "tk": st.integers(min_value=0, max_value=7),
        "tag": st.sampled_from(["x", MyStr("y"), None]),
    }
)
CHAIN_STEPS = ("select", "select_callable", "select_none", "pushdown",
               "distinct", "keep", "union_self", "project")


@pytest.mark.parametrize("budget", [None, 4], ids=["resident", "budgeted"])
class TestTypedRelationsMatchSeed:
    @settings(max_examples=150, deadline=None)
    @given(
        source_rows=st.lists(src_row, max_size=8),
        tag_rows=st.lists(tag_row, max_size=6),
        prefill=st.lists(src_row, max_size=3),
        steps=st.lists(st.sampled_from(CHAIN_STEPS), max_size=4),
        final=st.sampled_from(["as_is", "join", "wide"]),
        target_name=st.sampled_from(
            ["bigint_char", "int_clob", "keyless", "decimal"]
        ),
        replace=st.booleans(),
    )
    def test_insert_many_of_a_typed_relation_matches_the_seed(
        self, budget, source_rows, tag_rows, prefill, steps, final,
        target_name, replace,
    ):
        targets = typed_targets()
        if final == "join":
            target_name = "joined"
            prefill = [dict(row, tag="p") for row in prefill]
        target, path = targets[target_name]
        if final == "wide":
            path = "normalize"
        calls = {"normalize": 0, "copy_stored": 0}
        spy(target, calls)
        new = TypedLandscape(Table, budget, target, source_rows, tag_rows, prefill)
        seed = TypedLandscape(SeedTable, budget, target, source_rows, tag_rows,
                              prefill)
        calls.update(normalize=0, copy_stored=0)
        assert new.state() == seed.state()

        new_rel, seed_rel = new.relation(steps, final), seed.relation(steps, final)
        assert new_rel.types is not None
        result = new.apply_rows(new_rel, replace, bulk=True)
        assert result == seed.apply_rows(seed_rel, replace, bulk=False)
        assert new.state() == seed.state()
        unused = "normalize" if path == "copy_stored" else "copy_stored"
        assert calls[unused] == 0, (path, calls)
        if isinstance(result, int):
            assert calls[path] == result == len(new_rel)

    def test_copied_rows_keep_their_stored_objects_and_subclasses(self, budget):
        (target, _), calls = typed_targets()["int_clob"], {
            "normalize": 0, "copy_stored": 0}
        spy(target, calls)
        rows = [{"k": 1, "name": MyStr("sub"), "amt": 1.5,
                 "day": MyDate(2022, 2, 2)}]
        land = TypedLandscape(Table, budget, target, rows, [], [])
        assert land.apply_rows(land.db.query("src"), False, bulk=True) == 1
        (stored,) = list(land.target)
        (source,) = list(land.db.table("src"))
        assert stored == source and stored is not source
        assert all(stored[c] is source[c] for c in SRC.column_names)
        assert (type(stored["name"]), type(stored["day"])) == (MyStr, MyDate)
        assert calls == {"normalize": 0, "copy_stored": 1}

    def test_a_null_into_not_null_and_a_duplicate_leave_predecessors(
        self, budget
    ):
        rows = [
            {"k": 1, "name": "a"},
            {"k": 2, "name": None},
            {"k": 3, "name": "c"},
        ]
        for steps, error in (
            ((), (IntegrityError, "table bigint_char: column name is NOT NULL")),
            (("select", "union_self"),
             (IntegrityError, "table bigint_char: duplicate primary key (2,)")),
        ):
            target, _ = typed_targets()["bigint_char"]
            sides = [TypedLandscape(cls, budget, target, rows, [], [])
                     for cls in (Table, SeedTable)]
            if steps:
                for side in sides:
                    side.db.table("src").update({"name": "b"}, col("k") == lit(2))
            new_rel, seed_rel = (side.relation(steps, "as_is") for side in sides)
            assert sides[0].apply_rows(new_rel, False, bulk=True) == error
            assert sides[1].apply_rows(seed_rel, False, bulk=False) == error
            assert sides[0].state() == sides[1].state()
            assert len(sides[0].target) == (1 if not steps else 2)

    def test_an_empty_relation_writes_nothing(self, budget):
        for name in ("bigint_char", "keyless"):
            target, _ = typed_targets()[name]
            land = TypedLandscape(Table, budget, target, [], [], [])
            for replace in (False, True):
                assert land.apply_rows(land.db.query("src"), replace, bulk=True) == 0
            assert land.records == [] and land.target.rows_written == 0

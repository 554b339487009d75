"""Declared column types on relations: the lineage is sound.

A relation read from tables declares ``types``, the exact Python type of
each column's stored cells, and the operators that only pass stored
values through keep it.  ``Table.insert_many`` copies such a relation
into a table of the same exact types instead of normalizing it, which is
right only if every value a typed relation holds is one that
``TableSchema.normalize`` returns unchanged — under *every* SQL type of
that exact type (INTEGER/BIGINT, VARCHAR/CHAR/CLOB).  The property below
checks exactly that over random operator chains; the rest checks that
whatever makes values declares no types.
"""

import datetime
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, TableSchema, col, lit
from repro.db.relation import Relation
from repro.db.types import EXACT_TYPE
from repro.mtm.context import ExecutionContext
from repro.mtm.message import Message
from repro.mtm.operators import Convert, ValidateRows
from repro.services import Network, ServiceRegistry
from repro.xmlkit.convert import rows_to_resultset


class MyInt(int):
    pass


class MyStr(str):
    pass


class MyDecimal(Decimal):
    pass


class MyDate(datetime.date):
    pass


class MyDateTime(datetime.datetime):
    pass


#: Per SQL type, inputs it accepts: exact, coerced and subclass values.
CELLS = {
    "INTEGER": [0, 7, -3, MyInt(9), "12", 2.0],
    "BIGINT": [2 ** 70, 5, "6", MyInt(1)],
    "DECIMAL": [Decimal("1.25"), MyDecimal("2.5"), 2.00005, 3, "7.5"],
    "DOUBLE": [1.5, -0.0, 2, "2.5", Decimal("0.5")],
    "VARCHAR": ["a", "", MyStr("s"), 5],
    "CHAR": ["x", MyStr("y"), 1.5],
    "CLOB": ["<m/>", MyStr("<n/>")],
    "DATE": [datetime.date(2021, 3, 4), MyDate(2022, 2, 2), "2020-01-02",
             datetime.datetime(2021, 3, 4, 5, 6, 7)],
    "TIMESTAMP": [datetime.datetime(2021, 3, 4, 5, 6, 7),
                  MyDateTime(2020, 1, 1, 1, 1, 1), datetime.date(2021, 1, 2),
                  "2020-01-02T03:04:05"],
    "BOOLEAN": [True, False, 1, 0],
}

ALL = TableSchema(
    "every",
    [Column("id", "INTEGER", nullable=False)]
    + [Column(sql_type.lower(), sql_type) for sql_type in CELLS],
    primary_key=("id",),
)
OTHER = TableSchema(
    "other",
    [
        Column("oid", "BIGINT", nullable=False),
        Column("note", "CLOB"),
        Column("at", "TIMESTAMP"),
    ],
    primary_key=("oid",),
)

#: One single-column schema per SQL type, grouped by exact Python type.
SCHEMAS_OF: dict[type, list[TableSchema]] = {}
for _sql_type, _exact in EXACT_TYPE.items():
    SCHEMAS_OF.setdefault(_exact, []).append(
        TableSchema("one", [Column("c", _sql_type)])
    )


def assert_sound(relation):
    """Every value of a typed relation is returned as the same object by
    ``normalize`` under every SQL type of its declared exact type."""
    if relation.types is None:
        return
    assert len(relation.types) == len(relation.columns)
    for row in relation.iter_narrow():
        assert tuple(row) == relation.columns
        for name, exact in zip(relation.columns, relation.types):
            value = row[name]
            for schema in SCHEMAS_OF[exact]:
                assert schema.normalize({"c": value})["c"] is value, (
                    name, exact, schema, value
                )


def landscape(every_rows, other_rows):
    db = Database("d")
    for schema in (ALL, OTHER):
        db.create_table(schema)
    for row in every_rows:
        db.table("every").upsert(row)
    for row in other_rows:
        db.table("other").upsert(row)
    return db


def context():
    network = Network()
    network.add_host("IS")
    return ExecutionContext(ServiceRegistry(network), "IS")


every_row = st.fixed_dictionaries(
    {"id": st.integers(min_value=0, max_value=6)}
    | {
        sql_type.lower(): st.sampled_from([None, *values])
        for sql_type, values in CELLS.items()
    }
)
other_row = st.fixed_dictionaries(
    {
        "oid": st.integers(min_value=0, max_value=6),
        "note": st.sampled_from([None, "n", MyStr("m")]),
        "at": st.sampled_from(CELLS["TIMESTAMP"] + [None]),
    }
)

STEPS = ("select", "select_callable", "keep", "distinct", "distinct_key",
         "join", "project", "union_self", "union_untyped", "copy", "validate",
         "pushdown")


def step(db, relation, name, data):
    """Apply one operator; the drawn parts come from ``data``."""
    columns = relation.columns
    if name == "select":
        return relation.select(col(columns[0]) != lit(None))
    if name == "select_callable":
        return relation.select(lambda row: len(repr(row[columns[-1]])) % 2)
    if name == "keep":
        names = data.draw(st.lists(st.sampled_from(columns), min_size=1,
                                   unique=True))
        return relation.keep(*names)
    if name == "distinct":
        return relation.distinct()
    if name == "distinct_key":
        return relation.distinct((data.draw(st.sampled_from(columns)),))
    if name == "join":
        if "id" not in columns or "oid" in columns:
            return relation
        return relation.join(db.query("other"), [("id", "oid")])
    if name == "project":
        names = data.draw(st.lists(st.sampled_from(columns), min_size=1,
                                   unique=True))
        return relation.project({f"p_{n}": n for n in names})
    if name == "union_self":
        return relation.union_all(relation)
    if name == "union_untyped":
        untyped = Relation(columns, relation.iter_narrow())
        united = relation.union_all(untyped)
        assert united.types is None
        return united
    if name == "copy":
        return Message(relation).copy().payload
    if name == "validate":
        ctx = context()
        ctx.set("in", Message(relation))
        ValidateRows(
            "in", {"any": lit(True) == lit(True)}, output="out"
        ).execute(ctx)
        return ctx.get("out").relation()
    assert name == "pushdown"
    return db.query("every", col("id") == lit(data.draw(st.integers(0, 6))))


class TestLineage:
    @settings(max_examples=200, deadline=None)
    @given(
        every_rows=st.lists(every_row, max_size=6),
        other_rows=st.lists(other_row, max_size=5),
        steps=st.lists(st.sampled_from(STEPS), max_size=6),
        data=st.data(),
    )
    def test_every_typed_relation_holds_values_normalize_keeps(
        self, every_rows, other_rows, steps, data
    ):
        db = landscape(every_rows, other_rows)
        relation = db.table("every").to_relation()
        assert relation.types == ALL.exact_types
        assert_sound(relation)
        for name in steps:
            typed = relation.types is not None
            relation = step(db, relation, name, data)
            if typed and name not in ("union_untyped", "pushdown"):
                assert relation.types is not None, name
            assert_sound(relation)

    def test_keep_and_join_carry_the_types_of_their_columns(self):
        db = landscape([{"id": 1}], [{"oid": 1}])
        every = db.query("every")
        assert every.keep("date", "id").types == (datetime.date, int)
        joined = every.keep("id", "varchar").join(
            db.query("other").keep("oid", "at"), [("id", "oid")]
        )
        assert joined.columns == ("id", "varchar", "at")
        assert joined.types == (int, str, datetime.datetime)
        clash = every.keep("id", "clob").join(
            every.keep("id", "clob"), [("id", "id")]
        )
        assert clash.columns == ("id", "clob", "clob_r")
        assert clash.types == (int, str, str)
        pushed = db.query("every", col("id") == lit(1), columns=("bigint",))
        assert pushed.types == (int,)


class TestWhatMakesValuesDeclaresNoTypes:
    def typed(self):
        db = landscape([{"id": 1, "integer": 2, "varchar": "v"}], [])
        relation = db.query("every")
        assert relation.types is not None
        return relation

    def test_extend(self):
        assert self.typed().extend("x", col("integer")).types is None

    def test_group_by(self):
        grouped = self.typed().group_by(("id",), {"n": ("COUNT", None)})
        assert grouped.types is None
        assert self.typed().group_by(("id",), {}).types is None

    def test_computed_project(self):
        relation = self.typed()
        assert relation.project({"id": "id", "x": col("integer")}).types is None
        assert relation.project({"id": "id"}).types == (int,)

    def test_constructor(self):
        relation = self.typed()
        assert Relation(relation.columns, relation.rows).types is None

    def test_union_of_different_types(self):
        relation = self.typed()
        ints, strs = relation.keep("integer"), relation.keep("varchar")
        renamed = strs.project({"integer": "varchar"})
        assert renamed.types == (str,)
        assert ints.union_all(renamed).types is None
        assert ints.union_all(ints).types == (int,)

    def test_convert_xml_to_relation(self):
        relation = self.typed().keep("id", "varchar")
        ctx = context()
        ctx.set("in", Message(rows_to_resultset(
            relation.columns, list(relation.iter_narrow()), "every"
        )))
        Convert("in", "out", "xml_to_relation", columns=["id", "varchar"],
                types={"id": "INTEGER", "varchar": "VARCHAR"}).execute(ctx)
        converted = ctx.get("out").relation()
        assert converted.rows == [{"id": 1, "varchar": "v"}]
        assert converted.types is None

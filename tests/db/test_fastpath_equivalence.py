"""Differential conformance: production operators vs the oracle.

Production (zero-copy operators, compiled expressions, index joins,
pushdown, incremental MVs) must be observationally identical to the
reference model in ``tests/oracle/relational.py``: same ``columns``,
same rows in the same order, same ``rows_read``/``rows_written``
accounting.  Every test here runs the same operation through both over
seeded random inputs — including NULL keys, duplicate keys and empty
relations — at each batch gate (``rungs``: the scalar join, the
columnar join, neither batched) and compares outputs exactly.
"""

import datetime
import random

import pytest

from repro.db import (
    Column,
    Database,
    MaterializedView,
    TableSchema,
    ViewJoin,
    ViewQuery,
    col,
    fastpath,
    func,
    lit,
)
from repro.db.expressions import UnaryOp
from repro.db.relation import Relation
from tests.oracle import relational as oracle


def is_null(expr):
    return UnaryOp("IS NULL", expr)


def is_not_null(expr):
    return UnaryOp("IS NOT NULL", expr)

SEEDS = range(12)

K_VALUES = [None, 0, 1, 2, 3, 3]  # duplicates and NULLs on purpose
V_VALUES = [None, "a", "b", "c", "a"]
W_VALUES = [None, -1.5, 0.0, 2.5, 10.0]

COLUMNS = ("k", "v", "w")


def random_rows(rng, max_rows=14):
    return [
        {
            "k": rng.choice(K_VALUES),
            "v": rng.choice(V_VALUES),
            "w": rng.choice(W_VALUES),
        }
        for _ in range(rng.randrange(max_rows + 1))  # sometimes empty
    ]


def relation(rows):
    return Relation(COLUMNS, [dict(r) for r in rows])


def assert_identical(got, expected):
    assert got.columns == expected.columns
    assert got.to_dicts() == expected.rows


def check(rungs, produce, expect, *inputs):
    """``produce`` over fresh relations at every rung == ``expect``."""
    expected = expect(*[oracle.relation(COLUMNS, rows) for rows in inputs])
    for _ in rungs():
        assert_identical(produce(*[relation(rows) for rows in inputs]), expected)


@pytest.mark.parametrize("seed", SEEDS)
class TestOperatorEquivalence:
    def test_select(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        predicate = (col("k") > lit(0)) & (col("v") == lit("a"))
        check(
            rungs,
            lambda r: r.select(predicate),
            lambda r: oracle.select(r, predicate),
            rows,
        )

    def test_select_null_comparisons(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        predicate = (col("k") == lit(None)) | is_null(col("v"))
        check(
            rungs,
            lambda r: r.select(predicate),
            lambda r: oracle.select(r, predicate),
            rows,
        )

    def test_select_callable(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        wanted = lambda row: row["k"] == 1  # noqa: E731
        check(
            rungs,
            lambda r: r.select(wanted),
            lambda r: oracle.select(r, wanted),
            rows,
        )

    def test_project(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        mapping = {"key": "k", "twice": col("k") * lit(2)}
        check(
            rungs,
            lambda r: r.project(mapping),
            lambda r: oracle.project(r, mapping),
            rows,
        )

    def test_keep(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        check(
            rungs,
            lambda r: r.keep("v", "k"),
            lambda r: oracle.keep(r, "v", "k"),
            rows,
        )

    def test_extend(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        expr = func("COALESCE", col("w"), lit(0.0))
        check(
            rungs,
            lambda r: r.extend("w2", expr),
            lambda r: oracle.extend(r, "w2", expr),
            rows,
        )

    def test_distinct(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        check(rungs, lambda r: r.distinct(), oracle.distinct, rows)
        check(
            rungs,
            lambda r: r.distinct(["k"]),
            lambda r: oracle.distinct(r, ["k"]),
            rows,
        )

    def test_union_all(self, seed, rungs):
        rng = random.Random(seed)
        rows, other = random_rows(rng), random_rows(rng)
        check(rungs, lambda r, o: r.union_all(o), oracle.union_all, rows, other)

    def test_join_inner_and_left(self, seed, rungs):
        rng = random.Random(seed)
        rows, other = random_rows(rng), random_rows(rng)
        check(
            rungs,
            lambda r, o: r.join(o, on=[("k", "k")]),
            lambda r, o: oracle.join(r, o, on=[("k", "k")]),
            rows,
            other,
        )

    def test_join_multi_key(self, seed, rungs):
        rng = random.Random(seed)
        rows, other = random_rows(rng), random_rows(rng)
        on = [("k", "k"), ("v", "v")]
        check(
            rungs,
            lambda r, o: r.join(o, on=on),
            lambda r, o: oracle.join(r, o, on=on),
            rows,
            other,
        )

    def test_group_by_all_aggregates(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        aggregates = {
            "n": ("COUNT", None),
            "n_w": ("COUNT", "w"),
            "total": ("SUM", "w"),
            "lo": ("MIN", "w"),
            "hi": ("MAX", "w"),
            "mean": ("AVG", "w"),
        }
        check(
            rungs,
            lambda r: r.group_by(("k",), aggregates),
            lambda r: oracle.group_by(r, ("k",), aggregates),
            rows,
        )

    def test_order_by(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        for descending in (False, True):
            check(
                rungs,
                lambda r: r.order_by(("k", "v"), descending=descending),
                lambda r: oracle.order_by(r, ("k", "v"), descending=descending),
                rows,
            )

    def test_limit(self, seed, rungs):
        rng = random.Random(seed)
        rows = random_rows(rng)
        n = rng.randrange(len(rows) + 2)
        check(rungs, lambda r: r.limit(n), lambda r: oracle.limit(r, n), rows)

    def test_chained_pipeline(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        w0 = func("COALESCE", col("w"), lit(0.0))

        def pipeline(r):
            return (
                r.select(is_not_null(col("k")))
                .keep("k", "w")
                .extend("w0", w0)
                .distinct()
                .order_by(("k", "w0"), descending=True)
                .limit(5)
            )

        def reference(r):
            r = oracle.select(r, is_not_null(col("k")))
            r = oracle.extend(oracle.keep(r, "k", "w"), "w0", w0)
            r = oracle.order_by(oracle.distinct(r), ("k", "w0"), descending=True)
            return oracle.limit(r, 5)

        check(rungs, pipeline, reference, rows)


TABLE_SCHEMA = TableSchema(
    "t",
    [
        Column("pk", "INTEGER", nullable=False),
        Column("k", "INTEGER"),
        Column("v", "VARCHAR"),
        Column("w", "DOUBLE"),
    ],
    primary_key=("pk",),
)


def make_table(rows):
    db = Database("eq")
    table = db.create_table(TABLE_SCHEMA)
    for i, row in enumerate(rows):
        table.insert(dict(row, pk=i))
    return db, table


def make_reference(rows):
    """The oracle's twin of :func:`make_table` (it has no pk index)."""
    return oracle.Table(TABLE_SCHEMA, [dict(r, pk=i) for i, r in enumerate(rows)])


@pytest.mark.parametrize("seed", SEEDS)
class TestTableBackedEquivalence:
    def test_index_join_matches_hash_join(self, seed, rungs):
        rng = random.Random(seed)
        table_rows, left_rows = random_rows(rng), random_rows(rng)
        expected = oracle.join(
            oracle.relation(COLUMNS, left_rows),
            oracle.keep(make_reference(table_rows).to_relation(), "pk", "v"),
            on=[("k", "pk")],
        )
        for _ in rungs():
            db, _ = make_table(table_rows)
            base = fastpath.STATS.copy()
            got = relation(left_rows).join(
                db.query("t").keep("pk", "v"), on=[("k", "pk")]
            )
            used_index = (fastpath.STATS - base).index_joins
            assert_identical(got, expected)
            if left_rows and table_rows:
                assert used_index == 1  # the probe really took the index

    def test_pk_join_matches(self, seed, rungs):
        rng = random.Random(seed)
        table_rows = random_rows(rng)
        left_rows = [
            {"pk": rng.choice([None, 0, 1, 2, 5, 99]), "x": i}
            for i in range(rng.randrange(8))
        ]
        expected = oracle.join(
            oracle.relation(("pk", "x"), left_rows),
            make_reference(table_rows).to_relation(),
            on=[("pk", "pk")],
        )
        for _ in rungs():
            db, _ = make_table(table_rows)
            got = Relation(("pk", "x"), left_rows).join(
                db.query("t"), on=[("pk", "pk")]
            )
            assert_identical(got, expected)

    def test_pushdown_matches_scan(self, seed, rungs):
        rng = random.Random(seed)
        rows = random_rows(rng)
        # (predicate, answered by a pk probe?)
        predicates = [
            (col("k") == lit(rng.choice([0, 1, 2, 3, 7])), 0),
            ((col("k") == lit(1)) & (col("v") == lit("a")), 0),
            ((col("pk") == lit(rng.randrange(6))) & (col("w") > lit(0.0)), 1),
            ((col("v") == lit("a")) & (col("pk") == lit(rng.randrange(6))), 1),
        ]
        for predicate, probed in predicates:
            reference = make_reference(rows)
            expected = oracle.select(reference.to_relation(), predicate)
            for _ in rungs():
                db, table = make_table(rows)
                base = fastpath.STATS.copy()
                got = db.query("t", predicate=predicate)
                pushed = (fastpath.STATS - base).pushdowns
                assert_identical(got, expected)
                # A probe answers the query but charges a full scan.
                assert pushed == probed
                assert table.rows_read == reference.rows_read

    def test_scan_with_predicate_matches(self, seed, rungs):
        rng = random.Random(seed)
        rows = random_rows(rng)
        predicate = (col("k") > lit(0)) | is_null(col("v"))
        reference = make_reference(rows)
        expected = reference.scan(predicate)
        for _ in rungs():
            _, table = make_table(rows)
            assert table.scan(predicate) == expected
            assert table.rows_read == reference.rows_read

    def test_point_reads_match(self, seed, rungs):
        rng = random.Random(seed)
        rows = random_rows(rng)
        reference = make_reference(rows)
        expected = [reference.get(pk) for pk in range(-1, len(rows) + 1)]
        for _ in rungs():
            _, table = make_table(rows)
            got = [table.get(pk) for pk in range(-1, len(rows) + 1)]
            assert got == expected
            assert table.rows_read == reference.rows_read

    def test_update_with_expressions_matches(self, seed, rungs):
        rng = random.Random(seed)
        rows = random_rows(rng)
        predicate = col("k") == lit(1)
        assignments = {"w": col("w") * lit(2), "v": lit("z")}
        reference = make_reference(rows)
        n_expected = reference.update(assignments, predicate)
        for _ in rungs():
            _, table = make_table(rows)
            assert table.update(assignments, predicate) == n_expected
            assert table.scan() == reference.rows
            assert table.rows_written == reference.rows_written


def star_schema(database_name="dwh"):
    db = Database(database_name)
    db.create_table(
        TableSchema(
            "nation",
            [
                Column("nationkey", "INTEGER", nullable=False),
                Column("name", "VARCHAR"),
            ],
            primary_key=("nationkey",),
        )
    )
    db.create_table(
        TableSchema(
            "city",
            [
                Column("citykey", "INTEGER", nullable=False),
                Column("nationkey", "INTEGER"),
            ],
            primary_key=("citykey",),
        )
    )
    db.create_table(
        TableSchema(
            "customer",
            [
                Column("custkey", "INTEGER", nullable=False),
                Column("citykey", "INTEGER"),
                Column("segment", "VARCHAR"),
            ],
            primary_key=("custkey",),
        )
    )
    db.create_table(
        TableSchema(
            "orders",
            [
                Column("orderkey", "INTEGER", nullable=False),
                Column("custkey", "INTEGER"),
                Column("orderdate", "DATE"),
                Column("totalprice", "DOUBLE"),
            ],
            primary_key=("orderkey",),
        )
    )
    for nationkey, name in ((1, "DE"), (2, "FR")):
        db.insert("nation", {"nationkey": nationkey, "name": name})
    for citykey, nationkey in ((10, 1), (11, 1), (20, 2)):
        db.insert("city", {"citykey": citykey, "nationkey": nationkey})
    for custkey, citykey, segment in ((100, 10, "A"), (101, 11, "B"), (102, 20, "A")):
        db.insert(
            "customer",
            {"custkey": custkey, "citykey": citykey, "segment": segment},
        )
    return db


def orders_view_query():
    return ViewQuery(
        fact_table="orders",
        joins=(
            ViewJoin(
                table="customer",
                on=(("custkey", "custkey"),),
                columns=(("custkey", "custkey"), ("citykey", "citykey")),
            ),
            ViewJoin(
                table="city",
                on=(("citykey", "citykey"),),
                columns=(("citykey", "citykey"), ("nationkey", "nationkey")),
            ),
            ViewJoin(
                table="nation",
                on=(("nationkey", "nationkey"),),
                columns=(("nationkey", "nationkey"), ("nation_name", "name")),
            ),
        ),
        extend=(("orderyear", func("YEAR", col("orderdate"))),),
        group_keys=("nation_name", "orderyear"),
        aggregates=(
            ("order_count", ("COUNT", None)),
            ("revenue", ("SUM", "totalprice")),
        ),
    )


def plain_view_query():
    """Ungrouped select/project/join shape (no aggregates)."""
    return ViewQuery(
        fact_table="orders",
        predicate=col("totalprice") > lit(0.0),
        joins=(
            ViewJoin(
                table="customer",
                on=(("custkey", "custkey"),),
                columns=(("custkey", "custkey"), ("segment", "segment")),
            ),
        ),
    )


def random_order(rng, orderkey):
    return {
        "orderkey": orderkey,
        "custkey": rng.choice([100, 101, 102, 100]),
        "orderdate": datetime.date(rng.choice([2023, 2024]), 1 + rng.randrange(12), 1),
        "totalprice": rng.choice([-5.0, 10.0, 25.0, 100.0]),
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "make_query", [orders_view_query, plain_view_query], ids=["grouped", "plain"]
)
def test_mv_incremental_vs_full_recompute(seed, make_query):
    """Random insert/update/delete sequences: every refresh equals the
    oracle's recompute, costs equal."""
    rng = random.Random(seed)
    db = star_schema()
    reference = oracle.mirror(db)
    query = make_query()
    view = db.create_materialized_view("MV", query)

    next_key = 1
    next_custkey = 200
    ops = []
    for _ in range(rng.randrange(4, 16)):
        ops.append(rng.choice(["insert", "insert", "insert", "update",
                               "delete", "dim_insert", "refresh"]))
    ops.append("refresh")

    for op in ops:
        if op == "insert":
            row = random_order(rng, next_key)
            next_key += 1
            db.insert("orders", dict(row))
            reference["orders"].insert(dict(row))
        elif op == "update" and next_key > 1:
            key = rng.randrange(1, next_key)
            assignments = {"totalprice": lit(50.0)}
            predicate = col("orderkey") == lit(key)
            db.table("orders").update(dict(assignments), predicate)
            reference["orders"].update(dict(assignments), predicate)
        elif op == "delete" and next_key > 1:
            key = rng.randrange(1, next_key)
            predicate = col("orderkey") == lit(key)
            db.table("orders").delete(predicate)
            reference["orders"].delete(predicate)
        elif op == "dim_insert":
            next_custkey += 1
            row = {"custkey": next_custkey, "citykey": 10, "segment": "C"}
            db.insert("customer", dict(row))
            reference["customer"].insert(dict(row))
        elif op == "refresh":
            view.refresh(db)
            assert_identical(view.snapshot, oracle.view(query, reference))
            # A refresh charges what the oracle's recompute does: one
            # full read of every base table.
            for name in ("orders", "customer", "city", "nation"):
                assert (
                    db.table(name).rows_read == reference[name].rows_read
                ), f"rows_read diverged on {name} after {op}"


def all_aggregates_view_query():
    """``orders_view_query`` with every aggregate over the float price."""
    query = orders_view_query()
    return ViewQuery(
        fact_table=query.fact_table,
        joins=query.joins,
        extend=query.extend,
        group_keys=query.group_keys,
        aggregates=(
            ("n", ("COUNT", None)),
            ("n_price", ("COUNT", "totalprice")),
            ("revenue", ("SUM", "totalprice")),
            ("lo", ("MIN", "totalprice")),
            ("hi", ("MAX", "totalprice")),
            ("mean", ("AVG", "totalprice")),
        ),
    )


@pytest.mark.parametrize("size", [1, 63, 64, 500])
def test_mv_full_and_delta_refresh_fold_like_the_oracle(size):
    """A view has one refresh path, so whatever happened since the last
    refresh — batches of ``size`` fact appends, dimension updates,
    deletes, truncates, ``invalidate``, ``adopt`` of another view's
    content — the next refresh equals the oracle's evaluation of the
    same ViewQuery (rows, first-appearance order, float sums bit-equal)
    and charges the same ``rows_read`` on every base table."""
    rng = random.Random(size)
    db = star_schema()
    reference = oracle.mirror(db)
    query = all_aggregates_view_query()
    view = db.create_materialized_view("MV", query)
    next_key = 1

    def on_both(name, action):
        action(db.table(name))
        action(reference[name])

    ops = ["append", "refresh"] + [
        rng.choice(["append", "append", "dim_update", "delete", "truncate",
                    "invalidate", "adopt", "refresh"])
        for _ in range(12)
    ] + ["refresh"]
    for op in ops:
        if op == "append":
            for orderkey in range(next_key, next_key + size):
                row = random_order(rng, orderkey)
                row["totalprice"] = rng.choice([None, rng.random() * 100.0])
                on_both("orders", lambda t, row=row: t.insert(dict(row)))
            next_key += size
        elif op == "dim_update":
            name, assignments, predicate = rng.choice([
                ("customer", {"citykey": lit(20)}, col("custkey") == lit(100)),
                ("customer", {"segment": lit("Z")}, col("citykey") == lit(11)),
                ("nation", {"name": lit("XX")}, col("nationkey") == lit(1)),
            ])
            on_both(name, lambda t: t.update(dict(assignments), predicate))
        elif op == "delete":
            predicate = col("custkey") == lit(rng.choice([100, 101, 102]))
            on_both("orders", lambda t: t.delete(predicate))
        elif op == "truncate":
            on_both("orders", lambda t: t.delete(None))
        elif op == "invalidate":
            view.invalidate()
        elif op == "adopt":
            # A promoted replica's copy: current content, then moved on.
            stale = MaterializedView("MV", query)
            stale.refresh(db)
            oracle.view(query, reference)
            view.adopt(stale)
        else:
            base = fastpath.STATS.copy()
            view.refresh(db)
            assert (fastpath.STATS - base).mv_full_recompute == 1
            expected = oracle.view(query, reference)
            assert_identical(view.snapshot, expected)
            assert repr(view.snapshot.to_dicts()) == repr(expected.rows)
            for name in ("orders", "customer", "city", "nation"):
                assert (
                    db.table(name).rows_read == reference[name].rows_read
                ), f"rows_read diverged on {name}"


def test_mutation_forces_full_recompute():
    db = star_schema()
    view = db.create_materialized_view("MV", orders_view_query())
    db.insert("orders", random_order(random.Random(1), 1))
    view.refresh(db)
    db.table("orders").update(
        {"totalprice": lit(1.0)}, col("orderkey") == lit(1)
    )
    base = fastpath.STATS.copy()
    view.refresh(db)
    delta = fastpath.STATS - base
    assert delta.mv_full_recompute == 1
    assert delta.mv_incremental == 0


def test_dimension_insert_forces_full_recompute():
    db = star_schema()
    view = db.create_materialized_view("MV", orders_view_query())
    db.insert("orders", random_order(random.Random(2), 1))
    view.refresh(db)
    db.insert("customer", {"custkey": 500, "citykey": 10, "segment": "Z"})
    base = fastpath.STATS.copy()
    view.refresh(db)
    delta = fastpath.STATS - base
    assert delta.mv_full_recompute == 1

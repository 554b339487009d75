"""Differential conformance: columnar batch kernels vs scalar loops vs oracle.

``repro.db.vector`` answers selections with compiled bitmask kernels
and joins with column-array probes; group-by has one body (the
accumulator in ``repro.db.relation``) whatever the size.  Every batch
kernel must be observationally identical to the
scalar loop it replaces and to the reference model in
``tests/oracle/relational.py``: same ``columns``, same rows in the same
order, same ``rows_read`` accounting, same errors — and the two
production rungs must also agree on ``rows_copied``/``rows_shared``.
Every test here runs the same operation on both rungs — scalar (the
default batch gate; inputs here stay below it) and batched (the gate
patched to 1, so it never masks a kernel) — over seeded random inputs
including NULL keys, duplicate keys and empty relations, and compares
outputs and counters exactly.

The suite ends with whole-benchmark differentials: full runs at
d ∈ {0.05, 0.1} whose result fingerprints and landscape digests must be
byte-identical whichever rung every operator takes.
"""

import random
import sys

import pytest

from repro.db import (
    Column,
    Database,
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
from repro.parallel import RunSpec
from repro.parallel.spec import run_spec
from tests.db.conftest import DEFAULT_GATE
from tests.oracle import relational as oracle


def is_null(expr):
    return UnaryOp("IS NULL", expr)


def is_not_null(expr):
    return UnaryOp("IS NOT NULL", expr)


SEEDS = range(10)

K_VALUES = [None, 0, 1, 2, 3, 3]  # duplicates and NULLs on purpose
V_VALUES = [None, "a", "b", "c", "a"]
W_VALUES = [None, -1.5, 0.0, 2.5, 10.0]

COLUMNS = ("k", "v", "w")

#: Kernel counters both rungs must charge identically: they feed the
#: accounting the NAVG+ work model observes.  (masks_compiled and
#: expr_compiled legitimately differ — they count which compiler ran,
#: not work done; per-table rows_read/rows_written parity is asserted in
#: the table-backed tests.)
PARITY_COUNTERS = ("rows_copied", "rows_shared")


def random_rows(rng, max_rows=40):
    return [
        {
            "k": rng.choice(K_VALUES),
            "v": rng.choice(V_VALUES),
            "w": rng.choice(W_VALUES),
        }
        for _ in range(rng.randrange(max_rows + 1))  # sometimes empty
    ]


#: Group-by input sizes: one row, either side of the batch gate, and
#: far enough past it that float sums round many times.
GROUP_SIZES = (1, 63, 64, 500)


def sized_rows(rng, n_rows):
    """Exactly ``n_rows`` rows whose ``w`` sums depend on fold order."""
    return [
        {
            "k": rng.choice(K_VALUES),
            "v": rng.choice(V_VALUES),
            "w": rng.choice([None, rng.random() * 100.0]),
        }
        for _ in range(n_rows)
    ]


def relation(rows):
    return Relation(COLUMNS, [dict(r) for r in rows])


def assert_identical(got, expected):
    assert got.columns == expected.columns
    assert got.to_dicts() == expected.rows
    # Floats bit-equal: ``repr`` round-trips them (and tells -0.0 from 0.0).
    assert repr(got.to_dicts()) == repr(expected.rows)


def both_rungs(rungs, produce, expect, *inputs):
    """Run ``produce`` per rung against ``expect``; return the STATS
    deltas ``(vector, scalar)`` after asserting their parity."""
    expected = expect(*[oracle.relation(COLUMNS, rows) for rows in inputs])
    deltas = {}
    for gate in rungs():
        relations = [relation(rows) for rows in inputs]
        base = fastpath.STATS.copy()
        got = produce(*relations)
        deltas[gate] = fastpath.STATS - base
        assert_identical(got, expected)
    scalar_delta, vector_delta = deltas[DEFAULT_GATE], deltas[1]
    for counter in PARITY_COUNTERS:
        assert getattr(vector_delta, counter) == getattr(
            scalar_delta, counter
        ), f"{counter} diverged between vector and scalar rungs"
    return vector_delta, scalar_delta


@pytest.mark.parametrize("seed", SEEDS)
class TestVectorOperatorEquivalence:
    def test_select_simple(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        predicate = (col("k") > lit(0)) & (col("v") == lit("a"))
        vd, sd = both_rungs(
            rungs,
            lambda r: r.select(predicate),
            lambda r: oracle.select(r, predicate),
            rows,
        )
        assert vd.vector_filters == 1
        assert sd.vector_filters == 0

    def test_select_null_semantics(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        predicates = [
            (col("k") == lit(None)) | is_null(col("v")),
            is_not_null(col("k")) & (col("w") >= lit(0.0)),
            ~((col("v") == lit("a")) | (col("k") < lit(2))),
        ]
        for predicate in predicates:
            vd, _ = both_rungs(
                rungs,
                lambda r: r.select(predicate),
                lambda r: oracle.select(r, predicate),
                rows,
            )
            assert vd.vector_filters == 1

    def test_select_column_column(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        predicate = col("k") == col("w")
        vd, _ = both_rungs(
            rungs,
            lambda r: r.select(predicate),
            lambda r: oracle.select(r, predicate),
            rows,
        )
        assert vd.vector_filters == 1

    def test_select_unsupported_falls_back(self, seed, rungs):
        """Grammar the mask compiler rejects runs the scalar loop."""
        rows = random_rows(random.Random(seed))
        predicate = func("COALESCE", col("w"), lit(0.0)) > lit(1.0)
        vd, _ = both_rungs(
            rungs,
            lambda r: r.select(predicate),
            lambda r: oracle.select(r, predicate),
            rows,
        )
        assert vd.vector_filters == 0  # declined, not answered

    def test_join_inner_and_left(self, seed, rungs):
        rng = random.Random(seed)
        rows, other = random_rows(rng), random_rows(rng)
        for how in ("inner", "left"):
            vd, sd = both_rungs(
                rungs,
                lambda r, o: r.join(o, on=[("k", "k")], how=how),
                lambda r, o: oracle.join(r, o, on=[("k", "k")], how=how),
                rows,
                other,
            )
            assert vd.vector_joins == 1
            assert vd.hash_joins == 0  # the batch kernel replaced it
            assert sd.hash_joins == 1

    def test_join_multi_key(self, seed, rungs):
        rng = random.Random(seed)
        rows, other = random_rows(rng), random_rows(rng)
        on = [("k", "k"), ("v", "v")]
        vd, _ = both_rungs(
            rungs,
            lambda r, o: r.join(o, on=on),
            lambda r, o: oracle.join(r, o, on=on),
            rows,
            other,
        )
        assert vd.vector_joins == 1

    def test_join_self(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        both_rungs(
            rungs,
            lambda r: r.join(r, on=[("k", "k")]),
            lambda r: oracle.join(r, r, on=[("k", "k")]),
            rows,
        )

    def test_group_by_all_aggregates(self, seed, rungs):
        rng = random.Random(seed)
        aggregates = {
            "n": ("COUNT", None),
            "n_w": ("COUNT", "w"),
            "total": ("SUM", "w"),
            "lo": ("MIN", "w"),
            "hi": ("MAX", "w"),
            "mean": ("AVG", "w"),
        }
        inputs = [random_rows(rng)]
        inputs += [sized_rows(rng, n_rows) for n_rows in GROUP_SIZES]
        for rows in inputs:
            both_rungs(
                rungs,
                lambda r: r.group_by(("k",), aggregates),
                lambda r: oracle.group_by(r, ("k",), aggregates),
                rows,
            )

    def test_group_by_multi_key(self, seed, rungs):
        rng = random.Random(seed)
        aggregates = {"n": ("COUNT", None), "total": ("SUM", "w")}
        inputs = [random_rows(rng)]
        inputs += [sized_rows(rng, n_rows) for n_rows in GROUP_SIZES]
        for rows in inputs:
            both_rungs(
                rungs,
                lambda r: r.group_by(("k", "v"), aggregates),
                lambda r: oracle.group_by(r, ("k", "v"), aggregates),
                rows,
            )

    def test_chained_pipeline(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        aggregates = {"n": ("COUNT", None), "hi": ("MAX", "w")}

        def pipeline(r):
            return (
                r.select(is_not_null(col("k")))
                .join(r, on=[("k", "k")], how="left")
                .group_by(("k",), aggregates)
                .order_by(("k",))
            )

        def reference(r):
            joined = oracle.join(
                oracle.select(r, is_not_null(col("k"))),
                r,
                on=[("k", "k")],
                how="left",
            )
            return oracle.order_by(
                oracle.group_by(joined, ("k",), aggregates), ("k",)
            )

        both_rungs(rungs, pipeline, reference, rows)

    def test_threshold_gates_the_kernels(self, seed, rungs):
        rows = random_rows(random.Random(seed))
        predicate = col("k") > lit(0)
        expected = oracle.select(oracle.relation(COLUMNS, rows), predicate)
        for _ in rungs(len(rows) + 1):
            base = fastpath.STATS.copy()
            gated = relation(rows).select(predicate)
            delta = fastpath.STATS - base
        assert_identical(gated, expected)
        assert delta.vector_filters == 0  # below threshold: scalar loop


@pytest.mark.parametrize("seed", SEEDS)
def test_error_parity_on_mixed_type_comparison(seed, rungs):
    """A predicate that raises must raise identically on every rung."""
    rows = random_rows(random.Random(seed))
    if not any(r["v"] is not None for r in rows):
        rows.append({"k": 1, "v": "a", "w": 0.0})
    predicate = col("v") > lit(0)  # str > int raises

    def attempt(select):
        try:
            select()
            return None
        except Exception as exc:  # noqa: BLE001 - parity capture
            return type(exc), str(exc)

    expected = attempt(
        lambda: oracle.select(oracle.relation(COLUMNS, rows), predicate)
    )
    assert expected is not None
    for _ in rungs():
        assert attempt(lambda: relation(rows).select(predicate)) == expected


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


def make_table(rows, with_index=False):
    db = Database("eq")
    table = db.create_table(TABLE_SCHEMA)
    for i, row in enumerate(rows):
        table.insert(dict(row, pk=i))
    if with_index:
        table.create_index("by_k", ["k"])
    return db, table


def make_reference(rows):
    """The oracle's twin of :func:`make_table` (it has no indexes)."""
    return oracle.Table(TABLE_SCHEMA, [dict(r, pk=i) for i, r in enumerate(rows)])


@pytest.mark.parametrize("seed", SEEDS)
class TestTableBackedVectorEquivalence:
    def test_scan_with_predicate(self, seed, rungs):
        rng = random.Random(seed)
        rows = random_rows(rng)
        predicate = (col("k") > lit(0)) | is_null(col("v"))
        reference = make_reference(rows)
        expected = reference.scan(predicate)
        for gate in rungs():
            _, table = make_table(rows)
            base = fastpath.STATS.copy()
            assert table.scan(predicate) == expected
            delta = fastpath.STATS - base
            assert table.rows_read == reference.rows_read
            assert delta.vector_filters == (1 if gate == 1 and rows else 0)

    def test_columnar_image_is_cached_until_mutation(self, seed, rungs):
        rng = random.Random(seed)
        rows = random_rows(rng)
        reference = make_reference(rows)
        predicate = col("k") == lit(1)
        for _ in rungs(1):
            _, table = make_table(rows)
            base = fastpath.STATS.copy()
            first = table.scan(predicate)
            second = table.scan(predicate)
            cached = fastpath.STATS - base
            table.insert({"pk": 10_000, "k": 1, "v": "z", "w": 1.0})
            third = table.scan(predicate)
            rebuilt = fastpath.STATS - base
        assert first == second == reference.scan(predicate)
        if rows:
            assert cached.column_builds == 1  # second scan reused the image
            assert rebuilt.column_builds == 2  # the insert invalidated it
        reference.insert({"pk": 10_000, "k": 1, "v": "z", "w": 1.0})
        assert third == reference.scan(predicate)

    def test_update_invalidates_columnar_image(self, seed, rungs):
        rng = random.Random(seed)
        rows = random_rows(rng)
        if not rows:
            rows = [{"k": 1, "v": "a", "w": 0.0}]
        predicate = col("v") == lit("z")
        for _ in rungs(1):
            _, table = make_table(rows)
            assert table.scan(predicate) == []
            table.update({"v": lit("z")}, col("pk") == lit(0))
            changed = table.scan(predicate)
        assert [row["pk"] for row in changed] == [0]

    def test_query_pushdown_parity(self, seed, rungs):
        rng = random.Random(seed)
        rows = random_rows(rng)
        predicate = col("k") == lit(rng.choice([0, 1, 2, 3, 7]))
        reference = make_reference(rows)
        expected = oracle.select(reference.to_relation(), predicate)
        for _ in rungs():
            db, table = make_table(rows, with_index=True)
            assert_identical(db.query("t", predicate=predicate), expected)
            assert table.rows_read == reference.rows_read

    def test_index_probe_beats_vector_join(self, seed, rungs):
        """Table-snapshot right sides keep taking the index probe."""
        rng = random.Random(seed)
        table_rows, left_rows = random_rows(rng), random_rows(rng)
        expected = oracle.join(
            oracle.relation(COLUMNS, left_rows),
            oracle.keep(make_reference(table_rows).to_relation(), "k", "v"),
            on=[("k", "k")],
        )
        for _ in rungs():
            db, _ = make_table(table_rows, with_index=True)
            base = fastpath.STATS.copy()
            got = relation(left_rows).join(
                db.query("t").keep("k", "v"), on=[("k", "k")]
            )
            delta = fastpath.STATS - base
            assert_identical(got, expected)
            if left_rows and table_rows:
                assert delta.index_joins == 1
                assert delta.vector_joins == 0


# ---------------------------------------------------------------- MV sequences


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
            "customer",
            [
                Column("custkey", "INTEGER", nullable=False),
                Column("nationkey", "INTEGER"),
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
                Column("totalprice", "DOUBLE"),
            ],
            primary_key=("orderkey",),
        )
    )
    for nationkey, name in ((1, "DE"), (2, "FR")):
        db.insert("nation", {"nationkey": nationkey, "name": name})
    for custkey, nationkey, segment in (
        (100, 1, "A"),
        (101, 1, "B"),
        (102, 2, "A"),
    ):
        db.insert(
            "customer",
            {"custkey": custkey, "nationkey": nationkey, "segment": segment},
        )
    return db


def grouped_view_query():
    return ViewQuery(
        fact_table="orders",
        joins=(
            ViewJoin(
                table="customer",
                on=(("custkey", "custkey"),),
                columns=(("custkey", "custkey"), ("nationkey", "nationkey")),
            ),
            ViewJoin(
                table="nation",
                on=(("nationkey", "nationkey"),),
                columns=(("nationkey", "nationkey"), ("nation_name", "name")),
            ),
        ),
        group_keys=("nation_name",),
        aggregates=(
            ("order_count", ("COUNT", None)),
            ("revenue", ("SUM", "totalprice")),
        ),
    )


def random_order(rng, orderkey):
    return {
        "orderkey": orderkey,
        "custkey": rng.choice([100, 101, 102, 100]),
        "totalprice": rng.choice([-5.0, 10.0, 25.0, 100.0]),
    }


@pytest.mark.parametrize("seed", range(6))
def test_mv_sequences_vector_vs_scalar(seed, rungs):
    """Random mutate/refresh sequences: snapshots and reads identical."""
    rng = random.Random(seed)
    next_key = 1
    ops = []  # (op, argument): drawn once, replayed per rung and on the oracle
    for op in [
        rng.choice(["insert", "insert", "insert", "update", "delete", "refresh"])
        for _ in range(rng.randrange(4, 14))
    ] + ["refresh"]:
        if op == "insert":
            ops.append((op, random_order(rng, next_key)))
            next_key += 1
        elif op in ("update", "delete") and next_key > 1:
            ops.append((op, col("orderkey") == lit(rng.randrange(1, next_key))))
        else:
            ops.append(("refresh", None))

    query = grouped_view_query()
    reference = oracle.mirror(star_schema())
    expected = []  # (snapshot, rows_read per table) at every refresh
    for op, argument in ops:
        if op == "insert":
            reference["orders"].insert(dict(argument))
        elif op == "update":
            reference["orders"].update({"totalprice": lit(50.0)}, argument)
        elif op == "delete":
            reference["orders"].delete(argument)
        else:
            snapshot = oracle.view(query, reference)
            expected.append(
                (snapshot, {name: t.rows_read for name, t in reference.items()})
            )

    for _ in rungs():
        db = star_schema()
        view = db.create_materialized_view("MV", query)
        refreshes = iter(expected)
        for op, argument in ops:
            if op == "insert":
                db.insert("orders", dict(argument))
            elif op == "update":
                db.table("orders").update({"totalprice": lit(50.0)}, argument)
            elif op == "delete":
                db.table("orders").delete(argument)
            else:
                view.refresh(db)
                snapshot, rows_read = next(refreshes)
                assert_identical(view.snapshot, snapshot)
                for name, reads in rows_read.items():
                    assert (
                        db.table(name).rows_read == reads
                    ), f"rows_read diverged on {name} after {op}"


# ------------------------------------------------------- whole-benchmark runs

#: Default gate, every batch on the kernels, every batch on the scalar loop.
GATES = (DEFAULT_GATE, 1, sys.maxsize)


def assert_one_fingerprint(rungs, spec):
    outcomes = [run_spec(spec) for _ in rungs(*GATES)]
    for outcome in outcomes:
        assert outcome.status == "ok"
        assert outcome.result.verification.ok
    assert len({outcome.fingerprint() for outcome in outcomes}) == 1
    assert len({outcome.landscape_digest for outcome in outcomes}) == 1


@pytest.mark.parametrize("datasize", [0.05, 0.1])
@pytest.mark.parametrize("seed", [42, 7])
def test_full_run_fingerprints_identical(seed, datasize, rungs):
    """ISSUE acceptance: byte-identical fingerprints at d ∈ {0.05, 0.1}."""
    assert_one_fingerprint(
        rungs,
        RunSpec(engine="interpreter", datasize=datasize, periods=1, seed=seed),
    )


def test_full_run_fingerprints_identical_federated(rungs):
    """The federated realization is byte-identical too."""
    for datasize in (0.05, 0.1):
        assert_one_fingerprint(
            rungs,
            RunSpec(engine="federated", datasize=datasize, periods=1, seed=42),
        )

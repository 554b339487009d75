"""Differential conformance: budgeted partitioned storage vs resident.

The spill tier is a *physical* knob: every logical result — operator
outputs, ``rows_read``/``rows_written`` accounting, the fastpath
``rows_copied``/``rows_shared`` counters, and whole-run fingerprints —
must be byte-identical whether a table is fully resident, half evicted,
or squeezed down to roughly one resident partition.  Every test here
runs the same workload at several budgets and compares exactly.
"""

import random
from dataclasses import replace

import pytest

from repro.db import Column, Database, TableSchema, col, fastpath, func, lit
from repro.db import partition
from repro.db.expressions import UnaryOp
from repro.parallel.spec import RunSpec, run_spec
from tests.oracle import relational as oracle

SCHEMA_A = TableSchema(
    "orders",
    [
        Column("oid", "BIGINT", nullable=False),
        Column("cust", "BIGINT"),
        Column("status", "VARCHAR"),
        Column("amount", "DOUBLE"),
    ],
    primary_key=("oid",),
)
SCHEMA_B = TableSchema(
    "customers",
    [
        Column("cid", "BIGINT", nullable=False),
        Column("region", "VARCHAR"),
        Column("tier", "BIGINT"),
    ],
    primary_key=("cid",),
)

#: None = fully resident; 120 evicts >= 50% of the 240-row working set;
#: 16 (one partition of slack) forces nearly everything through disk.
BUDGETS = [None, 120, 16]


def seed_rows(seed):
    rng = random.Random(seed)
    orders = [
        {
            "oid": i,
            "cust": rng.randrange(40) if rng.random() > 0.05 else None,
            "status": rng.choice(["new", "paid", "shipped", None]),
            "amount": round(rng.uniform(-10, 500), 2),
        }
        for i in range(160)
    ]
    customers = [
        {
            "cid": i,
            "region": rng.choice(["EU", "US", "APAC"]),
            "tier": rng.randrange(3),
        }
        for i in range(80)
    ]
    return orders, customers


def build_db(budget, seed):
    db = Database("diff")
    if budget is not None:
        db.set_memory_budget(budget, partition_rows=16)
    orders, customers = seed_rows(seed)
    db.create_table(SCHEMA_A).insert_many(orders)
    db.create_table(SCHEMA_B).insert_many(customers)
    return db


def run_workload(db):
    """A representative read mix; returns all outputs plus accounting."""
    out = {}
    sel = db.query("orders", (col("amount") > lit(100.0)))
    out["select"] = sel.to_dicts()
    joined = db.query("orders").join(db.query("customers"), on=[("cust", "cid")])
    out["join_inner"] = joined.to_dicts()
    # Non-indexed key: no probe, so a spilled side goes through the
    # grace hash join instead of the index join.
    out["join_nonindexed"] = (
        db.query("orders")
        .join(db.query("customers"), on=[("cust", "tier")])
        .to_dicts()
    )
    out["group"] = (
        db.query("orders")
        .group_by(
            ["status"],
            {
                "n": ("COUNT", "oid"),
                "total": ("SUM", "amount"),
                "avg": ("AVG", "amount"),
                "lo": ("MIN", "amount"),
                "hi": ("MAX", "amount"),
            },
        )
        .to_dicts()
    )
    out["multi_key_group"] = (
        joined.group_by(
            ["region", "status"], {"n": ("COUNT", "oid")}
        ).to_dicts()
    )
    out["scan"] = [r["oid"] for r in db.table("orders").scan()]
    stats = db.statistics()
    out["rows_read"] = stats.rows_read
    out["rows_written"] = stats.rows_written
    return out


@pytest.mark.parametrize("seed", range(4))
def test_operator_outputs_identical_across_budgets(seed):
    baseline = None
    for budget in BUDGETS:
        fast_base = fastpath.STATS.copy()
        db = build_db(budget, seed)
        got = run_workload(db)
        fast_delta = fastpath.STATS - fast_base
        got["rows_copied"] = fast_delta.rows_copied
        got["rows_shared"] = fast_delta.rows_shared
        if budget is not None:
            assert db.memory_budget.resident_rows <= budget + 16
        if baseline is None:
            baseline = got
        else:
            assert got == baseline, f"budget={budget} diverged"


@pytest.mark.parametrize("size", [1, 63, 64, 500])
def test_group_by_over_a_spilled_view_folds_like_the_oracle(size):
    """A still-streaming spilled snapshot goes through the accumulator
    every group-by uses, one pinned partition at a time: the oracle's
    rows in the oracle's order, float sums bit-equal, residency within
    one partition of the budget."""
    rng = random.Random(size)
    rows = [
        {
            "oid": i,
            "cust": rng.randrange(7) if rng.random() > 0.1 else None,
            "status": rng.choice(["new", "paid", None]),
            "amount": rng.choice([None, rng.random() * 100.0]),
        }
        for i in range(size)
    ]
    aggregates = {
        "n": ("COUNT", None),
        "n_amount": ("COUNT", "amount"),
        "total": ("SUM", "amount"),
        "avg": ("AVG", "amount"),
        "lo": ("MIN", "amount"),
        "hi": ("MAX", "amount"),
    }
    expected = oracle.group_by(
        oracle.Table(SCHEMA_A, rows).to_relation(), ("cust", "status"), aggregates
    )

    db = Database("grouped")
    db.set_memory_budget(16, partition_rows=16)
    table = db.create_table(SCHEMA_A)
    table.insert_many(rows)
    store = table.partition_store
    if not store.has_spilled():  # a table smaller than its budget
        store.spill_partition(0)
    base = partition.STATS.copy()
    snapshot = db.query("orders")
    assert partition.spilled_view(snapshot.rows) is not None
    got = snapshot.group_by(("cust", "status"), aggregates)
    assert (partition.STATS - base).partitioned_group_bys == 1
    assert got.columns == expected.columns
    assert repr(got.to_dicts()) == repr(expected.rows)
    budget = db.memory_budget
    assert budget.peak_resident_rows <= budget.limit_rows + budget.partition_rows


def test_tight_budget_engages_partitioned_operators():
    base = partition.STATS.copy()
    db = build_db(16, seed=0)
    run_workload(db)
    delta = partition.STATS - base
    assert delta.evictions > 0
    assert delta.grace_joins > 0
    assert delta.partitioned_group_bys > 0


# -- one filter path, at every residency -------------------------------------

#: Selections over SCHEMA_A: comparisons, NULL logic, a function call,
#: arithmetic, a column-column comparison, and two that raise (a
#: str/int comparison and an unknown column).
SELECTIONS = [
    col("amount") > lit(100.0),
    (col("cust") == lit(None)) | UnaryOp("IS NULL", col("status")),
    ~((col("status") == lit("paid")) | (col("cust") < lit(20))),
    UnaryOp("IS NOT NULL", col("cust")) & (col("amount") >= lit(0.0)),
    func("COALESCE", col("status"), lit("none")) == lit("none"),
    col("amount") * lit(2.0) > col("oid"),
    col("cust") == col("oid"),
    col("status") > lit(0),
    col("missing") == lit(1),
]


def outcome(read):
    """``("ok", rows)`` or ``("error", type, text)`` of one read."""
    try:
        return "ok", read()
    except Exception as exc:  # noqa: BLE001 - parity capture
        return "error", type(exc), str(exc)


@pytest.mark.parametrize("budget", [*BUDGETS, 10_000])
def test_every_selection_runs_its_closure_like_the_oracle(budget, rungs):
    """``Table.scan`` and ``Relation.select`` over a resident table, a
    store that fits its budget and spilled ones, at every batch gate: the
    oracle's rows in its order, the stored dicts themselves, its
    ``rows_read`` and its error text — and a budgeted read goes
    partition by partition."""
    orders, _ = seed_rows(0)
    for gate in rungs():
        for predicate in SELECTIONS:
            reference = oracle.Table(SCHEMA_A, orders)
            db = build_db(budget, seed=0)
            table = db.table("orders")
            stored = {id(row) for row in table._rows}
            base, part_base = fastpath.STATS.copy(), partition.STATS.copy()
            scanned = outcome(lambda: table.scan(predicate))
            snapshot = table.to_relation()
            spilled = partition.spilled_view(snapshot.rows) is not None
            selected = outcome(lambda: snapshot.select(predicate).rows)
            delta, part = fastpath.STATS - base, partition.STATS - part_base
            where = f"budget={budget} gate={gate} {predicate!r}"
            assert scanned == outcome(lambda: reference.scan(predicate)), where
            assert selected == outcome(
                lambda: oracle.select(reference.to_relation(), predicate).rows
            ), where
            assert table.rows_read == reference.rows_read, where
            # Shared, never copied: the stored dicts themselves (a
            # spilled partition reloads as new dicts, so the identity
            # check is for resident storage).
            assert delta.rows_copied == 0, where
            for result in (scanned, selected):
                if result[0] == "ok" and budget is None:
                    assert all(id(row) in stored for row in result[1]), where
            assert delta.vector_filters == delta.vector_fallbacks == 0, where
            assert spilled == (budget in (120, 16)), where
            if budget is not None:  # a read that raised counts nothing
                answered = (scanned[0] == "ok") + (spilled and selected[0] == "ok")
                assert part.partitioned_filters == answered, where


# -- the join ladder, rung by rung ---------------------------------------------

JOIN_LEFT = TableSchema(
    "facts",
    [
        Column("fid", "BIGINT", nullable=False),
        Column("k", "BIGINT"),
        Column("note", "VARCHAR"),
        Column("qty", "DOUBLE"),
    ],
    primary_key=("fid",),
)
JOIN_RIGHT = TableSchema(
    "dims",
    [
        Column("did", "BIGINT", nullable=False),
        Column("k2", "BIGINT"),
        Column("note", "VARCHAR"),
    ],
    primary_key=("did",),
)

#: How one side's table is stored: a plain list, a partition store that
#: fits its budget (a streaming view, nothing spilled), or a store
#: squeezed to one resident partition.
RESIDENCIES = {"list": None, "resident": 10_000, "spilled": 16}


def join_inputs(shape):
    """``(left rows, right rows)`` for one input shape; the join key
    (``k`` = ``k2``) is covered by no index, so no probe rung applies."""
    rng = random.Random(shape)
    null_share = 0.25 if shape == "null_keys" else 0.0
    key_space = 6 if shape == "duplicate_keys" else 60

    def key():
        return None if rng.random() < null_share else rng.randrange(key_space)

    left = [
        {"fid": i, "k": key(), "note": f"f{i % 5}", "qty": i / 4}
        for i in range(0 if shape == "empty_left" else 112)
    ]
    right = [
        {"did": i, "k2": key(), "note": f"d{i % 3}"}
        for i in range(0 if shape == "empty_right" else 72)
    ]
    return left, right


def join_side(schema, rows, residency):
    db = Database(f"{schema.name}_{residency}")
    if RESIDENCIES[residency] is not None:
        db.set_memory_budget(RESIDENCIES[residency], partition_rows=16)
    db.create_table(schema).insert_many(rows)
    return db


def run_join(shape, left_residency, right_residency):
    """One non-indexed join; returns its rows plus every counter the
    residency of the inputs must not (or must) show up in."""
    left_rows, right_rows = join_inputs(shape)
    left_db = join_side(JOIN_LEFT, left_rows, left_residency)
    right_db = join_side(JOIN_RIGHT, right_rows, right_residency)
    left_store = left_db.table("facts").partition_store
    right_store = right_db.table("dims").partition_store
    spilled = {
        side: store is not None and store.has_spilled()
        for side, store in (("left", left_store), ("right", right_store))
    }
    fast_base = fastpath.STATS.copy()
    part_base = partition.STATS.copy()
    left = left_db.query("facts")
    if shape == "wide_left":
        left = left.keep("fid", "k", "note")
    joined = left.join(right_db.query("dims"), on=[("k", "k2")])
    fast = fastpath.STATS - fast_base
    for db in (left_db, right_db):
        budget = db.memory_budget
        if budget is not None:
            assert budget.peak_resident_rows <= (
                budget.limit_rows + budget.partition_rows
            )
    return {
        "columns": joined.columns,
        "rows": joined.to_dicts(),
        "rows_read": left_db.statistics().rows_read
        + right_db.statistics().rows_read,
        "rows_copied": fast.rows_copied,
        "rows_shared": fast.rows_shared,
    }, spilled, fast, partition.STATS - part_base


@pytest.mark.parametrize(
    "shape",
    ["null_keys", "duplicate_keys", "wide_left", "empty_left", "empty_right"],
)
def test_join_rungs_agree_with_the_oracle(shape):
    """{left, right, both, neither spilled} x input shapes: every rung emits the oracle's rows in the oracle's order and
    charges what the unbudgeted run charges; grace engages iff the build
    (right) side is spilled, and a spilled probe side streams through
    the scalar loop, never the columnar kernel."""
    left_rows, right_rows = join_inputs(shape)
    expected_left = oracle.Table(JOIN_LEFT, left_rows).to_relation()
    if shape == "wide_left":
        expected_left = oracle.keep(expected_left, "fid", "k", "note")
    expected = oracle.join(
        expected_left,
        oracle.Table(JOIN_RIGHT, right_rows).to_relation(),
        on=[("k", "k2")],
    )
    unbudgeted, _, _, _ = run_join(shape, "list", "list")
    assert unbudgeted["columns"] == expected.columns
    assert unbudgeted["rows"] == expected.rows
    assert [list(r) for r in unbudgeted["rows"]] == [
        list(r) for r in expected.rows
    ]
    for left_residency in RESIDENCIES:
        for right_residency in RESIDENCIES:
            got, spilled, fast, part = run_join(
                shape, left_residency, right_residency
            )
            where = f"left={left_residency} right={right_residency}"
            assert got == unbudgeted, where
            assert [list(r) for r in got["rows"]] == [
                list(r) for r in expected.rows
            ], where
            assert spilled["left"] == (
                left_residency == "spilled" and shape != "empty_left"
            ), where
            assert spilled["right"] == (
                right_residency == "spilled" and shape != "empty_right"
            ), where
            assert part.grace_joins == (1 if spilled["right"] else 0), where
            if spilled["left"]:
                assert fast.vector_joins == 0, where
            if spilled["left"] and not spilled["right"]:
                # Stream-probe: the ordinary hash join, no spools.
                assert fast.hash_joins == 1, where
                assert part.grace_rows_spilled == 0, where


def test_grace_join_end_to_end_with_a_spilled_build_side():
    """No scenario process has a spilled build side, so the grace rung
    is driven here: both sides bucketed through ``_BucketSpool`` files
    (chunks of one partition), output in monolithic order."""
    got, spilled, fast, part = run_join("duplicate_keys", "list", "spilled")
    expected, _, _, _ = run_join("duplicate_keys", "list", "list")
    assert spilled == {"left": False, "right": True}
    assert part.grace_joins == 1
    assert part.grace_rows_spilled > 0
    assert part.reloads > 0
    assert got == expected


def reference_workload(seed):
    """:func:`run_workload` through the oracle (it has no budget)."""
    orders_rows, customer_rows = seed_rows(seed)
    orders = oracle.Table(SCHEMA_A, orders_rows)
    customers = oracle.Table(SCHEMA_B, customer_rows)
    group_aggregates = {
        "n": ("COUNT", "oid"),
        "total": ("SUM", "amount"),
        "avg": ("AVG", "amount"),
        "lo": ("MIN", "amount"),
        "hi": ("MAX", "amount"),
    }
    out = {}
    out["select"] = oracle.select(
        orders.to_relation(), col("amount") > lit(100.0)
    ).rows
    joined = oracle.join(
        orders.to_relation(), customers.to_relation(), on=[("cust", "cid")]
    )
    out["join_inner"] = joined.rows
    out["join_nonindexed"] = oracle.join(
        orders.to_relation(), customers.to_relation(), on=[("cust", "tier")]
    ).rows
    out["group"] = oracle.group_by(
        orders.to_relation(), ["status"], group_aggregates
    ).rows
    out["multi_key_group"] = oracle.group_by(
        joined, ["region", "status"], {"n": ("COUNT", "oid")}
    ).rows
    out["scan"] = [r["oid"] for r in orders.scan()]
    out["rows_read"] = orders.rows_read + customers.rows_read
    out["rows_written"] = orders.rows_written + customers.rows_written
    return out


def test_budgeted_outputs_match_oracle(rungs):
    expected = reference_workload(seed=1)
    for _ in rungs():
        for budget in BUDGETS:
            got = run_workload(build_db(budget, seed=1))
            assert got == expected, f"budget={budget} diverged"


@pytest.mark.parametrize("engine", ["interpreter", "federated"])
def test_run_fingerprint_identical_under_budget(engine):
    """The tentpole contract: one full benchmark run, same fingerprint —
    at a tight budget and at the bench's quarter-working-set one."""
    spec = RunSpec(engine=engine, datasize=0.05, periods=1, seed=7)
    unbudgeted = run_spec(spec)
    assert unbudgeted.ok, unbudgeted.error
    for mem_budget in (500, 1296):
        base = partition.STATS.copy()
        budgeted = run_spec(replace(spec, mem_budget=mem_budget))
        delta = partition.STATS - base
        assert budgeted.ok, budgeted.error
        assert delta.evictions > 0, f"budget of {mem_budget} rows must spill"
        assert budgeted.fingerprint() == unbudgeted.fingerprint()


def test_synth_scenario_4x_working_set_fingerprint_identical():
    """ISSUE acceptance: working set >= 4x budget, identical fingerprint."""
    spec = RunSpec(
        periods=2, seed=11, synth="families=cdc+dirty,sources=2"
    )
    unbudgeted = run_spec(spec)
    assert unbudgeted.ok, unbudgeted.error
    working_set = sum(
        len(table)
        for db in _databases_of(spec)
        for table in db._tables.values()
    )
    budget = max(1, working_set // 4)
    base = partition.STATS.copy()
    budgeted = run_spec(replace(spec, mem_budget=budget))
    delta = partition.STATS - base
    assert budgeted.ok, budgeted.error
    assert delta.spills > 0
    assert budgeted.fingerprint() == unbudgeted.fingerprint()


def _databases_of(spec):
    """Re-synthesize the landscape to measure its final working set."""
    from repro.synth.runner import SynthClient

    client = SynthClient.from_spec(spec)
    client.run(verify=False)
    return list(client.scenario.all_databases.values())

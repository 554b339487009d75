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

from repro.db import Column, Database, TableSchema, col, fastpath, lit
from repro.db import partition
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
    joined = db.query("orders").join(
        db.query("customers"), on=[("cust", "cid")], how="inner"
    )
    out["join_inner"] = joined.to_dicts()
    out["join_left"] = (
        db.query("orders")
        .join(db.query("customers"), on=[("cust", "cid")], how="left")
        .to_dicts()
    )
    # Non-indexed key: no probe, so a spilled side goes through the
    # grace hash join instead of the index join.
    out["join_nonindexed"] = (
        db.query("orders")
        .join(db.query("customers"), on=[("cust", "tier")], how="inner")
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


def test_tight_budget_engages_partitioned_operators():
    base = partition.STATS.copy()
    db = build_db(16, seed=0)
    run_workload(db)
    delta = partition.STATS - base
    assert delta.evictions > 0
    assert delta.grace_joins > 0
    assert delta.partitioned_group_bys > 0


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
    out["join_left"] = oracle.join(
        orders.to_relation(),
        customers.to_relation(),
        on=[("cust", "cid")],
        how="left",
    ).rows
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
    """The tentpole contract: one full benchmark run, same fingerprint."""
    spec = RunSpec(engine=engine, datasize=0.05, periods=1, seed=7)
    unbudgeted = run_spec(spec)
    assert unbudgeted.ok, unbudgeted.error
    base = partition.STATS.copy()
    budgeted = run_spec(replace(spec, mem_budget=500))
    delta = partition.STATS - base
    assert budgeted.ok, budgeted.error
    assert delta.evictions > 0, "budget of 500 rows must force spilling"
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

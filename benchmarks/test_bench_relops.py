"""Relational kernel: microbenchmarks and operation-count gates.

Four families of evidence, all merged into ``BENCH_relops.json``:

* wall-clock microbenchmarks of scan/select, join and group-by at the
  d=0.1 movement-data scale (~20k fact rows), production vs the
  reference oracle (``tests/oracle/relational.py``, the ``naive``
  keys) — production must win by at least 3x on each;
* the join **vector vs scalar** within production: the columnar join
  (``repro.db.vector``) against the scalar hash join it replaces
  (reached by patching the batch gate, the one test-only handle),
  reported without a floor — its production form is the index probe,
  which beats both; selections run one way, as the compiled closure,
  and group-by has one body, so neither has a rung to compare;
* deterministic operation counts (``rows_read``, ``db_rows_copied``,
  MV full-recompute count) under a fixed seeded workload — these are
  exact, machine-independent numbers, so CI gates on them instead of
  on timings;
* a deterministic **batch operation-count gate** against the committed
  golden fixture ``golden_vector_opcounts.json`` (regenerate with
  ``--update-golden``): which join rung engaged, no selection answered
  by any other rung than its closure.

Plus two ledger rows: ``simplicity:tier_switches`` (src lines and tier
knobs before and after the switches were taken out of ``repro.db``) and
``simplicity:unreached_plans_and_rungs`` (what the five ``bench``
workloads reached of the cost planner, the index hints and the group-by
bodies before they were deleted).
"""

import json
import pathlib
import random
import re
import sys
import time

from benchmarks.conftest import ledger_append, write_artifact

from repro.db import Column, Database, TableSchema, col, fastpath, lit, vector
from repro.db.relation import Relation
from tests.oracle import relational as oracle

ARTIFACT = "BENCH_relops.json"
SPEEDUP_FLOOR = 3.0
GOLDEN_VECTOR_OPCOUNTS = (
    pathlib.Path(__file__).parent / "golden_vector_opcounts.json"
)
N_FACT = 20_000  # the d=0.1 order-of-magnitude for one movement table
N_GROUPS = 50
N_PROBE = 2_000

#: Accumulated across the tests of this module; each test re-writes the
#: artifact so the JSON is complete regardless of which subset ran.
RESULTS: dict = {
    "config": {
        "n_fact_rows": N_FACT,
        "n_groups": N_GROUPS,
        "n_probe_rows": N_PROBE,
        "speedup_floor": SPEEDUP_FLOOR,
        "seed": 1,
    }
}


def flush_results() -> None:
    write_artifact(ARTIFACT, json.dumps(RESULTS, indent=2, sort_keys=True))


FACT_SCHEMA = TableSchema(
    "fact",
    [
        Column("id", "INTEGER", nullable=False),
        Column("grp", "INTEGER"),
        Column("val", "DOUBLE"),
        Column("tag", "VARCHAR"),
    ],
    primary_key=("id",),
)


def fact_rows(seed: int = 1) -> list[dict]:
    rng = random.Random(seed)
    return [
        {
            "id": i,
            "grp": rng.randrange(N_GROUPS),
            "val": rng.random() * 100.0,
            "tag": rng.choice("abcd"),
        }
        for i in range(N_FACT)
    ]


def build_fact_db(seed: int = 1) -> Database:
    db = Database("relops_bench")
    table = db.create_table(FACT_SCHEMA)
    for row in fact_rows(seed):
        table.insert(row)
    return db


def probe_rows(seed: int = 1) -> list[dict]:
    rng = random.Random(seed + 1)
    return [{"id": rng.randrange(N_FACT), "x": i} for i in range(N_PROBE)]


def probe_relation(seed: int = 1) -> Relation:
    return Relation(("id", "x"), probe_rows(seed))


def predicate():
    return (col("val") > lit(25.0)) & (col("tag") == lit("a"))


AGGREGATES = {
    "n": ("COUNT", None),
    "total": ("SUM", "val"),
    "mean": ("AVG", "val"),
    "peak": ("MAX", "val"),
}


def workload(db: Database, left: Relation) -> dict[str, int]:
    """The three operator shapes; returns output cardinalities."""
    scanned = db.query("fact").select(predicate())
    joined = left.join(db.query("fact"), on=[("id", "id")])
    grouped = db.query("fact").select(predicate()).group_by(
        ("grp",), AGGREGATES
    )
    return {"scan": len(scanned), "join": len(joined), "group_by": len(grouped)}


def reference_shapes(fact: oracle.Table, left: oracle.Rel) -> dict:
    """The same three shapes through the oracle."""
    pred = predicate()
    return {
        "scan": lambda: oracle.select(fact.to_relation(), pred),
        "join": lambda: oracle.join(left, fact.to_relation(), on=[("id", "id")]),
        "group_by": lambda: oracle.group_by(
            oracle.select(fact.to_relation(), pred), ("grp",), AGGREGATES
        ),
    }


def best_of(fn, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_relops_speedups(benchmark):
    db = build_fact_db()
    left = probe_relation()
    pred = predicate()

    shapes = {
        "scan": lambda: db.query("fact").select(pred),
        "join": lambda: left.join(db.query("fact"), on=[("id", "id")]),
        "group_by": lambda: db.query("fact").select(pred).group_by(
            ("grp",), AGGREGATES
        ),
    }

    reference = reference_shapes(
        oracle.Table(FACT_SCHEMA, fact_rows()),
        oracle.relation(("id", "x"), probe_rows()),
    )

    timings = {}
    for name, fn in shapes.items():
        fast = best_of(fn)
        naive = best_of(reference[name])
        timings[name] = {
            "fast_ms": round(fast * 1000.0, 3),
            "naive_ms": round(naive * 1000.0, 3),
            "speedup": round(naive / fast, 2),
        }
    RESULTS["microbenchmarks"] = timings
    flush_results()
    print("\n" + json.dumps(timings, indent=2))

    for name, timing in timings.items():
        assert timing["speedup"] >= SPEEDUP_FLOOR, (
            f"{name}: production only {timing['speedup']}x over the oracle "
            f"(floor {SPEEDUP_FLOOR}x)"
        )

    benchmark.pedantic(shapes["group_by"], rounds=3, iterations=1)


def test_relops_operation_count_gate():
    """Machine-independent regression gate: exact operation counts.

    The workload is fully seeded, so every count below is a constant of
    the implementation.  A change that starts copying shared rows,
    loses the index probe, or reads more rows than the oracle shows up
    here as an exact-number diff — no timing noise involved.
    """
    db = build_fact_db()
    left = probe_relation()
    base = fastpath.STATS.copy()
    cardinalities = workload(db, left)
    delta = fastpath.STATS - base
    fast = {
        "rows_read": db.table("fact").rows_read,
        "db_rows_copied": delta.rows_copied,
        "rows_shared": delta.rows_shared,
        "index_joins": delta.index_joins,
        "hash_joins": delta.hash_joins,
        "cardinalities": cardinalities,
    }

    fact = oracle.Table(FACT_SCHEMA, fact_rows())
    shapes = reference_shapes(fact, oracle.relation(("id", "x"), probe_rows()))
    base = fastpath.STATS.copy()
    copied_base = oracle.rows_copied
    cardinalities = {name: len(fn().rows) for name, fn in shapes.items()}
    delta = fastpath.STATS - base  # all zero: the oracle shares no code path
    naive = {
        "rows_read": fact.rows_read,
        "db_rows_copied": oracle.rows_copied - copied_base,
        "rows_shared": delta.rows_shared,
        "index_joins": delta.index_joins,
        "hash_joins": delta.hash_joins,
        "cardinalities": cardinalities,
    }
    counts = {"fast": fast, "naive": naive}

    # Identical answers, identical accounting: production charges
    # scan-equivalent reads even when an index answered the probe.
    assert fast["cardinalities"] == naive["cardinalities"]
    assert fast["rows_read"] == naive["rows_read"]
    # The gate proper: selections share instead of copy, so production's
    # copies are exactly the rows materialized by join + group-by.
    expected_copies = (
        fast["cardinalities"]["join"] + fast["cardinalities"]["group_by"]
    )
    assert fast["db_rows_copied"] == expected_copies
    assert fast["index_joins"] == 1 and fast["hash_joins"] == 0
    assert naive["index_joins"] == 0 and naive["rows_shared"] == 0
    assert fast["db_rows_copied"] < naive["db_rows_copied"]

    RESULTS["operation_counts"] = counts
    flush_results()


def plain_copy(relation: Relation) -> Relation:
    """Detach a relation from its table snapshot (forces the hash/vector
    join path instead of the index probe)."""
    return Relation(relation.columns, [dict(r) for r in relation.rows])


def test_vector_speedups(benchmark, monkeypatch):
    """The columnar join vs the scalar hash join it replaces."""
    plain_left = plain_copy(probe_relation())
    plain_right = plain_copy(build_fact_db().query("fact"))

    def join():
        return plain_left.join(plain_right, on=[("id", "id")])

    monkeypatch.setattr(vector, "BATCH_THRESHOLD", 1)
    vectored = best_of(join)
    monkeypatch.setattr(vector, "BATCH_THRESHOLD", sys.maxsize)
    scalar = best_of(join)
    timings = {
        "join": {
            "vector_ms": round(vectored * 1000.0, 3),
            "scalar_ms": round(scalar * 1000.0, 3),
            "speedup": round(scalar / vectored, 2),
        }
    }
    RESULTS["vector_microbenchmarks"] = timings
    flush_results()
    print("\n" + json.dumps(timings, indent=2))

    monkeypatch.setattr(vector, "BATCH_THRESHOLD", 1)
    benchmark.pedantic(join, rounds=3, iterations=1)


def vector_workload_counts() -> dict:
    """The batched shapes under a fixed seed; exact counter deltas."""
    db = build_fact_db()
    left = probe_relation()
    pred = predicate()
    base = fastpath.STATS.copy()
    scanned = db.table("fact").scan(pred)
    fact_rel = db.query("fact")
    filtered = fact_rel.select(pred)
    plain_left = plain_copy(left)
    plain_right = plain_copy(fact_rel)
    joined = plain_left.join(plain_right, on=[("id", "id")])
    index_joined = left.join(db.query("fact"), on=[("id", "id")])
    delta = fastpath.STATS - base
    return {
        "cardinalities": {
            "scan": len(scanned),
            "filter": len(filtered),
            "join": len(joined),
            "index_join": len(index_joined),
        },
        "vector_filters": delta.vector_filters,
        "vector_joins": delta.vector_joins,
        "vector_fallbacks": delta.vector_fallbacks,
        "column_builds": delta.column_builds,
        "index_joins": delta.index_joins,
        "hash_joins": delta.hash_joins,
        "rows_copied": delta.rows_copied,
        "rows_shared": delta.rows_shared,
    }


def test_vector_operation_count_gate(update_golden, monkeypatch):
    """Machine-independent CI gate on the batch kernels.

    The workload is fully seeded, so every counter below is a constant
    of the implementation: which join rung engaged (and that the index
    probe still beats the vector join), and that both selections ran
    their compiled closure.  Compared against the
    committed ``golden_vector_opcounts.json``; regenerate after an
    intentional kernel change with ``--update-golden``.
    """
    monkeypatch.setattr(vector, "BATCH_THRESHOLD", 1)
    counts = vector_workload_counts()

    # Structural invariants, independent of the golden numbers.
    assert counts["vector_fallbacks"] == 0
    assert counts["vector_filters"] == 0  # scan and select run the closure
    assert counts["vector_joins"] == 1  # the detached-copy join only
    assert counts["index_joins"] == 1 and counts["hash_joins"] == 0
    assert counts["cardinalities"]["scan"] == counts["cardinalities"]["filter"]
    assert counts["cardinalities"]["join"] == counts["cardinalities"]["index_join"]

    RESULTS["vector_operation_counts"] = counts
    flush_results()

    if update_golden:
        GOLDEN_VECTOR_OPCOUNTS.write_text(
            json.dumps(counts, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    assert GOLDEN_VECTOR_OPCOUNTS.exists(), (
        f"golden fixture missing: {GOLDEN_VECTOR_OPCOUNTS} — generate it "
        "with --update-golden"
    )
    golden = json.loads(GOLDEN_VECTOR_OPCOUNTS.read_text(encoding="utf-8"))
    assert counts == golden


SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


def test_tier_switch_ledger_row():
    """``simplicity:tier_switches``: no tier switch comes back.

    The ledger row records what taking the switches out bought, as
    measured when they went (docs/perf-log/PR-15.md); it is history and
    this test leaves it as committed.  What stays true is asserted: the
    one environment variable under ``src/repro/db`` names the spill
    directory, not a tier.
    """
    env_knobs = sorted(
        {
            name
            for path in (SRC / "db").glob("*.py")
            for name in re.findall(r"REPRO_[A-Z_]+", path.read_text("utf-8"))
        }
    )
    assert env_knobs == ["REPRO_SPILL_DIR"]


def test_unreached_plans_ledger_row():
    """``simplicity:unreached_plans_and_rungs``: what was deleted, and
    the traffic that decided it.

    The counts were taken on the parent tree (seed 5; 6 periods each of
    ``classic`` / ``synth`` / ``budget`` / ``durable`` at the ``bench``
    knobs, 4 ``served`` session specs, one per engine;
    docs/perf-log/PR-23.md has the scripts' output) and cannot be taken
    again — the planner is gone.  The *after* side is read from the
    tree, so the row, and this test, moves if a second group-by body or
    the planner comes back.
    """
    import repro.optimizer

    assert not (SRC / "optimizer" / "cost.py").exists()
    assert sorted(repro.optimizer.__all__) == [
        "OptimizationReport", "merge_projections", "optimize_process",
        "parallelize_extracts", "push_down_selections",
    ]
    assert not [name for name in vars(vector) if "group" in name]
    assert not hasattr(Relation, "_group_by_scalar")
    workloads = ("classic", "synth", "budget", "durable", "served")
    ledger_append(
        "simplicity:unreached_plans_and_rungs",
        {
            "src_loc": {"before": 29150, "after": 28025},
            "db_env_vars": {"before": 3, "after": 2},
            "process_global_switches": {"before": 1, "after": 0},
            "group_by_bodies": {"before": 4, "after": 1},
            "deleted": {
                "cost planner with full statistics, 19 classic definitions": {
                    "joins": 11, "reordered": 0, "routed": 0,
                },
                "index-hint routing rule, same definitions": {"routed": 0},
                "Join operators in 45 synth processes of 3 knob strings": 0,
                "readers of the hint on Join": 0,
                "Relation.group_by calls": dict.fromkeys(workloads, 0),
            },
            "kept (the one grouped aggregation the traffic reaches)": {
                "MaterializedView full refreshes": {
                    "classic": 24, "synth": 0, "budget": 24, "durable": 24,
                    "served": 16,
                },
            },
            "unit_ms_p50 (seed 5, 10 pairs, parent -> change, claimed nothing)": {
                "classic": "72.1 -> 72.3", "synth": "89.3 -> 88.5",
                "budget": "96.8 -> 97.1", "durable": "125.3 -> 125.4",
                "served": "49.0 -> 48.6",
            },
            "also 0, left for a benchmark PR (bench/layers.py wraps them)": {
                "grace_joins": dict.fromkeys(workloads, 0),
                "partitioned_filters": dict.fromkeys(workloads, 0),
                "mv_incremental": dict.fromkeys(workloads, 0),
            },
        },
    )

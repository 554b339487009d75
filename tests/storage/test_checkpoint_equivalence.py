"""Differential conformance of shared-row checkpoints and the sealed-run WAL.

The oracle is ``tests/oracle/storage.py``: the durability layer as it
was when every checkpoint deep-copied every row, the WAL copied every
payload and built every record at commit, and reads scanned the tail.
Two identical databases take the same random statement sequence, one
under production ``StorageManager`` / ``RecoveryManager``, one under the
oracle; after every step the WALs must read the same record for record,
every checkpoint must equal the oracle's full capture, and every
recovery must land on the same digest, counters and report — on plain
list storage and store-backed, switched in mid-sequence.
"""

import ast
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Column, Database, TableSchema
from repro.db.active import ViewQuery
from repro.errors import IntegrityError, WalError
from repro.storage import (
    LOAD_COST_PER_ROW,
    REDO_COST_PER_RECORD,
    RecoveryManager,
    StorageManager,
    database_digest,
)
from tests.oracle import storage as oracle
from tests.storage.test_manager import FakeEngine, FakeRecord


def _schema(name):
    return TableSchema(
        name,
        [
            Column("k", "BIGINT", nullable=False),
            Column("v", "VARCHAR"),
            Column("g", "INTEGER"),
        ],
        primary_key=("k",),
    )


#: Shared by both sides (schemas are immutable), so ``create_table``
#: payloads compare equal.  ``t1`` is the table that gets dropped and
#: recreated; ``t0`` backs the materialized view and stays.
SCHEMAS = {name: _schema(name) for name in ("t0", "t1")}
INDEXES = {"by_v": ("v",), "by_g_v": ("g", "v")}


def make_db():
    db = Database("d")
    for schema in SCHEMAS.values():
        db.create_table(schema)
    db.table("t0").create_index("by_v", INDEXES["by_v"])
    db.create_materialized_view("mv", ViewQuery(fact_table="t0"))
    for k in range(3):
        db.insert("t0", {"k": k, "v": "seed", "g": k % 2})
    return db


def _row(k, v):
    return {"k": k, "v": v, "g": k % 2}


def apply(db, op, bulk=True):
    """Run one statement; a refused one reports its error instead.

    ``bulk=False`` spells the bulk upsert as the row-by-row loop it
    replaced (the twin under the oracle runs it that way)."""
    kind, *args = op
    try:
        if kind == "insert":
            table, k, v = args
            db.insert(table, _row(k, v))
        elif kind == "insert_many":
            table, pairs = args
            db.insert_many(table, (_row(k, v) for k, v in pairs))
        elif kind == "upsert":
            table, k, v = args
            db.table(table).upsert(_row(k, v))
        elif kind == "upsert_many":
            table, pairs = args
            rows = (_row(k, v) for k, v in pairs)
            if bulk:
                db.table(table).insert_many(rows, replace=True)
            else:
                for row in rows:
                    db.table(table).upsert(row)
        elif kind == "update":
            table, k, v = args
            db.table(table).update({"v": v}, lambda row: row["k"] <= k)
        elif kind == "delete":
            table, k = args
            db.table(table).delete(lambda row: row["k"] >= k)
        elif kind == "truncate":
            db.table(args[0]).truncate()
        elif kind == "create_index":
            table, index = args
            if not db.table(table).has_index(index):
                db.table(table).create_index(index, INDEXES[index])
        elif kind == "drop_index":
            table, index = args
            if db.table(table).has_index(index):
                db.table(table).drop_index(index)
        elif kind == "recreate":
            db.drop_table("t1")
            db.create_table(SCHEMAS["t1"])
        elif kind == "mv_refresh":
            db.materialized_view("mv").refresh(db)
        elif kind == "mv_invalidate":
            db.materialized_view("mv").invalidate()
        elif kind == "budget":
            db.set_memory_budget(args[0], partition_rows=2)
        else:  # pragma: no cover
            raise AssertionError(kind)
    except IntegrityError as exc:
        return str(exc)
    return None


def live_state(db):
    return (database_digest(db), db.counter_state(), db.list_indexes())


def fields(records):
    return [(r.lsn, r.commit_id, r.target, r.op, r.payload) for r in records]


def wal_reading(wal):
    """Everything a reader can learn from a WAL, errors included."""

    def since(lsn):
        try:
            return fields(wal.records_since(lsn))
        except WalError as exc:
            return str(exc)

    return (
        fields(wal.committed_records()),
        [since(lsn) for lsn in range(-1, wal.last_lsn + 3)],
        wal.open_size,
        wal.tail_size,
        wal.last_lsn,
        wal.oldest_available_lsn,
        wal.records_appended,
        wal.commits,
        wal.discarded,
    )


def assert_same_snapshot(production, reference):
    assert list(production.tables) == list(reference.tables)
    for name, snap in production.tables.items():
        expected = reference.tables[name]
        assert snap.schema is expected.schema
        assert snap.rows == expected.rows, name
        assert snap.indexes == expected.indexes, name
    assert production.views == reference.views
    assert production.row_count == reference.row_count


class Pair:
    """One database under production durability, its twin under the oracle."""

    def __init__(self):
        self.db = make_db()
        self.engine = FakeEngine(self.db)
        self.storage = StorageManager(mode="wal")
        self.storage.attach_engine(self.engine)
        self.twin = make_db()
        self.reference = oracle.Durability(self.twin)
        self.clock = 0.0
        self.commit_id = 0
        self.storage.begin_period(0, self.engine)
        self.snapshots = (
            self.storage.checkpoint_state.databases["d"],
            self.reference.take_checkpoint(),
        )
        self.check()

    @property
    def wal(self):
        return self.storage.wals["d"]

    def check(self):
        assert live_state(self.db) == live_state(self.twin)
        assert wal_reading(self.wal) == wal_reading(self.reference.wal)
        # The latest checkpoint still reads as it did when it was taken.
        assert_same_snapshot(*self.snapshots)

    def commit(self):
        self.clock += 1.0
        self.commit_id += 1
        self.storage.commit_instance(self.engine, FakeRecord(self.clock))
        self.reference.commit(self.commit_id)
        assert self.storage.commits[-1].commit_id == self.commit_id

    def checkpoint(self):
        if self.wal.open_size:  # checkpoints run at instance boundaries
            self.commit()
        self.snapshots = (
            self.storage.take_checkpoint(self.engine, self.clock).databases["d"],
            self.reference.take_checkpoint(),
        )

    def crash_and_recover(self):
        self.storage.on_crash(self.engine)
        self.reference.crash()
        report = RecoveryManager(self.storage).recover(self.engine)
        snapshot_rows, redo_records = self.reference.recover()
        assert report.snapshot_rows == snapshot_rows
        assert report.redo_records == redo_records
        assert report.modeled_cost == (
            snapshot_rows * LOAD_COST_PER_ROW
            + redo_records * REDO_COST_PER_RECORD
        )

    def step(self, op):
        if op == ("commit",):
            self.commit()
        elif op == ("checkpoint",):
            self.checkpoint()
        elif op == ("crash",):
            self.crash_and_recover()
        else:
            assert apply(self.db, op) == apply(self.twin, op, bulk=False), op
        self.check()


tables = st.sampled_from(sorted(SCHEMAS))
keys = st.integers(0, 5)
values = st.sampled_from("abc")
indexes = st.sampled_from(sorted(INDEXES))
op_strategy = st.one_of(
    st.tuples(st.just("insert"), tables, keys, values),
    st.tuples(
        st.just("insert_many"),
        tables,
        st.lists(st.tuples(keys, values), max_size=4),
    ),
    st.tuples(st.just("upsert"), tables, keys, values),
    st.tuples(
        st.just("upsert_many"),
        tables,
        st.lists(st.tuples(keys, values), max_size=4),
    ),
    st.tuples(st.just("update"), tables, keys, values),
    st.tuples(st.just("delete"), tables, keys),
    st.tuples(st.just("truncate"), tables),
    st.tuples(st.just("create_index"), tables, indexes),
    st.tuples(st.just("drop_index"), tables, indexes),
    st.just(("recreate",)),
    st.just(("mv_refresh",)),
    st.just(("mv_invalidate",)),
    st.tuples(st.just("budget"), st.sampled_from([None, 4])),
    st.just(("commit",)),
    st.just(("checkpoint",)),
    st.just(("crash",)),
)


class TestDurabilityMatchesTheOracle:
    @settings(max_examples=250, deadline=None)
    @given(ops=st.lists(op_strategy, max_size=40))
    def test_random_sequences(self, ops):
        pair = Pair()
        for op in ops:
            pair.step(op)
        # Whatever happened, one more crash converges on the same state.
        pair.crash_and_recover()
        pair.check()

    def test_every_statement_kind_between_checkpoint_commit_and_crash(self):
        """One fixed walk through every op, so a failure here names the
        step instead of a shrunk example."""
        pair = Pair()
        for op in [
            ("insert", "t1", 1, "a"),
            ("insert_many", "t1", [(2, "a"), (3, "b"), (2, "dup"), (4, "c")]),
            ("commit",),
            ("upsert", "t1", 2, "hit"),
            ("upsert", "t1", 5, "miss"),
            ("upsert_many", "t1", [(3, "hit"), (6, "miss"), (6, "again")]),
            ("upsert_many", "t0", [(1, "hit"), (4, "miss")]),
            ("create_index", "t1", "by_g_v"),
            ("checkpoint",),
            ("drop_index", "t1", "by_g_v"),
            ("checkpoint",),
            ("update", "t0", 1, "c"),
            ("mv_refresh",),
            ("commit",),
            ("delete", "t0", 2),
            ("crash",),
            ("budget", 4),
            ("recreate",),
            ("insert", "t1", 1, "b"),
            ("commit",),
            ("truncate", "t0"),
            ("mv_invalidate",),
            ("checkpoint",),
            ("insert", "t0", 0, "a"),
            ("crash",),
            ("budget", None),
            ("checkpoint",),
        ]:
            pair.step(op)
        assert pair.wal.records_appended == pair.reference.wal.records_appended > 0
        assert pair.storage.recoveries == 2


def test_oracle_is_independent_of_the_code_it_checks():
    source = pathlib.Path(oracle.__file__).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not imported & {
        "repro.storage",
        "repro.storage.snapshot",
        "repro.storage.wal",
        "repro.storage.manager",
        "repro.storage.recovery",
        "repro.storage.digest",
        "repro.engine.base",
    }

"""Differential conformance of shared-row checkpoints and the sealed-run WAL.

The oracle is ``tests/oracle/storage.py``: the durability layer as it
was when every checkpoint deep-copied every row, the WAL copied every
payload and built every record at commit, and reads scanned the tail,
and when every checkpoint copied the engine's record history and every
commit kept its own runtime and counter capture.  Two identical
databases and engines take the same random sequence of statements,
commits, checkpoints, periods, cleared histories, crashes and
failovers, one under production ``StorageManager`` / ``RecoveryManager``
/ ``ClusterManager``, one under the oracle; after every step the WALs
must read the same record for record, every checkpoint must equal the
oracle's full capture, and every recovery must land on the same digest,
counters, engine records, runtime state and report — on plain list
storage and store-backed, switched in mid-sequence.
"""

import ast
import pathlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterConfig, ClusterManager
from repro.db import Column, Database, TableSchema
from repro.db.active import ViewQuery
from repro.engine.base import InstanceHistory
from repro.errors import EngineCrashed, IntegrityError, WalError
from repro.services.network import Network
from repro.storage import (
    LOAD_COST_PER_ROW,
    REDO_COST_PER_RECORD,
    RecoveryManager,
    StorageManager,
    landscape_digest,
)
from repro.toolsuite import ScaleFactors
from tests.oracle import storage as oracle
from tests.storage.test_manager import FakeEngine, record_at


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
#: payloads compare equal.  ``t0`` backs the materialized view.
SCHEMAS = {name: _schema(name) for name in ("t0", "t1")}


def make_db():
    db = Database("d")
    for schema in SCHEMAS.values():
        db.create_table(schema)
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
    return (landscape_digest([db]), db.counter_state())


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
    assert production.views == reference.views
    assert production.row_count == reference.row_count


def fresh_runtime():
    return {"worker_free": [], "in_system": [], "next_instance_id": 1}


def engine_state(engine):
    return engine.records, engine.runtime_state()


class Pair:
    """One database and engine under production durability, their twins
    under the oracle.

    ``clustered`` puts a ``hosts``-host ``ClusterManager`` on the production
    side, so that a ``failover`` step runs its promotion and engine
    restore instead of the ``RecoveryManager``; the oracle recovers the
    twin the one way it knows, and both must land on the same state.
    """

    def __init__(self, clustered=False, hosts=3):
        self.db = make_db()
        self.engine = FakeEngine(self.db)
        self.storage = StorageManager(mode="wal")
        self.storage.attach_engine(self.engine)
        self.cluster = None
        if clustered:
            self.cluster = ClusterManager(
                ClusterConfig(hosts=hosts, replicas=1), self.storage,
                Network(seed=0), ScaleFactors(), seed=0,
            )
        self.twin = make_db()
        self.twin_engine = FakeEngine(self.twin)
        self.reference = oracle.Durability(self.twin, self.twin_engine)
        self.clock = 0.0
        self.commit_id = 0
        self.period = -1
        self.begin_period()
        self.check()

    @property
    def wal(self):
        return self.storage.wals["d"]

    def check(self):
        assert live_state(self.db) == live_state(self.twin)
        assert wal_reading(self.wal) == wal_reading(self.reference.wal)
        assert engine_state(self.engine) == engine_state(self.twin_engine)
        # The latest checkpoint still reads as it did when it was taken:
        # its rows, and the record history below its watermark.
        assert_same_snapshot(*self.snapshots)
        checkpoint = self.storage.checkpoint_state
        assert (
            checkpoint.engine_records[: checkpoint.engine_record_count]
            == self.reference.engine_records
        )

    def begin_period(self):
        self.period += 1
        self.storage.begin_period(self.period, self.engine)
        if self.cluster is not None:
            self.cluster.begin_period(self.period)
        self.snapshots = (
            self.storage.checkpoint_state.databases["d"],
            self.reference.begin_period(),
        )

    def commit(self):
        """One instance finishes on both engines: its record is
        appended, the runtime moves on, and the commit is made."""
        self.clock += 1.0
        self.commit_id += 1
        record = record_at(self.clock)
        runtime = {"worker_free": [self.clock], "in_system": [self.clock],
                   "next_instance_id": self.commit_id + 1}
        for engine in (self.engine, self.twin_engine):
            engine.records.append(record)
            engine.restore_runtime_state(runtime)
        self.storage.commit_instance(self.engine, record)
        self.reference.commit(self.commit_id, record, self.clock)
        assert self.storage.commits[-1].commit_id == self.commit_id

    def checkpoint(self):
        if self.wal.open_size:  # checkpoints run at instance boundaries
            self.commit()
        self.snapshots = (
            self.storage.take_checkpoint(self.engine, self.clock).databases["d"],
            self.reference.take_checkpoint(self.clock),
        )

    def clear_records(self):
        self.engine.clear_records()
        self.twin_engine.clear_records()

    def crash(self):
        """What ``IntegrationEngine.crash`` does to the volatile state."""
        for engine in (self.engine, self.twin_engine):
            engine.records = InstanceHistory()
            engine.restore_runtime_state(fresh_runtime())
        self.storage.on_crash(self.engine)
        self.reference.crash()

    def crash_and_recover(self):
        self.crash()
        report = RecoveryManager(self.storage).recover(self.engine)
        expected = self.reference.recover()
        assert report.modeled_cost == (
            expected["snapshot_rows"] * LOAD_COST_PER_ROW
            + expected["redo_records"] * REDO_COST_PER_RECORD
        )
        stated = {
            name: value for name, value in vars(report).items()
            if name not in ("wall_ms", "modeled_cost")
        }
        assert stated == {"period": self.period, "databases": 1, **expected}

    def crash_and_fail_over(self):
        if self.cluster is None or len(self.cluster.alive_hosts) < 2:
            self.crash_and_recover()
            return
        self.crash()
        self.storage.reattach_engine(self.engine)
        self.cluster.failover(self.engine, EngineCrashed("x", at=self.clock))
        self.reference.recover()

    def step(self, op):
        if op == ("commit",):
            self.commit()
        elif op == ("checkpoint",):
            self.checkpoint()
        elif op == ("crash",):
            self.crash_and_recover()
        elif op == ("failover",):
            self.crash_and_fail_over()
        elif op == ("period",):
            self.begin_period()
        elif op == ("clear_records",):
            self.clear_records()
        else:
            assert apply(self.db, op) == apply(self.twin, op, bulk=False), op
        self.check()


tables = st.sampled_from(sorted(SCHEMAS))
keys = st.integers(0, 5)
values = st.sampled_from("abc")
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
    st.just(("mv_refresh",)),
    st.just(("mv_invalidate",)),
    st.tuples(st.just("budget"), st.sampled_from([None, 4])),
    st.just(("commit",)),
    st.just(("checkpoint",)),
    st.just(("crash",)),
    st.just(("failover",)),
    st.just(("period",)),
    st.just(("clear_records",)),
)


def walk(ops, clustered=False, hosts=3):
    pair = Pair(clustered, hosts)
    for op in ops:
        pair.step(op)
    return pair


class TestDurabilityMatchesTheOracle:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(ops=st.lists(op_strategy, max_size=40), clustered=st.booleans())
    def test_random_sequences(self, ops, clustered):
        pair = walk(ops, clustered)
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
            ("checkpoint",),
            ("update", "t0", 1, "c"),
            ("mv_refresh",),
            ("commit",),
            ("delete", "t0", 2),
            ("crash",),
            ("budget", 4),
            ("insert", "t1", 7, "b"),
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


class TestRecordHistoryAcrossTheWatermark:
    """Fixed walks over what the watermark must get right: a history
    spanning earlier periods, a prefix truncated twice, a history that
    was cleared, and the failover's engine restore."""

    def test_crash_after_two_periods_and_two_checkpoints(self):
        pair = walk([
            ("insert", "t1", 1, "a"), ("commit",), ("commit",),
            ("period",),
            ("insert", "t1", 2, "b"), ("commit",), ("checkpoint",),
            ("period",),
            ("update", "t1", 2, "c"), ("commit",), ("checkpoint",),
            ("insert", "t0", 4, "d"), ("commit",),
            ("crash",),
        ])
        assert pair.storage.checkpoints == 5 and pair.period == 2
        assert len(pair.engine.records) == 5

    def test_two_crashes_in_one_checkpoint_interval(self):
        pair = walk([
            ("commit",), ("checkpoint",),
            ("insert", "t1", 1, "a"), ("commit",),
            ("crash",),
            ("insert", "t1", 2, "b"), ("commit",),
            ("insert", "t1", 3, "c"),  # never committed
            ("crash",),
        ])
        assert pair.storage.recoveries == 2
        assert pair.storage.checkpoint_state.engine_record_count == 1
        assert [r.completion for r in pair.engine.records] == [1.0, 2.0, 3.0]

    def test_cleared_history_then_a_crash(self):
        pair = walk([
            ("commit",), ("commit",),
            ("period",),
            ("clear_records",),
            ("commit",),
            ("crash",),
            ("commit",), ("checkpoint",), ("clear_records",), ("commit",),
            ("crash",),
        ])
        # A crash restores the history the checkpoint saw, clearing or not.
        assert [r.completion for r in pair.engine.records] == [
            1.0, 2.0, 3.0, 4.0, 5.0
        ]

    def test_failover_restores_the_engine_like_recovery(self):
        pair = walk([
            ("insert", "t1", 1, "a"), ("commit",), ("period",),
            ("insert", "t1", 2, "b"), ("commit",), ("checkpoint",),
            ("update", "t1", 2, "c"), ("commit",),
            ("failover",),
            ("insert", "t0", 5, "e"), ("commit",),
            ("failover",),
        ], clustered=True)
        assert len(pair.cluster.failover_reports) == 2
        assert pair.storage.recoveries == 0
        assert len(pair.engine.records) == 4

    def test_failover_hands_over_views_like_recovery(self):
        """A view refreshed before later writes keeps the content of its
        refresh, a checkpoint recomputes it, and a follower reseeded by
        one failover hands over the promoted content at the next."""
        stale = [("mv_refresh",), ("delete", "t0", 0), ("commit",)]
        pair = walk(stale + [("failover",)] * 4, clustered=True, hosts=5)
        reports = pair.cluster.failover_reports
        assert reports[2].replicas_reseeded == 1 and reports[3].promoted
        pair = walk([
            ("mv_refresh",), ("upsert", "t0", 0, "a"), ("checkpoint",),
            ("failover",),
        ], clustered=True)
        rows = pair.db.materialized_view("mv").snapshot.rows
        assert [row["v"] for row in rows] == ["a", "seed", "seed"]


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

"""StorageManager policy tests: recording, checkpoints, group commit."""

import math
import time

import pytest

from repro.db.database import Database
from repro.db.schema import Column, TableSchema
from repro.engine.base import InstanceHistory, InstanceRecord
from repro.engine.costs import CostBreakdown
from repro.errors import RecoveryError, StorageError
from repro.observability.export import export_prometheus
from repro.observability.metrics import MetricsRegistry
from repro.storage import RecoveryManager, StorageManager


def record_at(completion: float) -> InstanceRecord:
    """An instance record finishing at ``completion``: the one field the
    storage layer reads."""
    return InstanceRecord(
        1, "PX", 0, "", completion, completion, completion, CostBreakdown()
    )


class FakeEngine:
    """Just enough engine surface for the StorageManager protocol."""

    def __init__(self, db: Database | None = None):
        self.records = InstanceHistory()
        self.storage = None
        self._db = db
        self._runtime = {"worker_free": [0.0], "in_system": [],
                         "next_instance_id": 1}

    def durable_databases(self):
        return [self._db] if self._db is not None else []

    def runtime_state(self):
        return dict(self._runtime)

    def restore_runtime_state(self, state):
        self._runtime = dict(state)

    def clear_records(self):
        """Rebind the append-only history, as a crash does."""
        self.records = InstanceHistory()


def make_db(name="cdb"):
    db = Database(name)
    db.create_table(
        TableSchema(
            "t",
            [Column("k", "BIGINT", nullable=False), Column("v", "VARCHAR")],
            primary_key=("k",),
        )
    )
    return db


class TestConstruction:
    def test_unknown_mode_rejected(self):
        with pytest.raises(StorageError, match="unknown durability mode"):
            StorageManager(mode="raid0")

    def test_nonpositive_interval_rejected(self):
        with pytest.raises(StorageError, match="checkpoint interval"):
            StorageManager(checkpoint_every=0)


class TestRecordingLifecycle:
    def test_writes_not_journaled_until_period_begins(self):
        storage = StorageManager(mode="wal")
        db = make_db()
        storage.attach(db)
        db.insert("t", {"k": 1})  # initialization, pre-period
        assert storage.wals["cdb"].open_size == 0

    def test_period_begin_checkpoints_then_records(self):
        storage = StorageManager(mode="wal")
        db = make_db()
        engine = FakeEngine(db)
        storage.attach_engine(engine)
        db.insert("t", {"k": 1})
        storage.begin_period(0, engine)
        assert storage.checkpoint_state is not None
        assert storage.checkpoint_state.total_rows == 1
        db.insert("t", {"k": 2})
        assert storage.wals["cdb"].open_size == 1

    def test_pause_suppresses_journaling(self):
        storage = StorageManager(mode="wal")
        db = make_db()
        engine = FakeEngine(db)
        storage.attach_engine(engine)
        storage.begin_period(0, engine)
        storage.pause()
        db.insert("t", {"k": 1})
        assert storage.wals["cdb"].open_size == 0

    def test_reattach_unknown_database_rejected(self):
        storage = StorageManager(mode="wal")
        storage.attach(make_db("known"))
        with pytest.raises(StorageError, match="unknown database"):
            storage.reattach_engine(FakeEngine(make_db("stranger")))


class TestCommitPath:
    def _ready(self, mode="wal", **kwargs):
        storage = StorageManager(mode=mode, **kwargs)
        db = make_db()
        engine = FakeEngine(db)
        storage.attach_engine(engine)
        storage.begin_period(0, engine)
        return storage, db, engine

    def test_commit_seals_open_buffer(self):
        storage, db, engine = self._ready()
        db.insert("t", {"k": 1})
        storage.commit_instance(engine, record_at(10.0))
        wal = storage.wals["cdb"]
        assert wal.open_size == 0
        assert wal.tail_size == 1
        assert storage.commits[0].at == 10.0

    def test_group_commit_window_amortizes_flushes(self):
        storage, db, engine = self._ready()
        for at in (10.0, 12.0, 17.9, 18.0, 30.0):
            db.insert("t", {"k": at})
            storage.commit_instance(engine, record_at(at))
        # Windows: [10,18) covers 10/12/17.9; 18 opens [18,26); 30 opens a third.
        assert storage.commit_count == 5
        assert storage.flushes == 3

    def test_wal_mode_never_auto_checkpoints(self):
        storage, db, engine = self._ready(mode="wal", checkpoint_every=5.0)
        baseline = storage.checkpoints
        for at in (10.0, 100.0):
            db.insert("t", {"k": at})
            storage.commit_instance(engine, record_at(at))
        assert storage.checkpoints == baseline

    def test_snapshot_wal_checkpoints_on_cadence(self):
        storage, db, engine = self._ready(
            mode="snapshot+wal", checkpoint_every=50.0
        )
        baseline = storage.checkpoints
        db.insert("t", {"k": 1})
        storage.commit_instance(engine, record_at(10.0))
        assert storage.checkpoints == baseline  # before the cadence
        db.insert("t", {"k": 2})
        storage.commit_instance(engine, record_at(60.0))
        assert storage.checkpoints == baseline + 1
        assert storage.wal_tail_size == 0  # checkpoint truncated the tail
        assert storage.checkpoint_state.at == 60.0


class TestCheckpointCatchUp:
    """After a checkpoint the next one is due one cadence later — or,
    when several cadences passed in one commit gap, past the commit."""

    def _dues(self, every, commits):
        storage = StorageManager(mode="snapshot+wal", checkpoint_every=every)
        engine = FakeEngine()
        storage.begin_period(0, engine)
        dues = []
        for at in commits:
            storage.commit_instance(engine, record_at(at))
            dues.append(storage._next_checkpoint_due)
        return dues, storage.checkpoints

    def test_non_finite_cadence_rejected(self):
        for bad in (math.nan, math.inf, -math.inf, -1.0):
            with pytest.raises(StorageError, match="checkpoint interval"):
                StorageManager(checkpoint_every=bad)

    def test_terminates_for_a_cadence_below_the_float_spacing(self):
        # ``300.0 + 1e-15 == 300.0``: adding the cadence until the sum
        # passes the commit time would never end.
        started = time.perf_counter()
        dues, checkpoints = self._dues(1e-15, [300.0, 300.5, 4096.0])
        assert checkpoints == 1 + 3  # the baseline, then one per commit
        assert all(math.isfinite(due) for due in dues)
        assert time.perf_counter() - started < 0.5

    def test_a_single_step_is_the_sum_it_always_was(self):
        every = 0.1  # not a binary fraction: additions round
        commits = [0.05, 0.1, 0.19, 0.25, 0.31, 0.4, 0.47, 0.5]
        due, expected = every, []
        for at in commits:
            if at >= due:
                due += every
                assert due > at, "the case under test is the single step"
            expected.append(due)
        assert self._dues(every, commits)[0] == expected

    def test_many_cadences_in_one_gap_are_skipped_at_once(self):
        dues, checkpoints = self._dues(
            50.0, [10.0, 60.0, 70.0, 400.0, 420.0, 455.0]
        )
        assert dues == [50.0, 100.0, 100.0, 450.0, 450.0, 500.0]
        assert checkpoints == 1 + 3


class TestCheckpointAfterRecovery:
    def test_rebuilt_catalog_is_captured_not_the_dead_one(self):
        """A crashed federated engine comes back with a *fresh* catalog
        database whose tables restart their generation count: the
        checkpoint after recovery must hold the rebuilt tables' rows,
        although the dead objects had the same names and generation
        numbers."""
        storage = StorageManager(mode="wal")
        engine = FakeEngine(make_db())
        storage.attach_engine(engine)
        dead = engine._db.table("t")
        dead.insert({"k": 1, "v": "a"})
        dead.insert({"k": 2, "v": "b"})
        storage.begin_period(0, engine)
        assert storage.checkpoint_state.total_rows == 2

        storage.on_crash(engine)
        engine._db = make_db()  # the redeployed, empty catalog
        storage.reattach_engine(engine)
        RecoveryManager(storage).recover(engine)
        rebuilt = engine._db.table("t")
        rebuilt.insert({"k": 3, "v": "c"})
        storage.commit_instance(engine, record_at(1.0))
        assert rebuilt is not dead
        assert rebuilt._generation == dead._generation

        after = storage.take_checkpoint(engine, at=1.0)
        assert [r["k"] for r in after.databases["cdb"].tables["t"].rows] == [
            1, 2, 3
        ]


class TestCrashAndMetrics:
    def test_crash_discards_open_buffers_and_pauses(self):
        storage = StorageManager(mode="wal")
        db = make_db()
        engine = FakeEngine(db)
        storage.attach_engine(engine)
        storage.begin_period(0, engine)
        db.insert("t", {"k": 1})
        storage.on_crash(engine)
        assert storage.wals["cdb"].open_size == 0
        assert not storage.recording
        assert storage.crashes == 1

    def test_recovery_without_checkpoint_rejected(self):
        storage = StorageManager(mode="wal")
        with pytest.raises(RecoveryError, match="no checkpoint"):
            RecoveryManager(storage).recover(FakeEngine())

    def test_metrics_exported_when_registry_enabled(self):
        metrics = MetricsRegistry()
        storage = StorageManager(mode="wal", metrics=metrics)
        db = make_db()
        engine = FakeEngine(db)
        storage.attach_engine(engine)
        storage.begin_period(0, engine)
        db.insert("t", {"k": 1})
        storage.commit_instance(engine, record_at(1.0))
        db.insert("t", {"k": 2})
        storage.on_crash(engine)
        text = export_prometheus(metrics)
        assert "storage_checkpoints_total 1" in text
        assert "storage_wal_records_total 1" in text
        assert "storage_wal_commits_total 1" in text
        assert "storage_wal_flushes_total 1" in text
        assert "storage_crashes_total 1" in text
        assert "storage_wal_discarded_total 1" in text

    def test_stats_flat_dict(self):
        storage = StorageManager(mode="snapshot+wal", checkpoint_every=50.0)
        stats = storage.stats()
        assert stats["mode"] == "snapshot+wal"
        assert stats["checkpoint_every"] == 50.0
        assert stats["crashes"] == 0

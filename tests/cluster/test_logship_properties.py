"""Log-shipping properties, pinned at the storage layer.

The replication contract the cluster rests on, proven without an
engine: replaying any WAL prefix onto a replica seeded from the
period-begin checkpoint reproduces the primary's table digest at that
LSN — across seeds, replication modes and checkpoint cadences — and
the flush-before-truncate barrier is exactly what keeps a lagging
follower's prefix replayable.
"""

import random
from dataclasses import dataclass

import pytest

from repro.cluster import DatabaseReplica, LogShipper
from repro.db.database import Database
from repro.db.schema import Column, TableSchema
from repro.errors import WalError
from repro.services.network import Network
from repro.storage import StorageManager
from repro.storage.digest import database_digest

PRIMARY = "H0"
FOLLOWERS = ("H1", "H2")


@dataclass
class FakeRecord:
    completion: float


class FakeEngine:
    """Just enough engine surface for the StorageManager protocol."""

    def __init__(self, db):
        self.records = []
        self.storage = None
        self._db = db
        self._runtime = {"worker_free": [0.0], "in_system": [],
                         "next_instance_id": 1}

    def durable_databases(self):
        return [self._db]

    def runtime_state(self):
        return dict(self._runtime)

    def restore_runtime_state(self, state):
        self._runtime = dict(state)


class ShipperHook:
    """The StorageManager-side replication hook, minus the cluster.

    Mirrors what ClusterManager does: ship on every group commit, and
    drain every follower before any WAL truncation (the replication
    barrier).  ``barrier=False`` deliberately breaks the contract so a
    test can show why it exists.
    """

    def __init__(self, shipper, barrier=True):
        self.shipper = shipper
        self.barrier = barrier

    def _home_of(self, db_name):
        return PRIMARY

    def on_commit(self, commit_id, at):
        self.shipper.on_commit(commit_id, at, self._home_of)

    def before_truncate(self):
        if self.barrier:
            self.shipper.flush_all(self._home_of)


def make_db(name="shard"):
    db = Database(name)
    db.create_table(
        TableSchema(
            "t",
            [Column("k", "BIGINT", nullable=False), Column("v", "VARCHAR")],
            primary_key=("k",),
        )
    )
    return db


def make_network():
    net = Network(seed=0)
    for host in (PRIMARY, *FOLLOWERS):
        net.add_host(host)
    return net


def seeded_workload(db, storage, engine, seed, commits=12, ops_per_commit=4):
    """Apply a deterministic random op stream; yield after each commit.

    Yields ``(last_lsn, primary_table_digest)`` at every group-commit
    boundary — the ground truth every replica property compares against.
    """
    rng = random.Random(seed)
    next_key = 1000
    at = 0.0
    for _ in range(commits):
        table = db.table("t")
        for _ in range(ops_per_commit):
            keys = [row["k"] for row in table.scan()]
            choice = rng.random()
            if choice < 0.5 or not keys:
                table.insert({"k": next_key, "v": f"v{next_key}"})
                next_key += 1
            elif choice < 0.8:
                victim = rng.choice(keys)
                table.update({"v": f"u{victim}"},
                             lambda row, k=victim: row["k"] == k)
            else:
                victim = rng.choice(keys)
                table.delete(lambda row, k=victim: row["k"] == k)
        at += rng.uniform(5.0, 15.0)
        storage.commit_instance(engine, FakeRecord(completion=at))
        yield (storage.wals[db.name].last_lsn,
               database_digest(db, include_views=False))


def _rig(mode="wal", checkpoint_every=None, seed_rows=5):
    storage = StorageManager(mode=mode, checkpoint_every=checkpoint_every)
    db = make_db()
    engine = FakeEngine(db)
    storage.attach_engine(engine)
    for k in range(seed_rows):
        db.insert("t", {"k": k, "v": f"seed{k}"})
    storage.begin_period(0, engine)
    return storage, db, engine


class TestPrefixReplay:
    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_any_wal_prefix_replays_to_the_primary_digest(self, seed):
        # Pure-WAL mode: nothing truncates, so every prefix of the
        # period's redo log is still addressable afterwards.
        storage, db, engine = _rig(mode="wal")
        baseline = storage.checkpoint_state.databases[db.name]
        boundaries = list(
            seeded_workload(db, storage, engine, seed=seed)
        )
        records = storage.wals[db.name].committed_records()
        assert records, "workload must journal something"
        for lsn, expected in boundaries:
            replica = DatabaseReplica(db.name, FOLLOWERS[0])
            replica.seed(baseline, as_of_lsn=0)
            replica.apply(r for r in records if r.lsn <= lsn)
            assert replica.applied_lsn == lsn
            assert replica.digest() == expected, (
                f"seed {seed}: replica diverged at LSN {lsn}"
            )

    @pytest.mark.parametrize("seed", [7, 29])
    def test_replay_is_idempotent_below_the_applied_lsn(self, seed):
        storage, db, engine = _rig(mode="wal")
        baseline = storage.checkpoint_state.databases[db.name]
        final = list(seeded_workload(db, storage, engine, seed=seed))[-1]
        records = storage.wals[db.name].committed_records()
        replica = DatabaseReplica(db.name, FOLLOWERS[0])
        replica.seed(baseline, as_of_lsn=0)
        replica.apply(records)
        # Re-offering the whole log is a no-op, not a double-apply.
        assert replica.apply(records) == 0
        assert replica.digest() == final[1]


class TestShippedReplicas:
    @pytest.mark.parametrize("seed", [3, 42])
    @pytest.mark.parametrize("checkpoint_every", [30.0, 1000.0])
    def test_sync_shipping_keeps_followers_lockstep(
        self, seed, checkpoint_every
    ):
        storage, db, engine = _rig(
            mode="snapshot+wal", checkpoint_every=checkpoint_every
        )
        shipper = LogShipper(storage, make_network(), mode="sync")
        storage.replication = ShipperHook(shipper)
        for host in FOLLOWERS:
            replica = DatabaseReplica(db.name, host)
            replica.seed(storage.checkpoint_state.databases[db.name],
                         as_of_lsn=0)
            shipper.add_replica(replica)
        for _lsn, _digest in seeded_workload(
            db, storage, engine, seed=seed
        ):
            # Sync mode: zero lag and digest equality at *every* commit
            # boundary, through mid-run checkpoint truncations too.
            assert shipper.lag_records() == 0
            assert shipper.divergence_report() == []
        assert shipper.stats.max_lag_records == 0
        assert shipper.stats.shipped_records > 0

    @pytest.mark.parametrize("seed", [11, 29])
    def test_async_lag_is_bounded_and_drains_to_equality(self, seed):
        storage, db, engine = _rig(mode="wal")
        batch, ops_per_commit = 6, 4
        shipper = LogShipper(
            storage, make_network(), mode="async", lag=1e9, batch=batch
        )
        storage.replication = ShipperHook(shipper)
        replica = DatabaseReplica(db.name, FOLLOWERS[0])
        replica.seed(storage.checkpoint_state.databases[db.name],
                     as_of_lsn=0)
        shipper.add_replica(replica)
        lags = []
        for _lsn, _digest in seeded_workload(
            db, storage, engine, seed=seed, ops_per_commit=ops_per_commit
        ):
            lag = shipper.lag_records()
            lags.append(lag)
            # Bounded by the batch threshold plus one commit's worth of
            # records (a commit lands whole, then triggers the ship).
            assert lag < batch + ops_per_commit
        assert any(lag > 0 for lag in lags), "async must actually lag"
        shipper.flush_all(lambda name: PRIMARY)
        assert shipper.lag_records() == 0
        assert shipper.divergence_report() == []
        # Stats remember the post-ship peak: at least one full commit
        # sat unshipped below the batch threshold.
        assert shipper.stats.max_lag_records >= ops_per_commit

    def test_checkpoint_barrier_makes_lagging_prefixes_replayable(self):
        # Frequent checkpoints + a large async batch: followers would
        # lag across every truncation without the barrier.
        storage, db, engine = _rig(
            mode="snapshot+wal", checkpoint_every=10.0
        )
        shipper = LogShipper(
            storage, make_network(), mode="async", lag=1e9, batch=50
        )
        storage.replication = ShipperHook(shipper, barrier=True)
        replica = DatabaseReplica(db.name, FOLLOWERS[0])
        replica.seed(storage.checkpoint_state.databases[db.name],
                     as_of_lsn=0)
        shipper.add_replica(replica)
        for _ in seeded_workload(db, storage, engine, seed=5):
            pass
        shipper.flush_all(lambda name: PRIMARY)
        assert shipper.divergence_report() == []

    def test_period_boundary_runs_the_barrier_once_and_leaves_no_hole(self):
        # A follower that lags out of period 0 (huge async batch, no
        # end-of-period drain) must be brought level by begin_period's
        # single barrier before the tail is dropped, so period 1 ships
        # on from there without a hole.
        storage, db, engine = _rig(mode="wal")
        shipper = LogShipper(
            storage, make_network(), mode="async", lag=1e9, batch=10_000
        )
        hook = ShipperHook(shipper)
        barriers = []
        flush = hook.before_truncate
        hook.before_truncate = lambda: (barriers.append(1), flush())
        storage.replication = hook
        replica = DatabaseReplica(db.name, FOLLOWERS[0])
        replica.seed(storage.checkpoint_state.databases[db.name],
                     as_of_lsn=0)
        shipper.add_replica(replica)
        *_, (last_lsn, digest) = seeded_workload(db, storage, engine, seed=5)
        assert replica.applied_lsn == 0 < last_lsn  # lagging, all of it

        storage.begin_period(1, engine)
        assert barriers == [1]
        assert replica.applied_lsn == last_lsn
        assert replica.digest() == digest
        wal = storage.wals[db.name]
        assert wal.tail_size == 0 and wal.oldest_available_lsn == last_lsn + 1

        for k in (5000, 5001):
            db.insert("t", {"k": k, "v": "period 1"})
            storage.commit_instance(engine, FakeRecord(completion=float(k)))
        shipper.flush_all(lambda name: PRIMARY)  # no WalError, no hole
        assert replica.applied_lsn == wal.last_lsn > last_lsn
        assert shipper.divergence_report() == []

    def test_without_the_barrier_truncation_strands_the_follower(self):
        # The negative twin: skip the flush barrier and the checkpoint
        # truncates records the lagging follower still needs — its next
        # ship hits an unreplayable hole.  This is the failure mode the
        # before_truncate hook exists to rule out.
        storage, db, engine = _rig(
            mode="snapshot+wal", checkpoint_every=10.0
        )
        shipper = LogShipper(
            storage, make_network(), mode="async", lag=1e9, batch=50
        )
        storage.replication = ShipperHook(shipper, barrier=False)
        replica = DatabaseReplica(db.name, FOLLOWERS[0])
        replica.seed(storage.checkpoint_state.databases[db.name],
                     as_of_lsn=0)
        shipper.add_replica(replica)
        with pytest.raises(WalError):
            for _ in seeded_workload(db, storage, engine, seed=5):
                pass
            shipper.flush_all(lambda name: PRIMARY)

    @pytest.mark.parametrize("mode,batch", [("sync", 1), ("async", 4)])
    def test_shipping_statistics_are_seed_deterministic(self, mode, batch):
        def one_run():
            storage, db, engine = _rig(mode="wal")
            shipper = LogShipper(
                storage, make_network(), mode=mode, lag=1e9, batch=batch
            )
            storage.replication = ShipperHook(shipper)
            replica = DatabaseReplica(db.name, FOLLOWERS[1])
            replica.seed(storage.checkpoint_state.databases[db.name],
                         as_of_lsn=0)
            shipper.add_replica(replica)
            digests = [
                digest for _lsn, digest in
                seeded_workload(db, storage, engine, seed=17)
            ]
            shipper.flush_all(lambda name: PRIMARY)
            return digests, shipper.stats

        digests_a, stats_a = one_run()
        digests_b, stats_b = one_run()
        assert digests_a == digests_b
        assert stats_a == stats_b
        assert stats_a.transfer_cost_eu > 0.0

"""The StorageManager: durability policy for one benchmark run.

Owns one :class:`WriteAheadLog` per attached database, the latest
:class:`Checkpoint`, the *commit log* — one :class:`EngineCommit` per
finished process instance, carrying its instance record — and the
engine's volatile runtime state and exact per-database counters as of
the *last* commit (recovery restores exactly that state, so no earlier
commit keeps a capture).  Together these are sufficient for
:class:`~repro.storage.recovery.RecoveryManager` to rebuild everything
a crash destroys, at a cost in the commits since the checkpoint, not in
the length of the run.

Durability modes:

``wal``
    One baseline checkpoint at period start; redo replays the whole
    period's committed tail.
``snapshot+wal``
    Additionally re-checkpoints every ``checkpoint_every`` simulated
    time units (engine units), truncating the WAL — shorter redo tails,
    costlier steady state: the recovery-time-vs-cadence trade-off the
    benchmark measures.

The zero-overhead contract: with no StorageManager attached nothing in
the hot path changes; with one attached, recording never touches the
counted query paths, never consumes randomness and never shifts the
virtual-time schedule, so fault-free runs stay byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import StorageError
from repro.storage.snapshot import Checkpoint, DatabaseSnapshot
from repro.storage.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import Database
    from repro.engine.base import InstanceRecord, IntegrationEngine
    from repro.observability.metrics import MetricsRegistry
    from repro.storage.recovery import RecoveryReport

#: Valid durability modes (the CLI's ``--durability`` values, sans off).
DURABILITY_MODES = ("wal", "snapshot+wal")

#: Commits within this many engine units of a window's first commit
#: share its one modeled flush (group commit).
GROUP_COMMIT_WINDOW = 8.0

#: Histogram buckets for modeled recovery time, in engine units.
RECOVERY_TIME_BUCKETS = (5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)
#: Histogram buckets for redo-tail length, in records.
REDO_RECORD_BUCKETS = (1.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0)


@dataclass
class EngineCommit:
    """Durable footprint of one committed process instance."""

    commit_id: int
    at: float
    record: "InstanceRecord"


class StorageManager:
    """Durability coordinator between databases, engine and client."""

    def __init__(
        self,
        mode: str = "snapshot+wal",
        checkpoint_every: float | None = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if mode not in DURABILITY_MODES:
            raise StorageError(
                f"unknown durability mode {mode!r}; known: {DURABILITY_MODES}"
            )
        if checkpoint_every is not None and not 0 < checkpoint_every < math.inf:
            raise StorageError(
                "checkpoint interval must be finite and > 0, "
                f"got {checkpoint_every}"
            )
        self.mode = mode
        self.checkpoint_every = checkpoint_every
        self._metrics = metrics
        self.databases: dict[str, "Database"] = {}
        self.wals: dict[str, WriteAheadLog] = {}
        #: Optional cluster replication hook (a ClusterManager): told
        #: about every sealed group commit, and asked to flush every
        #: follower before a checkpoint truncates the WAL tails.
        self.replication = None
        self.checkpoint_state: Checkpoint | None = None
        self.commits: list[EngineCommit] = []
        #: Non-database state rolled back with the databases (a CDC
        #: feed's cursor): ``capture_state()`` / ``restore_state(s)``.
        self.holders: list = []
        #: ``(runtime_state, per-database counter_state, holder states)``
        #: as of the last commit, or of the checkpoint when none followed.
        self._committed: tuple[dict, dict[str, dict], list] = ({}, {}, [])
        self.period = -1
        self._recording = False
        self._next_commit_id = 1
        self._next_checkpoint_due: float | None = None
        self._flush_window_end: float | None = None
        # Lifetime statistics (Monitor.recovery_summary feeds on these).
        self.commit_count = 0
        self.flushes = 0
        self.checkpoints = 0
        self.crashes = 0
        self.recoveries = 0
        self.recovery_reports: list["RecoveryReport"] = []

    # -- attachment --------------------------------------------------------------

    def _sink(self, db_name: str):
        wal = self.wals[db_name]

        def listener(target: str, op: str, payload: tuple) -> None:
            if self._recording:
                wal.append(target, op, payload)

        return listener

    def attach(self, db: "Database") -> None:
        """Put one database under WAL protection (keyed by name)."""
        if db.name not in self.wals:
            self.wals[db.name] = WriteAheadLog(db.name)
        self.databases[db.name] = db
        db.set_change_listener(self._sink(db.name))

    def attach_state(self, holder) -> None:
        """Roll ``holder``'s volatile state back with the databases."""
        self.holders.append(holder)

    def attach_engine(self, engine: "IntegrationEngine") -> None:
        """Wire an engine: its internal databases plus the commit hook."""
        engine.storage = self
        for db in engine.durable_databases():
            self.attach(db)

    def reattach_engine(self, engine: "IntegrationEngine") -> None:
        """Re-bind a crashed engine's rebuilt internal databases.

        After a crash the engine holds *fresh* (empty, redeployed)
        internal databases under the same names; the existing WALs keep
        their committed tails and recovery restores into the new objects.
        """
        engine.storage = self
        for db in engine.durable_databases():
            if db.name not in self.wals:
                raise StorageError(
                    f"cannot reattach unknown database {db.name!r}"
                )
            self.databases[db.name] = db
            db.set_change_listener(self._sink(db.name))

    # -- recording lifecycle -----------------------------------------------------

    def pause(self) -> None:
        """Stop journaling (bulk initialization, snapshot restore)."""
        self._recording = False

    def resume(self) -> None:
        self._recording = True

    @property
    def recording(self) -> bool:
        return self._recording

    def begin_period(self, period: int, engine: "IntegrationEngine") -> None:
        """Start a period: baseline checkpoint over the freshly
        initialized landscape, empty WALs, recording on."""
        self.period = period
        for wal in self.wals.values():
            wal.discard_open()
        self._flush_window_end = None
        self.take_checkpoint(engine, at=0.0)
        self._next_checkpoint_due = (
            self.checkpoint_every
            if self.mode == "snapshot+wal" and self.checkpoint_every
            else None
        )
        self.resume()

    # -- checkpointing -----------------------------------------------------------

    def take_checkpoint(self, engine: "IntegrationEngine", at: float) -> Checkpoint:
        """Capture everything, then truncate the WALs (sharp checkpoint)."""
        checkpoint = Checkpoint(
            at=at,
            period=self.period,
            databases={
                name: DatabaseSnapshot.capture(db)
                for name, db in self.databases.items()
            },
            counters={
                name: db.counter_state()
                for name, db in self.databases.items()
            },
            engine_records=engine.records,
            engine_record_count=len(engine.records),
            engine_runtime=engine.runtime_state(),
        )
        if self.replication is not None:
            self.replication.before_truncate()
        for wal in self.wals.values():
            wal.truncate()
        self.commits.clear()
        self._committed = (
            checkpoint.engine_runtime,
            checkpoint.counters,
            [holder.capture_state() for holder in self.holders],
        )
        self.checkpoint_state = checkpoint
        self.checkpoints += 1
        if self._metrics is not None:
            self._metrics.counter(
                "storage_checkpoints_total",
                help="Checkpoints taken (baseline + periodic)",
            ).inc()
        return checkpoint

    # -- commit path -------------------------------------------------------------

    def commit_instance(
        self, engine: "IntegrationEngine", record: "InstanceRecord"
    ) -> None:
        """Group-commit one finished instance's changes durably."""
        if not self._recording:
            return
        commit_id = self._next_commit_id
        self._next_commit_id += 1
        sealed = 0
        for wal in self.wals.values():
            sealed += wal.commit(commit_id)
        self.commits.append(EngineCommit(commit_id, record.completion, record))
        self._committed = (
            engine.runtime_state(),
            {name: db.counter_state() for name, db in self.databases.items()},
            [holder.capture_state() for holder in self.holders],
        )
        self.commit_count += 1
        at = record.completion
        if self.replication is not None:
            self.replication.on_commit(commit_id, at)
        if self._flush_window_end is None or at >= self._flush_window_end:
            self.flushes += 1
            self._flush_window_end = at + GROUP_COMMIT_WINDOW
            flushed = True
        else:
            flushed = False
        if self._metrics is not None:
            if sealed:
                self._metrics.counter(
                    "storage_wal_records_total",
                    help="Logical WAL records made durable",
                ).inc(sealed)
            self._metrics.counter(
                "storage_wal_commits_total",
                help="Instance commits sealed into the WAL",
            ).inc()
            if flushed:
                self._metrics.counter(
                    "storage_wal_flushes_total",
                    help="Group-commit flushes (window-amortized)",
                ).inc()
        if self._next_checkpoint_due is not None and at >= self._next_checkpoint_due:
            self.take_checkpoint(engine, at)
            every = self.checkpoint_every
            due = self._next_checkpoint_due + every
            if due <= at:
                # Several cadences passed since the last commit: skip
                # them with one division.  Adding ``every`` until the
                # sum passes ``at`` never ends for a cadence below the
                # float spacing at ``due``.
                due += every * ((at - due) // every + 1)
            self._next_checkpoint_due = due

    # -- crash path --------------------------------------------------------------

    def on_crash(self, engine: "IntegrationEngine") -> None:
        """The engine died: drop uncommitted buffers, stop recording."""
        discarded = 0
        for wal in self.wals.values():
            discarded += wal.discard_open()
        self.crashes += 1
        self.pause()
        if self._metrics is not None:
            self._metrics.counter(
                "storage_crashes_total",
                help="Engine crashes taken by the durability layer",
            ).inc()
            if discarded:
                self._metrics.counter(
                    "storage_wal_discarded_total",
                    help="Uncommitted WAL records lost to crashes",
                ).inc(discarded)

    def restore_engine_state(self, engine: "IntegrationEngine") -> None:
        """Put the engine's volatile state back as of the last commit:
        the checkpoint's record history cut back to its watermark and
        extended by one record per commit since, in place (O(commits
        since the checkpoint)); the runtime state; and last the exact
        counters, overwriting what restore and redo accumulated (no
        double counting); the holders' states.  Recovery and failover
        both end with this."""
        checkpoint = self.checkpoint_state
        records = checkpoint.engine_records
        del records[checkpoint.engine_record_count:]
        records.extend(commit.record for commit in self.commits)
        engine.records = records
        runtime, counters, held = self._committed
        engine.restore_runtime_state(runtime)
        for holder, state in zip(self.holders, held):
            holder.restore_state(state)
        for name, state in counters.items():
            db = self.databases.get(name)
            if db is not None:
                db.restore_counter_state(state)

    def note_recovery(self, report: "RecoveryReport") -> None:
        """Book one completed recovery (called by the RecoveryManager)."""
        self.recoveries += 1
        self.recovery_reports.append(report)
        if self._metrics is not None:
            self._metrics.counter(
                "storage_recoveries_total",
                help="Successful crash recoveries",
            ).inc()
            self._metrics.histogram(
                "storage_recovery_time",
                buckets=RECOVERY_TIME_BUCKETS,
                help="Modeled recovery time (snapshot load + redo), "
                     "engine units",
            ).observe(report.modeled_cost)
            self._metrics.histogram(
                "storage_redo_records",
                buckets=REDO_RECORD_BUCKETS,
                help="WAL records replayed per recovery",
            ).observe(float(report.redo_records))

    # -- introspection -----------------------------------------------------------

    @property
    def wal_records_total(self) -> int:
        return sum(wal.records_appended for wal in self.wals.values())

    @property
    def wal_tail_size(self) -> int:
        return sum(wal.tail_size for wal in self.wals.values())

    def stats(self) -> dict:
        """One flat dict for summaries and the CLI."""
        return {
            "mode": self.mode,
            "checkpoint_every": self.checkpoint_every,
            "databases": len(self.databases),
            "commits": self.commit_count,
            "flushes": self.flushes,
            "wal_records": self.wal_records_total,
            "wal_tail": self.wal_tail_size,
            "checkpoints": self.checkpoints,
            "crashes": self.crashes,
            "recoveries": self.recoveries,
        }

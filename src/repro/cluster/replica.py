"""Warm follower replicas maintained by WAL redo replay.

A :class:`DatabaseReplica` is a live, table-only copy of one primary
database on a follower host.  It is seeded from the latest checkpoint
snapshot and then kept warm by replaying the primary's shipped redo
records through :meth:`Database.redo` — the exact replay path crash
recovery uses, so "replica state" and "recovered state" are the same
thing by construction.

Replicas are *table-only*: materialized views are pure functions of
their base tables and their definitions live in engine deployment, so a
follower only tracks each view's population flag (``mv_refresh`` /
``mv_invalidate`` markers in the WAL) and recomputes content at
promotion time, against the restored base tables.  Divergence detection
therefore compares table-only digests (:func:`database_digest` with
``include_views=False``) — identical on a healthy replica at every
commit boundary.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.db.database import Database
from repro.errors import ClusterError
from repro.storage.digest import database_digest
from repro.storage.snapshot import DatabaseSnapshot
from repro.storage.wal import WalRecord

if TYPE_CHECKING:  # pragma: no cover
    pass

#: WAL ops that are view population markers, not table changes.
_VIEW_OPS = ("mv_refresh", "mv_invalidate")


class DatabaseReplica:
    """One follower copy of one database, on one virtual host."""

    def __init__(self, db_name: str, host: str):
        self.db_name = db_name
        self.host = host
        self.db = Database(db_name)
        #: view name -> populated flag, mirrored from WAL markers.
        self.view_state: dict[str, bool] = {}
        #: Last LSN applied (0 = nothing beyond the seeding snapshot).
        self.applied_lsn = 0
        #: Lifetime counters.
        self.records_applied = 0
        self.seeds = 0

    def seed(self, snapshot: DatabaseSnapshot, as_of_lsn: int) -> int:
        """(Re)build the replica from a checkpoint snapshot; returns rows.

        ``as_of_lsn`` is the last LSN the snapshot already contains:
        shipped records at or below it must not be re-applied.
        """
        self.db = Database(self.db_name)
        self.view_state = dict(snapshot.views)
        self.applied_lsn = as_of_lsn
        self.seeds += 1
        return snapshot.restore_tables(self.db)

    def apply(self, records: Iterable[WalRecord]) -> int:
        """Replay shipped redo records in LSN order; returns #applied."""
        applied = 0
        for record in records:
            if record.lsn <= self.applied_lsn:
                continue
            if record.lsn != self.applied_lsn + 1:
                raise ClusterError(
                    f"replica {self.db_name}@{self.host}: replication hole "
                    f"(applied to LSN {self.applied_lsn}, next shipped "
                    f"record is LSN {record.lsn})"
                )
            if record.op in _VIEW_OPS:
                self.view_state[record.target] = record.op == "mv_refresh"
            else:
                self.db.redo(record.target, record.op, record.payload)
            self.applied_lsn = record.lsn
            applied += 1
        self.records_applied += applied
        return applied

    def digest(self) -> str:
        """Table-only content digest, comparable against the primary's."""
        return database_digest(self.db, include_views=False)

    def promote_into(self, target: Database) -> int:
        """Copy this replica's state into the live database object.

        Tables are reconciled (extra tables on the target — committed
        drops the replica already replayed — are removed), then every
        view the target *defines* is set to this replica's tracked
        population state: populated views recompute from the restored
        base tables, exactly like checkpoint restore does.  Returns the
        number of rows restored.
        """
        snapshot = DatabaseSnapshot.capture(self.db)
        for name in list(target.table_names):
            if name not in snapshot.tables:
                target.drop_table(name)
        restored = snapshot.restore_tables(target)
        for name in target.view_names:
            view = target.materialized_view(name)
            if self.view_state.get(name, False):
                view.refresh(target)
            else:
                view.invalidate()
        return restored

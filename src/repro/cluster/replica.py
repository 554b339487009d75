"""Warm follower replicas maintained by WAL redo replay.

A :class:`DatabaseReplica` is a live copy of one primary database on a
follower host.  It is seeded from the latest checkpoint snapshot and
then kept warm by replaying the primary's shipped redo records through
:meth:`Database.redo` — the exact replay path crash recovery uses, so
"replica state" and "recovered state" are the same thing by
construction.

That includes materialized views: a replica deploys its primary's view
definitions, so an ``mv_refresh`` marker recomputes the view against the
tables as they were at the marker, as in recovery.  At each checkpoint
barrier it recomputes its populated views, as restoring that checkpoint
would, and promotion hands the views over with the tables.  A healthy
replica's table-only digest (:func:`repro.storage.digest.database_digest`
with ``include_views=False``) equals the primary's at every commit
boundary; its views may be fresher, recomputed from a checkpoint.
"""

from __future__ import annotations

from typing import Iterable

from repro.db.database import Database
from repro.errors import ClusterError
from repro.storage.snapshot import DatabaseSnapshot
from repro.storage.wal import WalRecord


class DatabaseReplica:
    """One follower copy of one database, on one virtual host."""

    def __init__(self, db_name: str, host: str, primary: Database | None = None):
        self.db_name = db_name
        self.host = host
        self.db = Database(db_name)
        #: The primary's views (name -> definition), deployed on every seed.
        self.views = {
            name: primary.materialized_view(name).definition
            for name in (primary.view_names if primary is not None else ())
        }
        #: Last LSN applied (0 = nothing beyond the seeding snapshot).
        self.applied_lsn = 0
        #: Lifetime counters.
        self.records_applied = 0
        self.seeds = 0

    def seed(
        self,
        snapshot: DatabaseSnapshot,
        as_of_lsn: int,
        views_from: Database | None = None,
    ) -> int:
        """(Re)build the replica from a snapshot; returns rows.

        ``as_of_lsn`` is the last LSN the snapshot already contains:
        shipped records at or below it must not be re-applied.  Views
        recompute from the snapshot's tables, as checkpoint restore does,
        unless ``views_from`` (the live database the snapshot was just
        captured from) lends its view content as it stands.
        """
        self.db = Database(self.db_name)
        for name, definition in self.views.items():
            self.db.create_materialized_view(name, definition)
        self.applied_lsn = as_of_lsn
        self.seeds += 1
        if views_from is None:
            return snapshot.restore_into(self.db)
        restored = snapshot.restore_tables(self.db)
        for name in self.db.view_names:
            self.db.materialized_view(name).adopt(views_from.materialized_view(name))
        return restored

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
            self.db.redo(record.target, record.op, record.payload)
            self.applied_lsn = record.lsn
            applied += 1
        self.records_applied += applied
        return applied

    def recompute_views(self) -> None:
        """Refresh every populated view from the tables as they stand:
        what restoring a checkpoint taken at this LSN does."""
        for name in self.db.view_names:
            view = self.db.materialized_view(name)
            if view.is_populated:
                view.refresh(self.db)

    def promote_into(self, target: Database) -> int:
        """Copy this replica's state into the live database object.

        Tables are restored from the replica, then every view the target
        defines takes this replica's content for it.  Returns the number
        of rows restored.
        """
        snapshot = DatabaseSnapshot.capture(self.db)
        restored = snapshot.restore_tables(target)
        for name in target.view_names:
            target.materialized_view(name).adopt(self.db.materialized_view(name))
        return restored

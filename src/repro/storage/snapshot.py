"""Deterministic snapshots: per-database captures and run checkpoints.

A :class:`DatabaseSnapshot` holds one database's table rows and
materialized-view population state.  Rows are held *by reference*:
:class:`~repro.db.table.Table` replaces a changed row with a new dict
and never mutates a stored one, so the dicts a snapshot shares
with the live table (and with every later restore) cannot change under
it.  View *content* is not held: a view is a pure function of its base
tables, so restore recomputes it — cheaper, and it keeps snapshots
purely logical.

A :class:`Checkpoint` bundles the snapshots of every attached database
with the exact I/O counters and the owning engine's volatile state
(worker heaps, id counters) at one instant.  The engine's instance
records are held as a *watermark*, not a copy: the engine's history
is append-only (a crash rebinds it rather than clearing it), so the
history plus its length at capture time names the history exactly, at
O(1) per checkpoint.  Taking a checkpoint never reads through the
counted query paths (:meth:`Table.dump_rows`), so checkpoint cadence
cannot perturb the cost model — the determinism contract of :mod:`repro.storage`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import RecoveryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.db.database import Database
    from repro.engine.base import InstanceHistory


@dataclass
class TableSnapshot:
    """Rows of one table (schema by reference: :class:`TableSchema` is
    immutable; rows by reference: stored row dicts are never mutated)."""

    schema: Any
    rows: list[dict]


@dataclass
class DatabaseSnapshot:
    """Full logical state of one database at capture time."""

    db_name: str
    tables: dict[str, TableSnapshot] = field(default_factory=dict)
    #: view name -> was it populated at capture time?
    views: dict[str, bool] = field(default_factory=dict)

    @classmethod
    def capture(cls, db: "Database") -> "DatabaseSnapshot":
        snapshot = cls(db_name=db.name)
        for name in db.table_names:
            table = db.table(name)
            snapshot.tables[name] = TableSnapshot(
                schema=table.schema, rows=table.dump_rows()
            )
        for name in db.view_names:
            snapshot.views[name] = db.materialized_view(name).is_populated
        return snapshot

    @property
    def row_count(self) -> int:
        return sum(len(t.rows) for t in self.tables.values())

    def restore_into(self, db: "Database") -> int:
        """Load this snapshot into ``db``; returns rows restored.

        Existing tables are restored *in place* (their triggers survive —
        redeployment owns active logic, the snapshot owns data); missing
        tables (a crashed engine's rebuilt catalog) are recreated from
        the captured schema.  Populated views are recomputed from the
        restored base tables, which is deterministic by construction.
        """
        restored = self.restore_tables(db)
        for name, populated in self.views.items():
            try:
                view = db.materialized_view(name)
            except Exception as exc:
                raise RecoveryError(
                    f"{db.name}: view {name!r} missing after redeploy"
                ) from exc
            if populated:
                view.refresh(db)
            else:
                view.invalidate()
        return restored

    def restore_tables(self, db: "Database") -> int:
        """The table half of :meth:`restore_into`."""
        restored = 0
        for name, snap in self.tables.items():
            if db.has_table(name):
                table = db.table(name)
            else:
                table = db.create_table(snap.schema)
            table.restore_rows(snap.rows)
            restored += len(snap.rows)
        return restored


@dataclass
class Checkpoint:
    """One durable run checkpoint across the whole attached landscape."""

    at: float  # virtual time (engine units) the checkpoint was taken
    period: int
    databases: dict[str, DatabaseSnapshot]
    counters: dict[str, dict]
    #: The engine's live, append-only record history and its length at
    #: capture time: the history is ``engine_records[:engine_record_count]``.
    engine_records: InstanceHistory
    engine_record_count: int
    engine_runtime: dict

    @property
    def total_rows(self) -> int:
        return sum(s.row_count for s in self.databases.values())

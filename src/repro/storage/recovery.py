"""Crash recovery: snapshot restore plus committed-WAL redo.

The protocol is classic redo-only ARIES-lite, adapted to the logical
WAL: (1) restore every attached database from the latest checkpoint,
(2) replay each database's committed redo tail in LSN order, (3) restore
the engine's volatile state — instance records, worker heaps and id
counters — as of the last commit, and (4) overwrite every database's
I/O counters with the last commit's exact values, so replayed work is
never double-counted into the cost model.

Recovery *time* is modeled out of band: the report prices snapshot
reload and redo per row/record, and also measures real wall time, but
neither enters the virtual-time schedule — the recovered run's events
execute at exactly the times the fault-free run would have used, which
is what makes byte-identical convergence provable rather than hopeful.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import RecoveryError
from repro.storage.manager import StorageManager

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.base import IntegrationEngine

#: Modeled cost (engine units) to reload one snapshot row.
LOAD_COST_PER_ROW = 0.02
#: Modeled cost (engine units) to replay one WAL record.
REDO_COST_PER_RECORD = 0.05


@dataclass(frozen=True)
class RecoveryReport:
    """What one recovery did, and what it would have cost."""

    period: int
    databases: int
    snapshot_rows: int
    redo_records: int
    commits_replayed: int
    records_restored: int
    checkpoint_at: float
    recovered_to: float
    modeled_cost: float
    wall_ms: float

    def describe(self) -> str:
        return (
            f"recovery p{self.period}: restored {self.databases} database(s) "
            f"({self.snapshot_rows} snapshot rows), replayed "
            f"{self.redo_records} WAL record(s) across "
            f"{self.commits_replayed} commit(s); engine back to "
            f"t={self.recovered_to:.1f} with {self.records_restored} "
            f"instance record(s); modeled cost {self.modeled_cost:.2f} eu "
            f"({self.wall_ms:.1f} ms wall)"
        )


class RecoveryManager:
    """Rebuilds a consistent run state from a StorageManager's logs."""

    def __init__(self, storage: StorageManager):
        self.storage = storage

    def recover(self, engine: "IntegrationEngine") -> RecoveryReport:
        """Run full redo recovery for ``engine``; returns the report.

        The engine must already be redeployed (fresh process types,
        triggers and procedures) and reattached
        (:meth:`StorageManager.reattach_engine`) so restored data lands
        in the objects the run actually uses.
        """
        storage = self.storage
        checkpoint = storage.checkpoint_state
        if checkpoint is None:
            raise RecoveryError(
                "no checkpoint to recover from — was durability enabled "
                "and the period begun?"
            )
        started = time.perf_counter()
        storage.pause()  # restore/redo must not re-journal itself

        snapshot_rows = 0
        for name, db in storage.databases.items():
            snapshot = checkpoint.databases.get(name)
            if snapshot is None:
                raise RecoveryError(
                    f"checkpoint has no snapshot for database {name!r}"
                )
            snapshot_rows += snapshot.restore_into(db)

        redo_records = 0
        for name, wal in storage.wals.items():
            db = storage.databases.get(name)
            if db is None:
                raise RecoveryError(f"database {name!r} not attached")
            for record in wal.committed_records():
                db.redo(record.target, record.op, record.payload)
                redo_records += 1

        storage.restore_engine_state(engine)
        commits = storage.commits
        storage.resume()
        report = RecoveryReport(
            period=storage.period,
            databases=len(storage.databases),
            snapshot_rows=snapshot_rows,
            redo_records=redo_records,
            commits_replayed=len(commits),
            records_restored=len(engine.records),
            checkpoint_at=checkpoint.at,
            recovered_to=commits[-1].at if commits else checkpoint.at,
            modeled_cost=(
                snapshot_rows * LOAD_COST_PER_ROW
                + redo_records * REDO_COST_PER_RECORD
            ),
            wall_ms=(time.perf_counter() - started) * 1000.0,
        )
        storage.note_recovery(report)
        return report

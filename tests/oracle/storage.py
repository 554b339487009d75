"""The reference model of the durability layer.

These are the bodies ``repro.storage`` and ``IntegrationEngine.deploy``
had before durability stopped copying what cannot change, verbatim:
:func:`capture` deep-copies every row of every table at every
checkpoint, :class:`WriteAheadLog` copies each payload on ``append``,
wraps each entry in a record on ``commit`` and answers ``records_since``
with a scan of the whole tail, and :class:`Deployment` re-validates the
whole deployed set on every ``deploy``.  Production shares rows, seals
buffers as runs, builds records on read and validates each definition
once; ``tests/storage/test_checkpoint_equivalence.py`` and
``tests/engine/test_deploy_equivalence.py`` hold it to *this* module:
same snapshots, same records with the same LSNs, same recovered state
and counters, same errors at the same calls.

:class:`Durability` is the checkpoint / commit / crash / recover
protocol of ``StorageManager`` + ``RecoveryManager`` for one database,
without their policy (modes, cadence, group commit, metrics).  It keeps
the engine's volatile state the way it was kept before checkpoints held
a watermark into the record list: every checkpoint copies the engine's
whole record history, and every commit keeps its own runtime and
counter capture.

Independence is the point: nothing here may import
``repro.storage.snapshot`` or ``repro.storage.wal`` (the database,
process and error types are shared vocabulary, not implementation).

:func:`database_digest` / :func:`landscape_digest` are the digest as it
was when every row was sorted, ``repr``-ed and hashed on its own; the
production digest formats rows from the schema's column names and
hashes them in chunks, and ``tests/storage/test_digest_equivalence.py``
holds it to the same hex.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.db.database import Database
from repro.errors import DeploymentError, RecoveryError, WalError
from repro.mtm.process import ProcessType, assert_valid_definition

# ------------------------------------------------------------------ snapshots


@dataclass
class TableCapture:
    schema: Any
    rows: list[dict]
    indexes: list[tuple[str, tuple[str, ...]]]


@dataclass
class DatabaseCapture:
    db_name: str
    tables: dict[str, TableCapture] = field(default_factory=dict)
    views: dict[str, bool] = field(default_factory=dict)

    @property
    def row_count(self) -> int:
        return sum(len(t.rows) for t in self.tables.values())


def capture(db: Database) -> DatabaseCapture:
    """A full, detached copy: one fresh dict per row, every table."""
    snapshot = DatabaseCapture(db_name=db.name)
    for name in db.table_names:
        table = db.table(name)
        snapshot.tables[name] = TableCapture(
            schema=table.schema,
            rows=[dict(row) for row in table],
            indexes=[
                (index_name, table.index_columns(index_name))
                for index_name in table.index_names
            ],
        )
    for name in db.view_names:
        snapshot.views[name] = db.materialized_view(name).is_populated
    return snapshot


def restore(snapshot: DatabaseCapture, db: Database) -> int:
    """Load ``snapshot`` into ``db`` from fresh row copies; returns rows."""
    restored = 0
    for name, snap in snapshot.tables.items():
        if db.has_table(name):
            table = db.table(name)
        else:
            table = db.create_table(snap.schema)
        table.restore_rows([dict(row) for row in snap.rows])
        restored += len(snap.rows)
        wanted = dict(snap.indexes)
        for index_name in table.index_names:
            if table.index_columns(index_name) != wanted.get(index_name):
                table.drop_index(index_name)
        for index_name, columns in snap.indexes:
            if not table.has_index(index_name):
                table.create_index(index_name, columns)
    for name, populated in snapshot.views.items():
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


# ------------------------------------------------------------------------ WAL


@dataclass(frozen=True)
class WalRecord:
    lsn: int
    commit_id: int
    target: str
    op: str
    payload: tuple


def _copy_payload(payload: tuple) -> tuple:
    return tuple(
        dict(part) if isinstance(part, dict) else part for part in payload
    )


class WriteAheadLog:
    """One eager, copying record per change; every read scans the tail."""

    def __init__(self, db_name: str):
        self.db_name = db_name
        self._open: list[tuple[str, str, tuple]] = []
        self._records: list[WalRecord] = []
        self._next_lsn = 1
        self.records_appended = 0
        self.commits = 0
        self.discarded = 0

    def append(self, target: str, op: str, payload: tuple) -> None:
        self._open.append((target, op, _copy_payload(payload)))

    def commit(self, commit_id: int) -> int:
        sealed = 0
        for target, op, payload in self._open:
            self._records.append(
                WalRecord(self._next_lsn, commit_id, target, op, payload)
            )
            self._next_lsn += 1
            sealed += 1
        self._open.clear()
        self.records_appended += sealed
        self.commits += 1
        return sealed

    def discard_open(self) -> int:
        dropped = len(self._open)
        self._open.clear()
        self.discarded += dropped
        return dropped

    @property
    def open_size(self) -> int:
        return len(self._open)

    @property
    def tail_size(self) -> int:
        return len(self._records)

    def committed_records(self) -> list[WalRecord]:
        return list(self._records)

    @property
    def last_lsn(self) -> int:
        return self._next_lsn - 1

    @property
    def oldest_available_lsn(self) -> int:
        return self._records[0].lsn if self._records else self._next_lsn

    def records_since(self, lsn: int) -> list[WalRecord]:
        if lsn + 1 < self.oldest_available_lsn:
            raise WalError(
                f"wal[{self.db_name}]: records after LSN {lsn} requested "
                f"but the tail starts at LSN {self.oldest_available_lsn} "
                f"(truncated by a checkpoint)"
            )
        return [record for record in self._records if record.lsn > lsn]

    def truncate(self) -> int:
        if self._open:
            raise WalError(
                f"wal[{self.db_name}]: cannot truncate with "
                f"{len(self._open)} uncommitted record(s) open"
            )
        dropped = len(self._records)
        self._records.clear()
        return dropped


# ----------------------------------------------------- checkpoint and recovery


@dataclass
class Commit:
    """One commit with its own capture of the engine and the counters."""

    at: float
    record: Any
    runtime: dict
    counters: dict


class Durability:
    """Checkpoint, commit, crash and redo recovery of one database, and
    of an engine's records, runtime state and the counters."""

    def __init__(self, db: Database, engine: Any):
        self.db = db
        self.engine = engine
        self.wal = WriteAheadLog(db.name)
        self.recording = False
        self.checkpoint: DatabaseCapture | None = None
        self.checkpoint_at = 0.0
        self.counters: dict | None = None
        self.engine_records: list = []
        self.engine_runtime: dict | None = None
        self.commits: list[Commit] = []
        db.set_change_listener(self._listen)

    def _listen(self, target: str, op: str, payload: tuple) -> None:
        if self.recording:
            self.wal.append(target, op, payload)

    def take_checkpoint(self, at: float = 0.0) -> DatabaseCapture:
        self.checkpoint = capture(self.db)
        self.checkpoint_at = at
        self.counters = self.db.counter_state()
        self.engine_records = list(self.engine.records)
        self.engine_runtime = self.engine.runtime_state()
        self.wal.truncate()
        self.commits = []
        self.recording = True
        return self.checkpoint

    def begin_period(self) -> DatabaseCapture:
        """A period starts: uncommitted buffers go, a baseline is taken."""
        self.wal.discard_open()
        return self.take_checkpoint(at=0.0)

    def commit(self, commit_id: int, record: Any, at: float) -> int:
        sealed = self.wal.commit(commit_id)
        self.commits.append(
            Commit(at, record, self.engine.runtime_state(),
                   self.db.counter_state())
        )
        return sealed

    def crash(self) -> None:
        self.wal.discard_open()
        self.recording = False

    def recover(self) -> dict:
        """Restore + redo + engine state; returns what a recovery report
        states (``snapshot_rows``, ``redo_records``, ``commits_replayed``,
        ``records_restored``, ``checkpoint_at``, ``recovered_to``)."""
        snapshot_rows = restore(self.checkpoint, self.db)
        redo_records = 0
        for record in self.wal.committed_records():
            self.db.redo(record.target, record.op, record.payload)
            redo_records += 1
        last = self.commits[-1] if self.commits else Commit(
            self.checkpoint_at, None, self.engine_runtime, self.counters
        )
        self.engine.records = list(self.engine_records) + [
            commit.record for commit in self.commits
        ]
        self.engine.restore_runtime_state(last.runtime)
        self.db.restore_counter_state(last.counters)
        self.recording = True
        return {
            "snapshot_rows": snapshot_rows,
            "redo_records": redo_records,
            "commits_replayed": len(self.commits),
            "records_restored": len(self.engine.records),
            "checkpoint_at": self.checkpoint_at,
            "recovered_to": last.at,
        }


# ------------------------------------------------------------------ deployment


class Deployment:
    """``IntegrationEngine.deploy`` / ``deploy_all`` with the quadratic
    loop: every deploy re-validates every resolved definition."""

    def __init__(self, engine_name: str = "oracle") -> None:
        self.engine_name = engine_name
        self.processes: dict[str, ProcessType] = {}
        #: ``assert_valid_definition`` calls made, for the count the
        #: production engine is measured against.
        self.validations = 0

    def deploy(self, process: ProcessType) -> None:
        if process.process_id in self.processes:
            raise DeploymentError(
                f"{self.engine_name}: {process.process_id} already deployed"
            )
        self.processes[process.process_id] = process
        known = set(self.processes)
        for deployed in self.processes.values():
            unknown = [s for s in deployed.subprocess_ids() if s not in known]
            if not unknown:
                self.validations += 1
                assert_valid_definition(deployed)

    def deploy_all(self, processes) -> None:
        for process in processes:
            self.deploy(process)
        missing: list[str] = []
        for process in self.processes.values():
            missing.extend(
                s for s in process.subprocess_ids() if s not in self.processes
            )
        if missing:
            raise DeploymentError(
                f"{self.engine_name}: unresolved subprocesses {sorted(set(missing))}"
            )


# ---------------------------------------------------------------------- digest


def database_digest(db: "Database", include_views: bool = True) -> str:
    """Hex digest of one database's full logical content.

    ``include_views=False`` digests table content only — the comparison
    basis between a primary and its table-only cluster replicas (view
    content is a pure function of the tables and replicas don't hold
    view objects).
    """
    hasher = hashlib.sha256()
    hasher.update(db.name.encode())
    for table_name in db.table_names:
        table = db.table(table_name)
        hasher.update(f"\x00t:{table_name}\x00".encode())
        for row in table.dump_rows():
            hasher.update(repr(sorted(row.items())).encode())
            hasher.update(b"\x01")
    if not include_views:
        return hasher.hexdigest()
    for view_name in db.view_names:
        view = db.materialized_view(view_name)
        hasher.update(f"\x00v:{view_name}:{int(view.is_populated)}\x00".encode())
        if view.is_populated:
            for row in view.snapshot:
                hasher.update(repr(sorted(row.items())).encode())
                hasher.update(b"\x01")
    return hasher.hexdigest()


def landscape_digest(databases: Iterable["Database"]) -> str:
    """Hex digest over many databases, order-independent (by name)."""
    hasher = hashlib.sha256()
    for db in sorted(databases, key=lambda d: d.name):
        hasher.update(db.name.encode())
        hasher.update(database_digest(db).encode())
        hasher.update(b"\x02")
    return hasher.hexdigest()

"""The per-database logical write-ahead log.

Records are *logical/physiological*: row-level change instructions
(insert/upsert/set/delete_at/truncate), table and index DDL, and
materialized-view recompute markers — exactly the vocabulary
:meth:`repro.db.database.Database.redo` replays.  Trigger and procedure
side-effects are journaled as their own records when they originally
run, so redo never re-fires active logic.

Write path: statements append into an *open buffer*; an instance commit
seals the buffer, as it is, into the durable log as one *run* of
consecutive LSNs.  :class:`WalRecord` objects are built only when a
reader (recovery, log shipping) asks for them.  Commits are durable by
definition (no committed work is ever lost); the virtual-time
*group-commit window* only batches the modeled fsync accounting, so
``flushes <= commits`` — the classic group-commit amortization,
measurable without perturbing the schedule.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import itemgetter

from repro.errors import WalError

_FIRST_LSN = itemgetter(0)


@dataclass(frozen=True)
class WalRecord:
    """One committed logical change record."""

    lsn: int
    commit_id: int
    target: str  # table or materialized-view name
    op: str
    payload: tuple


class WriteAheadLog:
    """The logical WAL of one attached :class:`Database`."""

    def __init__(self, db_name: str):
        self.db_name = db_name
        self._open: list[tuple[str, str, tuple]] = []
        #: The redo tail: sealed ``(first_lsn, commit_id, entries)`` runs.
        self._runs: list[tuple[int, int, list[tuple[str, str, tuple]]]] = []
        self._next_lsn = 1
        # Lifetime counters (survive checkpoint truncation).
        self.records_appended = 0
        self.commits = 0
        self.discarded = 0

    # -- write path -------------------------------------------------------------

    def append(self, target: str, op: str, payload: tuple) -> None:
        """Buffer one logical change record in the open transaction.

        The payload is kept as handed over: its row dicts are stored
        rows, which no :class:`~repro.db.table.Table` write path mutates.
        """
        self._open.append((target, op, payload))

    def commit(self, commit_id: int) -> int:
        """Seal the open buffer into the durable log; returns #records."""
        sealed = len(self._open)
        if sealed:
            self._runs.append((self._next_lsn, commit_id, self._open))
            self._open = []
            self._next_lsn += sealed
        self.records_appended += sealed
        self.commits += 1
        return sealed

    def discard_open(self) -> int:
        """Drop the open (uncommitted) buffer — the crash path.

        The in-flight instance's effects vanish, exactly like a real
        engine losing its volatile buffers; redo will not see them.
        """
        dropped = len(self._open)
        self._open.clear()
        self.discarded += dropped
        return dropped

    # -- read path --------------------------------------------------------------

    @property
    def open_size(self) -> int:
        return len(self._open)

    @property
    def tail_size(self) -> int:
        """Committed records since the last checkpoint (the redo tail)."""
        return self._next_lsn - self.oldest_available_lsn

    def committed_records(self) -> list[WalRecord]:
        """The redo tail, in LSN order."""
        return self.records_since(self.oldest_available_lsn - 1)

    @property
    def last_lsn(self) -> int:
        """The highest LSN ever sealed (0 = nothing committed yet)."""
        return self._next_lsn - 1

    @property
    def oldest_available_lsn(self) -> int:
        """The lowest LSN still in the tail (``last_lsn + 1`` if empty).

        Records below this were dropped by checkpoint truncation; a
        log-shipping follower lagging past it has a replication hole and
        must be re-seeded from the checkpoint.
        """
        return self._runs[0][0] if self._runs else self._next_lsn

    def records_since(self, lsn: int) -> list[WalRecord]:
        """Committed records with LSN strictly above ``lsn``, in order.

        Raises :class:`WalError` when ``lsn`` predates the retained tail
        — those records were truncated and can no longer be shipped.
        """
        if lsn + 1 < self.oldest_available_lsn:
            raise WalError(
                f"wal[{self.db_name}]: records after LSN {lsn} requested "
                f"but the tail starts at LSN {self.oldest_available_lsn} "
                f"(truncated by a checkpoint)"
            )
        # The run holding LSN ``lsn + 1`` is the last one starting at or
        # below it; a record's LSN is its run's first LSN plus its offset.
        holder = bisect_right(self._runs, lsn + 1, key=_FIRST_LSN) - 1
        records = []
        for first_lsn, commit_id, entries in self._runs[max(holder, 0):]:
            for offset in range(max(lsn + 1 - first_lsn, 0), len(entries)):
                records.append(
                    WalRecord(first_lsn + offset, commit_id, *entries[offset])
                )
        return records

    def truncate(self) -> int:
        """Checkpoint truncation: drop the committed tail.

        Refuses while a transaction is open — checkpoints only run at
        instance boundaries, where nothing is in flight.
        """
        if self._open:
            raise WalError(
                f"wal[{self.db_name}]: cannot truncate with "
                f"{len(self._open)} uncommitted record(s) open"
            )
        dropped = self.tail_size
        self._runs.clear()
        return dropped

"""CDC change feeds: LSN-stamped logical change capture per source.

The PR-3 storage layer owns each table's single WAL ``listener`` slot,
so CDC taps the *observer* interface instead (``Table.add_observer``),
composable with durability being on.

The watched transaction-log tables are append-only within a benchmark
period (fresh transaction keys per message), so the table *is* the
change log: the row at position ``p`` is the change with LSN ``p + 1``
and the feed keeps only its ack cursor.  The only coarse
``on_mutation`` these tables ever see is the period-start truncate (or a
recovery ``restore_rows``), on which the cursor clips to the table's
length.  Under durability the cursor is captured with every commit
(``StorageManager.attach_state``), so a recovery puts back the last
committed ack: an ack whose instance crashed uncommitted is undone.

:class:`ChangeFeedService` exposes the feed as a registered service
endpoint (``pull`` / ``ack``), so the generated replication processes
reach it through the ordinary INVOKE → registry → network path and every
pull is charged communication + external cost like any other call.
"""

from __future__ import annotations

from itertools import islice

from repro.db.relation import Relation
from repro.db.table import Table, TableObserver
from repro.errors import ServiceError
from repro.services.endpoints import Envelope, ServiceEndpoint

#: The LSN column added in front of the captured row.
LSN_COLUMN = "lsn"


class ChangeFeed(TableObserver):
    """An ack cursor over an append-only source table."""

    def __init__(self, table: Table):
        self.table = table
        #: Captured columns: LSN first, then the source table's columns.
        self.columns = (LSN_COLUMN,) + tuple(table.schema.column_names)
        self.cursor = 0
        table.add_observer(self)

    # -- TableObserver ----------------------------------------------------------

    def on_insert(self, table_name: str, row: dict) -> None:
        """An append: the table already holds the change."""

    def on_mutation(self, table_name: str) -> None:
        """Coarse mutation (period-start truncate / recovery restore):
        the watched table was rebuilt, so the cursor clips to it."""
        self.cursor = min(self.cursor, len(self.table))

    # -- feed protocol ----------------------------------------------------------

    def pending(self) -> list[dict]:
        """Change records past the ack cursor, in LSN order."""
        return [
            {LSN_COLUMN: lsn, **row}
            for lsn, row in enumerate(
                islice(self.table, self.cursor, None), self.cursor + 1
            )
        ]

    def ack(self, upto: int) -> int:
        """Advance the cursor (idempotent; never moves backwards)."""
        self.cursor = max(self.cursor, int(upto))
        return self.cursor

    @property
    def drained(self) -> bool:
        return self.cursor >= len(self.table)

    # -- durability: the cursor rolls back with the databases ---------------------

    def capture_state(self) -> int:
        return self.cursor

    def restore_state(self, cursor: int) -> None:
        self.cursor = cursor


class ChangeFeedService(ServiceEndpoint):
    """Service face of one :class:`ChangeFeed`.

    Operations:

    * ``pull`` — body ignored; response body is a Relation of pending
      change records (``lsn`` + source columns), charged per row like a
      query against an external system;
    * ``ack``  — body is ``{"upto": lsn}``; advances the cursor and
      responds with the new cursor position.
    """

    #: External processing cost per pulled change record (tu), matching
    #: the DatabaseService stored-procedure unit.
    external_unit = 0.02

    def __init__(self, name: str, host: str, feed: ChangeFeed):
        super().__init__(name, host)
        self.feed = feed

    def operations(self) -> list[str]:
        return ["pull", "ack"]

    def op_pull(self, request: Envelope) -> Envelope:
        pending = self.feed.pending()
        relation = Relation(list(self.feed.columns), pending)
        return Envelope(
            "changes",
            relation,
            payload_units=float(len(pending)),
            external_cost=self.external_unit * len(pending),
        )

    def op_ack(self, request: Envelope) -> Envelope:
        body = request.body
        if not isinstance(body, dict) or "upto" not in body:
            raise ServiceError(
                f"feed {self.name}: ack body must be {{'upto': lsn}}"
            )
        cursor = self.feed.ack(body["upto"])
        return Envelope("ack_ok", {"cursor": cursor}, payload_units=1.0)

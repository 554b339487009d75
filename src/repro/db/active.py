"""Active database features: triggers, stored procedures, materialized views.

These are exactly the mechanisms the paper's reference implementation uses
(Fig. 9): message-stream process types are realized as insert triggers on a
queue table; time-event process types as stored procedures; and P12/P13/P15
refresh materialized views through procedure calls.

A materialized view's definition is an opaque callable
``(Database) -> Relation`` or a declarative :class:`ViewQuery` (select →
join* → extend* → group-by over one fact table); either way a refresh
re-runs it from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ProcedureError, SchemaError
from repro.db import fastpath
from repro.db.expressions import Expression
from repro.db.relation import Relation, Row

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.db.database import Database


@dataclass
class Trigger:
    """An AFTER INSERT trigger on one table.

    ``body`` receives the owning database and the freshly inserted row
    (the "logical table inserted" of Fig. 9a, which for row-level triggers
    is a single row).  Trigger bodies run synchronously inside the insert.
    """

    name: str
    table: str
    body: Callable[["Database", Row], None]
    fire_count: int = field(default=0, init=False)

    def fire(self, database: "Database", row: Row) -> None:
        self.fire_count += 1
        self.body(database, row)


@dataclass
class StoredProcedure:
    """A named procedure: a Python callable over the owning database.

    The scenario defines ``sp_runMasterDataCleansing`` and
    ``sp_runMovementDataCleansing`` (P12/P13) plus MV refresh procedures.
    Procedures may accept keyword parameters and return any value.
    """

    name: str
    body: Callable[..., Any]
    description: str = ""
    call_count: int = field(default=0, init=False)

    def call(self, database: "Database", /, **params: Any) -> Any:
        self.call_count += 1
        try:
            return self.body(database, **params)
        except Exception as exc:
            if isinstance(exc, ProcedureError):
                raise
            raise ProcedureError(f"procedure {self.name} failed: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ViewJoin:
    """One dimension join of a :class:`ViewQuery`.

    ``columns`` lists ``(output_name, source_column)`` pairs in output
    order — the projection applied to the dimension table before the
    join (``keep`` when every pair is an identity, ``project`` with
    renaming otherwise, exactly like the hand-written definitions did).
    """

    table: str
    on: tuple[tuple[str, str], ...]
    columns: tuple[tuple[str, str], ...]

    def right_relation(self, db: "Database") -> Relation:
        relation = db.query(self.table)
        if all(out == src for out, src in self.columns):
            return relation.keep(*(out for out, _ in self.columns))
        return relation.project({out: src for out, src in self.columns})


@dataclass(frozen=True, eq=False)
class ViewQuery:
    """Declarative view definition: the shapes the 15 process types use.

    ``fact_table`` is scanned, filtered by ``predicate``, joined against
    each :class:`ViewJoin` in order (inner, NULL keys never join),
    extended with computed columns, then grouped — or left ungrouped
    when ``aggregates`` is empty (plain select/project/join views).
    """

    fact_table: str
    predicate: Expression | None = None
    joins: tuple[ViewJoin, ...] = ()
    extend: tuple[tuple[str, Expression], ...] = ()
    group_keys: tuple[str, ...] = ()
    aggregates: tuple[tuple[str, tuple[str, str | None]], ...] = ()

    def __call__(self, db: "Database") -> Relation:
        relation = db.query(self.fact_table)
        if self.predicate is not None:
            relation = relation.select(self.predicate)
        for join in self.joins:
            relation = relation.join(join.right_relation(db), on=list(join.on))
        for name, expr in self.extend:
            relation = relation.extend(name, expr)
        if self.aggregates:
            return relation.group_by(self.group_keys, dict(self.aggregates))
        return relation


class MaterializedView:
    """A named, explicitly refreshed materialization of a query.

    The DWH schema (Fig. 3) contains ``OrdersMV``; P13 and P15 refresh it
    via stored procedure calls.  The view holds a :class:`Relation`
    snapshot; ``refresh`` re-runs the definition query and reports how many
    rows the new snapshot has (the engine charges processing cost for it).
    Every refresh recomputes: the Initializer invalidates each view at
    the start of a period and the schedule refreshes it once after that,
    so there is never an earlier snapshot to fold new rows into.
    """

    def __init__(
        self,
        name: str,
        definition: "Callable[[Database], Relation] | ViewQuery",
    ):
        if not name:
            raise SchemaError("materialized view needs a name")
        self.name = name
        self.definition = definition
        self._snapshot: Relation | None = None
        self.refresh_count = 0
        #: Durability hook (same signature as Table.listener); refreshes
        #: are journaled as recompute instructions, not materialized rows.
        self.listener: Callable[[str, str, tuple], None] | None = None

    @property
    def is_populated(self) -> bool:
        return self._snapshot is not None

    @property
    def snapshot(self) -> Relation:
        if self._snapshot is None:
            raise ProcedureError(
                f"materialized view {self.name} has never been refreshed"
            )
        return self._snapshot

    # No-ops that stay because bench/layers.py wraps them by name.
    def on_insert(self, table_name: str, row: Row) -> None:
        """No-op: a view tracks no changes between refreshes."""

    def on_mutation(self, table_name: str) -> None:
        """No-op: a view tracks no changes between refreshes."""

    def refresh(self, database: "Database") -> int:
        """Recompute the snapshot; returns its row count."""
        self._snapshot = self.definition(database)
        self.refresh_count += 1
        fastpath.STATS.mv_full_recompute += 1
        if self.listener is not None:
            self.listener(self.name, "mv_refresh", ())
        return len(self._snapshot)

    def invalidate(self) -> None:
        """Drop the snapshot (used by the Initializer's uninitialize step)."""
        self._snapshot = None
        if self.listener is not None:
            self.listener(self.name, "mv_invalidate", ())

    def adopt(self, other: "MaterializedView") -> None:
        """Take ``other``'s content as this view's (a promoted replica's
        copy of the same view), unjournaled."""
        self._snapshot = other._snapshot

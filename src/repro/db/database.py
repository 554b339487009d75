"""The Database: a named catalog of tables, triggers, procedures and views.

Each node of the DIPBench topology (Fig. 1) that is an RDBMS gets one
Database instance.  The class also keeps the read/write statistics the
engine's cost model consumes, and implements the deferred integrity check
used by the benchmark's phase *post* verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from repro.errors import ProcedureError, SchemaError
from repro.db import fastpath, partition
from repro.db.active import MaterializedView, StoredProcedure, Trigger, ViewQuery
from repro.db.expressions import BinaryOp, ColumnRef, Expression, Literal
from repro.db.relation import Relation, Row
from repro.db.schema import TableSchema
from repro.db.table import ChangeListener, Table


def _leading_equalities(predicate: Expression) -> dict[str, Any]:
    """Extract the leading ``column = literal`` conjuncts of a predicate.

    Walks the AND spine in evaluation order and stops at the first
    conjunct that is not an equality between a column and a non-NULL
    literal.  Restricting to the *leading* prefix keeps index pushdown
    observationally identical to a full scan even for predicates whose
    later conjuncts can raise: the naive path short-circuits those
    conjuncts on exactly the rows an index probe would skip.
    """
    bindings: dict[str, Any] = {}
    stack = [predicate]
    flat: list[Expression] = []
    while stack:
        node = stack.pop()
        if isinstance(node, BinaryOp) and node.op == "AND":
            stack.append(node.right)
            stack.append(node.left)
        else:
            flat.append(node)
    for node in flat:
        if not (isinstance(node, BinaryOp) and node.op == "="):
            break
        left, right = node.left, node.right
        if isinstance(left, Literal) and isinstance(right, ColumnRef):
            left, right = right, left
        if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
            break
        if right.value is None:
            break  # col = NULL is never true; indexes may key NULLs differently
        bindings.setdefault(left.name, right.value)
    return bindings


@dataclass(frozen=True)
class DatabaseStatistics:
    """Aggregate I/O counters over all tables of one database."""

    rows_read: int
    rows_written: int
    trigger_fires: int
    procedure_calls: int

    def __sub__(self, other: "DatabaseStatistics") -> "DatabaseStatistics":
        return DatabaseStatistics(
            self.rows_read - other.rows_read,
            self.rows_written - other.rows_written,
            self.trigger_fires - other.trigger_fires,
            self.procedure_calls - other.procedure_calls,
        )


class Database:
    """One database instance.

    >>> db = Database("berlin")
    >>> from repro.db import Column, TableSchema
    >>> db.create_table(TableSchema("t", [Column("k", "INTEGER", nullable=False)],
    ...                             primary_key=("k",)))
    Table(t, 0 rows)
    >>> db.insert("t", {"k": 1})
    {'k': 1}
    """

    def __init__(self, name: str):
        if not name:
            raise SchemaError("database needs a name")
        self.name = name
        self._tables: dict[str, Table] = {}
        self._triggers: dict[str, Trigger] = {}
        self._procedures: dict[str, StoredProcedure] = {}
        self._views: dict[str, MaterializedView] = {}
        # Durability hook, fanned out to every table and view.  Code
        # objects (trigger/procedure/view bodies) are *not* journaled:
        # redeployment re-establishes them before redo runs.
        self._listener: ChangeListener | None = None
        #: Row-count budget governing partition residency across all
        #: tables (None = plain fully-resident storage, the default; a
        #: run's ``RunSpec.mem_budget`` is set by the client's constructor).
        self._budget: partition.MemoryBudget | None = None

    def __repr__(self) -> str:
        return f"Database({self.name}, tables={sorted(self._tables)})"

    # -- DDL -------------------------------------------------------------------

    def create_table(self, schema: TableSchema) -> Table:
        if schema.name in self._tables:
            raise SchemaError(f"{self.name}: table {schema.name} already exists")
        table = Table(schema)
        self._tables[schema.name] = table
        if self._budget is not None:
            table.attach_store(self._budget)
        if self._listener is not None:
            table.listener = self._listener
            self._listener(schema.name, "create_table", (schema,))
        return table

    # -- memory budget -----------------------------------------------------------

    @property
    def memory_budget(self) -> partition.MemoryBudget | None:
        """The active partition memory budget (None = unbudgeted)."""
        return self._budget

    def set_memory_budget(
        self, limit_rows: int | None, partition_rows: int | None = None
    ) -> None:
        """Bound table-resident rows, spilling partitions past the limit.

        ``limit_rows`` is the database-wide resident-row budget (None
        detaches every store and returns to plain list storage);
        ``partition_rows`` optionally fixes the partition size (default
        derives from the budget).
        Attaching or detaching never changes observable contents,
        counters or fingerprints — only physical residency.
        """
        if limit_rows is None:
            self._budget = None
            for table in self._tables.values():
                table.detach_store()
            return
        self._budget = partition.MemoryBudget(limit_rows, partition_rows)
        for table in self._tables.values():
            table.attach_store(self._budget)

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError:
            raise SchemaError(f"{self.name}: no table {name!r}") from None

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def table_names(self) -> list[str]:
        return sorted(self._tables)

    # -- triggers / procedures / views -----------------------------------------

    def create_trigger(
        self, name: str, table: str, body: Callable[["Database", Row], None]
    ) -> Trigger:
        """Register an AFTER INSERT trigger (Fig. 9a realization)."""
        if name in self._triggers:
            raise SchemaError(f"{self.name}: trigger {name} already exists")
        self.table(table)  # validate target exists
        trigger = Trigger(name, table, body)
        self._triggers[name] = trigger
        return trigger

    def create_procedure(
        self, name: str, body: Callable[..., Any], description: str = ""
    ) -> StoredProcedure:
        if name in self._procedures:
            raise SchemaError(f"{self.name}: procedure {name} already exists")
        procedure = StoredProcedure(name, body, description)
        self._procedures[name] = procedure
        return procedure

    def call_procedure(self, name: str, /, **params: Any) -> Any:
        try:
            procedure = self._procedures[name]
        except KeyError:
            raise ProcedureError(f"{self.name}: no procedure {name!r}") from None
        return procedure.call(self, **params)

    def create_materialized_view(
        self,
        name: str,
        definition: "Callable[[Database], Relation] | ViewQuery",
    ) -> MaterializedView:
        if name in self._views:
            raise SchemaError(f"{self.name}: view {name} already exists")
        view = MaterializedView(name, definition)
        self._views[name] = view
        return view

    def materialized_view(self, name: str) -> MaterializedView:
        try:
            return self._views[name]
        except KeyError:
            raise SchemaError(f"{self.name}: no materialized view {name!r}") from None

    @property
    def view_names(self) -> list[str]:
        return sorted(self._views)

    # -- DML convenience ---------------------------------------------------------

    def _triggers_on(self, table_name: str) -> list[Trigger]:
        """This table's AFTER INSERT triggers, in creation order."""
        return [t for t in self._triggers.values() if t.table == table_name]

    def insert(self, table_name: str, values: Mapping[str, Any]) -> Row:
        """Insert one row, then fire this table's AFTER INSERT triggers."""
        row = self.table(table_name).insert(values)
        for trigger in self._triggers_on(table_name):
            trigger.fire(self, row)
        return row

    def insert_many(
        self, table_name: str, rows: Iterable[Mapping[str, Any]]
    ) -> int:
        """Insert rows in order, firing the table's triggers after each.

        The triggers are resolved once per call; a table without any
        takes :meth:`Table.insert_many`'s bulk loop.
        """
        table = self.table(table_name)
        triggers = self._triggers_on(table_name)
        if not triggers:
            return table.insert_many(rows)
        count = 0
        for values in rows:
            row = table.insert(values)
            for trigger in triggers:
                trigger.fire(self, row)
            count += 1
        return count

    def query(
        self,
        table_name: str,
        predicate: "Expression | Callable[[Row], Any] | None" = None,
        columns: Iterable[str] | None = None,
    ) -> Relation:
        """Snapshot a table as a relation (the building block of EXTRACT).

        With a ``predicate``/``columns``, equivalent to
        ``query(t).select(predicate).keep(*columns)`` — but leading
        ``column = literal`` conjuncts that are covered by the table's
        primary key are answered by an index probe instead of a scan.
        The full predicate is still
        re-checked on every candidate row, and the table is charged the
        same scan-equivalent ``rows_read`` a full scan would cost, so
        results and cost accounting are byte-identical either way.
        """
        table = self.table(table_name)
        relation: Relation | None = None
        if (
            predicate is not None
            and isinstance(predicate, Expression)
            and all(map(table.schema.has_column, predicate.referenced_columns()))
        ):
            bindings = _leading_equalities(predicate)
            if bindings:
                candidates = table.probe_candidates(bindings)
                if candidates is not None:
                    table.charge_scan()
                    fastpath.STATS.pushdowns += 1
                    check = predicate.compile()
                    kept = [row for row in candidates if check(row) is True]
                    relation = Relation.from_trusted(
                        table.schema.column_names, kept
                    )
        if relation is None:
            relation = table.to_relation()
            if predicate is not None:
                relation = relation.select(predicate)
        if columns is not None:
            relation = relation.keep(*columns)
        return relation

    # -- maintenance ---------------------------------------------------------------

    def truncate_all(self) -> None:
        """Empty every table and invalidate every MV (period uninitialize)."""
        for table in self._tables.values():
            table.truncate()
        for view in self._views.values():
            view.invalidate()

    # -- durability support ------------------------------------------------------

    def set_change_listener(self, listener: ChangeListener | None) -> None:
        """Attach (or detach, with None) the WAL's change hook.

        Fans the hook out to every current table and materialized view;
        tables created later inherit it through :meth:`create_table`.
        """
        self._listener = listener
        for table in self._tables.values():
            table.listener = listener
        for view in self._views.values():
            view.listener = listener

    def counter_state(self) -> dict[str, dict]:
        """Exact I/O and activity counters, for checkpoint/commit records.

        Recovery restores these verbatim so replayed work is never
        double-counted into the engine's processing-cost model.
        """
        return {
            "tables": {
                name: (table.rows_read, table.rows_written)
                for name, table in self._tables.items()
            },
            "triggers": {
                name: trigger.fire_count
                for name, trigger in self._triggers.items()
            },
            "procedures": {
                name: procedure.call_count
                for name, procedure in self._procedures.items()
            },
            "views": {
                name: view.refresh_count for name, view in self._views.items()
            },
        }

    def restore_counter_state(self, state: Mapping[str, dict]) -> None:
        """Overwrite counters with a previously captured :meth:`counter_state`."""
        for name, (rows_read, rows_written) in state.get("tables", {}).items():
            if name in self._tables:
                self._tables[name].rows_read = rows_read
                self._tables[name].rows_written = rows_written
        for name, fire_count in state.get("triggers", {}).items():
            if name in self._triggers:
                self._triggers[name].fire_count = fire_count
        for name, call_count in state.get("procedures", {}).items():
            if name in self._procedures:
                self._procedures[name].call_count = call_count
        for name, refresh_count in state.get("views", {}).items():
            if name in self._views:
                self._views[name].refresh_count = refresh_count

    def redo(self, target: str, op: str, payload: tuple) -> None:
        """Re-apply one WAL record (crash-recovery redo).

        Table-level ops go straight to :meth:`Table.redo` — triggers do
        *not* re-fire, because the trigger's own effects were journaled as
        separate records when they originally ran.  MV records recompute
        the view from the already-restored base tables, which is
        deterministic by construction.
        """
        if op == "create_table":
            if target in self._tables:
                del self._tables[target]
            self.create_table(payload[0])
        elif op == "mv_refresh":
            self.materialized_view(target).refresh(self)
        elif op == "mv_invalidate":
            self.materialized_view(target).invalidate()
        else:
            self.table(target).redo(op, payload)

    def statistics(self) -> DatabaseStatistics:
        return DatabaseStatistics(
            rows_read=sum(t.rows_read for t in self._tables.values()),
            rows_written=sum(t.rows_written for t in self._tables.values()),
            trigger_fires=sum(t.fire_count for t in self._triggers.values()),
            procedure_calls=sum(p.call_count for p in self._procedures.values()),
        )

    def check_integrity(self) -> list[str]:
        """Deferred FK check; returns human-readable violations (empty = ok).

        Used by the benchmark's phase *post*: after a period's streams have
        run, the integrated data in the CDB/DWH/marts must be referentially
        consistent.
        """
        violations: list[str] = []
        for table in self._tables.values():
            for fk in table.schema.foreign_keys:
                if fk.parent_table not in self._tables:
                    violations.append(
                        f"{table.name}: FK parent table {fk.parent_table} missing"
                    )
                    continue
                parent = self._tables[fk.parent_table]
                parent_keys = {
                    tuple(row[c] for c in fk.parent_columns) for row in parent
                }
                for row in table:
                    key = tuple(row[c] for c in fk.columns)
                    if any(part is None for part in key):
                        continue
                    if key not in parent_keys:
                        violations.append(
                            f"{table.name}: {fk.columns}={key} not in "
                            f"{fk.parent_table}{fk.parent_columns}"
                        )
        return violations

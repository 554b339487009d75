"""Mutable tables: storage, constraints, the primary-key index and DML.

Tables enforce column types (with coercion), NOT NULL and primary-key
uniqueness on every write.  The primary key is a table's one index: a
hash from key to row position that point reads (:meth:`Table.get`),
predicate pushdown (:meth:`Table.probe_candidates`) and index joins
probe.

The pk index is maintained *incrementally* on the row-level paths
(insert, upsert, update): the entry is patched in place.  Only the bulk
paths (multi-row delete, truncate, snapshot restore) pay the O(n)
rebuild.

Every mutation can be observed through :attr:`Table.listener` — the hook
the :mod:`repro.storage` write-ahead log uses to journal logical change
records.  With no listener attached (the default) the only overhead is
one ``is None`` test per statement, keeping the plain run byte-identical.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import IntegrityError, QueryError, SchemaError
from repro.db import fastpath, partition
from repro.db.expressions import Expression
from repro.db.relation import Relation, Row
from repro.db.schema import TableSchema

#: Signature of the change hook: ``listener(table_name, op, payload)``.
ChangeListener = Callable[[str, str, tuple], None]


class Table:
    """One table instance inside a :class:`~repro.db.database.Database`.

    Rows are stored as dicts keyed by column name.  The primary key (if
    declared) is backed by a hash index and enforced on insert/update.
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        #: Row storage: a plain list, or a spillable
        #: :class:`~repro.db.partition.PartitionStore` once a memory
        #: budget is attached (same positional protocol either way).
        self._rows: list[Row] | partition.PartitionStore = []
        self._pk_index: dict[tuple, int] | None = (
            {} if schema.primary_key else None
        )
        # Counters feeding the engine's processing-cost model.
        self.rows_read = 0
        self.rows_written = 0
        #: Change hook for the durability layer (None = no journaling).
        self.listener: ChangeListener | None = None
        #: Bumped on every data mutation; table-backed relation snapshots
        #: record it so index-aware joins can tell whether the table has
        #: moved on since the snapshot was taken.
        self._generation = 0
        #: Lazily transposed columnar image, valid for one generation.
        self._column_cache: dict[str, Any] | None = None
        self._column_cache_generation = -1

    # -- introspection -----------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __repr__(self) -> str:
        return f"Table({self.name}, {len(self)} rows)"

    # -- partitioned storage -----------------------------------------------------

    @property
    def partition_store(self) -> "partition.PartitionStore | None":
        """The spillable store backing this table, or None (plain list)."""
        rows = self._rows
        return rows if isinstance(rows, partition.PartitionStore) else None

    def attach_store(self, budget: "partition.MemoryBudget") -> None:
        """Move row storage into a spillable partition store.

        Contents, row order, indexes and counters are unchanged — only
        the physical residency of partitions becomes budget-governed.
        """
        store = self.partition_store
        if store is not None:
            if store.budget is budget:
                return
            self._rows = store.detach()
        self._rows = partition.PartitionStore(
            self.schema, budget, list(self._rows)
        )
        self._column_cache = None
        self._column_cache_generation = -1

    def detach_store(self) -> None:
        """Return to plain fully-resident list storage."""
        store = self.partition_store
        if store is not None:
            self._rows = store.detach()
            self._column_cache = None
            self._column_cache_generation = -1

    def _set_rows(self, rows: list[Row]) -> None:
        """Wholesale storage rebuild (bulk delete / restore / redo)."""
        store = self.partition_store
        if store is not None:
            store.replace_all(rows)
        else:
            self._rows = rows

    # -- index maintenance ------------------------------------------------------

    def _rebuild_indexes(self) -> None:
        """Full O(n) rebuild — the bulk path (delete/truncate/restore)."""
        if self._pk_index is not None:
            self._pk_index = {
                self.schema.pk_of(row): position
                for position, row in enumerate(self._rows)
            }

    def _replace_at(self, position: int, new_row: Row) -> None:
        """Replace the row at ``position``, moving its pk entry in place
        when the key changed."""
        old_row = self._rows[position]
        self._rows[position] = new_row
        if self._pk_index is not None:
            old_key = self.schema.pk_of(old_row)
            new_key = self.schema.pk_of(new_row)
            if new_key != old_key:
                if self._pk_index.get(old_key) == position:
                    del self._pk_index[old_key]
                self._pk_index[new_key] = position
        self._generation += 1

    # -- DML -------------------------------------------------------------------

    def _append(self, row: Row, key: tuple | None) -> Row:
        """Store a normalized row whose primary key is known to be free.

        The one append step behind :meth:`insert` and :meth:`upsert`
        (:meth:`insert_many` runs the same steps with lookups hoisted).
        """
        if key is not None:
            self._pk_index[key] = len(self._rows)
        self._rows.append(row)
        self.rows_written += 1
        self._generation += 1
        if self.listener is not None:
            self.listener(self.name, "insert", (row,))
        return row

    def insert(self, values: Mapping[str, Any]) -> Row:
        """Insert one row; returns the normalized stored row."""
        row = self.schema.normalize(values)
        if self._pk_index is None:
            return self._append(row, None)
        key = self.schema.pk_of(row)
        if key in self._pk_index:
            raise IntegrityError(
                f"table {self.name}: duplicate primary key {key}"
            )
        return self._append(row, key)

    def insert_many(
        self, rows: "Relation | Iterable[Mapping[str, Any]]", replace: bool = False
    ) -> int:
        """Bulk insert — or, with ``replace``, bulk upsert; returns the
        number of rows written.

        Row for row the same effects as :meth:`insert` (``replace``:
        :meth:`upsert`, so a row whose primary key is taken replaces the
        stored one instead of raising), in the same order: one change
        record and one ``rows_written`` step per row;
        a failing row leaves its predecessors stored.  Only what cannot
        change during the batch is looked up once.

        A narrow relation of this schema's columns and ``exact_types`` is
        stored by :meth:`TableSchema.copy_stored`, which says why.
        """
        schema = self.schema
        name, listener = self.name, self.listener
        normalize, pk_of = schema.normalize, schema.pk_of
        if isinstance(rows, Relation):
            if (rows.columns, rows.types, rows._wide) == (
                schema.column_names, schema.exact_types, False
            ):
                normalize = schema.copy_stored
            rows = rows.iter_narrow()
        pk_index, store = self._pk_index, self._rows
        append = store.append
        keyless_upsert = replace and pk_index is None
        count = 0
        for values in rows:
            if keyless_upsert:
                raise IntegrityError(f"table {name}: upsert needs a primary key")
            row = normalize(values)
            if pk_index is not None:
                key = pk_of(row)
                if key in pk_index:
                    if not replace:
                        raise IntegrityError(
                            f"table {name}: duplicate primary key {key}"
                        )
                    self._replace_at(pk_index[key], row)
                    self.rows_written += 1
                    if listener is not None:
                        listener(name, "upsert", (row,))
                    count += 1
                    continue
                pk_index[key] = len(store)
            append(row)
            self.rows_written += 1
            self._generation += 1
            if listener is not None:
                listener(name, "insert", (row,))
            count += 1
        return count

    def upsert(self, values: Mapping[str, Any]) -> Row:
        """Insert, or replace the existing row with the same primary key.

        Master-data replication (P02) uses upsert semantics: a changed
        customer record overwrites the stale copy in the regional database.
        """
        if self._pk_index is None:
            raise IntegrityError(f"table {self.name}: upsert needs a primary key")
        row = self.schema.normalize(values)
        key = self.schema.pk_of(row)
        position = self._pk_index.get(key)
        if position is None:
            return self._append(row, key)
        self._replace_at(position, row)
        self.rows_written += 1
        if self.listener is not None:
            self.listener(self.name, "upsert", (row,))
        return row

    def delete(self, predicate: Expression | Callable[[Row], Any] | None = None) -> int:
        """Delete matching rows (all rows when predicate is None)."""
        if predicate is None:
            removed = len(self._rows)
            self._rows.clear()
            if removed:
                self._rebuild_indexes()
                self.rows_written += removed
                self._generation += 1
                if self.listener is not None:
                    self.listener(self.name, "truncate", (removed,))
            return removed
        # One walk decides both lists (on a partition store every walk
        # may fault partitions in): a matching row records its position
        # — ``append`` returns None, so the row is dropped — and every
        # other row survives.
        removed_at: list[int] = []
        removed = removed_at.append
        if isinstance(predicate, Expression):
            matches = predicate.compile()
            survivors = [
                r
                for p, r in enumerate(self._rows)
                if matches(r) is not True or removed(p)
            ]
        else:
            survivors = [
                r
                for p, r in enumerate(self._rows)
                if not predicate(r) or removed(p)
            ]
        if removed_at:
            self._set_rows(survivors)
            self._rebuild_indexes()
            self.rows_written += len(removed_at)
            self._generation += 1
            if self.listener is not None:
                self.listener(self.name, "delete_at", (tuple(removed_at),))
        return len(removed_at)

    def update(
        self,
        assignments: Mapping[str, Any | Expression],
        predicate: Expression | Callable[[Row], Any] | None = None,
    ) -> int:
        """Update matching rows; assignment values may be expressions."""
        unknown = [c for c in assignments if not self.schema.has_column(c)]
        if unknown:
            raise SchemaError(f"table {self.name}: unknown columns {sorted(unknown)}")
        normalize = self.schema.normalize
        if isinstance(predicate, Expression):
            check = predicate.compile()
            matches: Callable[[Row], bool] = lambda row: check(row) is True
        elif predicate is not None:
            matches = predicate
        else:
            matches = lambda row: True
        # (is_expression, value-or-evaluator) per assignment, resolved once.
        plan: list[tuple[str, bool, Any]] = [
            (
                name,
                isinstance(value, Expression),
                value.compile() if isinstance(value, Expression) else value,
            )
            for name, value in assignments.items()
        ]
        updated = 0
        for position, row in enumerate(self._rows):
            if not matches(row):
                continue
            new_values = dict(row)
            for name, is_expr, value in plan:
                new_values[name] = value(row) if is_expr else value
            new_row = normalize(new_values)
            self._replace_at(position, new_row)
            updated += 1
            if self.listener is not None:
                self.listener(self.name, "set", (position, new_row))
        if updated:
            self.rows_written += updated
        return updated

    def truncate(self) -> int:
        """Remove all rows (the Initializer's *uninitialize* step)."""
        return self.delete(None)

    # -- durability support ------------------------------------------------------

    def dump_rows(self) -> list[Row]:
        """All stored rows, by reference, *without* counting reads.

        Checkpoint capture uses this instead of :meth:`scan` so taking a
        snapshot never perturbs ``rows_read`` — the cost model must see
        the same counters with and without durability enabled.  The
        list is fresh, the row dicts are the stored ones: every write
        path replaces a row with a new dict and never mutates one in
        place, so a holder sees the rows as they were at the call.
        """
        return list(self._rows)

    def restore_rows(self, rows: Iterable[Row]) -> None:
        """Bulk-load a snapshot's rows, bypassing journaling and counters.

        Used exclusively by crash recovery: the WAL/snapshot already
        accounts for these rows, so reloading them must neither re-journal
        nor inflate ``rows_written`` (the engine's cost model would
        otherwise double-count the replayed work).  The row dicts are
        adopted by reference (see :meth:`dump_rows`): the snapshot they
        came from stays valid because no write path mutates them.
        """
        self._set_rows(list(rows))
        self._rebuild_indexes()
        self._generation += 1

    def redo(self, op: str, payload: tuple) -> None:
        """Re-apply one journaled change record (crash-recovery redo)."""
        if op == "insert":
            self.insert(payload[0])
        elif op == "upsert":
            self.upsert(payload[0])
        elif op == "set":
            position, row = payload
            self._replace_at(position, row)
        elif op == "delete_at":
            removed_set = set(payload[0])
            self._set_rows(
                [r for p, r in enumerate(self._rows) if p not in removed_set]
            )
            self._rebuild_indexes()
            self._generation += 1
        elif op == "truncate":
            self._rows.clear()
            self._rebuild_indexes()
            self._generation += 1
        else:
            raise QueryError(f"table {self.name}: unknown redo op {op!r}")

    # -- reads ------------------------------------------------------------------

    def get(self, key: tuple | Any) -> Row | None:
        """Primary-key point lookup; scalar keys may be passed bare.

        Returns the stored row by reference — safe because the table
        replaces rows wholesale on mutation and callers treat read
        results as immutable.
        """
        if self._pk_index is None:
            raise QueryError(f"table {self.name}: no primary key declared")
        if not isinstance(key, tuple):
            key = (key,)
        position = self._pk_index.get(key)
        self.rows_read += 1
        if position is None:
            return None
        fastpath.STATS.rows_shared += 1
        return self._rows[position]

    def lookup(self, index_name: str, key: tuple | Any) -> list[Row]:
        """Equality lookup via a named index: a table has none to name."""
        # Kept because the benchmark's layer table wraps it by name.
        raise QueryError(f"table {self.name}: no index {index_name!r}")

    def column_data(self) -> dict[str, Any]:
        """The table as per-column value sequences (columnar image).

        Lazily transposed from the row store and cached until the next
        mutation bumps ``_generation``.  Purely a physical layout for
        the columnar join: building it never charges ``rows_read``
        (callers charge logical reads exactly as the scalar path does).
        Values are the stored objects by reference.
        """
        if (
            self._column_cache is not None
            and self._column_cache_generation == self._generation
        ):
            return self._column_cache
        fastpath.STATS.column_builds += 1
        if self.partition_store is not None:
            # Store-backed: a cached whole-table image would pin the
            # full working set and defeat the memory budget.  Gather in
            # one streaming pass and return it uncached.
            names = self.schema.column_names
            gathered: dict[str, list] = {name: [] for name in names}
            for row in self._rows:
                for name in names:
                    gathered[name].append(row[name])
            return gathered
        rows = self._rows
        image: dict[str, Any] = {
            name: [row[name] for row in rows]
            for name in self.schema.column_names
        }
        self._column_cache = image
        self._column_cache_generation = self._generation
        return image

    def scan(
        self, predicate: Expression | Callable[[Row], Any] | None = None
    ) -> list[Row]:
        """Full scan, optionally filtered."""
        self.rows_read += len(self._rows)
        if predicate is None:
            rows = list(self._rows)
        elif isinstance(predicate, Expression):
            fn = predicate.compile()
            store = self.partition_store
            if store is not None:
                rows = partition.partitioned_filter(store, fn)
            else:
                rows = [r for r in self._rows if fn(r) is True]
        else:
            rows = [r for r in self._rows if predicate(r)]
        fastpath.STATS.rows_shared += len(rows)
        return rows

    def to_relation(self) -> Relation:
        """Snapshot the table contents as a :class:`Relation`.

        Shares the row dicts (fresh list, so later inserts and deletes
        cannot grow or shrink the snapshot; updates replace dicts
        wholesale, so shared dicts keep their snapshot values) and links
        the relation back to this table for index-aware joins.
        """
        self.rows_read += len(self._rows)
        store = self.partition_store
        # A store-backed snapshot stays lazy: the view reads through
        # spillable partitions until an operator materializes it (or
        # the store mutates, which freezes it copy-on-write) — same
        # contents and isolation as the eager list copy.
        rows = store.view() if store is not None else list(self._rows)
        return Relation.from_trusted(
            self.schema.column_names,
            rows,
            source=(self, self._generation),
            types=self.schema.exact_types,
        )

    # -- index probing ---------------------------------------------------------------

    def charge_scan(self) -> None:
        """Charge ``rows_read`` as a full scan would, without reading.

        Predicate pushdown answers a query through an index without
        touching every row, but the engine's cost model — and the golden NAVG+ tables pinned on it —
        price the *logical* work.  Charging scan-equivalent reads keeps
        counters byte-identical to the full-scan reference.
        """
        self.rows_read += len(self._rows)

    def _probe_for(
        self, cols: tuple[str, ...]
    ) -> Callable[[tuple], Sequence[int]] | None:
        """A position-probe over an existing index covering ``cols``.

        Returns a callable mapping a key tuple (values in ``cols`` order)
        to row positions in ascending order — the same row order a
        per-call hash index built over the rows would produce — or None
        when the pk does not cover exactly these columns.
        """
        pk = self.schema.primary_key
        if self._pk_index is None or len(pk) != len(cols) or set(pk) != set(cols):
            return None
        index = self._pk_index
        reorder = None if pk == cols else tuple(cols.index(c) for c in pk)

        def probe_pk(key: tuple) -> Sequence[int]:
            if reorder is not None:
                key = tuple(key[i] for i in reorder)
            position = index.get(key)
            return () if position is None else (position,)

        return probe_pk

    def probe_candidates(self, eq: Mapping[str, Any]) -> list[Row] | None:
        """Index-backed candidate rows for an equality binding, uncounted.

        ``eq`` maps column names to required values.  When the pk is
        covered by the bound columns, returns the matching row (by
        reference) — a *superset* filter for the original predicate,
        which the caller must still apply in full.  Returns None when the
        pk does not apply; never touches ``rows_read`` (the caller
        charges scan-equivalent cost).
        """
        pk = self.schema.primary_key
        if self._pk_index is None or not set(pk) <= set(eq):
            return None
        position = self._pk_index.get(tuple(eq[c] for c in pk))
        return [] if position is None else [self._rows[position]]

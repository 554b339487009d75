"""Relations and the relational operator algebra.

A :class:`Relation` is an immutable bag of rows (dicts) with a declared
column order.  All integration-process data flows in the engine move
relations between operators; the methods here are exactly the operators the
DIPBench process types need: selection, projection (with renaming),
hash join, UNION DISTINCT (used heavily by P03 and P09), grouping,
sorting and de-duplication.

Every operator returns a new Relation and leaves its inputs untouched,
which keeps operator graphs side-effect free (a property the optimizer
rewrites rely on).

Operators share row dicts between relations and only copy where an
operator produces new values (``project``/``extend``/``join``/
``group_by``); the reference that re-materializes every row per
operator lives in ``tests/oracle/relational.py``.  Sharing is safe
because nothing in the kernel ever mutates a stored row dict in place —
:class:`~repro.db.table.Table` replaces rows wholesale on update.  Two
consequences the operators track explicitly:

* a relation produced by ``keep`` may *share* rows that physically carry
  more keys than ``columns`` declares (the ``_wide`` flag); the declared
  ``columns`` tuple stays authoritative, and every export boundary
  (``to_dicts``, ``iter_narrow``) projects through it;
* a relation produced by ``Table.to_relation`` remembers its source
  table (``_source``), which lets ``join`` probe the table's primary-key
  index instead of building a hash index per call.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import QueryError
from repro.db import fastpath, partition, vector
from repro.db.expressions import Expression

Row = dict[str, Any]

_AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")

class _Desc:
    """Inverts comparison of one sort-key component (stable DESC sorts).

    ``sorted(key=..., reverse=True)`` would both reverse tie order and
    move NULLs last; wrapping each non-flag component keeps the sort
    stable and leaves the NULL flag ascending (NULLs first).
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Desc") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and other.value == self.value

    __hash__ = None  # type: ignore[assignment]


class ProjectionPlan:
    """What :meth:`Relation.project` derives from a mapping, derived once.

    ``columns`` are the output columns in mapping order, ``plain`` the
    ``(out, in)`` renames and ``inputs`` the columns they read,
    ``computed`` the ``(out, expression, compiled closure)`` triples.
    The plan describes the mapping as it was when the plan was built:
    keep one only for a mapping that cannot change, as
    ``Projection.mapping`` cannot.
    """

    __slots__ = ("columns", "plain", "inputs", "computed")

    def __init__(self, mapping: Mapping[str, "str | Expression"]):
        self.columns: tuple[str, ...] = tuple(mapping)
        self.plain: list[tuple[str, str]] = []
        self.computed: list[tuple[str, Expression, Callable[[Row], Any]]] = []
        for out_name, source in mapping.items():
            if isinstance(source, Expression):
                self.computed.append((out_name, source, source.compile()))
            else:
                self.plain.append((out_name, source))
        self.inputs = [in_name for _, in_name in self.plain]


class GroupAccumulator:
    """Running group-by state: the one body behind grouped aggregation.

    One ``[count, value]`` accumulator per aggregate per group — count
    of non-NULL inputs (rows for COUNT(*)), value the running
    SUM/MIN/MAX — and groups in first-appearance order.  Equivalent to
    the oracle's member-list implementation because every aggregate is
    a left fold over members in the order they are added: ``sum``
    starts at 0 exactly like :func:`sum`, ``min``/``max`` keep the
    earlier value on ties exactly like their builtin sequence forms,
    and AVG divides the same sum by the same count.
    """

    __slots__ = ("keys", "specs", "groups", "order")

    def __init__(
        self,
        keys: Sequence[str],
        aggregates: Iterable[tuple[str, tuple[str, str | None]]],
    ):
        self.keys = tuple(keys)
        self.specs = [
            (out_name, fn_name.upper(), in_col)
            for out_name, (fn_name, in_col) in aggregates
        ]
        self.groups: dict[tuple, list[list[Any]]] = {}
        self.order: list[tuple] = []

    def add(self, row: Mapping[str, Any]) -> None:
        key = tuple(row[k] for k in self.keys)
        accs = self.groups.get(key)
        if accs is None:
            accs = self.groups[key] = [[0, 0] for _ in self.specs]
            self.order.append(key)
        for i, (_, fn, in_col) in enumerate(self.specs):
            acc = accs[i]
            if fn == "COUNT":
                if in_col is None or row[in_col] is not None:
                    acc[0] += 1
                continue
            value = row[in_col]
            if value is None:
                continue
            if fn in ("SUM", "AVG"):
                acc[1] = acc[1] + value
            elif acc[0] == 0:
                acc[1] = value
            elif fn == "MIN":
                acc[1] = min(acc[1], value)
            else:  # MAX
                acc[1] = max(acc[1], value)
            acc[0] += 1

    def columns(self) -> tuple[str, ...]:
        return self.keys + tuple(out for out, _, _ in self.specs)

    def rows(self) -> list[Row]:
        out_rows: list[Row] = []
        for key in self.order:
            accs = self.groups[key]
            out_row: Row = dict(zip(self.keys, key))
            for i, (out_name, fn, _) in enumerate(self.specs):
                count, value = accs[i]
                if fn == "COUNT":
                    out_row[out_name] = count
                elif count == 0:
                    out_row[out_name] = None
                elif fn == "AVG":
                    out_row[out_name] = value / count
                else:
                    out_row[out_name] = value
            out_rows.append(out_row)
        return out_rows


class Relation:
    """An ordered-column bag of rows.

    >>> r = Relation(("a", "b"), [{"a": 1, "b": 2}])
    >>> r.project({"a": "x"}).columns
    ('x',)
    """

    __slots__ = ("columns", "rows", "_wide", "_source")

    def __init__(self, columns: Sequence[str], rows: Iterable[Mapping[str, Any]]):
        self.columns: tuple[str, ...] = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise QueryError(f"duplicate columns in relation: {self.columns}")
        materialized: list[Row] = []
        column_set = set(self.columns)
        for row in rows:
            missing = column_set - row.keys()
            if missing:
                raise QueryError(f"row is missing columns {sorted(missing)}")
            materialized.append({name: row[name] for name in self.columns})
        fastpath.STATS.rows_copied += len(materialized)
        self.rows: list[Row] = materialized
        self._wide = False
        self._source: tuple[Any, int] | None = None

    @classmethod
    def from_trusted(
        cls,
        columns: Sequence[str],
        rows: list[Row],
        wide: bool = False,
        source: tuple[Any, int] | None = None,
    ) -> "Relation":
        """Wrap already-validated rows without copying them.

        The operators' constructor: ``rows`` is adopted by reference, so
        callers must hand over a list they will not mutate, of dicts that
        each carry at least the declared ``columns``.  ``wide`` marks
        rows that may carry *more* keys than declared (``keep`` sharing);
        ``source`` links a table snapshot ``(table, generation)`` for
        index-aware joins.
        """
        rel = cls.__new__(cls)
        rel.columns = tuple(columns)
        rel.rows = rows
        rel._wide = wide
        rel._source = source
        fastpath.STATS.rows_shared += len(rows)
        return rel

    # -- basics ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Relation({self.columns}, {len(self.rows)} rows)"

    def _require_columns(self, names: Iterable[str]) -> None:
        unknown = [n for n in names if n not in self.columns]
        if unknown:
            raise QueryError(f"unknown columns {unknown}; have {self.columns}")

    def _guard_expression(self, expr: Expression) -> None:
        """Match exact-width error behavior on width-shared rows.

        Rows that physically hold exactly ``columns`` fail an expression
        referencing anything else at evaluation time (only when rows
        exist).  Width-shared rows may carry extra keys the expression
        could silently read — reject those references up front instead.
        """
        if not self._wide or not self.rows:
            return
        unknown = expr.referenced_columns() - set(self.columns)
        if unknown:
            name = min(unknown)
            raise QueryError(
                f"unknown column {name!r}; row has {sorted(self.columns)}"
            )

    def _live_table(self) -> Any:
        """The source table, while it is still at the snapshot's generation."""
        source = self._source
        if source is not None and source[0]._generation == source[1]:
            return source[0]
        return None

    def _narrow_row(self, row: Row) -> Row:
        """One row as an exact-width dict (copy-on-write helper)."""
        return {name: row[name] for name in self.columns}

    # -- operators --------------------------------------------------------------

    def select(self, predicate: Expression | Callable[[Row], Any]) -> "Relation":
        """Selection: keep rows whose predicate evaluates to true.

        NULL (None) predicate results count as *not satisfied*, per SQL.
        """
        if isinstance(predicate, Expression):
            self._guard_expression(predicate)
            fn = predicate.compile()
            view = partition.spilled_view(self.rows)
            if view is not None:
                keep = partition.partitioned_filter(view.store, fn, len(view))
            else:
                keep = [row for row in self.rows if fn(row) is True]
        else:
            keep = [row for row in self.rows if predicate(row)]
        return Relation.from_trusted(self.columns, keep, wide=self._wide)

    def project(
        self,
        mapping: "Mapping[str, str | Expression] | ProjectionPlan",
    ) -> "Relation":
        """Projection with renaming and computed columns.

        ``mapping`` maps *output* column name to either an input column
        name (pure rename/keep) or an :class:`Expression` (computed).
        This is the "projection … in order to rename the attributes"
        of process types P05–P07 and the schema mappings of P11/P14.
        A caller that projects many relations through one mapping may
        pass the mapping's :class:`ProjectionPlan` instead.
        """
        plan = (
            mapping
            if type(mapping) is ProjectionPlan
            else ProjectionPlan(mapping)
        )
        plain_items = plan.plain
        self._require_columns(plan.inputs)
        compiled = plan.computed
        for _, expr, _ in compiled:
            self._guard_expression(expr)
        out_rows: list[Row] = []
        for row in self.rows:
            new_row: Row = {
                out_name: row[in_name] for out_name, in_name in plain_items
            }
            for out_name, _, fn in compiled:
                new_row[out_name] = fn(row)
            out_rows.append(new_row)
        fastpath.STATS.rows_copied += len(out_rows)
        return Relation.from_trusted(plan.columns, out_rows)

    def keep(self, *names: str) -> "Relation":
        """Projection without renaming: keep the named columns."""
        self._require_columns(names)
        wide = self._wide or tuple(names) != self.columns
        return Relation.from_trusted(
            names, self.rows, wide=wide, source=self._source
        )

    def extend(self, name: str, expr: Expression | Callable[[Row], Any]) -> "Relation":
        """Append one computed column to every row."""
        if name in self.columns:
            raise QueryError(f"column {name!r} already exists")
        rows: list[Row] = []
        if isinstance(expr, Expression):
            self._guard_expression(expr)
            fn: Callable[[Row], Any] = expr.compile()
        else:
            fn = expr
        if self._wide:
            for row in self.rows:
                new_row = self._narrow_row(row)
                new_row[name] = fn(row)
                rows.append(new_row)
        else:
            for row in self.rows:
                new_row = dict(row)
                new_row[name] = fn(row)
                rows.append(new_row)
        fastpath.STATS.rows_copied += len(rows)
        return Relation.from_trusted(self.columns + (name,), rows)

    def distinct(self, key_columns: Sequence[str] | None = None) -> "Relation":
        """Remove duplicates; with ``key_columns``, the *first* row per key wins.

        The key-based form implements the UNION DISTINCT semantics of P03
        and P09, where rows from several sources are merged "concerning the
        Orderkey, Custkey and Productkey".
        """
        keys = tuple(key_columns) if key_columns else self.columns
        self._require_columns(keys)
        seen: set[tuple] = set()
        out: list[Row] = []
        for row in self.rows:
            key = tuple(row[k] for k in keys)
            if key not in seen:
                seen.add(key)
                out.append(row)
        source = self._source if len(out) == len(self.rows) else None
        return Relation.from_trusted(
            self.columns, out, wide=self._wide, source=source
        )

    def union_all(self, other: "Relation") -> "Relation":
        """Bag union; both inputs must have identical column tuples."""
        if self.columns != other.columns:
            raise QueryError(
                f"union over different schemas: {self.columns} vs {other.columns}"
            )
        return Relation.from_trusted(
            self.columns,
            self.rows + other.rows,
            wide=self._wide or other._wide,
        )

    def union_distinct(
        self, other: "Relation", key_columns: Sequence[str] | None = None
    ) -> "Relation":
        """UNION DISTINCT, optionally keyed (first occurrence wins)."""
        return self.union_all(other).distinct(key_columns)

    def join(
        self,
        other: "Relation",
        on: Sequence[tuple[str, str]],
        suffix: str = "_r",
    ) -> "Relation":
        """Inner hash join on equality of column pairs ``(left_col,
        right_col)``.  Right-side columns that collide with left-side
        names get ``suffix`` appended (join keys from the right are
        dropped since they equal the left's).

        A right side still backed by an unmodified table snapshot
        (``Table.to_relation``, optionally narrowed with ``keep``/
        ``distinct``) is joined by probing the table's pk index when the
        pk covers the right key columns — no per-call hash index, same
        output.
        """
        if not on:
            raise QueryError("join needs at least one key pair")
        left_keys = [pair[0] for pair in on]
        right_keys = [pair[1] for pair in on]
        self._require_columns(left_keys)
        other._require_columns(right_keys)

        right_key_set = set(right_keys)
        rename: dict[str, str] = {}
        for name in other.columns:
            if name in right_key_set:
                continue
            rename[name] = name + suffix if name in self.columns else name

        out_columns = self.columns + tuple(rename.values())

        table = other._live_table()
        probe = table._probe_for(tuple(right_keys)) if table is not None else None

        if probe is None:
            # Build side still streaming over spilled partitions: bucket
            # both sides to disk and join bucket-at-a-time (grace hash
            # join) — same rows, same order, bounded residency.
            graced = partition.maybe_grace_join(
                self, other, left_keys, right_keys, rename
            )
            if graced is not None:
                fastpath.STATS.rows_copied += len(graced)
                return Relation.from_trusted(out_columns, graced)
            # Only the probe side spilled: the right rows are in memory
            # already, so index them as usual and stream the left view
            # through the scalar probe loop below, one pinned partition
            # at a time — the columnar kernel would walk the whole
            # store again for its key columns.
            if (
                not self._wide
                and partition.spilled_view(self.rows) is None
                and vector.should_batch(len(self.rows) + len(other.rows))
            ):
                batched = vector.join_rows(
                    self, other, left_keys, right_keys, rename
                )
                if batched is not None:
                    fastpath.STATS.rows_copied += len(batched)
                    return Relation.from_trusted(out_columns, batched)
            fastpath.STATS.hash_joins += 1
            index: dict[tuple, list[Row]] = {}
            for row in other.rows:
                key = tuple(row[k] for k in right_keys)
                if any(part is None for part in key):
                    continue  # NULL never joins
                index.setdefault(key, []).append(row)
            lookup = index.get
        else:
            fastpath.STATS.index_joins += 1
            right_rows = other.rows

            def lookup(key: tuple, default: Any = None) -> list[Row] | None:
                positions = probe(key)
                if not positions:
                    return default
                return [right_rows[p] for p in positions]

        out_rows: list[Row] = []
        narrow_left = self._wide
        for row in self.rows:
            key = tuple(row[k] for k in left_keys)
            matches = [] if any(part is None for part in key) else lookup(key, [])
            for match in matches:
                combined = self._narrow_row(row) if narrow_left else dict(row)
                for in_name, out_name in rename.items():
                    combined[out_name] = match[in_name]
                out_rows.append(combined)
        fastpath.STATS.rows_copied += len(out_rows)
        return Relation.from_trusted(out_columns, out_rows)

    def group_by(
        self,
        key_columns: Sequence[str],
        aggregates: Mapping[str, tuple[str, str | None]],
    ) -> "Relation":
        """Grouping with aggregates.

        ``aggregates`` maps output name to ``(function, input_column)``
        where function is COUNT / SUM / MIN / MAX / AVG; COUNT may take
        None as input column meaning COUNT(*).
        """
        keys = tuple(key_columns)
        self._require_columns(keys)
        for fn_name, in_col in aggregates.values():
            if fn_name.upper() not in _AGGREGATES:
                raise QueryError(f"unknown aggregate {fn_name!r}")
            if in_col is not None:
                self._require_columns([in_col])

        accumulator = GroupAccumulator(keys, aggregates.items())
        view = partition.spilled_view(self.rows)
        if view is not None:
            partition.partitioned_group(view, accumulator)
        else:
            for row in self.rows:
                accumulator.add(row)
        out_rows = accumulator.rows()
        fastpath.STATS.rows_copied += len(out_rows)
        return Relation.from_trusted(accumulator.columns(), out_rows)

    def order_by(
        self, key_columns: Sequence[str], descending: bool = False
    ) -> "Relation":
        """Stable sort by the given columns (NULLs sort first).

        NULLs sort first in both directions, and equal keys keep their
        input order — DESC is implemented by inverting each key
        component rather than ``reverse=True``, which would violate both
        guarantees.
        """
        keys = tuple(key_columns)
        self._require_columns(keys)

        if descending:

            def sort_key(row: Row) -> tuple:
                return tuple(
                    (row[k] is not None, _Desc(row[k])) for k in keys
                )

        else:

            def sort_key(row: Row) -> tuple:
                return tuple((row[k] is not None, row[k]) for k in keys)

        ordered = sorted(self.rows, key=sort_key)
        return Relation.from_trusted(self.columns, ordered, wide=self._wide)

    def limit(self, n: int) -> "Relation":
        if n < 0:
            raise QueryError(f"limit must be >= 0, got {n}")
        return Relation.from_trusted(
            self.columns, self.rows[:n], wide=self._wide
        )

    # -- conversion helpers -----------------------------------------------------

    def to_dicts(self) -> list[Row]:
        """Deep-enough copy of all rows as plain dicts.

        Always projects through the declared columns, so width-shared
        rows never leak extra keys across this boundary.
        """
        columns = self.columns
        fastpath.STATS.rows_copied += len(self.rows)
        return [{name: row[name] for name in columns} for row in self.rows]

    def iter_narrow(self) -> Iterator[Row]:
        """Iterate rows guaranteed to hold exactly the declared columns.

        Zero-cost pass-through for exact-width relations; width-shared
        rows are projected on the fly.  Import boundaries that feed rows
        into schema-validating sinks (``Table.insert``/``upsert``) use
        this instead of ``rows`` so sharing stays invisible.
        """
        if not self._wide:
            return iter(self.rows)
        columns = self.columns
        fastpath.STATS.rows_copied += len(self.rows)
        return (
            {name: row[name] for name in columns} for row in self.rows
        )

    def column_values(self, name: str) -> list[Any]:
        self._require_columns([name])
        return [row[name] for row in self.rows]

"""The one reference model of the relational kernel.

This is the original, obviously-correct implementation that used to live
inside ``repro.db`` behind a process-global switch: every operator
re-materializes every row dict, every predicate walks the expression
tree per row (:func:`evaluate`, never ``compile()``), joins
build a hash index per call, tables answer every read with a copying
full scan and materialized views recompute from scratch.  Production
keeps none of it — it shares rows, compiles predicates, probes indexes,
runs mask kernels and spills partitions — and every differential suite
under ``tests/db/`` (and ``benchmarks/test_bench_relops.py``) holds each
of those rungs to *this* module: same columns, same rows in the same
order, same ``rows_read``/``rows_written`` charges, same errors.

Shape: pure functions over :class:`Rel` — ``(columns, list[dict])`` —
plus :class:`Table`, the table-level semantics the suites assert
(copying reads, logical-work counters), and :func:`view`, the full
recompute of a declarative view definition.

Independence is the point: nothing here may import
``repro.db.relation``, ``table``, ``vector`` or ``partition`` (schemas,
expressions and error types are shared vocabulary, not implementation);
``tests/db/test_tier_switches.py`` enforces it.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from repro.db.expressions import (
    _BINARY_OPS,
    _FUNCTIONS,
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    UnaryOp,
)
from repro.db.schema import TableSchema
from repro.errors import IntegrityError, QueryError, SchemaError

Row = dict[str, Any]

_AGGREGATES = ("COUNT", "SUM", "MIN", "MAX", "AVG")

#: Row dicts materialized so far.  The oracle copies every row it hands
#: out, so this is the copy count a sharing implementation is measured
#: against (``benchmarks/test_bench_relops.py``).
rows_copied = 0


class Rel(NamedTuple):
    """An ordered-column bag of exact-width rows."""

    columns: tuple[str, ...]
    rows: list[Row]


def relation(columns: Sequence[str], rows: Iterable[Mapping[str, Any]]) -> Rel:
    """Validate and materialize: one fresh exact-width dict per row."""
    global rows_copied
    columns = tuple(columns)
    if len(set(columns)) != len(columns):
        raise QueryError(f"duplicate columns in relation: {columns}")
    materialized: list[Row] = []
    column_set = set(columns)
    for row in rows:
        missing = column_set - row.keys()
        if missing:
            raise QueryError(f"row is missing columns {sorted(missing)}")
        materialized.append({name: row[name] for name in columns})
    rows_copied += len(materialized)
    return Rel(columns, materialized)


def _require_columns(rel: Rel, names: Iterable[str]) -> None:
    unknown = [n for n in names if n not in rel.columns]
    if unknown:
        raise QueryError(f"unknown columns {unknown}; have {rel.columns}")


# -- expressions -------------------------------------------------------------


def evaluate(expr: Expression, row: Mapping[str, Any]) -> Any:
    """Walk ``expr`` against one row: SQL three-valued logic, short-circuit
    AND/OR, unknown columns and type errors raised as QueryError."""
    if isinstance(expr, ColumnRef):
        try:
            return row[expr.name]
        except KeyError:
            raise QueryError(
                f"unknown column {expr.name!r}; row has {sorted(row)}"
            ) from None
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, BinaryOp):
        if expr.op in ("AND", "OR"):
            stop = expr.op == "OR"  # the value that decides the result
            left = evaluate(expr.left, row)
            if left is stop:
                return stop
            right = evaluate(expr.right, row)
            if right is stop:
                return stop
            if left is None or right is None:
                return None
            return bool(left) or bool(right) if stop else bool(left) and bool(right)
        left = evaluate(expr.left, row)
        right = evaluate(expr.right, row)
        try:
            return _BINARY_OPS[expr.op](left, right)
        except TypeError as exc:
            raise QueryError(
                f"type error in {left!r} {expr.op} {right!r}: {exc}"
            ) from exc
    if isinstance(expr, UnaryOp):
        value = evaluate(expr.operand, row)
        if expr.op == "NOT":
            return None if value is None else not bool(value)
        if expr.op == "IS NULL":
            return value is None
        if expr.op == "IS NOT NULL":
            return value is not None
        return None if value is None else -value
    if isinstance(expr, FunctionCall):
        values = [evaluate(arg, row) for arg in expr.args]
        try:
            return _FUNCTIONS[expr.name](*values)
        except (TypeError, AttributeError, IndexError) as exc:
            raise QueryError(f"error in {expr.name}({values!r}): {exc}") from exc
    raise TypeError(f"not an expression node: {expr!r}")


# -- operators ---------------------------------------------------------------


def select(rel: Rel, predicate: Expression | Callable[[Row], Any]) -> Rel:
    """Keep rows whose predicate is true (NULL counts as not satisfied)."""
    if isinstance(predicate, Expression):
        keep = [row for row in rel.rows if evaluate(predicate, row) is True]
    else:
        keep = [row for row in rel.rows if predicate(row)]
    return relation(rel.columns, keep)


def project(rel: Rel, mapping: Mapping[str, str | Expression]) -> Rel:
    """Projection with renaming (``out: in``) and computed columns."""
    plain: dict[str, str] = {}
    computed: dict[str, Expression] = {}
    for out_name, source in mapping.items():
        if isinstance(source, Expression):
            computed[out_name] = source
        else:
            plain[out_name] = source
    _require_columns(rel, plain.values())
    out_rows: list[Row] = []
    for row in rel.rows:
        new_row = {}
        for out_name, in_name in plain.items():
            new_row[out_name] = row[in_name]
        for out_name, expr in computed.items():
            new_row[out_name] = evaluate(expr, row)
        out_rows.append(new_row)
    return relation(tuple(mapping.keys()), out_rows)


def keep(rel: Rel, *names: str) -> Rel:
    """Projection without renaming."""
    _require_columns(rel, names)
    return relation(names, [{n: row[n] for n in names} for row in rel.rows])


def extend(rel: Rel, name: str, expr: Expression | Callable[[Row], Any]) -> Rel:
    """Append one computed column to every row."""
    if name in rel.columns:
        raise QueryError(f"column {name!r} already exists")
    rows: list[Row] = []
    for row in rel.rows:
        value = evaluate(expr, row) if isinstance(expr, Expression) else expr(row)
        new_row = dict(row)
        new_row[name] = value
        rows.append(new_row)
    return relation(rel.columns + (name,), rows)


def distinct(rel: Rel, key_columns: Sequence[str] | None = None) -> Rel:
    """Remove duplicates; with ``key_columns`` the first row per key wins."""
    keys = tuple(key_columns) if key_columns else rel.columns
    _require_columns(rel, keys)
    seen: set[tuple] = set()
    out: list[Row] = []
    for row in rel.rows:
        key = tuple(row[k] for k in keys)
        if key not in seen:
            seen.add(key)
            out.append(row)
    return relation(rel.columns, out)


def union_all(rel: Rel, other: Rel) -> Rel:
    """Bag union; both inputs must have identical column tuples."""
    if rel.columns != other.columns:
        raise QueryError(
            f"union over different schemas: {rel.columns} vs {other.columns}"
        )
    return relation(rel.columns, rel.rows + other.rows)


def union_distinct(
    rel: Rel, other: Rel, key_columns: Sequence[str] | None = None
) -> Rel:
    return distinct(union_all(rel, other), key_columns)


def join(
    rel: Rel,
    other: Rel,
    on: Sequence[tuple[str, str]],
    suffix: str = "_r",
) -> Rel:
    """Inner hash join on equality of ``(left_col, right_col)`` pairs.

    Left order preserved, right matches in row order, NULL keys never
    join; colliding right-side names get ``suffix``, right keys drop.
    """
    if not on:
        raise QueryError("join needs at least one key pair")
    left_keys = [pair[0] for pair in on]
    right_keys = [pair[1] for pair in on]
    _require_columns(rel, left_keys)
    _require_columns(other, right_keys)

    right_key_set = set(right_keys)
    rename: dict[str, str] = {}
    for name in other.columns:
        if name in right_key_set:
            continue
        rename[name] = name + suffix if name in rel.columns else name

    index: dict[tuple, list[Row]] = {}
    for row in other.rows:
        key = tuple(row[k] for k in right_keys)
        if any(part is None for part in key):
            continue  # NULL never joins
        index.setdefault(key, []).append(row)

    out_rows: list[Row] = []
    for row in rel.rows:
        key = tuple(row[k] for k in left_keys)
        matches = [] if any(part is None for part in key) else index.get(key, [])
        for match in matches:
            combined = dict(row)
            for in_name, out_name in rename.items():
                combined[out_name] = match[in_name]
            out_rows.append(combined)
    return relation(rel.columns + tuple(rename.values()), out_rows)


def group_by(
    rel: Rel,
    key_columns: Sequence[str],
    aggregates: Mapping[str, tuple[str, str | None]],
) -> Rel:
    """Grouping over per-group member lists, first-appearance order."""
    keys = tuple(key_columns)
    _require_columns(rel, keys)
    for fn_name, in_col in aggregates.values():
        if fn_name.upper() not in _AGGREGATES:
            raise QueryError(f"unknown aggregate {fn_name!r}")
        if in_col is not None:
            _require_columns(rel, [in_col])

    groups: dict[tuple, list[Row]] = {}
    order: list[tuple] = []
    for row in rel.rows:
        key = tuple(row[k] for k in keys)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)

    out_rows: list[Row] = []
    for key in order:
        members = groups[key]
        out_row: Row = dict(zip(keys, key))
        for out_name, (fn_name, in_col) in aggregates.items():
            fn = fn_name.upper()
            if fn == "COUNT":
                if in_col is None:
                    out_row[out_name] = len(members)
                else:
                    out_row[out_name] = sum(
                        1 for m in members if m[in_col] is not None
                    )
                continue
            values = [m[in_col] for m in members if m[in_col] is not None]
            if not values:
                out_row[out_name] = None
            elif fn == "SUM":
                out_row[out_name] = sum(values)
            elif fn == "MIN":
                out_row[out_name] = min(values)
            elif fn == "MAX":
                out_row[out_name] = max(values)
            else:  # AVG
                out_row[out_name] = sum(values) / len(values)
        out_rows.append(out_row)
    return relation(keys + tuple(aggregates.keys()), out_rows)


class _Desc:
    """Inverts comparison of one sort-key component (stable DESC sorts)."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Desc") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Desc) and other.value == self.value

    __hash__ = None  # type: ignore[assignment]


def order_by(rel: Rel, key_columns: Sequence[str], descending: bool = False) -> Rel:
    """Stable sort; NULLs first in both directions, ties keep input order."""
    keys = tuple(key_columns)
    _require_columns(rel, keys)
    if descending:

        def sort_key(row: Row) -> tuple:
            return tuple((row[k] is not None, _Desc(row[k])) for k in keys)

    else:

        def sort_key(row: Row) -> tuple:
            return tuple((row[k] is not None, row[k]) for k in keys)

    return relation(rel.columns, sorted(rel.rows, key=sort_key))


def limit(rel: Rel, n: int) -> Rel:
    if n < 0:
        raise QueryError(f"limit must be >= 0, got {n}")
    return relation(rel.columns, rel.rows[:n])


# -- table-level semantics ---------------------------------------------------


class Table:
    """A table without indexes or sharing: every read is a copying scan.

    ``rows_read``/``rows_written`` count the *logical* work the engine's
    cost model prices — a point lookup reads one row, a scan or
    snapshot the whole table — which is what
    production must keep charging however it answers the read.
    """

    def __init__(self, schema: TableSchema, rows: Iterable[Mapping[str, Any]] = ()):
        self.schema = schema
        self.rows: list[Row] = []
        self.rows_read = 0
        self.rows_written = 0
        #: Primary keys in use (uniqueness only; reads never consult it).
        self._keys: set[tuple] = set()
        for values in rows:
            self.insert(values)

    def __len__(self) -> int:
        return len(self.rows)

    def _copies(self, rows: Iterable[Row]) -> list[Row]:
        global rows_copied
        copies = [dict(row) for row in rows]
        rows_copied += len(copies)
        return copies

    def _replace_rows(self, rows: list[Row]) -> None:
        self.rows = rows
        if self.schema.primary_key:
            self._keys = {self.schema.pk_of(row) for row in rows}

    # -- DML -----------------------------------------------------------------

    def insert(self, values: Mapping[str, Any]) -> Row:
        row = self.schema.normalize(values)
        if self.schema.primary_key:
            key = self.schema.pk_of(row)
            if key in self._keys:
                raise IntegrityError(
                    f"table {self.schema.name}: duplicate primary key {key}"
                )
            self._keys.add(key)
        self.rows.append(row)
        self.rows_written += 1
        return row

    def delete(self, predicate: Expression | Callable[[Row], Any] | None = None) -> int:
        if predicate is None:
            kept: list[Row] = []
        elif isinstance(predicate, Expression):
            kept = [r for r in self.rows if evaluate(predicate, r) is not True]
        else:
            kept = [r for r in self.rows if not predicate(r)]
        removed = len(self.rows) - len(kept)
        self._replace_rows(kept)
        self.rows_written += removed
        return removed

    def update(
        self,
        assignments: Mapping[str, Any | Expression],
        predicate: Expression | Callable[[Row], Any] | None = None,
    ) -> int:
        unknown = [c for c in assignments if not self.schema.has_column(c)]
        if unknown:
            raise SchemaError(
                f"table {self.schema.name}: unknown columns {sorted(unknown)}"
            )
        updated = 0
        rows = list(self.rows)
        for position, row in enumerate(rows):
            if isinstance(predicate, Expression):
                if evaluate(predicate, row) is not True:
                    continue
            elif predicate is not None and not predicate(row):
                continue
            new_values = dict(row)
            for name, value in assignments.items():
                new_values[name] = (
                    evaluate(value, row) if isinstance(value, Expression) else value
                )
            rows[position] = self.schema.normalize(new_values)
            updated += 1
        self._replace_rows(rows)
        self.rows_written += updated
        return updated

    # -- reads ---------------------------------------------------------------

    def get(self, key: tuple | Any) -> Row | None:
        """Primary-key point lookup, charged as one row read."""
        if not self.schema.primary_key:
            raise QueryError(f"table {self.schema.name}: no primary key declared")
        if not isinstance(key, tuple):
            key = (key,)
        self.rows_read += 1
        found = [r for r in self.rows if self.schema.pk_of(r) == key]
        return self._copies(found)[0] if found else None

    def scan(
        self, predicate: Expression | Callable[[Row], Any] | None = None
    ) -> list[Row]:
        self.rows_read += len(self.rows)
        if predicate is None:
            return self._copies(self.rows)
        if isinstance(predicate, Expression):
            return self._copies(
                r for r in self.rows if evaluate(predicate, r) is True
            )
        return self._copies(r for r in self.rows if predicate(r))

    def to_relation(self) -> Rel:
        self.rows_read += len(self.rows)
        return relation(self.schema.column_names, self.rows)


def mirror(database: Any) -> dict[str, Table]:
    """Oracle twins of a database's tables (same schemas, same rows).

    ``database`` is :class:`repro.db.database.Database`-shaped, read by
    attribute; ``dump_rows`` copies without charging ``rows_read``.
    """
    return {
        name: Table(database.table(name).schema, database.table(name).dump_rows())
        for name in database.table_names
    }


def view(query: Any, tables: Mapping[str, Table]) -> Rel:
    """Recompute a declarative view definition from scratch.

    ``query`` is :class:`repro.db.active.ViewQuery`-shaped (read by
    attribute, not imported): scan the fact table, filter, join each
    projected dimension in order, extend, then group — each step through
    the operators above, each base table charged one full read.
    """
    rel = tables[query.fact_table].to_relation()
    if query.predicate is not None:
        rel = select(rel, query.predicate)
    for dimension in query.joins:
        right = tables[dimension.table].to_relation()
        if all(out == src for out, src in dimension.columns):
            right = keep(right, *(out for out, _ in dimension.columns))
        else:
            right = project(right, {out: src for out, src in dimension.columns})
        rel = join(rel, right, on=list(dimension.on))
    for name, expr in query.extend:
        rel = extend(rel, name, expr)
    if query.aggregates:
        rel = group_by(rel, query.group_keys, dict(query.aggregates))
    return rel

"""Table and column definitions.

A :class:`TableSchema` is a pure description — it owns no data.  The same
schema object is reused by the Initializer to create tables in several
database instances (e.g. the identical Orders table in Chicago, Baltimore
and Madison, Fig. 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Any, Callable, Mapping

from repro.errors import IntegrityError, SchemaError
from repro.db.types import EXACT_TYPE, coerce_value, validate_type_name


@dataclass(frozen=True)
class Column:
    """One column: name, SQL type, nullability and optional length.

    ``length`` is advisory for VARCHAR/CHAR (the engine does not truncate,
    but the Initializer uses it to size generated strings).
    """

    name: str
    sql_type: str
    nullable: bool = True
    length: int | None = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"invalid column name: {self.name!r}")
        object.__setattr__(self, "sql_type", validate_type_name(self.sql_type))
        if self.length is not None and self.length <= 0:
            raise SchemaError(f"column {self.name}: length must be positive")


@dataclass(frozen=True)
class ForeignKey:
    """A declarative foreign key: local columns reference a parent table.

    The engine checks foreign keys only when ``Database.check_integrity``
    is called (the paper's phase *post* verification), not on every insert —
    integration processes legitimately load child rows before parents.
    """

    columns: tuple[str, ...]
    parent_table: str
    parent_columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.columns) != len(self.parent_columns):
            raise SchemaError(
                f"foreign key to {self.parent_table}: column count mismatch"
            )
        if not self.columns:
            raise SchemaError("foreign key needs at least one column")


class TableSchema:
    """Schema of one table: columns, primary key, foreign keys.

    >>> ts = TableSchema("nation", [Column("nationkey", "INTEGER", nullable=False),
    ...                             Column("name", "VARCHAR", length=25)],
    ...                  primary_key=("nationkey",))
    >>> ts.column_names
    ('nationkey', 'name')
    """

    def __init__(
        self,
        name: str,
        columns: list[Column],
        primary_key: tuple[str, ...] = (),
        foreign_keys: list[ForeignKey] | None = None,
    ):
        if not name or not name.replace("_", "").isalnum():
            raise SchemaError(f"invalid table name: {name!r}")
        if not columns:
            raise SchemaError(f"table {name}: needs at least one column")
        self.name = name
        self.columns: tuple[Column, ...] = tuple(columns)
        self.column_names: tuple[str, ...] = tuple(c.name for c in self.columns)
        self.primary_key: tuple[str, ...] = tuple(primary_key)
        self.foreign_keys: tuple[ForeignKey, ...] = tuple(foreign_keys or ())

        self._by_name: dict[str, Column] = {}
        for column in self.columns:
            if column.name in self._by_name:
                raise SchemaError(f"table {name}: duplicate column {column.name}")
            self._by_name[column.name] = column
        for pk_col in self.primary_key:
            if pk_col not in self._by_name:
                raise SchemaError(f"table {name}: unknown PK column {pk_col}")
        for fk in self.foreign_keys:
            for fk_col in fk.columns:
                if fk_col not in self._by_name:
                    raise SchemaError(f"table {name}: unknown FK column {fk_col}")

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"table {self.name}: no column {name!r}") from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    @cached_property
    def pk_of(self) -> Callable[[Mapping[str, Any]], tuple]:
        """``pk_of(row)``: the primary-key tuple of a row dict."""
        pk = self.primary_key
        if len(pk) > 1:
            return itemgetter(*pk)
        if not pk:
            return lambda row: ()
        (column,) = pk
        return lambda row: (row[column],)

    @cached_property
    def normalize(self) -> Callable[[Mapping[str, Any]], dict[str, Any]]:
        """``normalize(values)``: the full stored row, in column order.

        Rejects unknown columns, fills missing ones with NULL, enforces
        NOT NULL and coerces every cell.  Compiled at the first write
        and shared by every table of this schema: what is fixed per
        column is bound once, and a cell that already has its column's
        exact Python type skips :func:`coerce_value`, which would return
        it untouched.
        """
        table = self.name
        known = frozenset(self.column_names)
        plan = tuple(
            (c.name, c.sql_type, EXACT_TYPE[c.sql_type], c.nullable)
            for c in self.columns
        )

        def normalize(values: Mapping[str, Any]) -> dict[str, Any]:
            if not known.issuperset(values):
                raise SchemaError(
                    f"table {table}: unknown columns {sorted(set(values) - known)}"
                )
            get = values.get
            row = {}
            for name, sql_type, exact, nullable in plan:
                value = get(name)
                if value is None:
                    if not nullable:
                        raise IntegrityError(
                            f"table {table}: column {name} is NOT NULL"
                        )
                elif type(value) is not exact:
                    value = coerce_value(sql_type, value)
                row[name] = value
            return row

        return normalize

    @cached_property
    def exact_types(self) -> tuple[type, ...]:
        """Per column, in order, the exact Python type of its stored cells."""
        return tuple(EXACT_TYPE[c.sql_type] for c in self.columns)

    @cached_property
    def copy_stored(self) -> Callable[[dict[str, Any]], dict[str, Any]]:
        """``copy_stored(row)``: :meth:`normalize` of a row of stored cells.

        Only for rows keyed by :attr:`column_names` in order whose cells
        were stored under columns of the same :attr:`exact_types`, which
        ``normalize`` returns unchanged: an exact-typed cell as it is, any
        other stored cell being a ``str``/``Decimal``/``date``/``datetime``
        subclass that :func:`coerce_value` returns as it is (stored ints,
        floats and bools are exact).  Left: NOT NULL, same text and order.
        """
        table = self.name
        required = tuple(c.name for c in self.columns if not c.nullable)

        def copy_stored(row: dict[str, Any]) -> dict[str, Any]:
            for name in required:
                if row[name] is None:
                    raise IntegrityError(f"table {table}: column {name} is NOT NULL")
            return row.copy()

        return copy_stored

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.sql_type}" for c in self.columns)
        return f"TableSchema({self.name}: {cols})"

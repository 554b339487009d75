"""SQL-ish type system for the relational engine.

The DIPBench schemas only need a small set of types (the TPC-H types plus
CLOB for queued XML messages, see Fig. 9a).  Values are stored as plain
Python objects; this module defines which Python types are acceptable for
each SQL type and how to coerce benchmark-generated values into them.
"""

from __future__ import annotations

import datetime
from decimal import Decimal, InvalidOperation
from typing import Any

from repro.errors import SchemaError

#: All SQL types known to the engine.
SqlType = str

_SUPPORTED: frozenset[str] = frozenset(
    {
        "INTEGER",
        "BIGINT",
        "DECIMAL",
        "DOUBLE",
        "VARCHAR",
        "CHAR",
        "DATE",
        "TIMESTAMP",
        "BOOLEAN",
        "CLOB",
    }
)

#: Per SQL type, the one Python type whose instances :func:`coerce_value`
#: returns untouched; the table write path stores such cells as they are
#: and calls :func:`coerce_value` for everything else.
EXACT_TYPE: dict[str, type] = {
    "INTEGER": int,
    "BIGINT": int,
    "DECIMAL": Decimal,
    "DOUBLE": float,
    "VARCHAR": str,
    "CHAR": str,
    "CLOB": str,
    "DATE": datetime.date,
    "TIMESTAMP": datetime.datetime,
    "BOOLEAN": bool,
}


def validate_type_name(name: str) -> str:
    """Return the canonical (upper-case) type name or raise SchemaError."""
    canonical = name.upper()
    if canonical not in _SUPPORTED:
        raise SchemaError(f"unsupported SQL type: {name!r}")
    return canonical


def coerce_value(sql_type: str, value: Any) -> Any:
    """Coerce ``value`` into the Python representation for ``sql_type``.

    Used by the table layer on insert so that, e.g., data-generator floats
    land in DECIMAL columns as :class:`~decimal.Decimal` and ISO strings
    land in DATE columns as :class:`datetime.date`.  Raises SchemaError on
    values that cannot be represented.
    """
    if value is None:
        return None
    try:
        if sql_type in ("INTEGER", "BIGINT"):
            if isinstance(value, bool):
                raise SchemaError(f"boolean not valid for {sql_type}")
            return int(value)
        if sql_type == "DECIMAL":
            if isinstance(value, Decimal):
                return value
            if isinstance(value, float):
                # Round floats the way a DECIMAL(p, 2) money column would.
                return Decimal(str(round(value, 4)))
            return Decimal(value)
        if sql_type == "DOUBLE":
            return float(value)
        if sql_type in ("VARCHAR", "CHAR", "CLOB"):
            return value if isinstance(value, str) else str(value)
        if sql_type == "DATE":
            if isinstance(value, datetime.datetime):
                return value.date()
            if isinstance(value, datetime.date):
                return value
            if isinstance(value, str):
                return datetime.date.fromisoformat(value)
            raise SchemaError(f"cannot coerce {value!r} to DATE")
        if sql_type == "TIMESTAMP":
            if isinstance(value, datetime.datetime):
                return value
            if isinstance(value, datetime.date):
                return datetime.datetime(value.year, value.month, value.day)
            if isinstance(value, str):
                return datetime.datetime.fromisoformat(value)
            raise SchemaError(f"cannot coerce {value!r} to TIMESTAMP")
        if sql_type == "BOOLEAN":
            if isinstance(value, bool):
                return value
            if isinstance(value, int):
                return bool(value)
            raise SchemaError(f"cannot coerce {value!r} to BOOLEAN")
    except (ValueError, TypeError, InvalidOperation) as exc:
        raise SchemaError(f"cannot coerce {value!r} to {sql_type}: {exc}") from exc
    raise SchemaError(f"unsupported SQL type: {sql_type!r}")

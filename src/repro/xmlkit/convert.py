"""Converters between relations and generic result-set XML.

Region Asia "follows a generic approach, where all schemas are expressed
with default result set XSDs" — the web services there are plain data
sources hidden behind XML.  The canonical shape produced and consumed
here is::

    <ResultSet table="orders">
      <Row>
        <orderkey>1</orderkey>
        <custkey>42</custkey>
        ...
      </Row>
      ...
    </ResultSet>

NULL column values are serialized as empty elements with a
``null="true"`` attribute so a round trip preserves them.
"""

from __future__ import annotations

import datetime
from decimal import Decimal
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.errors import XmlParseError
from repro.db.relation import Relation
from repro.xmlkit.doc import ResultSetRoot, XmlElement, cell_text


def rows_to_resultset(
    columns: Sequence[str],
    rows: Iterable[Mapping[str, Any]],
    table: str = "",
) -> ResultSetRoot:
    """Serialize rows into the generic result-set shape: a
    :class:`~repro.xmlkit.doc.ResultSetRoot`, rows until read as a tree."""
    attributes = {"table": table} if table else None
    return ResultSetRoot("ResultSet", attributes, columns, rows)


def relation_to_resultset(relation: Relation, table: str = "") -> ResultSetRoot:
    """Serialize a :class:`Relation` into the generic result-set shape."""
    return rows_to_resultset(relation.columns, relation.rows, table)


def _parse_boolean(text: str) -> bool:
    return text in ("true", "1", "True")


#: SQL type -> text parser; a type not listed here stays a string.
_PARSERS: dict[str, Callable[[str], Any]] = {
    "INTEGER": int,
    "BIGINT": int,
    "DECIMAL": Decimal,
    "DOUBLE": float,
    "DATE": datetime.date.fromisoformat,
    "TIMESTAMP": datetime.datetime.fromisoformat,
    "BOOLEAN": _parse_boolean,
}

#: SQL type -> the type its parser returns where a value's own text parses
#: back to it (not TIMESTAMP: the text drops ``fold`` and a named tzinfo).
_ROUND_TRIPS: dict[str, type] = {
    "INTEGER": int, "BIGINT": int, "DECIMAL": Decimal, "DOUBLE": float,
    "DATE": datetime.date, "BOOLEAN": bool,
}


class ColumnParsers(dict):
    """Column -> parser (None: keep the text) under one ``types`` mapping,
    each entry chosen at the column's first cell; ``kept`` maps the
    column to the one value type its text round-trips (or None).

    :func:`resultset_to_rows` builds one per call from a plain mapping; a
    caller converting many documents under one ``types`` that cannot
    change (``Convert.types``) passes the table itself.
    """

    __slots__ = ("types", "kept")

    def __init__(self, types: Mapping[str, str] | None):
        super().__init__()
        self.types = dict(types or {})
        self.kept: dict[str, type | None] = {}

    def __missing__(self, name: str) -> Callable[[str], Any] | None:
        sql_type = self.types.get(name)
        sql_type = None if sql_type is None else sql_type.upper()
        self.kept[name] = _ROUND_TRIPS.get(sql_type)
        parse = self[name] = _PARSERS.get(sql_type)
        return parse


def resultset_to_rows(
    document: XmlElement,
    types: Mapping[str, str] | ColumnParsers | None = None,
    result_tag: str = "ResultSet",
    row_tag: str = "Row",
) -> list[dict[str, Any]]:
    """Parse the generic result-set shape back into row dicts.

    ``types`` optionally maps column names to SQL types so values come
    back typed (``{"orderkey": "BIGINT", "total": "DECIMAL"}``); untyped
    columns stay strings.  ``result_tag``/``row_tag`` name a service's
    dialect of the shape; canonical ``<Row>`` elements are read in every
    dialect.

    A document still held as rows is read without its tree: a value of
    exactly the type its parser returns is kept (its text would parse
    back to it), any other goes through its text as the tree's would.
    """
    if document.tag != result_tag:
        raise XmlParseError(
            f"expected <{result_tag}>, got <{document.tag}>"
        )
    parsers = types if type(types) is ColumnParsers else ColumnParsers(types)
    rows: list[dict[str, Any]] = []
    if type(document) is ResultSetRoot and document.rows is not None:
        if document.row_tag != row_tag and document.row_tag != "Row":
            return rows
        columns, kept = document.columns, parsers.kept
        for source in document.rows:
            row = {}
            for name in columns:
                value = source.get(name)
                if value is not None:
                    parse = parsers[name]
                    if parse is None:
                        if type(value) is not str:
                            value = cell_text(value)
                    elif type(value) is not kept[name]:
                        value = parse(cell_text(value))
                row[name] = value
            rows.append(row)
        return rows
    for row_el in document.children:
        if row_el.tag != row_tag and row_el.tag != "Row":
            continue
        row: dict[str, Any] = {}
        for cell in row_el.children:
            name = cell.tag
            if cell.attributes.get("null") == "true":
                row[name] = None
                continue
            parse = parsers[name]
            text = cell.text or ""
            row[name] = parse(text) if parse else text
        rows.append(row)
    return rows

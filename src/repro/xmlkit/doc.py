"""XML document model: a minimal, predictable element tree.

The model deliberately supports only what the benchmark's message schemas
need — elements, attributes, text content, children — and ignores
namespaces, processing instructions and mixed content beyond a single text
node per element.  Parsing delegates to the standard library's expat-based
parser and then lifts the result into our model.
"""

from __future__ import annotations

import datetime
import xml.etree.ElementTree as ET
from decimal import Decimal
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import XmlParseError


class XmlElement:
    """One element: tag, attributes, text, children.

    >>> order = XmlElement("Order", {"id": "7"})
    >>> order.add(XmlElement("Amount", text="19.90"))
    <Amount>
    >>> order.find("Amount").text
    '19.90'
    """

    __slots__ = ("tag", "attributes", "text", "children")

    def __init__(
        self,
        tag: str,
        attributes: dict[str, str] | None = None,
        text: str | None = None,
        children: list["XmlElement"] | None = None,
    ):
        if not tag:
            raise XmlParseError("element tag must be non-empty")
        self.tag = tag
        self.attributes: dict[str, str] = dict(attributes) if attributes else {}
        self.text = text
        self.children: list[XmlElement] = list(children) if children else []

    # -- construction -----------------------------------------------------------

    def add(self, child: "XmlElement") -> "XmlElement":
        """Append a child and return it (for chained building)."""
        self.children.append(child)
        return child

    def add_text_child(self, tag: str, value: Any) -> "XmlElement":
        """Append ``<tag>value</tag>``; None becomes an empty element."""
        child = XmlElement(tag, None, None if value is None else str(value))
        self.children.append(child)
        return child

    # -- navigation -------------------------------------------------------------

    def find(self, tag: str) -> "XmlElement | None":
        """First direct child with the given tag, or None."""
        for child in self.children:
            if child.tag == tag:
                return child
        return None

    def find_all(self, tag: str) -> list["XmlElement"]:
        """All direct children with the given tag."""
        return [child for child in self.children if child.tag == tag]

    def child_text(self, tag: str, default: str | None = None) -> str | None:
        """Text of the first child with the given tag."""
        child = self.find(tag)
        return default if child is None else (child.text or "")

    def iter(self) -> Iterator["XmlElement"]:
        """Depth-first pre-order iteration including self."""
        yield self
        for child in self.children:
            yield from child.iter()

    # -- comparison / display -----------------------------------------------------

    def structurally_equal(self, other: "XmlElement") -> bool:
        """Deep equality on tag, attributes, normalized text and children."""
        if self.tag != other.tag or self.attributes != other.attributes:
            return False
        if (self.text or "").strip() != (other.text or "").strip():
            return False
        if len(self.children) != len(other.children):
            return False
        return all(
            mine.structurally_equal(theirs)
            for mine, theirs in zip(self.children, other.children)
        )

    def copy(self) -> "XmlElement":
        """Deep copy."""
        duplicate = XmlElement(self.tag, self.attributes, self.text)
        duplicate.children = [child.copy() for child in self.children]
        return duplicate

    def size(self) -> int:
        """Total number of elements in this subtree (cost-model input)."""
        count, level = 1, self.children
        while level:
            count += len(level)
            level = [below for element in level for below in element.children]
        return count

    def __repr__(self) -> str:
        return f"<{self.tag}>"


def cell_text(value: Any) -> str:
    """The text of a non-NULL result-set cell (a datetime is a date too)."""
    return value.isoformat() if isinstance(value, datetime.date) else str(value)


#: Cell types whose text is never empty.
_NEVER_BLANK = frozenset({int, bool, float, Decimal, datetime.date, datetime.datetime})

#: The ``children`` slot, read and written past ResultSetRoot's property.
_children = XmlElement.children


class ResultSetRoot(XmlElement):
    """A result-set document that is still its rows.

    ``columns``, ``rows`` and ``row_tag`` stand for the children of the
    generic result-set shape (:mod:`repro.xmlkit.convert`).  The first
    read of ``children`` builds that tree and ``rows`` becomes None;
    until then :meth:`size`, :meth:`copy`, ``resultset_to_rows`` and a
    renaming ``Stylesheet`` answer from the rows.  ``blank`` is the text
    of a cell that renders empty: ``""`` as built, None once translated
    (the walk copies only non-empty text).  The row dicts are shared, so
    whoever hands them over may not mutate them in place afterwards
    (docs/performance.md, "Zero-copy operators"); a value that cannot be
    rendered raises where the tree is built.
    """

    __slots__ = ("columns", "rows", "row_tag", "blank")

    def __init__(self, tag: str, attributes: dict[str, str] | None,
                 columns: Sequence[str], rows: Iterable[Mapping[str, Any]],
                 row_tag: str = "Row"):
        self.tag, self.text = tag, None
        self.attributes = dict(attributes) if attributes else {}
        self.columns, self.rows = tuple(columns), list(rows)
        self.row_tag, self.blank = row_tag, ""
        if self.rows and not all(self.columns):
            raise XmlParseError("element tag must be non-empty")

    @property
    def children(self) -> list[XmlElement]:
        if self.rows is not None:
            self._materialize()
        return _children.__get__(self)

    @children.setter
    def children(self, value: list[XmlElement]) -> None:
        self.rows = None
        _children.__set__(self, value)

    def _materialize(self) -> None:
        columns, row_tag, blank = self.columns, self.row_tag, self.blank
        new = XmlElement.__new__
        built = []
        for row in self.rows:
            # Cells are built in place: one allocation each, nothing copied.
            cells = []
            for name in columns:
                value = row.get(name)
                cell = new(XmlElement)
                cell.tag, cell.children = name, []
                if value is None:
                    cell.attributes, cell.text = {"null": "true"}, None
                else:
                    cell.attributes, cell.text = {}, cell_text(value) or blank
                cells.append(cell)
            row_el = new(XmlElement)
            row_el.tag, row_el.attributes, row_el.text = row_tag, {}, None
            row_el.children = cells
            built.append(row_el)
        self.children = built

    def size(self) -> int:
        if self.rows is None:
            return XmlElement.size(self)
        return 1 + len(self.rows) * (1 + len(self.columns))

    def copy(self) -> XmlElement:
        if self.rows is None:
            return XmlElement.copy(self)
        duplicate = ResultSetRoot(
            self.tag, self.attributes, self.columns, self.rows, self.row_tag
        )
        duplicate.text, duplicate.blank = self.text, self.blank
        return duplicate

    def event_count(self) -> int:
        """What ``stx.iter_events`` yields for the tree the rows stand for."""
        columns, rows = self.columns, self.rows
        texts = 0
        for row in rows:
            for name in columns:
                value = row.get(name)
                if value is not None and (
                    value if type(value) is str
                    else type(value) in _NEVER_BLANK or cell_text(value)
                ):
                    texts += 1
        return 2 + bool(self.text) + 2 * len(rows) * (1 + len(columns)) + texts


def _lift(node: ET.Element) -> XmlElement:
    element = XmlElement(
        node.tag,
        node.attrib,
        node.text.strip() if node.text and node.text.strip() else None,
    )
    for child in node:
        element.children.append(_lift(child))
    return element


def parse_xml(text: str) -> XmlElement:
    """Parse an XML string into an :class:`XmlElement` tree."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlParseError(f"malformed XML: {exc}") from exc
    return _lift(root)


def _escape(value: str) -> str:
    return (
        value.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def serialize_xml(element: XmlElement, indent: int | None = None) -> str:
    """Serialize a tree back to text; ``indent`` pretty-prints."""
    pieces: list[str] = []

    def emit(node: XmlElement, depth: int) -> None:
        prefix = "" if indent is None else ("\n" + " " * (indent * depth) if pieces else "")
        attrs = "".join(
            f' {name}="{_escape(value)}"' for name, value in node.attributes.items()
        )
        if not node.children and node.text is None:
            pieces.append(f"{prefix}<{node.tag}{attrs}/>")
            return
        pieces.append(f"{prefix}<{node.tag}{attrs}>")
        if node.text is not None:
            pieces.append(_escape(node.text))
        for child in node.children:
            emit(child, depth + 1)
        if node.children and indent is not None:
            pieces.append("\n" + " " * (indent * depth))
        pieces.append(f"</{node.tag}>")

    emit(element, 0)
    return "".join(pieces)

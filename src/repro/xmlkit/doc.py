"""XML document model: a minimal, predictable element tree.

The model deliberately supports only what the benchmark's message schemas
need — elements, attributes, text content, children — and ignores
namespaces, processing instructions and mixed content beyond a single text
node per element.  Parsing delegates to the standard library's expat-based
parser and then lifts the result into our model.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Iterator

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

"""XSD-subset schema definitions and validation.

The benchmark names several XML schemas — XSD_Beijing, XSD_Seoul, the
Vienna and San Diego message schemas, the MDM master-data schema and the
"default result set XSDs" of region Asia.  We model the subset those need:
element declarations with typed text content, ordered child sequences with
occurrence bounds, and typed (optionally required) attributes.

Validation never raises on the first problem; it collects *all* violations
so the P10 failed-data destinations can record what was wrong with an
error-prone San Diego message.
"""

from __future__ import annotations

import datetime
import re
from dataclasses import dataclass

from repro.errors import XsdValidationError
from repro.xmlkit.doc import XmlElement

#: Simple content types supported by the validator.
_SIMPLE_TYPES = ("string", "integer", "decimal", "date", "boolean")

_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")
_INTEGER_RE = re.compile(r"^[+-]?\d+$")


def _check_simple(type_name: str, text: str) -> bool:
    if type_name == "string":
        return True
    if type_name == "integer":
        return bool(_INTEGER_RE.match(text))
    if type_name == "decimal":
        return bool(_DECIMAL_RE.match(text))
    if type_name == "boolean":
        return text in ("true", "false", "0", "1")
    if type_name == "date":
        try:
            datetime.date.fromisoformat(text)
            return True
        except ValueError:
            return False
    raise XsdValidationError(f"unknown simple type {type_name!r}")


@dataclass(frozen=True)
class XsdAttribute:
    """One attribute declaration."""

    name: str
    type_name: str = "string"
    required: bool = False

    def __post_init__(self) -> None:
        if self.type_name not in _SIMPLE_TYPES:
            raise XsdValidationError(f"unknown attribute type {self.type_name!r}")


@dataclass(frozen=True)
class XsdElement:
    """One element declaration.

    ``content`` is the simple type of the text content (or None for pure
    container elements); empty text content is valid for any type.
    ``children`` is an *ordered sequence* of child declarations, each with
    ``min_occurs``/``max_occurs`` (None = unbounded).
    """

    name: str
    content: str | None = None
    attributes: tuple[XsdAttribute, ...] = ()
    children: tuple["XsdChild", ...] = ()

    def __post_init__(self) -> None:
        if self.content is not None and self.content not in _SIMPLE_TYPES:
            raise XsdValidationError(f"unknown content type {self.content!r}")


@dataclass(frozen=True)
class XsdChild:
    """Occurrence-bounded slot in a parent's child sequence."""

    element: XsdElement
    min_occurs: int = 1
    max_occurs: int | None = 1

    def __post_init__(self) -> None:
        if self.min_occurs < 0:
            raise XsdValidationError("min_occurs must be >= 0")
        if self.max_occurs is not None and self.max_occurs < self.min_occurs:
            raise XsdValidationError("max_occurs must be >= min_occurs")


def _render(path: str | tuple) -> str:
    """``Order/Lines[1]/Line[2]`` from the root tag or a ``(parent's
    path, tag, 1-based occurrence)`` chain."""
    segments: list[str] = []
    while not isinstance(path, str):
        path, name, occurrence = path
        segments.append(f"{name}[{occurrence}]")
    segments.append(path)
    return "/".join(reversed(segments))


class XsdSchema:
    """A named schema with a single root element declaration.

    >>> item = XsdElement("Item", content="string")
    >>> root = XsdElement("Order", children=(XsdChild(item, 1, None),))
    >>> schema = XsdSchema("demo", root)
    >>> from repro.xmlkit.doc import parse_xml
    >>> schema.validate(parse_xml("<Order><Item>x</Item></Order>"))
    []
    """

    def __init__(self, name: str, root: XsdElement):
        self.name = name
        self._root = root
        #: ``id(declaration) -> (attributes by name, child tags)`` for
        #: every declaration under ``root``.
        self._tables: dict[int, tuple[dict[str, XsdAttribute], frozenset[str]]] = {}
        pending = [root]
        while pending:
            decl = pending.pop()
            if id(decl) not in self._tables:
                self._tables[id(decl)] = (
                    {attr.name: attr for attr in decl.attributes},
                    frozenset(slot.element.name for slot in decl.children),
                )
                pending.extend(slot.element for slot in decl.children)

    @property
    def root(self) -> XsdElement:
        """The root element declaration (read-only, like every
        declaration under it)."""
        return self._root

    def validate(self, document: XmlElement) -> list[str]:
        """Return a list of human-readable violations (empty = valid)."""
        if document.tag != self.root.name:
            return [f"root element is <{document.tag}>, expected <{self.root.name}>"]
        # Collected as (where, what): a path is spelled out only for an
        # element that has something wrong with it.
        violations: list[tuple] = []
        self._validate_element(document, self.root, document.tag, violations)
        return [_render(path) + problem for path, problem in violations]

    def assert_valid(self, document: XmlElement) -> None:
        """Raise :class:`XsdValidationError` carrying all violations."""
        violations = self.validate(document)
        if violations:
            raise XsdValidationError(
                f"document does not conform to schema {self.name}: "
                f"{len(violations)} violation(s)",
                violations,
            )

    # -- internals -------------------------------------------------------------

    def _validate_element(
        self,
        node: XmlElement,
        decl: XsdElement,
        path: str | tuple,
        violations: list[tuple],
    ) -> None:
        self._validate_attributes(node, decl, path, violations)
        self._validate_content(node, decl, path, violations)
        self._validate_children(node, decl, path, violations)

    def _validate_attributes(
        self,
        node: XmlElement,
        decl: XsdElement,
        path: str | tuple,
        violations: list[tuple],
    ) -> None:
        declared = self._tables[id(decl)][0]
        for attr_name, value in node.attributes.items():
            attr_decl = declared.get(attr_name)
            if attr_decl is None:
                violations.append((path, f": undeclared attribute {attr_name!r}"))
            elif not _check_simple(attr_decl.type_name, value):
                violations.append((
                    path,
                    f"@{attr_name}: {value!r} is not a valid {attr_decl.type_name}",
                ))
        for attr_decl in decl.attributes:
            if attr_decl.required and attr_decl.name not in node.attributes:
                violations.append(
                    (path, f": missing required attribute {attr_decl.name!r}")
                )

    def _validate_content(
        self,
        node: XmlElement,
        decl: XsdElement,
        path: str | tuple,
        violations: list[tuple],
    ) -> None:
        text = (node.text or "").strip()
        if decl.content is None:
            if text:
                violations.append((path, f": unexpected text content {text!r}"))
            return
        if text and not _check_simple(decl.content, text):
            violations.append(
                (path, f": {text!r} is not a valid {decl.content}")
            )

    def _validate_children(
        self,
        node: XmlElement,
        decl: XsdElement,
        path: str | tuple,
        violations: list[tuple],
    ) -> None:
        declared_tags = self._tables[id(decl)][1]
        for child_node in node.children:
            if child_node.tag not in declared_tags:
                violations.append((path, f": undeclared child <{child_node.tag}>"))
        position = 0
        total = len(node.children)
        for slot in decl.children:
            count = 0
            while (
                position < total
                and node.children[position].tag == slot.element.name
            ):
                child_path = (path, slot.element.name, count + 1)
                self._validate_element(
                    node.children[position], slot.element, child_path, violations
                )
                position += 1
                count += 1
                if slot.max_occurs is not None and count > slot.max_occurs:
                    break
            if count < slot.min_occurs:
                violations.append((
                    path,
                    f": <{slot.element.name}> occurs {count} time(s), "
                    f"minimum is {slot.min_occurs}",
                ))
            if slot.max_occurs is not None and count > slot.max_occurs:
                violations.append((
                    path,
                    f": <{slot.element.name}> occurs more than "
                    f"{slot.max_occurs} time(s)",
                ))
        if position < total:
            leftover = node.children[position].tag
            if leftover in declared_tags:
                violations.append(
                    (path, f": child <{leftover}> appears out of sequence")
                )

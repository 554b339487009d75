"""The reference model of the XML path.

These are the bodies ``repro.xmlkit`` and the CdbOrder splitter had
before the walk stopped paying per element, verbatim:
:class:`Stylesheet` pulls every element through :func:`iter_events`
tuples and one frame tuple per open element, and builds each output
element through ``open_element`` and ``XmlElement.__init__``;
:func:`size` recurses; :func:`rows_to_resultset` builds the whole tree
at the call; :func:`resultset_to_rows` walks a seven-way type chain per
cell; :func:`cdb_order_to_rows` searches the children once per field;
:func:`validate` re-derives the declared attribute and child tables and
formats a path for every element.  Production compiles a stylesheet per
path and walks the tree directly, counts with an explicit stack, keeps
a result set as its rows until something reads it as a tree (renaming
stylesheets, ``size()`` and ``resultset_to_rows`` never do), picks one
parser per column, reads children in one pass and derives declaration
tables once; ``tests/xmlkit/test_transform_equivalence.py`` and
``test_resultset_equivalence.py`` hold it to *this* module: same
serialized output, same ``events_processed`` (on every error path too),
same rows, same violation text in the same order, same exception types
and messages.

Independence is the point: nothing here may import ``Stylesheet``,
``repro.xmlkit.convert``, ``repro.xmlkit.xsd`` or the process helpers
(the element model, the rule classes and the event view are shared
vocabulary — the input of the oracle, not what it checks).
"""

from __future__ import annotations

import datetime
import re
from decimal import Decimal
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import StxError, XmlParseError, XsdValidationError
from repro.xmlkit.doc import XmlElement
from repro.xmlkit.stx import UnwrapRule, _Rule

# ------------------------------------------------------------------ event model

#: Event kinds of the streaming walk.
START, TEXT, END = "start", "text", "end"


def iter_events(root: XmlElement) -> Iterator[tuple]:
    """Stream a tree as (START, tag, attrs) / (TEXT, text) / (END, tag).

    The event view of a tree: what ``Stylesheet.transform`` counts and
    returns beside its result, one for one and in this order.
    """
    stack: list[tuple[XmlElement, int]] = [(root, 0)]
    yield (START, root.tag, dict(root.attributes))
    if root.text:
        yield (TEXT, root.text)
    while stack:
        node, child_index = stack[-1]
        if child_index < len(node.children):
            stack[-1] = (node, child_index + 1)
            child = node.children[child_index]
            yield (START, child.tag, dict(child.attributes))
            if child.text:
                yield (TEXT, child.text)
            stack.append((child, 0))
        else:
            stack.pop()
            yield (END, node.tag)

def structurally_equal(mine: XmlElement, theirs: XmlElement) -> bool:
    """Deep equality on tag, attributes, stripped text and children."""
    if mine.tag != theirs.tag or mine.attributes != theirs.attributes:
        return False
    if (mine.text or "").strip() != (theirs.text or "").strip():
        return False
    if len(mine.children) != len(theirs.children):
        return False
    return all(map(structurally_equal, mine.children, theirs.children))


# ------------------------------------------------------------------ stylesheet


class Stylesheet:
    """``repro.xmlkit.stx.Stylesheet`` as of the parent commit."""

    def __init__(self, name: str, rules: Iterable[_Rule]):
        self.name = name
        self.rules: list[_Rule] = list(rules)
        #: Number of events processed over this stylesheet's lifetime
        #: (feeds the engine's processing-cost model).
        self.events_processed = 0
        #: ``path -> best rule``, filled per distinct path; valid only
        #: while ``rules`` equals ``_dispatch_rules``.
        self._dispatch: dict[tuple[str, ...], _Rule | None] = {}
        self._dispatch_rules: list[_Rule] = []

    def _best_rule(self, path: tuple[str, ...]) -> _Rule | None:
        best: _Rule | None = None
        for rule in self.rules:
            if rule.matches(path):
                if best is None or rule.specificity > best.specificity:
                    best = rule
        return best

    def transform(self, document: XmlElement) -> XmlElement:
        """Run the stylesheet over ``document`` and return the new tree.

        The walk keeps one frame per open (non-dropped) input element.
        A frame is either a real output element, or an *unwrap* marker
        that re-parents children to the frame below it.  Each distinct
        element path is matched against the rule list once per
        stylesheet; later elements on that path take the remembered rule.
        """
        if self.rules != self._dispatch_rules:
            self._dispatch_rules = list(self.rules)
            self._dispatch = {}
        dispatch = self._dispatch
        # Frames: ("elem", element, rule, path) or
        # ("unwrap", parent_or_None, rule, path) — either way the top
        # frame's second slot is where children go.
        frames: list[tuple[str, XmlElement | None, _Rule | None, tuple]] = []
        dropped_depth = 0
        result: XmlElement | None = None
        events = 0
        try:
            for event in iter_events(document):
                events += 1
                kind = event[0]
                if kind == START:
                    if dropped_depth:
                        dropped_depth += 1
                        continue
                    _, tag, attributes = event
                    if frames:
                        _, parent, _, path = frames[-1]
                        path += (tag,)
                    else:
                        parent, path = None, (tag,)
                    try:
                        rule = dispatch[path]
                    except KeyError:
                        rule = dispatch[path] = self._best_rule(path)
                    if rule is None:
                        out = XmlElement(tag, attributes)  # identity template
                    elif isinstance(rule, UnwrapRule):
                        frames.append(("unwrap", parent, rule, path))
                        continue
                    else:
                        out = rule.open_element(tag, attributes)
                        if out is None:
                            dropped_depth = 1
                            continue
                    if parent is not None:
                        parent.children.append(out)
                    frames.append(("elem", out, rule, path))
                elif kind == TEXT:
                    if dropped_depth:
                        continue
                    if not frames:
                        raise StxError("text event outside any element")
                    frame_kind, element, rule, _ = frames[-1]
                    if frame_kind == "unwrap":
                        continue  # unwrapped containers lose their text
                    text = event[1]
                    element.text = rule.rewrite_text(text) if rule else text
                else:  # END
                    if dropped_depth:
                        dropped_depth -= 1
                        continue
                    frame_kind, element, _, _ = frames.pop()
                    if frame_kind == "elem" and (
                        not frames or frames[-1][1] is None
                    ):
                        if result is not None:
                            raise StxError(
                                f"stylesheet {self.name} produced multiple "
                                "root elements"
                            )
                        result = element
        finally:
            self.events_processed += events

        if result is None:
            raise StxError(
                f"stylesheet {self.name} dropped the document root; "
                "no output produced"
            )
        return result


# ------------------------------------------------------------------ tree size


def size(element: XmlElement) -> int:
    """``XmlElement.size`` as of the parent commit."""
    return 1 + sum(size(child) for child in element.children)


# ---------------------------------------------------------------- result sets


def rows_to_resultset(
    columns: Sequence[str],
    rows: Iterable[Mapping[str, Any]],
    table: str = "",
) -> XmlElement:
    """Serialize rows into the generic result-set shape."""
    result = XmlElement("ResultSet", {"table": table} if table else None)
    add_row = result.children.append
    new = XmlElement.__new__
    for row in rows:
        # Cells are built in place: one allocation each, nothing copied.
        cells = []
        for name in columns:
            if not name:
                raise XmlParseError("element tag must be non-empty")
            value = row.get(name)
            cell = new(XmlElement)
            cell.tag = name
            if value is None:
                cell.attributes = {"null": "true"}
                cell.text = None
            else:
                cell.attributes = {}
                cell.text = (
                    value.isoformat()
                    if isinstance(value, datetime.date)  # datetimes too
                    else str(value)
                )
            cell.children = []
            cells.append(cell)
        row_el = XmlElement("Row")
        row_el.children = cells
        add_row(row_el)
    return result


def resultset_to_rows(
    document: XmlElement,
    types: Mapping[str, str] | None = None,
) -> list[dict[str, Any]]:
    """Parse the generic result-set shape back into row dicts."""
    if document.tag != "ResultSet":
        raise XmlParseError(
            f"expected <ResultSet>, got <{document.tag}>"
        )
    types = dict(types or {})
    rows: list[dict[str, Any]] = []
    for row_el in document.find_all("Row"):
        row: dict[str, Any] = {}
        for cell in row_el.children:
            if cell.attributes.get("null") == "true":
                row[cell.tag] = None
                continue
            text = cell.text or ""
            row[cell.tag] = _parse_typed(text, types.get(cell.tag))
        rows.append(row)
    return rows


def _parse_typed(text: str, sql_type: str | None) -> Any:
    if sql_type is None:
        return text
    sql_type = sql_type.upper()
    if sql_type in ("INTEGER", "BIGINT"):
        return int(text)
    if sql_type == "DECIMAL":
        return Decimal(text)
    if sql_type == "DOUBLE":
        return float(text)
    if sql_type == "DATE":
        return datetime.date.fromisoformat(text)
    if sql_type == "TIMESTAMP":
        return datetime.datetime.fromisoformat(text)
    if sql_type == "BOOLEAN":
        return text in ("true", "1", "True")
    return text


def from_dialect(document: XmlElement, result_tag: str, row_tag: str) -> XmlElement:
    """What ``WebService.op_update`` did to a dialect document before
    reading it: a deep copy with the root and row tags made canonical."""
    document = document.copy()
    document.tag = "ResultSet"
    for row in document.children:
        if row.tag == row_tag:
            row.tag = "Row"
    return document


# ------------------------------------------------------------------ CdbOrder


def _text(element: XmlElement, tag: str) -> str | None:
    """Child text, searching one nested level (Head blocks)."""
    direct = element.child_text(tag)
    if direct is not None:
        return direct
    for child in element.children:
        nested = child.child_text(tag)
        if nested is not None:
            return nested
    return None


def cdb_order_to_rows(document: XmlElement) -> tuple[dict, list[dict]]:
    """Parse a canonical ``<CdbOrder>`` message into order + line rows."""
    orderkey = int(_text(document, "Orderkey"))
    order = {
        "orderkey": orderkey,
        "custkey": int(_text(document, "Custkey")),
        "orderdate": datetime.date.fromisoformat(_text(document, "Orderdate")),
        "status": _text(document, "Status"),
        "priority": _text(document, "Priority"),
        "totalprice": None,
    }
    total_text = _text(document, "Totalprice")
    lines: list[dict] = []
    computed_total = Decimal("0")
    lines_parent = document.find("Lines")
    for line in (lines_parent.find_all("Line") if lines_parent else []):
        extended = Decimal(line.child_text("Extendedprice") or "0")
        computed_total += extended
        discount_text = line.child_text("Discount")
        lines.append(
            {
                "orderkey": orderkey,
                "linenumber": int(line.child_text("Linenumber")),
                "prodkey": int(line.child_text("Prodkey")),
                "quantity": int(line.child_text("Quantity")),
                "extendedprice": extended,
                "discount": Decimal(discount_text) if discount_text else None,
            }
        )
    order["totalprice"] = Decimal(total_text) if total_text else computed_total
    return order, lines


# ------------------------------------------------------------ XSD validation

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


def validate(schema: Any, document: XmlElement) -> list[str]:
    """``XsdSchema.validate`` as of the parent commit: the violations of
    ``document`` against ``schema.root`` (any ``XsdSchema``-shaped
    object: the declarations are the input, not what is checked)."""
    violations: list[str] = []
    if document.tag != schema.root.name:
        violations.append(
            f"root element is <{document.tag}>, expected <{schema.root.name}>"
        )
        return violations
    _validate_element(document, schema.root, document.tag, violations)
    return violations


def _validate_element(node, decl, path: str, violations: list[str]) -> None:
    _validate_attributes(node, decl, path, violations)
    _validate_content(node, decl, path, violations)
    _validate_children(node, decl, path, violations)


def _validate_attributes(node, decl, path: str, violations: list[str]) -> None:
    declared = {attr.name: attr for attr in decl.attributes}
    for attr_name, value in node.attributes.items():
        attr_decl = declared.get(attr_name)
        if attr_decl is None:
            violations.append(f"{path}: undeclared attribute {attr_name!r}")
        elif not _check_simple(attr_decl.type_name, value):
            violations.append(
                f"{path}@{attr_name}: {value!r} is not a valid "
                f"{attr_decl.type_name}"
            )
    for attr_decl in decl.attributes:
        if attr_decl.required and attr_decl.name not in node.attributes:
            violations.append(
                f"{path}: missing required attribute {attr_decl.name!r}"
            )


def _validate_content(node, decl, path: str, violations: list[str]) -> None:
    text = (node.text or "").strip()
    if decl.content is None:
        if text:
            violations.append(f"{path}: unexpected text content {text!r}")
        return
    if not text:
        return
    if not _check_simple(decl.content, text):
        violations.append(
            f"{path}: {text!r} is not a valid {decl.content}"
        )


def _validate_children(node, decl, path: str, violations: list[str]) -> None:
    declared_tags = {child.element.name for child in decl.children}
    for child_node in node.children:
        if child_node.tag not in declared_tags:
            violations.append(f"{path}: undeclared child <{child_node.tag}>")
    position = 0
    total = len(node.children)
    for slot in decl.children:
        count = 0
        while (
            position < total
            and node.children[position].tag == slot.element.name
        ):
            child_path = f"{path}/{slot.element.name}[{count + 1}]"
            _validate_element(
                node.children[position], slot.element, child_path, violations
            )
            position += 1
            count += 1
            if slot.max_occurs is not None and count > slot.max_occurs:
                break
        if count < slot.min_occurs:
            violations.append(
                f"{path}: <{slot.element.name}> occurs {count} time(s), "
                f"minimum is {slot.min_occurs}"
            )
        if slot.max_occurs is not None and count > slot.max_occurs:
            violations.append(
                f"{path}: <{slot.element.name}> occurs more than "
                f"{slot.max_occurs} time(s)"
            )
    if position < total:
        leftover = node.children[position].tag
        if leftover in declared_tags:
            violations.append(
                f"{path}: child <{leftover}> appears out of sequence"
            )

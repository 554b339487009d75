"""Differential conformance of the XML path.

The oracle is ``tests/oracle/xml.py``: the event-loop ``transform``,
the recursive ``size()``, the converters, the CdbOrder splitter and the
validator as they were when each paid per element.  Production must
answer the same on every input — serialized output, the events a
transform returns against the oracle's ``events_processed``, rows with
their types, violation text in order, exception types and messages —
over random trees and rule lists, over rules edited in place between
calls, and over every document one benchmark period feeds each
stylesheet, schema and the splitter.
"""

import ast
import datetime
import pathlib
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenario.processes.helpers import cdb_order_to_rows
from repro.scenario.xmlschemas import sandiego_schema
from repro.xmlkit.convert import (
    relation_to_resultset,
    resultset_to_rows,
    rows_to_resultset,
)
from repro.db.relation import Relation
from repro.xmlkit.doc import XmlElement, parse_xml, serialize_xml
from repro.xmlkit.stx import (
    DropRule,
    RenameRule,
    Stylesheet,
    TemplateRule,
    UnwrapRule,
    ValueRule,
)
from repro.xmlkit.xsd import XsdAttribute, XsdChild, XsdElement, XsdSchema
from tests.oracle import xml as oracle
from tests.oracle.xml import iter_events


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", type, text)`` — compared, not handled."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def serialized(result):
    kind, *rest = result
    return (kind, serialize_xml(rest[0])) if kind == "ok" else result


# ---------------------------------------------------------------------- trees

TAGS = ("a", "b", "c", "d")
texts = st.sampled_from([None, "", " ", "  x ", "1", "1-URGENT", "<&>"])
attribute_maps = st.dictionaries(
    st.sampled_from(["id", "k", "nr"]), st.sampled_from(["1", "", "v<"]), max_size=2
)


def trees(tags=TAGS, depth=6):
    leaf = st.builds(XmlElement, st.sampled_from(tags), attribute_maps, texts)
    return st.recursive(
        leaf,
        lambda children: st.builds(
            XmlElement,
            st.sampled_from(tags),
            attribute_maps,
            texts,
            st.lists(children, max_size=3),
        ),
        max_leaves=25,
    ).filter(lambda tree: height(tree) <= depth)


def height(tree):
    return 1 + max(map(height, tree.children), default=0)


# ---------------------------------------------------------------------- rules

#: Overlapping ``//`` and exact patterns, several of equal specificity.
PATTERNS = ("//a", "//b", "//c", "//a/b", "//b/c", "//a/b/c",
            "/a", "/b", "/a/b", "/a/a", "/a/b/c", "/a/c")


def _boom(*_):
    raise ValueError("boom")


def _wrapped(tag, attributes):
    element = XmlElement("T", attributes)
    element.add_text_child("was", tag)
    element.text = "preset"
    return element


def _marked(tag, attributes):
    attributes["seen"] = tag  # a template owns the dict it is given
    return XmlElement(tag, attributes)


class LoudRename(RenameRule):
    """A subclass is called, not inlined: its overrides must be seen."""

    def open_element(self, tag, attributes):
        return XmlElement(self.to.upper(), {"n": str(len(attributes))})

    def rewrite_text(self, text):
        return text[::-1]


patterns = st.sampled_from(PATTERNS)
rules = st.one_of(
    st.builds(
        RenameRule,
        patterns,
        st.sampled_from(["x", "y", ""]),
    ),
    st.builds(DropRule, patterns),
    st.builds(
        ValueRule,
        patterns,
        st.sampled_from([None, "v", ""]),
        st.sampled_from([None, {"1": "one", "1-URGENT": "U"}, str.upper, _boom]),
    ),
    st.builds(UnwrapRule, patterns),
    st.builds(
        TemplateRule,
        patterns,
        st.sampled_from([_wrapped, _marked, lambda tag, attributes: None, _boom]),
    ),
    st.builds(LoudRename, patterns, st.just("loud")),
)


class Pair:
    """One rule list under production and under the oracle."""

    def __init__(self, rule_list, name="s"):
        self.new = Stylesheet(name, rule_list)
        self.old = oracle.Stylesheet(name, rule_list)

    def check(self, document):
        counted = self.old.events_processed
        new = outcome(self.new.transform, document)
        old = serialized(outcome(self.old.transform, document))
        if new[0] == "ok":
            tree, events = new[1]
            new = serialized(("ok", tree))
            assert events == self.old.events_processed - counted, new
            # The whole event view, dropped subtrees included.
            assert events == sum(1 for _ in iter_events(document))
        assert new == old
        return new

    def retarget(self, to):
        """Edit the rules in place: both sheets hold the same objects."""
        for rule in self.new._rules:
            if type(rule) in (RenameRule, ValueRule):
                rule.to = to


class TestTransformMatchesTheOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(rules, max_size=6), st.lists(trees(), min_size=1, max_size=3))
    def test_random_rules_over_random_trees(self, rule_list, documents):
        pair = Pair(rule_list)
        for document in documents:
            pair.check(document)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(rules, max_size=4),
        st.lists(
            st.tuples(st.sampled_from(["z", ""]), trees(depth=4)),
            min_size=1,
            max_size=5,
        ),
    )
    def test_rules_edited_between_transforms(self, rule_list, steps):
        """A rule's target edited in place: the next transform honours
        it, as the oracle's does (the rule list itself is a tuple and
        refuses edits)."""
        pair = Pair(rule_list)
        pair.check(XmlElement("a", None, "1", [XmlElement("b"), XmlElement("c")]))
        for to, document in steps:
            pair.retarget(to)
            pair.check(document)

    DOC = "<a id='1'>t<b k='2'>1<c>x</c><c/></b><b>  </b><d><b>1-URGENT</b></d></a>"

    @pytest.mark.parametrize(
        "rule_list, expected",
        [
            pytest.param(
                [UnwrapRule("/a")], "raised", id="unwrap-at-the-root-two-roots"
            ),
            pytest.param(
                [UnwrapRule("/a"), DropRule("//b")],
                "ok",
                id="root-unwrapped-one-root-left",
            ),
            pytest.param([DropRule("/a")], "raised", id="drop-of-the-root"),
            pytest.param(
                [UnwrapRule("/a"), UnwrapRule("//b"), UnwrapRule("//d"),
                 DropRule("//c")],
                "raised",
                id="everything-unwrapped-away",
            ),
            pytest.param(
                [TemplateRule("//b", lambda tag, attributes: None)],
                "ok",
                id="template-returning-none",
            ),
            pytest.param([TemplateRule("//c", _boom)], "raised", id="template-raises"),
            pytest.param(
                [ValueRule("//d/b", value_map=_boom)],
                "raised",
                id="value-callable-raises",
            ),
            pytest.param([RenameRule("//c", "")], "raised", id="rename-to-empty"),
            pytest.param(
                [RenameRule("//b", "x"), RenameRule("//b", "y"),
                 RenameRule("/a/b", "exact"), RenameRule("//d/b", "deeper")],
                "ok",
                id="ties-and-specificity",
            ),
            pytest.param(
                [LoudRename("//b", "loud"), ValueRule("//c", "v", {"x": "y"})],
                "ok",
                id="subclass-is-called",
            ),
        ],
    )
    def test_the_named_corners(self, rule_list, expected):
        pair = Pair(rule_list)
        result = pair.check(parse_xml(self.DOC))
        assert result[0] == expected, result
        pair.check(parse_xml(self.DOC))  # and again, on the warm plan

    def test_the_walk_does_not_recurse(self):
        chain = leaf = XmlElement("a")
        for _ in range(5000):
            leaf = leaf.add(XmlElement("a"))
        sheet = Stylesheet("deep", [RenameRule("//a", "b")])
        tree, events = sheet.transform(chain)
        assert tree.size() == chain.size() == 5001
        assert events == 2 * 5001

    def test_every_scenario_stylesheet_over_a_period_of_documents(self, period_xml):
        transformed = 0
        for sheet, documents in period_xml.sheets.values():
            pair = Pair(sheet._rules, sheet.name)
            for document in documents:
                assert pair.check(document)[0] == "ok", sheet.name
            transformed += len(documents)
        assert len(period_xml.sheets) >= 7 and transformed > 100


# ----------------------------------------------------------------- tree size


class TestSizeMatchesTheOracle:
    @settings(max_examples=200, deadline=None)
    @given(trees())
    def test_random_trees(self, tree):
        assert tree.size() == oracle.size(tree)

    def test_every_document_of_a_period(self, period_xml):
        for _, documents in period_xml.sheets.values():
            for document in documents:
                assert document.size() == oracle.size(document)


# --------------------------------------------------------------- result sets

cells = st.sampled_from([
    None, 0, 7, -3, True, 1.5, "", "text", " <&> ", Decimal("1.50"), Decimal("7"),
    datetime.date(2007, 3, 4), datetime.datetime(2007, 3, 4, 5, 6, 7),
])
COLUMNS = ("k", "name", "amount", "day")
row_dicts = st.dictionaries(st.sampled_from(COLUMNS + ("extra",)), cells)


class TestRowsToResultsetMatchesTheOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.sampled_from(COLUMNS + ("",)), max_size=5),
        st.lists(row_dicts, max_size=4),
        st.sampled_from(["", "orders"]),
    )
    def test_random_rows(self, columns, rows, table):
        """NULLs, dates, Decimals, missing cells; an empty column name
        is refused at the first row and unnoticed without one."""
        new = serialized(outcome(rows_to_resultset, columns, rows, table))
        old = serialized(outcome(oracle.rows_to_resultset, columns, rows, table))
        assert new == old

    def test_rows_may_be_a_generator_and_a_relation(self):
        rows = [{"k": 1, "name": None}, {"k": 2, "name": "b"}]
        expected = serialize_xml(oracle.rows_to_resultset(("k", "name"), rows, "t"))
        assert serialize_xml(
            rows_to_resultset(("k", "name"), (row for row in rows), "t")
        ) == expected
        relation = Relation(("k", "name"), rows)
        assert serialize_xml(relation_to_resultset(relation, "t")) == expected


TYPE_NAMES = st.sampled_from([
    None, "INTEGER", "BIGINT", "DECIMAL", "DOUBLE", "DATE", "TIMESTAMP",
    "BOOLEAN", "VARCHAR", "decimal", "Date", "NO_SUCH_TYPE",
])


def typed(result):
    """Rows with each value's type beside it (1 == True == 1.0)."""
    kind, *rest = result
    if kind != "ok":
        return result
    return [[(k, type(v), repr(v)) for k, v in row.items()] for row in rest[0]]


class TestResultsetToRowsMatchesTheOracle:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(row_dicts, max_size=4),
        st.dictionaries(st.sampled_from(COLUMNS + ("extra",)), TYPE_NAMES),
        st.booleans(),
    )
    def test_random_documents_and_type_maps(self, rows, types, no_types):
        document = oracle.rows_to_resultset(COLUMNS + ("extra",), rows, "t")
        types = None if no_types else types
        assert typed(outcome(resultset_to_rows, document, types)) == typed(
            outcome(oracle.resultset_to_rows, document, types)
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["ResultSet", "BJData", "Other"]),
        st.lists(
            st.tuples(
                st.sampled_from(["Row", "Tuple", "Junk"]), st.sampled_from("123")
            ),
            max_size=5,
        ),
        st.sampled_from(["Tuple", "Row"]),
    )
    def test_a_dialect_is_read_as_its_canonical_copy_was(self, root, rows, row_tag):
        """``WebService.op_update`` used to deep-copy a dialect document
        and rename its tags before reading it."""
        document = XmlElement(root, {"table": "t"})
        for tag, value in rows:
            document.add(XmlElement(tag)).add_text_child("k", value)
        before = serialize_xml(document)
        new = outcome(
            resultset_to_rows, document, {"k": "INTEGER"}, "BJData", row_tag
        )
        assert serialize_xml(document) == before
        if root != "BJData":
            assert new == (
                "raised", oracle.XmlParseError, f"expected <BJData>, got <{root}>"
            )
        else:
            canonical = oracle.from_dialect(document, "BJData", row_tag)
            assert new == outcome(
                oracle.resultset_to_rows, canonical, {"k": "INTEGER"}
            )

    def test_a_bad_cell_raises_what_it_raised(self):
        document = oracle.rows_to_resultset(("k",), [{"k": "12,5"}])
        for sql_type in ("INTEGER", "DECIMAL", "DOUBLE", "DATE", "TIMESTAMP"):
            new = outcome(resultset_to_rows, document, {"k": sql_type})
            assert new[0] == "raised"
            assert new == outcome(oracle.resultset_to_rows, document, {"k": sql_type})


# ------------------------------------------------------------------ CdbOrder

field_texts = st.sampled_from([None, "", "7", "42", "2007-03-04", "1.50", "x"])
HEAD = ("Orderkey", "Custkey", "Orderdate", "Status", "Priority", "Totalprice")
LINE = ("Linenumber", "Prodkey", "Quantity", "Extendedprice", "Discount")


def _fields(names):
    """Some of ``names`` (any may be missing or doubled), each with a text."""
    return st.lists(st.tuples(st.sampled_from(names), field_texts), max_size=8)


@st.composite
def cdb_orders(draw):
    root = XmlElement("CdbOrder")
    head = root
    if draw(st.booleans()):  # a nested head block; Vienna's is unwrapped
        head = root.add(XmlElement("Head"))
    for name, text in draw(_fields(HEAD)):
        (head if draw(st.booleans()) else root).add(XmlElement(name, None, text))
    for _ in range(draw(st.integers(0, 2))):
        lines = root.add(XmlElement(draw(st.sampled_from(["Lines", "Other"]))))
        for _ in range(draw(st.integers(0, 3))):
            line = lines.add(XmlElement(draw(st.sampled_from(["Line", "Note"]))))
            for name, text in draw(_fields(LINE)):
                line.add(XmlElement(name, None, text))
    return root


def complete_order(**without):
    """A well-formed order, less the fields named in ``without``."""
    root = XmlElement("CdbOrder")
    head = {"Orderkey": "1", "Custkey": "2", "Orderdate": "2007-01-02",
            "Status": "O", "Priority": "H", "Totalprice": "30.00"}
    for name, text in head.items():
        if name not in without:
            root.add_text_child(name, text)
    lines = root.add(XmlElement("Lines"))
    for number in ("1", "2"):
        line = lines.add(XmlElement("Line"))
        for name, text in zip(LINE, (number, "5", "3", "15.00", "0.05")):
            if name not in without:
                line.add_text_child(name, text)
    return root


class TestCdbOrderToRowsMatchesTheOracle:
    @settings(max_examples=500, deadline=None)
    @given(cdb_orders())
    def test_random_messages(self, document):
        new = outcome(cdb_order_to_rows, document)
        assert new == outcome(oracle.cdb_order_to_rows, document)

    @pytest.mark.parametrize(
        "without", [(), ("Priority",), ("Totalprice",), ("Discount",),
                    ("Priority", "Totalprice", "Discount"), ("Orderkey",),
                    ("Quantity",)],
    )
    def test_optional_and_required_fields(self, without):
        document = complete_order(**dict.fromkeys(without))
        new = outcome(cdb_order_to_rows, document)
        assert new == outcome(oracle.cdb_order_to_rows, document)
        assert (new[0] == "ok") == (without not in (("Orderkey",), ("Quantity",)))

    def test_every_order_message_of_a_period(self, period_xml):
        assert len(period_xml.orders) > 50
        for document in period_xml.orders:
            new = outcome(cdb_order_to_rows, document)
            assert new[0] == "ok"
            assert new == outcome(oracle.cdb_order_to_rows, document)


# ------------------------------------------------------------ XSD validation


def demo_schema():
    item = XsdElement(
        "b",
        content="integer",
        attributes=(XsdAttribute("id", "integer", required=True),),
    )
    note = XsdElement("c", content="string", attributes=(XsdAttribute("k"),))
    group = XsdElement(
        "d", children=(XsdChild(item, 0, 2), XsdChild(note, 0, None))
    )
    root = XsdElement(
        "a",
        attributes=(XsdAttribute("id", "integer"), XsdAttribute("nr", "date")),
        children=(XsdChild(item, 1, 2), XsdChild(note, 0, 1), XsdChild(group, 0, None)),
    )
    return XsdSchema("demo", root)


class TestValidateMatchesTheOracle:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(trees(), min_size=1, max_size=3))
    def test_random_trees_against_one_schema(self, documents):
        schema = demo_schema()
        for document in documents:
            document.tag = "a"
            assert schema.validate(document) == oracle.validate(schema, document)

    @settings(max_examples=100, deadline=None)
    @given(trees(tags=("a", "b", "c", "d", "Line", "Lines", "Qty")))
    def test_a_wrong_root_is_the_only_violation(self, document):
        schema = sandiego_schema()
        assert schema.validate(document) == oracle.validate(schema, document)

    def test_every_document_of_a_period_the_invalid_ones_included(self, period_xml):
        validated = invalid = 0
        for schema, documents in period_xml.schemas.values():
            for document in documents:
                violations = schema.validate(document)
                assert violations == oracle.validate(schema, document)
                validated += 1
                invalid += bool(violations)
        assert validated > 20 and invalid > 0


# ------------------------------------------------------------------ the guard


def test_oracle_is_independent_of_the_code_it_checks():
    source = pathlib.Path(oracle.__file__).read_text(encoding="utf-8")
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
    assert not imported & {
        "repro.xmlkit",
        "repro.xmlkit.stx.Stylesheet",
        "repro.xmlkit.convert",
        "repro.xmlkit.xsd",
        "repro.scenario.processes",
        "repro.scenario.processes.helpers",
        "repro.services.endpoints",
    }
    # The recursive size() and the converters are its own, not XmlElement's.
    assert ".size()" not in source

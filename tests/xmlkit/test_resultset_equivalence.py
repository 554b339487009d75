"""A result set that is still its rows answers as the tree it stands for.

``rows_to_resultset`` returns a :class:`ResultSetRoot`; the oracle
(``tests/oracle/xml.py``) builds the whole tree at the call.  Over
random column types × values and the named corners, the two must agree
on ``size()``, the ``iter_events`` count, ``resultset_to_rows`` (value
*and* type, error type and text), the serialized bytes and every
stylesheet's output and the events it returns — and the readers that
answer from the rows must not build the tree to do it.
"""

import datetime
from decimal import Decimal
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import XmlParseError
from repro.scenario.xmlschemas import (
    beijing_resultset_stylesheet,
    seoul_resultset_stylesheet,
)
from repro.xmlkit.convert import ColumnParsers, resultset_to_rows, rows_to_resultset
from repro.xmlkit.doc import ResultSetRoot, XmlElement, serialize_xml
from repro.xmlkit.stx import (
    DropRule,
    RenameRule,
    Stylesheet,
    UnwrapRule,
    ValueRule,
)
from tests.oracle import xml as oracle
from tests.oracle.xml import iter_events


def outcome(fn, *args):
    """``("ok", result)`` or ``("raised", type, text)``."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


def typed(result):
    """Rows with each value's type and repr (NaN != NaN, 1 == True)."""
    kind, *rest = result
    if kind != "ok":
        return result
    return [[(k, type(v), repr(v)) for k, v in row.items()] for row in rest[0]]


def events(tree: XmlElement) -> int:
    return sum(1 for _ in iter_events(tree))


def still_rows(document) -> bool:
    return type(document) is ResultSetRoot and document.rows is not None


def agree(columns, rows, types, table="t"):
    """Hold one rows-backed document to the oracle's tree on every reader."""
    new = outcome(rows_to_resultset, columns, rows, table)
    old = outcome(oracle.rows_to_resultset, columns, rows, table)
    if old[0] == "raised":
        assert new == old
        return None
    document, tree = new[1], old[1]
    assert still_rows(document)
    assert document.size() == oracle.size(tree)
    assert document.event_count() == events(tree)
    for type_map in (types, ColumnParsers(types), None):
        assert typed(outcome(resultset_to_rows, document, type_map)) == typed(
            outcome(oracle.resultset_to_rows, tree, None if type_map is None else types)
        )
    assert still_rows(document), "a reader built the tree"
    assert serialize_xml(document) == serialize_xml(tree)
    assert document.rows is None  # serializing read it as a tree
    assert document.size() == oracle.size(tree)
    assert typed(outcome(resultset_to_rows, document, types)) == typed(
        outcome(oracle.resultset_to_rows, tree, types)
    )
    return document


# ---------------------------------------------------------------- the inputs

SQL_TYPES = ("INTEGER", "BIGINT", "DECIMAL", "DOUBLE", "DATE", "TIMESTAMP",
             "BOOLEAN", "VARCHAR", "decimal", "Date", "NO_SUCH_TYPE")
COLUMNS = ("a", "b", "c", "d")

values = st.one_of(
    st.none(),
    st.integers(-(2**63), 2**63 - 1),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.dates(),
    st.datetimes(),
    st.sampled_from(["", " ", "x", "12", "1.5", "2007-03-04", "true", "<&>"]),
    st.text(max_size=4),
)
rows_of = st.lists(st.dictionaries(st.sampled_from(COLUMNS + ("extra",)), values),
                   max_size=5)
type_maps = st.dictionaries(st.sampled_from(COLUMNS), st.sampled_from(SQL_TYPES))


class TestReadersMatchTheTree:
    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=5),
        rows_of,
        type_maps,
        st.sampled_from(["", "orders"]),
    )
    def test_random_types_and_values(self, columns, rows, types, table):
        agree(columns, rows, types, table)

    @pytest.mark.parametrize(
        "value, sql_type",
        [
            pytest.param(None, "INTEGER", id="null"),
            pytest.param("", "VARCHAR", id="empty-string-untyped"),
            pytest.param("", "INTEGER", id="empty-string-integer-raises"),
            pytest.param(True, "INTEGER", id="bool-in-integer-raises"),
            pytest.param(False, "BOOLEAN", id="bool-in-boolean-kept"),
            pytest.param(1, "BOOLEAN", id="int-in-boolean-parsed"),
            pytest.param(1.5, "DECIMAL", id="float-in-decimal"),
            pytest.param(7, "DECIMAL", id="int-in-decimal"),
            pytest.param(7, "DOUBLE", id="int-in-double"),
            pytest.param(datetime.datetime(2007, 3, 4, 5, 6), "DATE",
                         id="datetime-in-date-raises"),
            pytest.param(datetime.date(2007, 3, 4), "DATE", id="date-kept"),
            pytest.param(datetime.date(7, 3, 4), "DATE", id="date-year-7"),
            pytest.param(datetime.datetime(2007, 3, 4, 5, 6, 7, 8), "TIMESTAMP",
                         id="timestamp-parsed"),
            pytest.param(
                datetime.datetime(2007, 3, 4, tzinfo=datetime.timezone.utc),
                "TIMESTAMP", id="timestamp-with-tz",
            ),
            pytest.param(
                datetime.datetime(
                    2007, 3, 4,
                    tzinfo=datetime.timezone(datetime.timedelta(hours=1), "CET"),
                ),
                "TIMESTAMP", id="timestamp-named-tz-not-kept",
            ),
            pytest.param(datetime.datetime(2007, 10, 28, 2, 30, fold=1), "TIMESTAMP",
                         id="timestamp-fold-not-kept"),
            pytest.param(float("nan"), "DOUBLE", id="nan-double"),
            pytest.param(float("nan"), "DECIMAL", id="nan-decimal"),
            pytest.param(-0.0, "DOUBLE", id="negative-zero-double"),
            pytest.param(-0.0, "DECIMAL", id="negative-zero-decimal"),
            pytest.param(float("-inf"), "DOUBLE", id="infinity"),
            pytest.param(Decimal("1E+2"), "DECIMAL", id="decimal-exponent"),
            pytest.param(Decimal("1E+2"), "INTEGER", id="decimal-exponent-integer"),
            pytest.param(Decimal("0.000"), "DECIMAL", id="decimal-trailing-zeros"),
            pytest.param(Decimal("-0"), "DECIMAL", id="decimal-negative-zero"),
            pytest.param(Decimal("1.50"), "DOUBLE", id="decimal-in-double"),
            pytest.param(Decimal("sNaN"), "DECIMAL", id="decimal-snan"),
            pytest.param(Decimal("-Infinity"), "DECIMAL", id="decimal-infinity"),
            pytest.param("12,5", "DECIMAL", id="bad-text-decimal-raises"),
            pytest.param(12, "VARCHAR", id="int-untyped"),
        ],
    )
    def test_the_named_corners(self, value, sql_type):
        agree(("k", "v"), [{"k": value, "v": "x"}, {"k": None}], {"k": sql_type})

    def test_zero_rows(self):
        document = agree(("k", "v"), [], {"k": "INTEGER"})
        assert document.size() == 1

    def test_an_empty_column_name_is_refused_only_with_a_row(self):
        assert agree(("k", ""), [], {}) is not None
        with pytest.raises(XmlParseError, match="element tag must be non-empty"):
            rows_to_resultset(("k", ""), [{"k": 1}])
        agree(("k", ""), [{"k": 1}], {})  # and the oracle says the same

    def test_size_is_one_plus_rows_times_one_plus_columns(self):
        document = rows_to_resultset(("a", "b", "c"), [{}] * 4)
        assert document.size() == 1 + 4 * (1 + 3)
        assert document.rows is not None

    def test_rows_may_be_a_generator_read_once(self):
        rows = [{"k": 1}, {"k": 2}]
        document = rows_to_resultset(("k",), (row for row in rows), "t")
        assert document.size() == 5
        assert resultset_to_rows(document, {"k": "INTEGER"}) == rows
        assert serialize_xml(document) == serialize_xml(
            oracle.rows_to_resultset(("k",), rows, "t")
        )


class TestTheDialect:
    @pytest.mark.parametrize("held", ["Tuple", "Row"])
    @pytest.mark.parametrize("row_tag", ["Tuple", "Row", "Other"])
    def test_dialect_tags_are_read_as_the_tree_is(self, held, row_tag):
        """Rows tagged with the dialect's row tag or the canonical one are
        read, whatever the dialect; others are skipped."""
        rows = [{"k": 1}, {"k": None}]
        document = rows_to_resultset(("k",), rows, "t")
        document.tag, document.row_tag = "BJData", held  # as WebService.op_query
        tree = oracle.rows_to_resultset(("k",), rows, "t")
        tree.tag = "BJData"
        for row in tree.children:
            row.tag = held
        new = outcome(resultset_to_rows, document, {"k": "INTEGER"}, "BJData", row_tag)
        assert still_rows(document)
        assert new == outcome(
            resultset_to_rows, tree, {"k": "INTEGER"}, "BJData", row_tag
        )
        assert new == ("ok", rows if held in (row_tag, "Row") else [])

    def test_a_wrong_root_raises_before_any_row(self):
        document = rows_to_resultset(("k",), [{"k": 1}])
        assert outcome(resultset_to_rows, document, None, "BJData") == (
            "raised", XmlParseError, "expected <BJData>, got <ResultSet>"
        )


# --------------------------------------------------------------- stylesheets


def plan_paths(sheet: Stylesheet) -> list[tuple]:
    """Every compiled path step of ``sheet``, with its action."""
    out, pending = [], [sheet._plan]
    while pending:
        step = pending.pop()
        out.append((step.path, step.action))
        pending.extend(step.children.values())
    return sorted(out)


def translate(rules, columns, rows, root="ResultSet", row_tag="Row"):
    """One rule list over a rows-backed document, over the oracle tree
    under production's walk and under the oracle's: same bytes, same
    events, same compiled steps.  Says whether the rows-backed input and
    output were still rows when the transform returned."""
    document = rows_to_resultset(columns, rows, "t")
    document.tag, document.row_tag = root, row_tag
    tree = oracle.rows_to_resultset(columns, rows, "t")
    tree.tag = root
    for row in tree.children:
        row.tag = row_tag
    new, walked = Stylesheet("s", list(rules)), Stylesheet("s", list(rules))
    old = oracle.Stylesheet("s", list(rules))
    result = outcome(new.transform, document)
    walk = outcome(walked.transform, tree)
    expected = outcome(old.transform, tree)
    if result[0] == "ok":
        assert walk[0] == "ok"
        assert result[1][1] == walk[1][1] == old.events_processed == events(tree)
        result, walk = ("ok", result[1][0]), ("ok", walk[1][0])
    kept = result[0] == "ok" and still_rows(result[1])
    shared = kept and len(result[1].rows) == len(document.rows) and all(
        mine is theirs for mine, theirs in zip(result[1].rows, document.rows)
    )
    read = not still_rows(document)
    if result[0] == "ok":
        output = result[1]
        assert output.size() == walk[1].size()
        if kept:
            assert output.event_count() == events(walk[1])
        assert serialize_xml(output) == serialize_xml(expected[1])
    else:
        assert result == expected == walk
    assert plan_paths(new) == plan_paths(walked)
    return SimpleNamespace(
        document=document, result=result, kept=kept, shared=shared, read=read
    )


renames = st.one_of(
    st.builds(RenameRule, st.just("/ResultSet"), st.sampled_from(["RS", "x", ""])),
    st.builds(RenameRule, st.just("/ResultSet/Row"), st.sampled_from(["R", ""])),
    st.builds(RenameRule, st.sampled_from(["//Row", "//ResultSet"]), st.just("y")),
)
others = st.one_of(
    st.builds(RenameRule, st.sampled_from(["//a", "/ResultSet/Row/b"]), st.just("z")),
    st.builds(DropRule, st.sampled_from(["//Row", "//a", "/ResultSet"])),
    st.builds(ValueRule, st.sampled_from(["//a", "//Row"]), st.just("v"),
              st.just({"1": "one"})),
    st.builds(UnwrapRule, st.sampled_from(["//Row", "/ResultSet"])),
)


class TestStylesheetsOverRows:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.one_of(renames, others), max_size=4),
        st.lists(st.sampled_from(COLUMNS), min_size=1, max_size=4),
        rows_of,
    )
    def test_random_rule_lists(self, rules, columns, rows):
        translate(rules, columns, rows)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(renames, max_size=3), rows_of)
    def test_a_rename_only_plan_keeps_the_rows(self, rules, rows):
        run = translate(rules, COLUMNS, rows)
        if run.result[0] == "ok":
            assert run.kept and run.shared and not run.read

    @pytest.mark.parametrize(
        "sheet, root, row_tag",
        [
            (beijing_resultset_stylesheet, "BJData", "Tuple"),
            (seoul_resultset_stylesheet, "SeoulRS", "Record"),
        ],
    )
    def test_the_two_p09_stylesheets_rename_without_a_tree(self, sheet, root, row_tag):
        rows = [{"k": 1, "v": "a"}, {"k": None, "v": ""}]
        run = translate(sheet()._rules, ("k", "v"), rows, root, row_tag)
        assert run.kept and run.shared and not run.read
        output = sheet().transform(run.document)[0]
        assert (output.tag, output.row_tag) == ("ResultSet", "Row")
        assert resultset_to_rows(output, {"k": "INTEGER"}) == rows
        assert still_rows(output) and still_rows(run.document)

    @pytest.mark.parametrize(
        "rule",
        [
            RenameRule("//a", "z"),
            ValueRule("//Row", "v"),
            DropRule("//a"),
            UnwrapRule("//Row"),
        ],
        ids=["column-renamed", "row-value-rule", "column-dropped",
             "row-unwrapped"],
    )
    def test_any_other_plan_reads_the_tree(self, rule):
        run = translate([rule], ("a", "b"), [{"a": 1, "b": 2}])
        assert run.read and not run.kept

    def test_a_root_renamed_to_nothing_raises_before_reading(self):
        run = translate([RenameRule("/ResultSet", "")], ("a",), [{"a": 1}])
        assert run.result == (
            "raised", XmlParseError, "element tag must be non-empty"
        )
        assert not run.read

    def test_an_empty_result_set_compiles_no_row_step(self):
        sheet = beijing_resultset_stylesheet()
        document = rows_to_resultset(("k",), [], "t")
        document.tag, document.row_tag = "BJData", "Tuple"
        output, counted = sheet.transform(document)
        assert output.tag == "ResultSet" and output.rows == []
        assert [path for path, _ in plan_paths(sheet)] == [(), ("BJData",)]
        assert counted == 2


# -------------------------------------------------------------- independence


class TestIndependence:
    ROWS = [{"k": 1, "v": "a"}, {"k": 2, "v": None}]

    def expected(self):
        return serialize_xml(oracle.rows_to_resultset(("k", "v"), self.ROWS, "t"))

    def test_a_copy_shares_the_rows_and_not_the_tree(self):
        document = rows_to_resultset(("k", "v"), self.ROWS, "t")
        duplicate = document.copy()
        assert still_rows(duplicate)
        assert all(a is b for a, b in zip(duplicate.rows, document.rows))
        duplicate.children[0].children[0].text = "99"
        duplicate.add(XmlElement("Row"))
        duplicate.attributes["table"] = "other"
        duplicate.tag = "Changed"
        assert still_rows(document)
        assert serialize_xml(document) == self.expected()
        assert self.ROWS == [{"k": 1, "v": "a"}, {"k": 2, "v": None}]

    def test_materialise_then_mutate_leaves_an_earlier_copy_alone(self):
        document = rows_to_resultset(("k", "v"), self.ROWS, "t")
        duplicate = document.copy()
        document.children[1].children[1].attributes.clear()
        document.children.pop(0)
        assert document.size() == 4
        assert duplicate.size() == 7 and still_rows(duplicate)
        assert serialize_xml(duplicate) == self.expected()

    def test_a_copy_of_a_tree_is_deep(self):
        document = rows_to_resultset(("k", "v"), self.ROWS, "t")
        document.children
        duplicate = document.copy()
        duplicate.children[0].children[0].text = "99"
        assert serialize_xml(document) == self.expected()

    def test_assigning_children_replaces_the_rows(self):
        document = rows_to_resultset(("k",), [{"k": 1}], "t")
        document.children = [XmlElement("Row")]
        assert document.rows is None
        assert document.size() == 2
        assert serialize_xml(document) == '<ResultSet table="t"><Row/></ResultSet>'

    def test_the_input_list_is_not_held(self):
        rows = [{"k": 1}]
        document = rows_to_resultset(("k",), rows)
        rows.append({"k": 2})
        assert document.size() == 3

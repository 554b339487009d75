"""XML document model: building, navigation, parse/serialize."""

import pytest

from repro.errors import XmlParseError
from repro.xmlkit.doc import XmlElement, parse_xml, serialize_xml
from tests.oracle.xml import structurally_equal


class TestBuilding:
    def test_add_returns_child(self):
        root = XmlElement("a")
        child = root.add(XmlElement("b"))
        assert child.tag == "b"
        assert root.children == [child]

    def test_add_text_child(self):
        root = XmlElement("a")
        root.add_text_child("n", 42)
        assert root.find("n").text == "42"

    def test_add_text_child_none_is_empty(self):
        root = XmlElement("a")
        root.add_text_child("n", None)
        assert root.find("n").text is None

    def test_empty_tag_rejected(self):
        with pytest.raises(XmlParseError):
            XmlElement("")


class TestNavigation:
    @pytest.fixture()
    def doc(self):
        return parse_xml(
            "<order id='1'><item>a</item><item>b</item><note>n</note></order>"
        )

    def test_find_first(self, doc):
        assert doc.find("item").text == "a"

    def test_find_missing(self, doc):
        assert doc.find("ghost") is None

    def test_find_all(self, doc):
        assert [e.text for e in doc.find_all("item")] == ["a", "b"]

    def test_child_text_default(self, doc):
        assert doc.child_text("ghost", "dflt") == "dflt"

    def test_iter_preorder(self, doc):
        assert [e.tag for e in doc.iter()] == ["order", "item", "item", "note"]

    def test_size(self, doc):
        assert doc.size() == 4


class TestCopyEquality:
    def test_copy_is_deep(self):
        original = parse_xml("<a><b>t</b></a>")
        clone = original.copy()
        clone.find("b").text = "changed"
        assert original.find("b").text == "t"

    def test_structural_equality(self):
        a = parse_xml("<a x='1'><b>t</b></a>")
        b = parse_xml("<a x='1'><b>t</b></a>")
        assert structurally_equal(a, b)

    def test_attribute_difference_detected(self):
        a = parse_xml("<a x='1'/>")
        b = parse_xml("<a x='2'/>")
        assert not structurally_equal(a, b)

    def test_child_count_difference_detected(self):
        a = parse_xml("<a><b/></a>")
        b = parse_xml("<a><b/><b/></a>")
        assert not structurally_equal(a, b)

    def test_text_whitespace_normalized(self):
        a = parse_xml("<a>t</a>")
        b = XmlElement("a", text="  t  ")
        assert structurally_equal(a, b)


class TestParseSerialize:
    def test_malformed_raises(self):
        with pytest.raises(XmlParseError):
            parse_xml("<a><b></a>")

    def test_round_trip(self):
        text = '<a x="1"><b>t&amp;u</b><c/></a>'
        assert serialize_xml(parse_xml(text)) == text

    def test_escaping(self):
        root = XmlElement("a", {"q": 'say "hi" <now>'}, text="x < y & z")
        round_tripped = parse_xml(serialize_xml(root))
        assert round_tripped.attributes["q"] == 'say "hi" <now>'
        assert round_tripped.text == "x < y & z"

    def test_pretty_print_contains_newlines(self):
        doc = parse_xml("<a><b>t</b></a>")
        pretty = serialize_xml(doc, indent=2)
        assert "\n  <b>" in pretty
        assert structurally_equal(parse_xml(pretty), doc)

    def test_self_closing_for_empty(self):
        assert serialize_xml(XmlElement("empty")) == "<empty/>"

    def test_parser_strips_whitespace_only_text(self):
        doc = parse_xml("<a>\n  <b>t</b>\n</a>")
        assert doc.text is None

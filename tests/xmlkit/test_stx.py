"""STX-like streaming transformations."""

import pytest

from repro.errors import StxError
from repro.xmlkit.doc import XmlElement, parse_xml, serialize_xml
from repro.xmlkit.stx import (
    DropRule,
    RenameRule,
    Stylesheet,
    TemplateRule,
    UnwrapRule,
    ValueRule,
)
from tests.oracle.xml import END, START, TEXT, iter_events, structurally_equal


class TestEventStream:
    def test_event_order(self):
        doc = parse_xml("<a x='1'><b>t</b><c/></a>")
        events = list(iter_events(doc))
        kinds = [e[0] for e in events]
        assert kinds == [START, START, TEXT, END, START, END, END]

    def test_start_carries_attributes(self):
        doc = parse_xml("<a x='1'/>")
        assert list(iter_events(doc))[0] == (START, "a", {"x": "1"})

    def test_event_count_scales_with_size(self):
        doc = parse_xml("<a><b/><b/><b/></a>")
        assert len(list(iter_events(doc))) == 8  # 4 starts + 4 ends


class TestRenameRule:
    def test_exact_path(self):
        sheet = Stylesheet("s", [RenameRule("/a", "z")])
        out = sheet.transform(parse_xml("<a><b/></a>"))[0]
        assert out.tag == "z"
        assert out.find("b") is not None

    def test_anywhere_pattern(self):
        sheet = Stylesheet("s", [RenameRule("//b", "x")])
        out = sheet.transform(parse_xml("<a><b/><c><b/></c></a>"))[0]
        assert len([e for e in out.iter() if e.tag == "x"]) == 2

    def test_rename_keeps_attributes(self):
        sheet = Stylesheet("s", [RenameRule("/a", "b")])
        out = sheet.transform(parse_xml("<a old='1' keep='2'/>"))[0]
        assert (out.tag, out.attributes) == ("b", {"old": "1", "keep": "2"})

    def test_specific_beats_anywhere(self):
        sheet = Stylesheet("s", [
            RenameRule("//b", "generic"),
            RenameRule("/a/b", "specific"),
        ])
        out = sheet.transform(parse_xml("<a><b/><c><b/></c></a>"))[0]
        assert out.children[0].tag == "specific"
        assert out.find("c").children[0].tag == "generic"


class TestDropAndUnwrap:
    def test_drop_removes_subtree(self):
        sheet = Stylesheet("s", [DropRule("//secret")])
        out = sheet.transform(parse_xml("<a><secret><deep/></secret><b/></a>"))[0]
        assert [c.tag for c in out.children] == ["b"]

    def test_drop_root_raises(self):
        sheet = Stylesheet("s", [DropRule("/a")])
        with pytest.raises(StxError):
            sheet.transform(parse_xml("<a/>"))

    def test_unwrap_keeps_children(self):
        sheet = Stylesheet("s", [UnwrapRule("//wrapper")])
        out = sheet.transform(parse_xml("<a><wrapper><x/><y/></wrapper></a>"))[0]
        assert [c.tag for c in out.children] == ["x", "y"]

    def test_unwrap_root_promotes_child(self):
        sheet = Stylesheet("s", [UnwrapRule("/envelope")])
        out = sheet.transform(parse_xml("<envelope><body><x/></body></envelope>"))[0]
        assert out.tag == "body"

    def test_unwrap_root_with_multiple_children_raises(self):
        sheet = Stylesheet("s", [UnwrapRule("/envelope")])
        with pytest.raises(StxError, match="multiple root"):
            sheet.transform(parse_xml("<envelope><a/><b/></envelope>"))

    def test_nested_unwrap(self):
        sheet = Stylesheet("s", [UnwrapRule("//w1"), UnwrapRule("//w2")])
        out = sheet.transform(parse_xml("<a><w1><w2><x/></w2></w1></a>"))[0]
        assert [c.tag for c in out.children] == ["x"]


class TestValueRule:
    def test_dict_mapping(self):
        sheet = Stylesheet("s", [
            ValueRule("//Stat", to="Status", value_map={"OPEN": "O"}),
        ])
        out = sheet.transform(parse_xml("<m><Stat>OPEN</Stat></m>"))[0]
        assert out.find("Status").text == "O"

    def test_unmapped_value_passes_through(self):
        sheet = Stylesheet("s", [ValueRule("//Stat", value_map={"OPEN": "O"})])
        out = sheet.transform(parse_xml("<m><Stat>WEIRD</Stat></m>"))[0]
        assert out.find("Stat").text == "WEIRD"

    def test_callable_mapping(self):
        sheet = Stylesheet("s", [ValueRule("//n", value_map=lambda t: t.upper())])
        out = sheet.transform(parse_xml("<m><n>abc</n></m>"))[0]
        assert out.find("n").text == "ABC"


class TestTemplateRule:
    def test_build_with_attribute_promotion(self):
        def build(tag, attrs):
            el = XmlElement("Customer")
            el.add_text_child("Key", attrs["k"])
            return el

        sheet = Stylesheet("s", [TemplateRule("//rec", build)])
        out = sheet.transform(parse_xml("<m><rec k='7'><Name>A</Name></rec></m>"))[0]
        customer = out.find("Customer")
        assert customer.children[0].text == "7"
        assert customer.find("Name").text == "A"

    def test_build_returning_none_drops(self):
        sheet = Stylesheet("s", [TemplateRule("//rec", lambda t, a: None)])
        out = sheet.transform(parse_xml("<m><rec><x/></rec><keep/></m>"))[0]
        assert [c.tag for c in out.children] == ["keep"]


class TestStreamingBehaviour:
    def test_identity_without_rules(self):
        doc = parse_xml("<a x='1'><b>t</b></a>")
        out = Stylesheet("s", []).transform(doc)[0]
        assert structurally_equal(out, doc)
        assert out is not doc

    def test_input_not_mutated(self):
        doc = parse_xml("<a><b>t</b></a>")
        Stylesheet("s", [RenameRule("//b", "z")]).transform(doc)
        assert doc.find("b") is not None

    def test_each_transform_returns_its_own_events(self):
        sheet = Stylesheet("s", [])
        _, first = sheet.transform(parse_xml("<a><b/></a>"))
        assert first == 4  # two starts, two ends
        assert sheet.transform(parse_xml("<a><b/></a>"))[1] == first

    def test_bad_pattern_rejected(self):
        with pytest.raises(StxError):
            RenameRule("", "x")
        with pytest.raises(StxError):
            RenameRule("//", "x")


class TestScenarioShapedTransform:
    def test_full_dialect_translation(self):
        """A miniature of the P01 Beijing→Seoul translation."""

        def build_customer(tag, attrs):
            el = XmlElement("Customer")
            el.add_text_child("Custkey", attrs["custkey"])
            return el

        sheet = Stylesheet("mini", [
            RenameRule("/BeijingMasterData", "SeoulMasterData"),
            TemplateRule("//CustomerRec", build_customer),
            RenameRule("//CName", "Name"),
        ])
        source = parse_xml(
            "<BeijingMasterData>"
            "<CustomerRec custkey='9'><CName>Ada</CName></CustomerRec>"
            "</BeijingMasterData>"
        )
        out = sheet.transform(source)[0]
        assert serialize_xml(out) == (
            "<SeoulMasterData><Customer><Custkey>9</Custkey>"
            "<Name>Ada</Name></Customer></SeoulMasterData>"
        )

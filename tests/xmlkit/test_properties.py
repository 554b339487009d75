"""Property-based tests on the XML kit (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.relation import Relation
from repro.xmlkit.convert import relation_to_resultset, resultset_to_rows
from repro.xmlkit.doc import XmlElement, parse_xml, serialize_xml
from repro.xmlkit.stx import RenameRule, Stylesheet, iter_events

tags = st.sampled_from(["a", "b", "c", "item", "row"])
texts = st.text(
    alphabet=st.characters(
        whitelist_categories=("Lu", "Ll", "Nd"),
        whitelist_characters=" <>&\"'",
    ),
    max_size=12,
).filter(lambda s: s.strip() == s and s != "")


@st.composite
def elements(draw, depth=0):
    tag = draw(tags)
    attrs = draw(
        st.dictionaries(st.sampled_from(["x", "y"]), texts, max_size=2)
    )
    element = XmlElement(tag, attrs)
    if draw(st.booleans()):
        element.text = draw(texts)
    if depth < 3:
        for child in draw(st.lists(elements(depth=depth + 1), max_size=3)):
            element.children.append(child)
    return element


class TestSerializationProperties:
    @given(elements())
    @settings(max_examples=80)
    def test_parse_serialize_round_trip(self, element):
        assert parse_xml(serialize_xml(element)).structurally_equal(element)

    @given(elements())
    @settings(max_examples=80)
    def test_pretty_print_is_equivalent(self, element):
        pretty = serialize_xml(element, indent=2)
        assert parse_xml(pretty).structurally_equal(element)

    @given(elements())
    def test_copy_equals_original(self, element):
        assert element.copy().structurally_equal(element)

    @given(elements())
    def test_size_equals_iter_length(self, element):
        assert element.size() == len(list(element.iter()))

    @given(elements())
    def test_event_stream_balanced(self, element):
        events = list(iter_events(element))
        starts = sum(1 for e in events if e[0] == "start")
        ends = sum(1 for e in events if e[0] == "end")
        assert starts == ends == element.size()


class TestStxProperties:
    @given(elements())
    @settings(max_examples=60)
    def test_identity_stylesheet(self, element):
        out = Stylesheet("id", []).transform(element)[0]
        assert out.structurally_equal(element)

    @given(elements())
    @settings(max_examples=60)
    def test_rename_then_rename_back(self, element):
        forward = Stylesheet("f", [RenameRule("//a", "tmp_zz")])
        backward = Stylesheet("b", [RenameRule("//tmp_zz", "a")])
        assert backward.transform(forward.transform(element)[0])[0].structurally_equal(
            element
        )


rows_st = st.lists(
    st.fixed_dictionaries(
        {"k": st.integers(0, 99), "v": st.one_of(st.none(), texts)}
    ),
    max_size=15,
)


class TestConvertProperties:
    @given(rows_st)
    @settings(max_examples=60)
    def test_resultset_round_trip(self, rows):
        relation = Relation(("k", "v"), rows)
        doc = relation_to_resultset(relation, "t")
        back = resultset_to_rows(doc, {"k": "BIGINT", "v": "VARCHAR"})
        assert back == relation.to_dicts()

    @given(rows_st)
    @settings(max_examples=60)
    def test_resultset_survives_text_round_trip(self, rows):
        relation = Relation(("k", "v"), rows)
        doc = parse_xml(serialize_xml(relation_to_resultset(relation, "t")))
        back = resultset_to_rows(doc, {"k": "BIGINT", "v": "VARCHAR"})
        assert back == relation.to_dicts()

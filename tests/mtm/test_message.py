"""Message payloads and sizes."""

import pytest

from repro.db.relation import Relation
from repro.mtm.message import Message, payload_size
from repro.xmlkit.doc import parse_xml


class TestPayloadKinds:
    def test_relational(self):
        msg = Message(Relation(("k",), [{"k": 1}]))
        assert not msg.is_xml
        assert len(msg.relation()) == 1

    def test_xml(self):
        msg = Message(parse_xml("<a><b/></a>"))
        assert msg.is_xml
        assert msg.xml().tag == "a"

    def test_wrong_accessor_raises(self):
        msg = Message("scalar")
        with pytest.raises(TypeError):
            msg.relation()
        with pytest.raises(TypeError):
            msg.xml()

    def test_unique_ids(self):
        assert Message(1).message_id != Message(1).message_id


class TestSizes:
    def test_relation_size_is_rows(self):
        assert payload_size(Relation(("k",), [{"k": 1}, {"k": 2}])) == 2.0

    def test_xml_size_is_elements(self):
        assert payload_size(parse_xml("<a><b/><c/></a>")) == 3.0

    def test_list_size(self):
        assert payload_size([1, 2, 3]) == 3.0

    def test_scalar_size(self):
        assert payload_size(42) == 1.0

    def test_message_size_units(self):
        assert Message(parse_xml("<a/>")).size_units == 1.0


class TestCopy:
    def test_copy_xml_is_deep(self):
        msg = Message(parse_xml("<a><b>t</b></a>"), "m")
        clone = msg.copy()
        clone.xml().find("b").text = "changed"
        assert msg.xml().find("b").text == "t"

    def test_copy_relation_is_deep(self):
        msg = Message(Relation(("k",), [{"k": 1}]))
        clone = msg.copy()
        clone.relation().rows[0]["k"] = 99
        assert msg.relation().rows[0]["k"] == 1

    def test_copy_keeps_type(self):
        msg = Message(1, "typed")
        assert msg.copy().message_type == "typed"

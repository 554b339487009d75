"""XSD-subset validation."""

import pytest

from repro.errors import XsdValidationError
from repro.xmlkit.doc import parse_xml
from repro.xmlkit.xsd import XsdAttribute, XsdChild, XsdElement, XsdSchema


@pytest.fixture()
def order_schema():
    item = XsdElement("Item", content="string")
    root = XsdElement(
        "Order",
        attributes=(
            XsdAttribute("id", "integer", required=True),
            XsdAttribute("note", "string"),
        ),
        children=(
            XsdChild(XsdElement("Date", content="date")),
            XsdChild(XsdElement("Total", content="decimal"), 0, 1),
            XsdChild(item, 1, 3),
        ),
    )
    return XsdSchema("order", root)


class TestValid:
    def test_minimal_valid(self, order_schema):
        doc = parse_xml("<Order id='1'><Date>2007-01-01</Date><Item>x</Item></Order>")
        assert order_schema.validate(doc) == []

    def test_optional_elements(self, order_schema):
        doc = parse_xml(
            "<Order id='1' note='hi'><Date>2007-01-01</Date>"
            "<Total>1.5</Total><Item>a</Item><Item>b</Item></Order>"
        )
        assert order_schema.validate(doc) == []


class TestViolations:
    def test_wrong_root(self, order_schema):
        violations = order_schema.validate(parse_xml("<Bogus/>"))
        assert len(violations) == 1
        assert "root" in violations[0]

    def test_missing_required_attribute(self, order_schema):
        doc = parse_xml("<Order><Date>2007-01-01</Date><Item>x</Item></Order>")
        assert any("id" in v for v in order_schema.validate(doc))

    def test_bad_attribute_type(self, order_schema):
        doc = parse_xml("<Order id='xx'><Date>2007-01-01</Date><Item>x</Item></Order>")
        assert any("integer" in v for v in order_schema.validate(doc))

    def test_undeclared_attribute(self, order_schema):
        doc = parse_xml(
            "<Order id='1' hacked='y'><Date>2007-01-01</Date><Item>x</Item></Order>"
        )
        assert any("hacked" in v for v in order_schema.validate(doc))

    def test_undeclared_child(self, order_schema):
        doc = parse_xml(
            "<Order id='1'><Date>2007-01-01</Date><Item>x</Item><Spy/></Order>"
        )
        assert any("Spy" in v for v in order_schema.validate(doc))

    def test_bad_content_type(self, order_schema):
        doc = parse_xml("<Order id='1'><Date>tomorrow</Date><Item>x</Item></Order>")
        assert any("date" in v for v in order_schema.validate(doc))

    def test_min_occurs(self, order_schema):
        doc = parse_xml("<Order id='1'><Date>2007-01-01</Date></Order>")
        assert any("minimum" in v for v in order_schema.validate(doc))

    def test_max_occurs(self, order_schema):
        doc = parse_xml(
            "<Order id='1'><Date>2007-01-01</Date>"
            "<Item>1</Item><Item>2</Item><Item>3</Item><Item>4</Item></Order>"
        )
        assert any("more than" in v for v in order_schema.validate(doc))

    def test_out_of_sequence(self, order_schema):
        doc = parse_xml(
            "<Order id='1'><Item>x</Item><Date>2007-01-01</Date></Order>"
        )
        assert order_schema.validate(doc)

    def test_all_violations_collected(self, order_schema):
        """The validator keeps going after the first problem (P10 needs
        the full diagnosis for the failed-data destination)."""
        doc = parse_xml("<Order id='xx'><Date>nope</Date></Order>")
        assert len(order_schema.validate(doc)) >= 3

    def test_unexpected_text_on_container(self, order_schema):
        doc = parse_xml(
            "<Order id='1'>boo<Date>2007-01-01</Date><Item>x</Item></Order>"
        )
        assert any("text" in v for v in order_schema.validate(doc))


class TestAssertValid:
    def test_raises_with_violations_attached(self, order_schema):
        with pytest.raises(XsdValidationError) as excinfo:
            order_schema.assert_valid(parse_xml("<Order/>"))
        assert excinfo.value.violations

    def test_passes_silently(self, order_schema):
        order_schema.assert_valid(
            parse_xml("<Order id='1'><Date>2007-01-01</Date><Item>x</Item></Order>")
        )


class TestSimpleTypes:
    @pytest.mark.parametrize(
        "type_name,good,bad",
        [
            ("integer", "42", "4.2"),
            ("integer", "-7", "seven"),
            ("decimal", "3.14", "3,14"),
            ("decimal", "-.5", "--5"),
            ("boolean", "true", "maybe"),
            ("boolean", "1", "yes"),
            ("date", "2007-12-31", "2007-13-01"),
        ],
    )
    def test_content_types(self, type_name, good, bad):
        schema = XsdSchema("t", XsdElement("V", content=type_name))
        assert schema.validate(parse_xml(f"<V>{good}</V>")) == []
        assert schema.validate(parse_xml(f"<V>{bad}</V>"))

    def test_unknown_content_type_rejected(self):
        with pytest.raises(XsdValidationError):
            XsdElement("V", content="float")

    def test_unknown_attribute_type_rejected(self):
        with pytest.raises(XsdValidationError):
            XsdAttribute("a", "float")

    def test_bad_occurs_bounds(self):
        with pytest.raises(XsdValidationError):
            XsdChild(XsdElement("x"), 2, 1)

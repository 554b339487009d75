"""Message schemas and STX translations of the scenario."""

import pytest

from repro.scenario import xmlschemas as xs
from repro.xmlkit.doc import parse_xml


VIENNA = """<ViennaOrder>
  <Kopf><Auftrag>7</Auftrag><Kunde>11</Kunde><Datum>2007-05-05</Datum>
    <Status>OFFEN</Status><Prioritaet>EILIG</Prioritaet></Kopf>
  <Positionen>
    <Position nr="1"><Artikel>3</Artikel><Menge>5</Menge><Preis>10.00</Preis></Position>
    <Position nr="2"><Artikel>4</Artikel><Menge>1</Menge><Preis>2.50</Preis>
      <Rabatt>0.05</Rabatt></Position>
  </Positionen>
</ViennaOrder>"""

SANDIEGO = """<SDOrder key="88" customer="4600001">
  <Placed>2007-02-02</Placed><State>O</State><Total>5.00</Total>
  <Lines><Line no="1" part="4"><Qty>1</Qty><Amount>5.00</Amount></Line></Lines>
</SDOrder>"""

HONGKONG = """<HKOrder><Id>500001</Id><Cust>2400002</Cust>
  <Date>2007-03-09</Date><Stat>OPEN</Stat><Prio>H</Prio><Sum>99.50</Sum>
  <Items><Item><No>1</No><Prod>17</Prod><Qty>2</Qty><Value>99.50</Value></Item></Items>
</HKOrder>"""

MDM = """<MDMCustomerMessage><Kunde nr="42"><Name>Customer#000000042</Name>
  <Anschrift><Strasse>12 Foo St</Strasse><Stadtschluessel>3</Stadtschluessel></Anschrift>
  <Telefon>+49-1</Telefon><Segment>BUILDING</Segment></Kunde></MDMCustomerMessage>"""

BEIJING = """<BeijingMasterData>
  <CustomerRec custkey="2000001" citykey="10"><CName>Customer#002000001</CName>
    <CAddr>8 Bar Ave</CAddr><CPhone>+86-1</CPhone><CSeg>MACHINERY</CSeg></CustomerRec>
  <CustomerRec custkey="2000002"><CName>Customer#002000002</CName>
    <CAddr>9 Baz Ave</CAddr></CustomerRec>
</BeijingMasterData>"""


class TestSchemasAcceptTheirMessages:
    @pytest.mark.parametrize(
        "schema_fn,text",
        [
            (xs.vienna_schema, VIENNA),
            (xs.sandiego_schema, SANDIEGO),
            (xs.hongkong_schema, HONGKONG),
            (xs.mdm_schema, MDM),
            (xs.beijing_schema, BEIJING),
        ],
    )
    def test_valid(self, schema_fn, text):
        assert schema_fn().validate(parse_xml(text)) == []

    def test_sandiego_rejects_missing_customer(self):
        broken = parse_xml(SANDIEGO.replace(' customer="4600001"', ""))
        assert xs.sandiego_schema().validate(broken)

    def test_sandiego_rejects_bad_decimal(self):
        broken = parse_xml(SANDIEGO.replace("5.00</Total>", "5,00</Total>"))
        assert xs.sandiego_schema().validate(broken)


class TestViennaTranslation:
    def test_structure_and_semantics(self):
        out = xs.vienna_to_cdb_stylesheet().transform(parse_xml(VIENNA))[0]
        assert out.tag == "CdbOrder"
        assert out.find("Kopf") is None  # the head block is unwrapped
        assert out.child_text("Orderkey") == "7"
        assert out.child_text("Orderdate") == "2007-05-05"
        assert out.child_text("Status") == "O"  # OFFEN -> O
        assert out.child_text("Priority") == "1-URGENT"  # EILIG
        lines = out.find("Lines").find_all("Line")
        assert len(lines) == 2
        assert lines[0].child_text("Linenumber") == "1"
        assert lines[0].child_text("Prodkey") == "3"
        assert lines[1].child_text("Discount") == "0.05"


class TestHongkongTranslation:
    def test_value_maps(self):
        out = xs.hongkong_to_cdb_stylesheet().transform(parse_xml(HONGKONG))[0]
        assert out.child_text("Status") == "O"
        assert out.child_text("Priority") == "2-HIGH"
        assert out.child_text("Orderkey") == "500001"


class TestSanDiegoTranslation:
    def test_attribute_promotion(self):
        out = xs.sandiego_to_cdb_stylesheet().transform(parse_xml(SANDIEGO))[0]
        assert out.child_text("Orderkey") == "88"
        assert out.child_text("Custkey") == "4600001"
        line = out.find("Lines").find("Line")
        assert line.child_text("Linenumber") == "1"
        assert line.child_text("Prodkey") == "4"


class TestMdmTranslation:
    def test_flattening(self):
        out = xs.mdm_to_europe_stylesheet().transform(parse_xml(MDM))[0]
        assert out.tag == "EuropeCustomer"
        assert out.child_text("Custkey") == "42"
        assert out.child_text("Address") == "12 Foo St"
        assert out.child_text("Citykey") == "3"
        assert out.child_text("Phone") == "+49-1"
        assert out.find("Anschrift") is None


class TestBeijingSeoulTranslation:
    def test_translation_produces_valid_seoul(self):
        out = xs.beijing_to_seoul_stylesheet().transform(parse_xml(BEIJING))[0]
        assert out.tag == "SeoulMasterData"

    def test_attribute_promotion_and_optional_fields(self):
        out = xs.beijing_to_seoul_stylesheet().transform(parse_xml(BEIJING))[0]
        first, second = out.find_all("Customer")
        assert first.child_text("Custkey") == "2000001"
        assert first.child_text("Citykey") == "10"
        assert second.child_text("Custkey") == "2000002"
        assert second.find("Citykey") is None
        assert second.find("Phone") is None

    def test_field_renames(self):
        out = xs.beijing_to_seoul_stylesheet().transform(parse_xml(BEIJING))[0]
        first = out.find("Customer")
        assert first.child_text("Name") == "Customer#002000001"
        assert first.child_text("Address") == "8 Bar Ave"
        assert first.child_text("Segment") == "MACHINERY"


class TestResultSetDialects:
    def test_beijing_dialect_translation(self):
        doc = parse_xml(
            "<BJData table='customer'><Tuple><custkey>1</custkey></Tuple></BJData>"
        )
        out = xs.beijing_resultset_stylesheet().transform(doc)[0]
        assert out.tag == "ResultSet"
        assert out.children[0].tag == "Row"
        assert out.attributes["table"] == "customer"

    def test_seoul_dialect_translation(self):
        doc = parse_xml(
            "<SeoulRS table='orders'><Record><orderkey>5</orderkey></Record></SeoulRS>"
        )
        out = xs.seoul_resultset_stylesheet().transform(doc)[0]
        assert out.tag == "ResultSet"
        assert out.children[0].tag == "Row"

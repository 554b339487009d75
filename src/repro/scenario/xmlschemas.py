"""XML message schemas and the STX translations between them.

The scenario's message-driven sources each speak their own deep-structured
XML dialect (Section III.B); the exact XSDs live in the unavailable full
specification [25], so the shapes below are derived from the paper's
anchors: Vienna and San Diego send order messages, MDM_Europe publishes
customer master data, Hongkong sends order data, and Beijing/Seoul
exchange customer master data in two different dialects (XSD_Beijing is
attribute-heavy, XSD_Seoul is element-structured) so the P01 STX
translation has real restructuring to do.
"""

from __future__ import annotations

from repro.xmlkit.doc import XmlElement
from repro.xmlkit.stx import (
    RenameRule,
    Stylesheet,
    TemplateRule,
    UnwrapRule,
    ValueRule,
)
from repro.xmlkit.xsd import XsdAttribute, XsdChild, XsdElement, XsdSchema

# ------------------------------------------------------------- Vienna (orders)

def vienna_schema() -> XsdSchema:
    """``<ViennaOrder>``: deep-structured order message of application Vienna."""
    position = XsdElement(
        "Position",
        attributes=(XsdAttribute("nr", "integer", required=True),),
        children=(
            XsdChild(XsdElement("Artikel", content="integer")),
            XsdChild(XsdElement("Menge", content="integer")),
            XsdChild(XsdElement("Preis", content="decimal")),
            XsdChild(XsdElement("Rabatt", content="decimal"), 0, 1),
        ),
    )
    head = XsdElement(
        "Kopf",
        children=(
            XsdChild(XsdElement("Auftrag", content="integer")),
            XsdChild(XsdElement("Kunde", content="integer")),
            XsdChild(XsdElement("Datum", content="date")),
            XsdChild(XsdElement("Status", content="string")),
            XsdChild(XsdElement("Prioritaet", content="string"), 0, 1),
        ),
    )
    root = XsdElement(
        "ViennaOrder",
        children=(
            XsdChild(head),
            XsdChild(XsdElement("Positionen", children=(XsdChild(position, 1, None),))),
        ),
    )
    return XsdSchema("XSD_Vienna", root)


# --------------------------------------------------------- San Diego (orders)

def sandiego_schema() -> XsdSchema:
    """``<SDOrder>``: San Diego's order message (the error-prone source).

    P10 validates every inbound message against this schema; the client
    injects violations (missing keys, non-numeric amounts, bogus children)
    at a configurable rate.
    """
    line = XsdElement(
        "Line",
        attributes=(
            XsdAttribute("no", "integer", required=True),
            XsdAttribute("part", "integer", required=True),
        ),
        children=(
            XsdChild(XsdElement("Qty", content="integer")),
            XsdChild(XsdElement("Amount", content="decimal")),
            XsdChild(XsdElement("Discount", content="decimal"), 0, 1),
        ),
    )
    root = XsdElement(
        "SDOrder",
        attributes=(
            XsdAttribute("key", "integer", required=True),
            XsdAttribute("customer", "integer", required=True),
        ),
        children=(
            XsdChild(XsdElement("Placed", content="date")),
            XsdChild(XsdElement("State", content="string")),
            XsdChild(XsdElement("Priority", content="string"), 0, 1),
            XsdChild(XsdElement("Total", content="decimal")),
            XsdChild(XsdElement("Lines", children=(XsdChild(line, 1, None),))),
        ),
    )
    return XsdSchema("XSD_SanDiego", root)


# ------------------------------------------------------- MDM Europe (customers)

def mdm_schema() -> XsdSchema:
    """``<MDMCustomerMessage>``: MDM_Europe's master-data publication."""
    address = XsdElement(
        "Anschrift",
        children=(
            XsdChild(XsdElement("Strasse", content="string")),
            XsdChild(XsdElement("Stadtschluessel", content="integer")),
        ),
    )
    customer = XsdElement(
        "Kunde",
        attributes=(XsdAttribute("nr", "integer", required=True),),
        children=(
            XsdChild(XsdElement("Name", content="string")),
            XsdChild(address),
            XsdChild(XsdElement("Telefon", content="string"), 0, 1),
            XsdChild(XsdElement("Segment", content="string"), 0, 1),
        ),
    )
    root = XsdElement("MDMCustomerMessage", children=(XsdChild(customer),))
    return XsdSchema("XSD_MDM_Europe", root)


# ------------------------------------------------------------ Hongkong (orders)

def hongkong_schema() -> XsdSchema:
    """``<HKOrder>``: Hongkong's business-transaction message (P08)."""
    item = XsdElement(
        "Item",
        children=(
            XsdChild(XsdElement("No", content="integer")),
            XsdChild(XsdElement("Prod", content="integer")),
            XsdChild(XsdElement("Qty", content="integer")),
            XsdChild(XsdElement("Value", content="decimal")),
            XsdChild(XsdElement("Disc", content="decimal"), 0, 1),
        ),
    )
    root = XsdElement(
        "HKOrder",
        children=(
            XsdChild(XsdElement("Id", content="integer")),
            XsdChild(XsdElement("Cust", content="integer")),
            XsdChild(XsdElement("Date", content="date")),
            XsdChild(XsdElement("Stat", content="string")),
            XsdChild(XsdElement("Prio", content="string"), 0, 1),
            XsdChild(XsdElement("Sum", content="decimal")),
            XsdChild(XsdElement("Items", children=(XsdChild(item, 1, None),))),
        ),
    )
    return XsdSchema("XSD_Hongkong", root)


# ----------------------------------------- Beijing / Seoul master data (P01)

def beijing_schema() -> XsdSchema:
    """XSD_Beijing: attribute-heavy customer master-data records."""
    record = XsdElement(
        "CustomerRec",
        attributes=(
            XsdAttribute("custkey", "integer", required=True),
            XsdAttribute("citykey", "integer"),
        ),
        children=(
            XsdChild(XsdElement("CName", content="string")),
            XsdChild(XsdElement("CAddr", content="string")),
            XsdChild(XsdElement("CPhone", content="string"), 0, 1),
            XsdChild(XsdElement("CSeg", content="string"), 0, 1),
        ),
    )
    root = XsdElement(
        "BeijingMasterData", children=(XsdChild(record, 1, None),)
    )
    return XsdSchema("XSD_Beijing", root)


# ------------------------------------------------------------ STX stylesheets

def beijing_to_seoul_stylesheet() -> Stylesheet:
    """The P01 translation: XSD_Beijing → XSD_Seoul.

    Restructures attributes into elements (custkey/citykey become child
    elements) and renames the per-field tags.
    """

    def build_customer(tag: str, attrs: dict[str, str]) -> XmlElement:
        element = XmlElement("Customer")
        element.add_text_child("Custkey", attrs["custkey"])
        if "citykey" in attrs:
            element.add_text_child("Citykey", attrs["citykey"])
        return element

    return Stylesheet(
        "stx_beijing_to_seoul",
        [
            RenameRule("/BeijingMasterData", "SeoulMasterData"),
            TemplateRule("//CustomerRec", build_customer),
            RenameRule("//CName", "Name"),
            RenameRule("//CAddr", "Address"),
            RenameRule("//CPhone", "Phone"),
            RenameRule("//CSeg", "Segment"),
        ],
    )


def mdm_to_europe_stylesheet() -> Stylesheet:
    """The P02 translation: MDM message → Europe customer message.

    Unwraps the message envelope, turns the ``Kunde`` attribute ``nr``
    into a ``Custkey`` element, and flattens the nested ``Anschrift``
    (address) block — the structural heterogeneity Section III.B calls
    "deep-structured XML schemas".
    """

    def build_customer(tag: str, attrs: dict[str, str]) -> XmlElement:
        element = XmlElement("EuropeCustomer")
        element.add_text_child("Custkey", attrs["nr"])
        return element

    return Stylesheet(
        "stx_mdm_to_europe",
        [
            UnwrapRule("/MDMCustomerMessage"),
            TemplateRule("//Kunde", build_customer),
            UnwrapRule("//Anschrift"),
            RenameRule("//Anschrift/Strasse", "Address"),
            RenameRule("//Anschrift/Stadtschluessel", "Citykey"),
            RenameRule("//Telefon", "Phone"),
        ],
    )


def hongkong_to_cdb_stylesheet() -> Stylesheet:
    """The P08 translation: HKOrder → the CDB's canonical order message."""
    return Stylesheet(
        "stx_hongkong_to_cdb",
        [
            RenameRule("/HKOrder", "CdbOrder"),
            RenameRule("/HKOrder/Id", "Orderkey"),
            RenameRule("/HKOrder/Cust", "Custkey"),
            RenameRule("/HKOrder/Date", "Orderdate"),
            ValueRule(
                "/HKOrder/Stat",
                to="Status",
                # Semantic heterogeneity: Hongkong's order states.
                value_map={"OPEN": "O", "FILLED": "F", "PENDING": "P"},
            ),
            ValueRule(
                "/HKOrder/Prio",
                to="Priority",
                value_map={
                    "U": "1-URGENT",
                    "H": "2-HIGH",
                    "M": "3-MEDIUM",
                    "N": "4-NOT SPECIFIED",
                    "L": "5-LOW",
                },
            ),
            RenameRule("/HKOrder/Sum", "Totalprice"),
            RenameRule("/HKOrder/Items", "Lines"),
            RenameRule("//Item", "Line"),
            RenameRule("//Item/No", "Linenumber"),
            RenameRule("//Item/Prod", "Prodkey"),
            RenameRule("//Item/Qty", "Quantity"),
            RenameRule("//Item/Value", "Extendedprice"),
            RenameRule("//Item/Disc", "Discount"),
        ],
    )


def sandiego_to_cdb_stylesheet() -> Stylesheet:
    """The P10 translation: SDOrder → the CDB's canonical order message."""

    def build_order(tag: str, attrs: dict[str, str]) -> XmlElement:
        element = XmlElement("CdbOrder")
        element.add_text_child("Orderkey", attrs["key"])
        element.add_text_child("Custkey", attrs["customer"])
        return element

    def build_line(tag: str, attrs: dict[str, str]) -> XmlElement:
        element = XmlElement("Line")
        element.add_text_child("Linenumber", attrs["no"])
        element.add_text_child("Prodkey", attrs["part"])
        return element

    return Stylesheet(
        "stx_sandiego_to_cdb",
        [
            TemplateRule("/SDOrder", build_order),
            RenameRule("/SDOrder/Placed", "Orderdate"),
            RenameRule("/SDOrder/State", "Status"),
            RenameRule("/SDOrder/Priority", "Priority"),
            RenameRule("/SDOrder/Total", "Totalprice"),
            RenameRule("/SDOrder/Lines", "Lines"),
            TemplateRule("//Lines/Line", build_line),
            RenameRule("//Qty", "Quantity"),
            RenameRule("//Amount", "Extendedprice"),
            RenameRule("//Discount", "Discount"),
        ],
    )


def vienna_to_cdb_stylesheet() -> Stylesheet:
    """The P04 translation: ViennaOrder → the CDB's canonical order message."""

    def build_position(tag: str, attrs: dict[str, str]) -> XmlElement:
        element = XmlElement("Line")
        element.add_text_child("Linenumber", attrs["nr"])
        return element

    return Stylesheet(
        "stx_vienna_to_cdb",
        [
            RenameRule("/ViennaOrder", "CdbOrder"),
            UnwrapRule("//Kopf"),
            RenameRule("//Kopf/Auftrag", "Orderkey"),
            RenameRule("//Kopf/Kunde", "Custkey"),
            RenameRule("//Kopf/Datum", "Orderdate"),
            ValueRule(
                "//Kopf/Status",
                to="Status",
                value_map={"OFFEN": "O", "FERTIG": "F", "TEIL": "P"},
            ),
            ValueRule(
                "//Kopf/Prioritaet",
                to="Priority",
                value_map={
                    "EILIG": "1-URGENT",
                    "HOCH": "2-HIGH",
                    "MITTEL": "3-MEDIUM",
                    "OFFEN": "4-NOT SPECIFIED",
                    "NIEDRIG": "5-LOW",
                },
            ),
            RenameRule("//Positionen", "Lines"),
            TemplateRule("//Position", build_position),
            RenameRule("//Position/Artikel", "Prodkey"),
            RenameRule("//Position/Menge", "Quantity"),
            RenameRule("//Position/Preis", "Extendedprice"),
            RenameRule("//Position/Rabatt", "Discount"),
        ],
    )


def beijing_resultset_stylesheet() -> Stylesheet:
    """P09 stylesheet #1: Beijing's ``<BJData>/<Tuple>`` dialect → canonical."""
    return Stylesheet(
        "stx_beijing_resultset",
        [
            RenameRule("/BJData", "ResultSet"),
            RenameRule("/BJData/Tuple", "Row"),
        ],
    )


def seoul_resultset_stylesheet() -> Stylesheet:
    """P09 stylesheet #2: Seoul's ``<SeoulRS>/<Record>`` dialect → canonical."""
    return Stylesheet(
        "stx_seoul_resultset",
        [
            RenameRule("/SeoulRS", "ResultSet"),
            RenameRule("/SeoulRS/Record", "Row"),
        ],
    )


# ----------------------------------------------------- inbound message schemas


def message_schemas() -> dict[str, "XsdSchema"]:
    """Inbound XSD per E1 message type.

    The resilience layer's fault injector uses this map to validate
    messages it corrupted, so poison messages fail with a real
    ``XsdValidationError`` (violations preserved) at delivery time.
    """
    return {
        "vienna_order": vienna_schema(),
        "mdm_customer": mdm_schema(),
        "beijing_master": beijing_schema(),
        "hongkong_order": hongkong_schema(),
        "sandiego_order": sandiego_schema(),
    }

"""Shared building blocks for the process definitions.

Mostly: converting between the canonical CdbOrder message shape and
relational rows, the projection mappings implementing the schema mappings
of Sections III–IV, and request-builder closures for INVOKE operators.
"""

from __future__ import annotations

import datetime
from decimal import Decimal
from typing import Any, Callable

from repro.db.expressions import Expression, col, lit
from repro.db.relation import Relation
from repro.mtm.context import ExecutionContext
from repro.mtm.message import Message
from repro.services.endpoints import Envelope
from repro.xmlkit.doc import XmlElement

ORDER_COLUMNS = ("orderkey", "custkey", "orderdate", "status", "priority", "totalprice")
ORDERLINE_COLUMNS = (
    "orderkey",
    "linenumber",
    "prodkey",
    "quantity",
    "extendedprice",
    "discount",
)


def cdb_order_to_rows(document: XmlElement) -> tuple[dict, list[dict]]:
    """Parse a canonical ``<CdbOrder>`` message into order + line rows.

    Head fields are direct children, or sit one level down (Head
    blocks); the first element in document order carries a field.
    """
    direct: dict[str, str] = {}
    nested: dict[str, str] = {}
    lines_parent: XmlElement | None = None
    for child in document.children:
        direct.setdefault(child.tag, child.text or "")
        if lines_parent is None and child.tag == "Lines":
            lines_parent = child
        for below in child.children:
            nested.setdefault(below.tag, below.text or "")

    def text(tag: str) -> str | None:
        found = direct.get(tag)
        return nested.get(tag) if found is None else found

    orderkey = int(text("Orderkey"))
    order = {
        "orderkey": orderkey,
        "custkey": int(text("Custkey")),
        "orderdate": datetime.date.fromisoformat(text("Orderdate")),
        "status": text("Status"),
        "priority": text("Priority"),
        "totalprice": None,
    }
    total_text = text("Totalprice")
    lines: list[dict] = []
    computed_total = Decimal("0")
    for line in lines_parent.children if lines_parent is not None else ():
        if line.tag != "Line":
            continue
        # First child with a tag wins, as in the head.
        field = {
            cell.tag: cell.text or "" for cell in reversed(line.children)
        }.get
        extended = Decimal(field("Extendedprice") or "0")
        computed_total += extended
        discount_text = field("Discount")
        lines.append(
            {
                "orderkey": orderkey,
                "linenumber": int(field("Linenumber")),
                "prodkey": int(field("Prodkey")),
                "quantity": int(field("Quantity")),
                "extendedprice": extended,
                "discount": Decimal(discount_text) if discount_text else None,
            }
        )
    order["totalprice"] = Decimal(total_text) if total_text else computed_total
    return order, lines


def extract_cdb_order(input_var: str, order_var: str, lines_var: str):
    """Assign-callables splitting a CdbOrder message into two relations.

    The order callable parses the message; the lines callable, which a
    process runs right after it on the same document, takes the lines
    of that parse from the instance's context instead of parsing again.
    """

    def order_value(context: ExecutionContext) -> Message:
        document = context.get(input_var).xml()
        order, lines = cdb_order_to_rows(document)
        context.scratch[lines_var] = document, lines
        return Message(Relation(ORDER_COLUMNS, [order]))

    def lines_value(context: ExecutionContext) -> Message:
        document = context.get(input_var).xml()
        split = context.scratch.pop(lines_var, None)
        if split is not None and split[0] is document:
            lines = split[1]
        else:
            _, lines = cdb_order_to_rows(document)
        return Message(Relation(ORDERLINE_COLUMNS, lines))

    return order_value, lines_value


# ----------------------------------------------------------- request builders

def insert_request(table: str, input_var: str, mode: str = "insert"):
    """Request builder: update <table> with the relation bound to input_var."""

    def build(context: ExecutionContext) -> Envelope:
        return Envelope.update_request(
            table, context.get(input_var).relation(), mode=mode
        )

    # Introspection metadata consumed by the optimizer's rewrite rules.
    build.kind = "update"
    build.table = table
    build.input_var = input_var
    build.mode = mode
    return build


def query_request(
    table: str,
    predicate: Expression | None = None,
    columns: tuple[str, ...] | None = None,
):
    """Request builder: query <table> (optionally filtered/projected)."""

    def build(context: ExecutionContext) -> Envelope:
        return Envelope.query_request(table, predicate, columns)

    build.kind = "query"
    build.table = table
    build.predicate = predicate
    build.columns = columns
    return build


def ws_query_request(table: str):
    """Request builder for web services: body is ``{"table": ...}``."""

    def build(context: ExecutionContext) -> Envelope:
        return Envelope("query", {"table": table}, payload_units=1.0)

    return build


def execute_request(procedure: str, **params: Any):
    """Request builder: call a stored procedure."""

    def build(context: ExecutionContext) -> Envelope:
        return Envelope.execute_request(procedure, **params)

    return build


# -------------------------------------------------------- projection mappings

#: Europe source schema -> canonical CDB customer (with staging flag).
EU_CUSTOMER_TO_CDB: dict[str, str | Expression] = {
    "custkey": "cust_id",
    "name": "cust_name",
    "address": "cust_address",
    "phone": "cust_phone",
    "citykey": "cust_city",
    "segment": "cust_segment",
    "integrated": lit(False),
}

EU_PRODUCT_TO_CDB: dict[str, str] = {
    "prodkey": "prod_id",
    "name": "prod_name",
    "brand": "prod_brand",
    "price": "prod_price",
    "groupkey": "prod_group",
}

EU_ORDER_TO_CDB: dict[str, str] = {
    "orderkey": "ord_id",
    "custkey": "ord_customer",
    "orderdate": "ord_date",
    "status": "ord_state",
    "priority": "ord_priority",
    "totalprice": "ord_total",
}

EU_ORDERPOS_TO_CDB: dict[str, str] = {
    "orderkey": "ord_id",
    "linenumber": "pos_nr",
    "prodkey": "pos_product",
    "quantity": "pos_quantity",
    "extendedprice": "pos_price",
    "discount": "pos_discount",
}

#: TPC-H America schema -> canonical CDB shapes (P11's "simple schema
#: mapping" realized by "several projections").
TPCH_CUSTOMER_TO_CDB: dict[str, str | Expression] = {
    "custkey": "c_custkey",
    "name": "c_name",
    "address": "c_address",
    "phone": "c_phone",
    "citykey": "c_citykey",
    "segment": "c_mktsegment",
    "integrated": lit(False),
}

TPCH_PART_TO_CDB: dict[str, str] = {
    "prodkey": "p_partkey",
    "name": "p_name",
    "brand": "p_brand",
    "price": "p_retailprice",
    "groupkey": "p_groupkey",
}

TPCH_ORDERS_TO_CDB: dict[str, str] = {
    "orderkey": "o_orderkey",
    "custkey": "o_custkey",
    "orderdate": "o_orderdate",
    "status": "o_orderstatus",
    "priority": "o_orderpriority",
    "totalprice": "o_totalprice",
}

TPCH_LINEITEM_TO_CDB: dict[str, str] = {
    "orderkey": "l_orderkey",
    "linenumber": "l_linenumber",
    "prodkey": "l_partkey",
    "quantity": "l_quantity",
    "extendedprice": "l_extendedprice",
    "discount": "l_discount",
}

#: Asia result sets -> canonical CDB customer (adds the staging flag).
ASIA_CUSTOMER_TO_CDB: dict[str, str | Expression] = {
    "custkey": "custkey",
    "name": "name",
    "address": "address",
    "phone": "phone",
    "citykey": "citykey",
    "segment": "segment",
    "integrated": lit(False),
}

"""Stored procedures and materialized views of the scenario.

The consolidated database owns the two cleansing procedures invoked by
P12/P13 (``sp_runMasterDataCleansing`` / ``sp_runMovementDataCleansing``);
the data warehouse owns ``OrdersMV`` and its refresh procedure (P13); each
data mart owns a revenue view refreshed by P15.

Cleansing semantics (the full spec [25] is unavailable; the rules below
are the obvious reading of "eliminate master data duplicates and
error-prone master data" / "eliminate the movement data errors" given the
dirt our generators inject):

* master data — a customer whose name violates the ``Customer#<digits>``
  pattern is error-prone and removed; customers sharing (address, phone)
  are duplicates, the lowest custkey survives; products with non-positive
  prices or corrupted names are removed;
* movement data — orders referencing a missing customer, orderlines
  referencing a missing order or product, and lines with non-positive
  quantities are removed (orphan elimination before the FK-checked
  warehouse load).
"""

from __future__ import annotations

import re
from typing import Mapping

from repro.db.active import ViewJoin, ViewQuery
from repro.db.database import Database
from repro.db.expressions import col, func, lit

_CUSTOMER_NAME_RE = re.compile(r"^Customer#\d+$")


def _clean_name(name: object) -> bool:
    return isinstance(name, str) and bool(_CUSTOMER_NAME_RE.match(name))


def sp_run_master_data_cleansing(db: Database) -> dict[str, int]:
    """Eliminate duplicates and error-prone master data in the CDB (P12)."""
    customer = db.table("customer")

    removed_errors = customer.delete(lambda row: not _clean_name(row["name"]))

    # Duplicate elimination: same (address, phone) -> keep lowest custkey.
    best: dict[tuple, int] = {}
    for row in customer.scan():
        key = (row["address"], row["phone"])
        if key not in best or row["custkey"] < best[key]:
            best[key] = row["custkey"]
    survivors = set(best.values())
    removed_duplicates = customer.delete(
        lambda row: row["custkey"] not in survivors
    )

    product = db.table("product")
    removed_products = product.delete(
        lambda row: (row["price"] is None or row["price"] <= 0)
        or ("##" in (row["name"] or ""))
    )
    return {
        "customer_errors": removed_errors,
        "customer_duplicates": removed_duplicates,
        "product_errors": removed_products,
    }


def sp_run_movement_data_cleansing(db: Database) -> dict[str, int]:
    """Eliminate movement-data errors in the CDB (P13)."""
    valid_customers = {row["custkey"] for row in db.table("customer").scan()}
    orders = db.table("orders")
    removed_orphan_orders = orders.delete(
        lambda row: row["custkey"] not in valid_customers
    )

    valid_orders = {row["orderkey"] for row in orders.scan()}
    valid_products = {row["prodkey"] for row in db.table("product").scan()}
    orderline = db.table("orderline")
    removed_lines = orderline.delete(
        lambda row: row["orderkey"] not in valid_orders
        or row["prodkey"] not in valid_products
        or (row["quantity"] is not None and row["quantity"] <= 0)
    )
    return {
        "orphan_orders": removed_orphan_orders,
        "bad_orderlines": removed_lines,
    }


def sp_mark_master_data_integrated(db: Database) -> int:
    """Flag CDB master data as integrated "but not physically removed" (P12)."""
    return db.table("customer").update(
        {"integrated": True}, col("integrated") == lit(False)
    )


def sp_clear_movement_data(db: Database) -> dict[str, int]:
    """Remove loaded movement data from the CDB "for simple delta
    determination in the following integration processes" (P13)."""
    lines = db.table("orderline").truncate()
    orders = db.table("orders").truncate()
    return {"orders": orders, "orderlines": lines}


def orders_mv_query() -> ViewQuery:
    """OrdersMV (Fig. 3) as a declarative :class:`ViewQuery`.

    sp_refreshOrdersMV (P13) recomputes it once per period, after P03
    has appended the period's order facts.  Built fresh per database so
    compiled-expression cache hits stay deterministic per run.
    """
    return ViewQuery(
        fact_table="orders",
        joins=(
            ViewJoin(
                table="customer",
                on=(("custkey", "custkey"),),
                columns=(("custkey", "custkey"), ("citykey", "citykey")),
            ),
            ViewJoin(
                table="city",
                on=(("citykey", "citykey"),),
                columns=(("citykey", "citykey"), ("nationkey", "nationkey")),
            ),
            ViewJoin(
                table="nation",
                on=(("nationkey", "nationkey"),),
                columns=(("nationkey", "nationkey"), ("nation_name", "name")),
            ),
        ),
        extend=(("orderyear", func("YEAR", col("orderdate"))),),
        group_keys=("nation_name", "orderyear"),
        aggregates=(
            ("order_count", ("COUNT", None)),
            ("revenue", ("SUM", "totalprice")),
        ),
    )


def mart_revenue_view_query() -> ViewQuery:
    """Per-mart OrdersMV (P09/P15 shape) as a :class:`ViewQuery`."""
    return ViewQuery(
        fact_table="orders",
        joins=(
            ViewJoin(
                table="customer",
                on=(("custkey", "custkey"),),
                columns=(("custkey", "custkey"), ("segment", "segment")),
            ),
        ),
        group_keys=("segment",),
        aggregates=(
            ("order_count", ("COUNT", None)),
            ("revenue", ("SUM", "totalprice")),
        ),
    )


def install_procedures(
    cdb: Database, dwh: Database, marts: Mapping[str, Database]
) -> None:
    """Install every procedure and materialized view of the scenario."""
    cdb.create_procedure(
        "sp_runMasterDataCleansing",
        sp_run_master_data_cleansing,
        "eliminate master data duplicates and error-prone master data (P12)",
    )
    cdb.create_procedure(
        "sp_runMovementDataCleansing",
        sp_run_movement_data_cleansing,
        "eliminate movement data errors (P13)",
    )
    cdb.create_procedure(
        "sp_markMasterDataIntegrated",
        sp_mark_master_data_integrated,
        "flag master data as integrated after the warehouse load (P12)",
    )
    cdb.create_procedure(
        "sp_clearMovementData",
        sp_clear_movement_data,
        "remove loaded movement data for delta determination (P13)",
    )

    dwh.create_materialized_view("OrdersMV", orders_mv_query())
    dwh.create_procedure(
        "sp_refreshOrdersMV",
        lambda db: db.materialized_view("OrdersMV").refresh(db),
        "refresh the OrdersMV materialized view (P13)",
    )

    for mart_db in marts.values():
        mart_db.create_materialized_view("OrdersMV", mart_revenue_view_query())
        mart_db.create_procedure(
            "sp_refreshViews",
            lambda db: db.materialized_view("OrdersMV").refresh(db),
            "refresh all materialized views of this data mart (P15)",
        )

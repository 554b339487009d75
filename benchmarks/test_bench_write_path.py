"""Write path and STX dispatch: per-row and per-transform microbenchmarks.

Two layers carry most of a classic period (``bench/README.md``):
``db.write`` — normalizing a row into a table — and ``xmlkit.stx`` —
finding each element's template.  This file times exactly those two on
the scenario's own shapes and lands one row in ``results/LEDGER.jsonl``:

* ns/row for ``insert``, ``insert_many``, ``upsert`` (miss and hit) of
  generated orders into the scenario's ``eu_order`` table (pk, DATE and
  CHAR columns, a float total coerced into DECIMAL — the Initializer's
  exact input);
* µs/transform for every scenario stylesheet, on the first document a
  benchmark period feeds it.

The numbers explain the end-to-end ``python3 -m bench`` result; they
claim nothing by themselves (docs/performance.md, "Write path and STX
dispatch").
"""

import time

from benchmarks.conftest import ledger_append

from repro.datagen.generators import DataGenerator
from repro.db import Database
from repro.parallel.spec import RunSpec, run_spec
from repro.scenario import build_scenario
from repro.xmlkit.stx import Stylesheet

N_ROWS = 5_000
ROUNDS = 5
TRANSFORMS = 200


def eu_order_rows() -> list[dict]:
    orders, _ = DataGenerator(seed=5).orders(
        N_ROWS, customer_keys=list(range(1, 200)), product_keys=list(range(1, 60))
    )
    return [
        {
            "ord_id": o["orderkey"],
            "ord_customer": o["custkey"],
            "ord_date": o["orderdate"],
            "ord_state": o["status"],
            "ord_priority": o["priority"],
            "ord_total": o["totalprice"],
            "location": "Trondheim",
        }
        for o in orders
    ]


def best_ns_per_row(prepare, write, rows) -> float:
    """Fastest of ROUNDS timings of ``write(table, rows)`` on a table
    fresh from ``prepare()``."""
    best = float("inf")
    for _ in range(ROUNDS):
        table = prepare()
        started = time.perf_counter_ns()
        write(table, rows)
        best = min(best, time.perf_counter_ns() - started)
        assert len(table) == len(rows)
    return round(best / len(rows), 1)


def per_row(method):
    def write(table, rows):
        call = getattr(table, method)
        for row in rows:
            call(row)

    return write


def first_documents() -> dict[str, tuple[Stylesheet, object]]:
    """``{stylesheet name: (sheet, first document it transformed)}`` over
    one period of the two engines that translate messages."""
    seen: dict[str, tuple[Stylesheet, object]] = {}
    original = Stylesheet.transform

    def recording(sheet, document):
        seen.setdefault(sheet.name, (sheet, document))
        return original(sheet, document)

    Stylesheet.transform = recording
    try:
        for engine in ("interpreter", "eai"):
            outcome = run_spec(RunSpec(engine=engine, datasize=0.05, periods=1, seed=5))
            assert outcome.status == "ok", outcome
    finally:
        Stylesheet.transform = original
    return seen


def test_write_path_and_stx_dispatch():
    schema = build_scenario().databases["trondheim"].table("eu_order").schema
    rows = eu_order_rows()

    def empty():
        return Database("bench").create_table(schema)

    def filled():
        table = empty()
        table.insert_many(rows)
        return table

    summary = {
        "rows": N_ROWS,
        "insert_ns_per_row": best_ns_per_row(empty, per_row("insert"), rows),
        "insert_many_ns_per_row": best_ns_per_row(
            empty, lambda table, batch: table.insert_many(batch), rows
        ),
        "upsert_miss_ns_per_row": best_ns_per_row(empty, per_row("upsert"), rows),
        "upsert_hit_ns_per_row": best_ns_per_row(filled, per_row("upsert"), rows),
    }

    stx: dict[str, float] = {}
    for name, (sheet, document) in sorted(first_documents().items()):
        best = float("inf")
        for _ in range(ROUNDS):
            started = time.perf_counter_ns()
            for _ in range(TRANSFORMS):
                sheet.transform(document)
            best = min(best, time.perf_counter_ns() - started)
        stx[name] = round(best / TRANSFORMS / 1000, 1)
    assert len(stx) >= 7, sorted(stx)
    summary["stx_us_per_transform"] = stx

    print("\nwrite path, ns/row:", {k: v for k, v in summary.items() if k.endswith("row")})
    print("stx, us/transform:", stx)
    ledger_append("write_path:eu_order+stx", summary)

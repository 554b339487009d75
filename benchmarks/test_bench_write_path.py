"""Write path and STX walk: per-row and per-transform microbenchmarks,
and the per-item work a period no longer does, counted.

Two layers carry most of a classic period (``bench/README.md``):
``db.write`` — normalizing a row into a table — and ``xmlkit.stx`` —
translating a document.  This file times exactly those two on the
scenario's own shapes and lands three rows in ``results/LEDGER.jsonl``:

* ns/row for ``insert``, ``insert_many``, ``upsert`` (miss and hit) and
  the bulk upsert ``insert_many(rows, replace=True)`` (miss and hit) of
  generated orders into the scenario's ``eu_order`` table (pk, DATE and
  CHAR columns, a float total coerced into DECIMAL — the Initializer's
  exact input);
* µs/transform for every scenario stylesheet, on the first document a
  benchmark period feeds it;
* ``xml_path:compiled_walk+bulk_upsert`` — deterministic counts of one
  ``interpreter`` d=0.05 seed-5 period: CdbOrder parses per message,
  per-row ``Table.upsert`` calls, elements allocated per transform;
* ``xml_path:rows_backed_resultsets`` — the same period's ``XmlElement``
  allocations against the parent's, P09's result-set elements, and the
  collector's runs per period.

The same period's rows stored by copy (a relation typed like its target
table) and through ``TableSchema.normalize`` are asserted exactly too,
so a relation operator that stops declaring its types fails here
(``write_path:declared_types``, docs/perf-log/PR-46.md).

The timings explain the end-to-end ``python3 -m bench`` result; they
claim nothing by themselves and gate nothing.  The counts repeat
exactly and are asserted (docs/perf-log/PR-19.md, PR-25.md); the
collections per period repeat per interpreter version.
"""

import functools
import gc
import sys
import time

from benchmarks.conftest import ledger_append

from repro.datagen.generators import DataGenerator
from repro.db import Database
from repro.db.schema import TableSchema
from repro.db.table import Table
from repro.parallel.spec import RunSpec, run_spec
from repro.scenario import build_scenario
from repro.scenario.processes import helpers
from repro.services.endpoints import WebService
from repro.toolsuite import BenchmarkClient
from repro.xmlkit.doc import ResultSetRoot, XmlElement
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


def bulk_upsert(table, rows):
    table.insert_many(rows, replace=True)


@functools.cache
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
        "bulk_upsert_miss_ns_per_row": best_ns_per_row(empty, bulk_upsert, rows),
        "bulk_upsert_hit_ns_per_row": best_ns_per_row(filled, bulk_upsert, rows),
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


# ------------------------------------------------ the same work, counted


def elements_allocated(fn, *args):
    """``(result, elements, roots)`` of one call: ``elements`` counts every
    ``XmlElement(...)`` and every bare ``XmlElement.__new__`` (made only by
    ``repro.xmlkit``), ``roots`` every rows-backed :class:`ResultSetRoot`."""
    init, root_init = XmlElement.__init__.__code__, ResultSetRoot.__init__.__code__
    bare_new = object.__new__
    elements = roots = 0

    def profiler(frame, event, arg):
        nonlocal elements, roots
        if event == "call":
            if frame.f_code is init:
                elements += 1
            elif frame.f_code is root_init:
                roots += 1
        elif event == "c_call" and arg is bare_new and (
            "xmlkit" in frame.f_code.co_filename
        ):
            elements += 1

    sys.setprofile(profiler)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, elements, roots


#: The two stylesheets P09 translates Beijing's and Seoul's result sets
#: with: they only rename the root and the row tag.
RESULTSET_SHEETS = ("stx_beijing_resultset", "stx_seoul_resultset")


@functools.cache
def transform_allocations() -> dict[str, int]:
    """Elements each scenario stylesheet allocates on its first document.

    A result-set stylesheet on a rows-backed result set builds no element:
    its output is one :class:`ResultSetRoot` over the same rows.  Every
    other stylesheet allocates exactly its output tree."""
    allocations = {}
    for name, (sheet, document) in sorted(first_documents().items()):
        (output, _events), elements, roots = elements_allocated(
            sheet.transform, document
        )
        if name in RESULTSET_SHEETS:
            assert type(document) is ResultSetRoot and document.rows is not None
            assert (elements, roots) == (0, 1), name
            assert type(output) is ResultSetRoot and output.rows is not None
        else:
            assert (elements, roots) == (output.size(), 0), name
        allocations[name] = elements
    assert len(allocations) >= 7, sorted(allocations)
    return allocations


def test_a_period_parses_upserts_and_allocates_once():
    """One ``interpreter`` d=0.05 seed-5 period, counted where the
    per-item work used to be.  Before: 294 CdbOrder parses of 147
    messages, 5 128 per-row ``Table.upsert`` calls, and the event loop."""
    parses: list[object] = []
    upserts = 0
    split, upsert = helpers.cdb_order_to_rows, Table.upsert

    def counting_split(document):
        parses.append(document)
        return split(document)

    def counting_upsert(table, values):
        nonlocal upserts
        upserts += 1
        return upsert(table, values)

    helpers.cdb_order_to_rows, Table.upsert = counting_split, counting_upsert
    try:
        client = BenchmarkClient.from_spec(
            RunSpec(engine="interpreter", datasize=0.05, periods=1, seed=5)
        )
        client.run_period(0)
    finally:
        helpers.cdb_order_to_rows, Table.upsert = split, upsert
    factory = client._last_factory
    order_messages = (
        factory.vienna_sent
        + factory.hongkong_sent
        + factory.sandiego_sent
        - factory.sandiego_invalid
    )
    rows_written = sum(
        db.statistics().rows_written
        for db in client.scenario.all_databases.values()
    )
    assert order_messages == 147
    assert len(parses) == len({id(document) for document in parses}) == 147
    assert upserts == 0
    assert rows_written == 8175

    allocations = transform_allocations()

    ledger_append(
        "xml_path:compiled_walk+bulk_upsert",
        {
            "config": "interpreter d=0.05 seed 5, period 0",
            "order_messages": order_messages,
            "cdb_order_parses": {"before": 294, "after": len(parses)},
            "per_row_upsert_calls": {"before": 5128, "after": upserts},
            "rows_written": {"before": 8175, "after": rows_written},
            "elements_allocated_per_transform": allocations,
            "src_loc": {"before": 28600, "after": 26274},
        },
    )


# ------------------------------------ rows stored by copy, counted

#: Rows one ``interpreter`` d=0.05 seed-5 period hands each per-row
#: writer.  Before typed relations every one of the 6 736 was normalized.
PERIOD_ROWS_COPIED = 4_077
PERIOD_ROWS_NORMALIZED = 2_659


def test_a_period_copies_the_relations_typed_like_their_target():
    """Rows read from tables reach ``Table.insert_many`` as relations
    that declare their column types, and are stored by copy; generated,
    XML and message rows are the boundary and are normalized."""
    counts = {"normalize": 0, "copy_stored": 0}
    originals = {name: vars(TableSchema)[name] for name in counts}

    def counting(name):
        compiled = originals[name]

        def get(schema):
            writer = compiled.__get__(schema, TableSchema)

            def counted(row):
                counts[name] += 1
                return writer(row)

            return counted

        return property(get)

    for name in counts:
        setattr(TableSchema, name, counting(name))
    try:
        client = BenchmarkClient.from_spec(
            RunSpec(engine="interpreter", datasize=0.05, periods=1, seed=5)
        )
        client.run_period(0)
    finally:
        for name, compiled in originals.items():
            setattr(TableSchema, name, compiled)
    assert counts == {
        "normalize": PERIOD_ROWS_NORMALIZED,
        "copy_stored": PERIOD_ROWS_COPIED,
    }


# ------------------------------------- a result set stays rows, counted

#: ``XmlElement`` allocations of the period below at the parent, where
#: every result set was built as a tree (PR 19 counted 10 953 on the
#: scenario of its day).
PARENT_PERIOD_ELEMENTS = 12_606
#: Collections per period, generations 0/1/2, over periods 1-20 after a
#: ``gc.collect()``: the parent on Python 3.11.
PARENT_COLLECTIONS = (38.45, 3.45, 0.3)
#: The ceiling per interpreter version: how often the collector runs
#: depends on it, so a version without a recorded figure is not gated.
COLLECTIONS_CEILING = {(3, 11): (25.0, 2.5, 0.2)}
GC_PERIODS = 20
PARENT_SRC_LOC = 27_944


def test_a_classic_period_keeps_result_sets_as_rows():
    """P09's eight extracts and their eight translations stay rows: one
    ``interpreter`` d=0.05 seed-5 period allocates at least P09's two
    trees fewer elements, and the collector runs less often."""
    p09_elements = 0
    query = WebService.op_query

    def measuring_query(service, request):
        nonlocal p09_elements
        response = query(service, request)
        p09_elements += response.body.size()
        return response

    client = BenchmarkClient.from_spec(
        RunSpec(engine="interpreter", datasize=0.05, periods=GC_PERIODS + 1, seed=5)
    )
    WebService.op_query = measuring_query
    try:
        _, elements, roots = elements_allocated(client.run_period, 0)
    finally:
        WebService.op_query = query
    assert roots == 16  # 8 extracts, 8 translations
    assert 0 < 2 * p09_elements <= PARENT_PERIOD_ELEMENTS - elements

    collections = [0, 0, 0]

    def count(phase, info):
        if phase == "stop":
            collections[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        for period in range(1, GC_PERIODS + 1):
            client.run_period(period)
    finally:
        gc.callbacks.remove(count)
    per_period = tuple(round(n / GC_PERIODS, 2) for n in collections)
    ceiling = COLLECTIONS_CEILING.get(sys.version_info[:2])
    if ceiling is not None:
        assert all(n <= c for n, c in zip(per_period, ceiling)), per_period

    print(f"\nelements/period {elements}, P09 result sets {p09_elements}, "
          f"collections/period {per_period}")
    ledger_append(
        "xml_path:rows_backed_resultsets",
        {
            "config": "interpreter d=0.05 seed 5; elements: period 0, "
                      f"collections: periods 1-{GC_PERIODS} after gc.collect()",
            "elements_per_period": {"before": PARENT_PERIOD_ELEMENTS, "after": elements},
            "p09_result_set_elements": p09_elements,
            "result_set_roots_per_period": roots,
            "resultset_stylesheet_elements": {
                "before": {"stx_beijing_resultset": 183, "stx_seoul_resultset": 162},
                "after": {name: transform_allocations()[name]
                          for name in RESULTSET_SHEETS},
            },
            "collections_per_period_gen0_gen1_gen2": {
                "before": list(PARENT_COLLECTIONS), "after": list(per_period),
                "python": ".".join(map(str, sys.version_info[:2])),
            },
            "src_loc": {"before": PARENT_SRC_LOC, "after": 26274},
        },
    )

"""Service endpoints: database and web-service operations."""

import pytest

from repro.db import Column, Database, TableSchema, col, lit
from repro.db.relation import Relation
from repro.errors import OperationNotSupported, ServiceError
from repro.services.endpoints import DatabaseService, Envelope, WebService
from repro.xmlkit.convert import rows_to_resultset
from repro.xmlkit.doc import XmlElement, serialize_xml


@pytest.fixture()
def db():
    database = Database("src")
    database.create_table(
        TableSchema(
            "t",
            [Column("k", "BIGINT", nullable=False), Column("v", "VARCHAR")],
            primary_key=("k",),
        )
    )
    database.insert_many("t", [{"k": i, "v": f"v{i}"} for i in range(5)])
    return database


@pytest.fixture()
def dbs(db):
    return DatabaseService("src", "ES", db)


class TestEnvelopeBuilders:
    def test_for_relation_counts_rows(self):
        rel = Relation(("a",), [{"a": 1}, {"a": 2}])
        assert Envelope.for_relation("result", rel).payload_units == 2.0

    def test_for_xml_counts_elements(self):
        doc = XmlElement("a", children=[XmlElement("b"), XmlElement("c")])
        assert Envelope.for_xml("x", doc).payload_units == 3.0

    def test_update_request_payload(self):
        env = Envelope.update_request("t", [{"k": 1}, {"k": 2}])
        assert env.payload_units == 2.0
        assert env.body["mode"] == "insert"


class TestDatabaseService:
    def test_query_full_table(self, dbs):
        resp = dbs.handle(Envelope.query_request("t"))
        assert len(resp.body) == 5
        assert resp.payload_units == 5.0

    def test_query_with_predicate(self, dbs):
        resp = dbs.handle(Envelope.query_request("t", col("k") > lit(2)))
        assert len(resp.body) == 2

    def test_query_with_columns(self, dbs):
        resp = dbs.handle(Envelope.query_request("t", columns=("v",)))
        assert resp.body.columns == ("v",)

    def test_update_insert(self, dbs, db):
        resp = dbs.handle(Envelope.update_request("t", [{"k": 100}]))
        assert resp.body == 1
        assert len(db.table("t")) == 6

    def test_update_upsert(self, dbs, db):
        dbs.handle(Envelope.update_request("t", [{"k": 1, "v": "new"}], "upsert"))
        assert db.table("t").get(1)["v"] == "new"

    def test_update_accepts_relation_body(self, dbs, db):
        rel = Relation(("k", "v"), [{"k": 50, "v": "r"}])
        dbs.handle(Envelope.update_request("t", rel))
        assert db.table("t").get(50)["v"] == "r"

    def test_update_bad_mode(self, dbs):
        with pytest.raises(ServiceError):
            dbs.handle(Envelope.update_request("t", [], mode="merge"))

    def test_execute_procedure_reports_external_cost(self, dbs, db):
        db.create_procedure("touch", lambda d: len(d.table("t").scan()))
        resp = dbs.handle(Envelope.execute_request("touch"))
        assert resp.body == 5
        assert resp.external_cost > 0

    def test_unknown_operation(self, dbs):
        with pytest.raises(OperationNotSupported):
            dbs.handle(Envelope("subscribe", {}))

    def test_call_count(self, dbs):
        dbs.handle(Envelope.query_request("t"))
        dbs.handle(Envelope.query_request("t"))
        assert dbs.call_count == 2


class TestWebService:
    @pytest.fixture()
    def ws(self, db):
        return WebService(
            "beijing", "ES", db,
            types={"t": {"k": "BIGINT", "v": "VARCHAR"}},
            result_tag="BJData", row_tag="Tuple",
        )

    def test_query_returns_dialect(self, ws):
        resp = ws.handle(Envelope("query", {"table": "t"}, 1.0))
        assert resp.body.tag == "BJData"
        assert resp.body.children[0].tag == "Tuple"
        assert resp.body.attributes["table"] == "t"

    def test_update_accepts_own_dialect(self, ws, db):
        doc = rows_to_resultset(("k", "v"), [{"k": 9, "v": "x"}], "t")
        doc.tag = "BJData"
        doc.children[0].tag = "Tuple"
        resp = ws.handle(Envelope.for_xml("update", doc))
        assert resp.body == 1
        assert db.table("t").get(9)["v"] == "x"

    def test_update_reads_the_dialect_in_place(self, ws, db):
        """Dialect and canonical rows of a dialect document are stored,
        rows under any other tag are not, and the sender's document is
        neither copied nor renamed on the way."""
        doc = XmlElement("BJData", {"table": "t"})
        for tag, key in (("Tuple", 21), ("Row", 22), ("Record", 23)):
            doc.add(XmlElement(tag)).add_text_child("k", key)
        before = serialize_xml(doc)
        resp = ws.handle(Envelope.for_xml("update", doc))
        assert resp.body == 2
        assert serialize_xml(doc) == before
        table = db.table("t")
        assert (table.get(21), table.get(23)) == ({"k": 21, "v": None}, None)
        assert table.get(22) is not None
        # A canonical document is read by its canonical row tag only.
        doc.tag = "ResultSet"
        doc.children[0].children[0].text = "31"
        assert ws.handle(Envelope.for_xml("update", doc)).body == 1
        assert table.get(31) is None

    def test_update_accepts_canonical(self, ws, db):
        doc = rows_to_resultset(("k", "v"), [{"k": 8, "v": "y"}], "t")
        ws.handle(Envelope.for_xml("update", doc))
        assert db.table("t").get(8)["v"] == "y"

    def test_update_rejects_foreign_dialect(self, ws):
        doc = XmlElement("SomethingElse", {"table": "t"})
        with pytest.raises(ServiceError):
            ws.handle(Envelope.for_xml("update", doc))

    def test_update_requires_table_attribute(self, ws):
        doc = XmlElement("BJData")
        with pytest.raises(ServiceError):
            ws.handle(Envelope.for_xml("update", doc))

    def test_update_retypes_values(self, ws, db):
        doc = rows_to_resultset(("k", "v"), [{"k": "77", "v": "s"}], "t")
        ws.handle(Envelope.for_xml("update", doc))
        assert db.table("t").get(77) is not None  # "77" became int 77

    def test_types_fall_back_to_table_schema(self, db):
        ws = WebService("plain", "ES", db)
        doc = rows_to_resultset(("k", "v"), [{"k": "3", "v": "z"}], "t")
        ws.handle(Envelope.for_xml("update", doc))
        assert db.table("t").get(3)["v"] == "z"

    def test_round_trip_through_dialect(self, ws, db):
        """query → update must be lossless (the P01 message path)."""
        before = sorted(r["k"] for r in db.table("t").scan())
        resp = ws.handle(Envelope("query", {"table": "t"}, 1.0))
        ws.handle(Envelope.for_xml("update", resp.body))
        after = sorted(r["k"] for r in db.table("t").scan())
        assert before == after

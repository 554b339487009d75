"""Service endpoints: the callable faces of external systems.

The MTM INVOKE operator names a service and an operation — the paper's
process diagrams show ``Service = berlin/paris, Operation = "update"`` and
``Operation = "query"``.  Endpoints implement those operations:

* :class:`DatabaseService` speaks relations (query returns a
  :class:`~repro.db.relation.Relation`, update inserts/upserts rows),
* :class:`WebService` speaks XML result sets, hiding the same kind of data
  source behind the region-Asia generic XSDs.

Both report a *payload size* for each call so the registry can charge
communication cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.errors import OperationNotSupported, ServiceError
from repro.db.database import Database
from repro.db.expressions import Expression
from repro.db.relation import Relation
from repro.xmlkit.convert import relation_to_resultset, resultset_to_rows
from repro.xmlkit.doc import XmlElement


@dataclass
class Envelope:
    """A request/response envelope: operation name plus body.

    ``payload_units`` approximates the on-wire size (rows for relational
    bodies, element count for XML bodies) and is what the network model
    charges for.  ``external_cost`` is processing time spent *inside* the
    external system (stored procedures, MV refreshes) — the paper's C_c
    category explicitly includes "external processing costs" next to
    network delay.
    """

    operation: str
    body: Any
    payload_units: float = 0.0
    headers: dict[str, str] = field(default_factory=dict)
    external_cost: float = 0.0

    @classmethod
    def for_relation(cls, operation: str, relation: Relation) -> "Envelope":
        return cls(operation, relation, payload_units=float(len(relation)))

    @classmethod
    def for_xml(cls, operation: str, document: XmlElement) -> "Envelope":
        return cls(operation, document, payload_units=float(document.size()))

    @classmethod
    def query_request(
        cls,
        table: str,
        predicate: Expression | None = None,
        columns: Sequence[str] | None = None,
    ) -> "Envelope":
        """Build a ``query`` request (Operation = "query" in the diagrams)."""
        body = {"table": table, "predicate": predicate, "columns": columns}
        return cls("query", body, payload_units=1.0)

    @classmethod
    def update_request(
        cls,
        table: str,
        rows: "Relation | Sequence[Mapping[str, Any]]",
        mode: str = "insert",
    ) -> "Envelope":
        """Build an ``update`` request (Operation = "update")."""
        size = float(len(rows) if not isinstance(rows, Relation) else len(rows.rows))
        body = {"table": table, "rows": rows, "mode": mode}
        return cls("update", body, payload_units=size)

    @classmethod
    def execute_request(cls, procedure: str, **params: Any) -> "Envelope":
        """Build an ``execute`` request (stored procedure call)."""
        return cls("execute", {"procedure": procedure, "params": params}, 1.0)


class ServiceEndpoint:
    """Base endpoint: named operations dispatched through :meth:`handle`."""

    def __init__(self, name: str, host: str):
        if not name:
            raise ServiceError("endpoint needs a name")
        self.name = name
        self.host = host
        self.call_count = 0
        #: Outage switch (failure injection): the registry refuses calls
        #: while False, raising ``EndpointUnavailableError``.
        self.available = True

    def operations(self) -> list[str]:
        """Names of the operations this endpoint supports."""
        raise NotImplementedError

    def handle(self, request: Envelope) -> Envelope:
        """Dispatch one request; subclasses implement ``op_<name>``."""
        handler: Callable[[Envelope], Envelope] | None = getattr(
            self, f"op_{request.operation}", None
        )
        if handler is None:
            raise OperationNotSupported(
                f"service {self.name}: no operation {request.operation!r} "
                f"(supported: {self.operations()})"
            )
        self.call_count += 1
        return handler(request)


class DatabaseService(ServiceEndpoint):
    """An RDBMS endpoint wrapping one :class:`Database`.

    Operations:

    * ``query``  — body is ``{"table": str, "predicate": Expression | None,
      "columns": [str] | None}``; response body is a Relation.
    * ``update`` — body is ``{"table": str, "rows": [...], "mode":
      "insert" | "upsert"}``; response body is the affected row count.
    * ``execute`` — body is ``{"procedure": str, "params": {...}}``; calls
      a stored procedure; response body is its return value.
    """

    #: Cost (tu) per row read/written inside a stored procedure; the
    #: caller books it under C_c as external processing time.
    external_unit = 0.02

    def __init__(self, name: str, host: str, database: Database):
        super().__init__(name, host)
        self.database = database

    def operations(self) -> list[str]:
        return ["query", "update", "execute"]

    def op_query(self, request: Envelope) -> Envelope:
        spec = request.body
        # Predicate and projection are pushed into the database: equality
        # prefixes covered by an index are answered by probes (with
        # scan-equivalent cost accounting; see Database.query).
        relation = self.database.query(
            spec["table"],
            predicate=spec.get("predicate"),
            columns=spec.get("columns") or None,
        )
        return Envelope.for_relation("result", relation)

    def op_update(self, request: Envelope) -> Envelope:
        spec = request.body
        table = self.database.table(spec["table"])
        mode = spec.get("mode", "insert")
        # A relation goes whole to the table, which narrows or copies it.
        rows = spec["rows"]
        if mode == "insert":
            count = self.database.insert_many(spec["table"], rows)
        elif mode == "upsert":
            count = table.insert_many(rows, replace=True)
        else:
            raise ServiceError(f"unknown update mode {mode!r}")
        return Envelope("result", count, payload_units=1.0)

    def op_execute(self, request: Envelope) -> Envelope:
        spec = request.body
        stats_before = self.database.statistics()
        result = self.database.call_procedure(
            spec["procedure"], **spec.get("params", {})
        )
        delta = self.database.statistics() - stats_before
        external = (delta.rows_read + delta.rows_written) * self.external_unit
        return Envelope("result", result, payload_units=1.0, external_cost=external)


class WebService(ServiceEndpoint):
    """An XML result-set endpoint hiding a data source (region Asia).

    Operations:

    * ``query``  — body is ``{"table": str}``; response body is a
      ``<ResultSet>`` :class:`XmlElement` conforming to the service's
      default result-set XSD.
    * ``update`` — body is a ``<ResultSet>`` document whose rows are
      upserted into the named table (master data exchange, P01).

    ``types`` maps each table's columns to SQL types so inbound XML rows
    are re-typed before storage.

    ``result_tag``/``row_tag`` define the service's result-set *dialect* —
    the paper's region Asia expresses "all schemas … with default result
    set XSDs" per service, and P09 needs "two different STX style sheets"
    to bring Beijing's and Seoul's dialects into the canonical shape.
    """

    def __init__(
        self,
        name: str,
        host: str,
        database: Database,
        types: Mapping[str, Mapping[str, str]] | None = None,
        result_tag: str = "ResultSet",
        row_tag: str = "Row",
    ):
        super().__init__(name, host)
        self.database = database
        self.result_tag = result_tag
        self.row_tag = row_tag
        self.types: dict[str, dict[str, str]] = {
            table: dict(column_types)
            for table, column_types in (types or {}).items()
        }

    def operations(self) -> list[str]:
        return ["query", "update"]

    def _types_for(self, table: str) -> dict[str, str]:
        declared = self.types.get(table)
        if declared is not None:
            return declared
        schema = self.database.table(table).schema
        return {column.name: column.sql_type for column in schema.columns}

    def op_query(self, request: Envelope) -> Envelope:
        spec = request.body
        table = spec["table"]
        relation = self.database.query(table)
        document = relation_to_resultset(relation, table)
        document.tag, document.row_tag = self.result_tag, self.row_tag
        return Envelope.for_xml("result", document)

    def op_update(self, request: Envelope) -> Envelope:
        document: XmlElement = request.body
        if document.tag == self.result_tag:
            row_tag = self.row_tag
        elif document.tag == "ResultSet":
            row_tag = "Row"
        else:
            raise ServiceError(
                f"service {self.name}: update expects <{self.result_tag}> "
                f"or canonical <ResultSet>, got <{document.tag}>"
            )
        table = document.attributes.get("table", "")
        if not table:
            raise ServiceError(
                f"service {self.name}: update ResultSet lacks a table attribute"
            )
        rows = resultset_to_rows(
            document, self._types_for(table), document.tag, row_tag
        )
        self.database.table(table).insert_many(rows, replace=True)
        return Envelope("result", len(rows), payload_units=1.0)

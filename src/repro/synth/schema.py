"""Synthesized schemas: canonical entities, source dialects, matching.

The synthesizer emits *heterogeneous* sources: each source system names
the same three entities (customer, orders, transaction log) in its own
dialect — abbreviated, prefixed or upper-cased table and column names —
while the integration hub speaks the canonical form.  The dialect
generator records the exact canonical → dialect mapping as ground
truth; :func:`match_columns` / :func:`match_table` implement an
Alaska-style deterministic schema matcher (normalization + synonym
thesaurus + string similarity) whose output is *verified against* that
ground truth and then used to build the generated integration processes.
Schema matching is therefore a real task of the workload: a wrong match
fails verification and the differential conformance suite.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field

from repro.db.schema import Column, ForeignKey, TableSchema
from repro.errors import ReproError

#: Canonical entity → ordered (column, sql_type, length) triples.
CANONICAL_COLUMNS: dict[str, tuple[tuple[str, str, int | None], ...]] = {
    "customer": (
        ("custkey", "INTEGER", None),
        ("name", "VARCHAR", 40),
        ("address", "VARCHAR", 60),
        ("phone", "VARCHAR", 20),
        ("segment", "VARCHAR", 12),
    ),
    "orders": (
        ("orderkey", "INTEGER", None),
        ("custkey", "INTEGER", None),
        # DOUBLE (not DECIMAL): XML round-trips must give back exactly
        # the float the plan generated, or exact verification breaks.
        ("amount", "DOUBLE", None),
        ("status", "VARCHAR", 8),
    ),
    "txn": (
        ("txnkey", "INTEGER", None),
        ("custkey", "INTEGER", None),
        ("amount", "DOUBLE", None),
        ("kind", "VARCHAR", 10),
    ),
}

#: SQL types per canonical column, for XML → relation conversion.
CANONICAL_TYPES: dict[str, dict[str, str]] = {
    entity: {name: sql_type for name, sql_type, _ in columns}
    for entity, columns in CANONICAL_COLUMNS.items()
}

#: Value domains (satellite property checks assert generated data stays
#: inside these).
SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY")
ORDER_STATUS = ("OPEN", "FILLED", "PENDING")
TXN_KINDS = ("DEBIT", "CREDIT", "REFUND")

#: Abbreviation dialect, canonical → abbreviated.
_ABBREV = {
    "custkey": "custno", "name": "nm", "address": "addr",
    "phone": "tel", "segment": "seg",
    "orderkey": "ordno", "amount": "amt", "status": "stat",
    "txnkey": "txnno", "kind": "knd",
}

_STYLE_TABLE_NAMES = {
    "canonical": {"customer": "customer", "orders": "orders", "txn": "txn_log"},
    "abbrev": {"customer": "cust", "orders": "ord", "txn": "txns"},
    "prefixed": {
        "customer": "customer_master",
        "orders": "order_entry",
        "txn": "txn_feed",
    },
    "upper": {"customer": "CUSTOMER_T", "orders": "ORDERS_T", "txn": "TXN_T"},
}

_STYLES = ("canonical", "abbrev", "prefixed", "upper")

_ENTITY_PREFIX = {"customer": "c_", "orders": "o_", "txn": "t_"}


class SchemaMatchError(ReproError):
    """The deterministic matcher could not assign a column or table."""


def _dialect_column(style: str, entity: str, canonical: str) -> str:
    if style == "canonical":
        return canonical
    if style == "abbrev":
        return _ABBREV.get(canonical, canonical)
    if style == "prefixed":
        return _ENTITY_PREFIX[entity] + canonical
    if style == "upper":
        return canonical.upper()
    raise ReproError(f"unknown dialect style {style!r}")


@dataclass(frozen=True)
class SourceDialect:
    """One source system's naming scheme plus the ground-truth mapping."""

    index: int
    style: str
    #: entity → dialected table name.
    table_names: dict[str, str] = field(default_factory=dict)
    #: entity → {canonical column → dialect column} (the ground truth).
    column_maps: dict[str, dict[str, str]] = field(default_factory=dict)

    def table(self, entity: str) -> str:
        return self.table_names[entity]

    def columns(self, entity: str) -> dict[str, str]:
        return self.column_maps[entity]


def dialect_for(index: int) -> SourceDialect:
    """The (fixed, deterministic) dialect of source ``index``."""
    style = _STYLES[index % len(_STYLES)]
    return SourceDialect(
        index=index,
        style=style,
        table_names=dict(_STYLE_TABLE_NAMES[style]),
        column_maps={
            entity: {
                name: _dialect_column(style, entity, name)
                for name, _, _ in columns
            }
            for entity, columns in CANONICAL_COLUMNS.items()
        },
    )


def canonical_schema(
    entity: str,
    table_name: str | None = None,
    foreign_keys: list[ForeignKey] | None = None,
) -> TableSchema:
    """A canonical-form :class:`TableSchema` for ``entity``."""
    columns = [
        Column(name, sql_type, nullable=(name not in ("custkey",)), length=length)
        for name, sql_type, length in CANONICAL_COLUMNS[entity]
    ]
    spec = CANONICAL_COLUMNS[entity]
    return TableSchema(
        table_name or entity,
        columns,
        primary_key=(spec[0][0],),
        foreign_keys=foreign_keys,
    )


def dialect_schema(dialect: SourceDialect, entity: str) -> TableSchema:
    """The dialected :class:`TableSchema` of ``entity`` in one source.

    Orders and transactions carry a foreign key to the source's own
    customer table (checked deferred, like every FK in the landscape) —
    the FK-closure property tests run over exactly these.
    """
    mapping = dialect.columns(entity)
    columns = [
        Column(mapping[name], sql_type, length=length)
        for name, sql_type, length in CANONICAL_COLUMNS[entity]
    ]
    pk = (mapping[CANONICAL_COLUMNS[entity][0][0]],)
    foreign_keys = None
    if entity in ("orders", "txn"):
        foreign_keys = [
            ForeignKey(
                columns=(mapping["custkey"],),
                parent_table=dialect.table("customer"),
                parent_columns=(dialect.columns("customer")["custkey"],),
            )
        ]
    return TableSchema(
        dialect.table(entity), columns, primary_key=pk, foreign_keys=foreign_keys
    )


# -- the deterministic matcher ----------------------------------------------------

#: Synonym thesaurus: tokens that name the same concept across systems.
#: This is matcher knowledge (like any schema-matching tool ships), not
#: the per-source ground truth — that is recorded by the generator and
#: compared against the matcher's output during verification.
_SYNONYMS = (
    {"custkey", "custno", "custid", "customerkey"},
    {"name", "nm", "fullname"},
    {"address", "addr", "street"},
    {"phone", "tel", "telephone", "phoneno"},
    {"segment", "seg", "sector"},
    {"orderkey", "ordno", "orderid", "orderno"},
    {"amount", "amt", "total"},
    {"status", "stat", "state"},
    {"txnkey", "txnno", "txnid"},
    {"kind", "knd", "type"},
    {"customer", "cust", "clients"},
    {"orders", "ord", "order"},
    {"txn", "txns", "txnlog", "txnfeed", "transactions"},
)


def _normalize(name: str) -> str:
    out = name.lower()
    # Strip a single-letter entity prefix ("c_", "o_", ...) and common
    # suffixes ("_t" physical-table markers, "_log"/"_feed"/"_master"
    # qualifiers) — generic normalization, not per-source knowledge.
    if len(out) > 2 and out[1] == "_":
        out = out[2:]
    for suffix in ("_master", "_entry", "_log", "_feed", "_t"):
        if out.endswith(suffix):
            out = out[: -len(suffix)]
            break
    return out.replace("_", "")


def _score(candidate: str, target: str) -> float:
    a, b = _normalize(candidate), _normalize(target)
    if a == b:
        return 1.0
    for group in _SYNONYMS:
        if a in group and b in group:
            return 0.95
    return difflib.SequenceMatcher(a=a, b=b).ratio()


def match_columns(
    source_columns: list[str], canonical_columns: list[str]
) -> dict[str, str]:
    """Greedy best-score assignment canonical → source column.

    Deterministic: canonical columns are matched in order, ties broken
    by source column order; a best score below 0.5 is a failed match.
    """
    available = list(source_columns)
    mapping: dict[str, str] = {}
    for target in canonical_columns:
        best, best_score = None, -1.0
        for candidate in available:
            score = _score(candidate, target)
            if score > best_score:
                best, best_score = candidate, score
        if best is None or best_score < 0.5:
            raise SchemaMatchError(
                f"no source column matches {target!r} among {available}"
            )
        mapping[target] = best
        available.remove(best)
    return mapping


def match_table(table_names: list[str], entity: str) -> str:
    """Pick the source table that names ``entity``, deterministically."""
    best, best_score = None, -1.0
    for candidate in table_names:
        score = _score(candidate, entity)
        if score > best_score:
            best, best_score = candidate, score
    if best is None or best_score < 0.5:
        raise SchemaMatchError(
            f"no table matches entity {entity!r} among {table_names}"
        )
    return best


def matched_dialect(dialect: SourceDialect) -> SourceDialect:
    """Re-derive a source's mapping *through the matcher* (not the truth).

    The generated processes are built from this; verification compares
    it field by field against the recorded ground truth, which is what
    makes schema matching an exactly-verified task.
    """
    table_names = [dialect.table(e) for e in ("customer", "orders", "txn")]
    matched_tables: dict[str, str] = {}
    for entity in ("customer", "orders", "txn"):
        matched_tables[entity] = match_table(list(table_names), entity)
    column_maps: dict[str, dict[str, str]] = {}
    for entity in ("customer", "orders", "txn"):
        source_cols = list(dialect.columns(entity).values())
        canonical = [name for name, _, _ in CANONICAL_COLUMNS[entity]]
        column_maps[entity] = match_columns(source_cols, canonical)
    return SourceDialect(
        index=dialect.index,
        style=dialect.style,
        table_names=matched_tables,
        column_maps=column_maps,
    )

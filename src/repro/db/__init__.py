"""In-memory relational engine.

This package is the substrate standing in for every RDBMS in the DIPBench
scenario (Fig. 1): the regional source databases (Berlin, Paris, Trondheim,
Chicago, Baltimore, Madison), the local and global consolidated databases,
the data warehouse and the three data marts.

It provides typed tables with primary-key/not-null constraints and secondary
indexes, a relational operator algebra (selection, projection, hash join,
union-distinct, grouping, sorting), and the *active* features the paper's
reference implementation relies on (Fig. 9): insert triggers, stored
procedures and materialized views with explicit refresh.

Quick tour::

    from repro.db import Column, Database, TableSchema, col, lit

    db = Database("demo")
    db.create_table(TableSchema("customer", [
        Column("custkey", "BIGINT", nullable=False),
        Column("name", "VARCHAR", length=64),
    ], primary_key=("custkey",)))
    db.insert("customer", {"custkey": 1, "name": "Ada"})
    rel = db.table("customer").to_relation().select(col("custkey") == lit(1))
"""

from repro.db import fastpath, partition, vector
from repro.db.types import SqlType, coerce_value, type_check
from repro.db.schema import Column, ForeignKey, TableSchema
from repro.db.expressions import (
    BinaryOp,
    ColumnRef,
    Expression,
    FunctionCall,
    Literal,
    UnaryOp,
    col,
    compile_expression,
    func,
    lit,
)
from repro.db.relation import Relation
from repro.db.table import Table, TableObserver
from repro.db.active import (
    MaterializedView,
    StoredProcedure,
    Trigger,
    ViewJoin,
    ViewQuery,
)
from repro.db.database import Database, DatabaseStatistics

__all__ = [
    "SqlType",
    "coerce_value",
    "type_check",
    "Column",
    "ForeignKey",
    "TableSchema",
    "Expression",
    "ColumnRef",
    "Literal",
    "BinaryOp",
    "UnaryOp",
    "FunctionCall",
    "col",
    "lit",
    "func",
    "compile_expression",
    "Relation",
    "Table",
    "TableObserver",
    "Trigger",
    "StoredProcedure",
    "MaterializedView",
    "ViewJoin",
    "ViewQuery",
    "Database",
    "DatabaseStatistics",
    "fastpath",
    "partition",
    "vector",
]

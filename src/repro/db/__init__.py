"""Relational database substrate.

The paper treats the DBMS as a blackbox that stores the single current
possible world (it used Apache Derby over JDBC).  This package is that
substrate, built from scratch: typed schemas, keyed tables,
signed-multiset (Z-relation) algebra, a relational-algebra
executor, a SQL front end, and — the part the paper's Algorithm 1
leans on — incrementally maintained materialized views.

Typical usage::

    from repro.db import AttrType, Database, Schema, query

    db = Database()
    db.create_table(Schema.build("TOKEN", [
        ("TOK_ID", AttrType.INT), ("DOC_ID", AttrType.INT),
        ("STRING", AttrType.STRING), ("LABEL", AttrType.STRING),
    ], key=["TOK_ID"]))
    db.insert("TOKEN", (0, 0, "Clinton", "B-PER"))
    answer = query(db, "SELECT STRING FROM TOKEN WHERE LABEL='B-PER'")
"""

from __future__ import annotations

from repro.db.database import Database, Snapshot
from repro.db.delta import Delta, DeltaRecorder
from repro.db.multiset import Multiset
from repro.db.ra.ast import PlanNode
from repro.db.ra.eval import evaluate, evaluate_rows
from repro.db.schema import Attribute, Schema
from repro.db.shard import (
    HashPartitioner,
    KeyListPartitioner,
    Partitioner,
    ShardSpec,
    ShardedDatabase,
)
from repro.db.sql.compiler import plan_query
from repro.db.storage import load_database, save_database
from repro.db.table import Table
from repro.db.types import AttrType
from repro.db.view import MaterializedView

__all__ = [
    "AttrType",
    "Attribute",
    "Database",
    "Delta",
    "DeltaRecorder",
    "HashPartitioner",
    "KeyListPartitioner",
    "MaterializedView",
    "Multiset",
    "Partitioner",
    "PlanNode",
    "Schema",
    "ShardSpec",
    "ShardedDatabase",
    "Snapshot",
    "Table",
    "evaluate",
    "evaluate_rows",
    "load_database",
    "plan_query",
    "query",
    "query_rows",
    "save_database",
]


def query(db: Database, sql: str) -> Multiset:
    """Parse, plan and fully evaluate ``sql``; returns the answer bag."""
    return evaluate(plan_query(db, sql), db)


def query_rows(db: Database, sql: str):
    """Like :func:`query` but returns ordered rows (honours ORDER BY/LIMIT)."""
    return evaluate_rows(plan_query(db, sql), db)

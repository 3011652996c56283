"""Execute DDL and DML statements against a :class:`~repro.db.database.Database`.

SELECT compiles to a relational-algebra plan (see
:mod:`repro.db.sql.compiler`); everything else is imperative and runs
here.  All mutations go through the normal :class:`~repro.db.table.Table`
methods, so attached delta recorders — and therefore incrementally
maintained views — observe every SQL-driven change exactly as they
observe MCMC world transitions.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.db.database import Database
from repro.db.delta import Delta
from repro.db.ra.ast import Expr
from repro.db.ra.eval import probe_rows
from repro.db.schema import Attribute, Schema
from repro.db.sql.ast import (
    CreateTableStmt,
    DeleteStmt,
    DropTableStmt,
    InsertStmt,
    Statement,
    UpdateStmt,
)
from repro.errors import IntegrityError, QueryError

__all__ = ["execute_statement", "execute_dml"]

Row = Tuple[Any, ...]

# A schema with no attributes: binding an expression against it proves
# the expression constant (any column reference fails to resolve).
_EMPTY_SCHEMA = Schema("values", [])


def execute_statement(db: Database, stmt: Statement) -> int:
    """Execute one DDL or DML statement; returns the affected row count.

    DDL statements return 0.  SELECT statements are not accepted here —
    compile them with :func:`~repro.db.sql.compiler.compile_select`.
    """
    if isinstance(stmt, CreateTableStmt):
        return _create_table(db, stmt)
    if isinstance(stmt, DropTableStmt):
        return _drop_table(db, stmt)
    if isinstance(stmt, InsertStmt):
        return _insert(db, stmt)
    if isinstance(stmt, UpdateStmt):
        return _update(db, stmt)
    if isinstance(stmt, DeleteStmt):
        return _delete(db, stmt)
    raise QueryError(
        f"statement {type(stmt).__name__} is not executable here; "
        "SELECT goes through the compiler"
    )


def execute_dml(db: Database, stmt: Statement) -> Tuple[int, Delta]:
    """Execute one DML statement and return ``(rowcount, delta)``.

    The delta is the statement's (Δ−, Δ+) — the same signed multisets
    MCMC world transitions produce — captured through a transient
    recorder.  Live subscribers (:class:`repro.core.live.LiveRunner`
    via the session) repair their factor graphs from it instead of
    rebuilding from scratch.  Statements are atomic (validated before
    any mutation), so an exception implies an empty delta.
    """
    recorder = db.attach_recorder()
    try:
        rowcount = execute_statement(db, stmt)
    finally:
        db.detach_recorder(recorder)
    delta = recorder.pop()
    # A committed world change advances the evidence version (the
    # serving layer's cache key); a no-op statement leaves it alone so
    # version-keyed caches stay warm.
    if not delta.is_empty():
        db.bump_version()
    return rowcount, delta


# ----------------------------------------------------------------------
# DDL
# ----------------------------------------------------------------------
# Two version counters move on DDL, with different owners on purpose:
# the executor advances ``db.version`` (committed-*statement* count —
# direct ``create_table`` calls while assembling a database must not
# look like committed statements to the serving layer), while
# ``db.schema_version`` is bumped inside ``create_table``/``drop_table``
# themselves so plan-cache staleness checks cover every route schema
# can change, including ones that never pass through this executor.
def _create_table(db: Database, stmt: CreateTableStmt) -> int:
    if stmt.if_not_exists and db.has_table(stmt.table):
        return 0
    schema = Schema(
        stmt.table,
        [Attribute(c.name, c.attr_type) for c in stmt.columns],
        key=stmt.key,
    )
    db.create_table(schema)
    db.bump_version()
    return 0


def _drop_table(db: Database, stmt: DropTableStmt) -> int:
    if stmt.if_exists and not db.has_table(stmt.table):
        return 0
    db.drop_table(stmt.table)
    db.bump_version()
    return 0


# ----------------------------------------------------------------------
# DML
# ----------------------------------------------------------------------
def _constant(expr: Expr) -> Any:
    """Evaluate a VALUES expression (must not reference any column)."""
    try:
        fn = expr.bind(_EMPTY_SCHEMA)
    except QueryError as exc:
        raise QueryError(f"VALUES expressions must be constant: {exc}") from exc
    return fn(())


def _insert(db: Database, stmt: InsertStmt) -> int:
    table = db.table(stmt.table)
    schema = table.schema
    # Validate the whole batch before inserting any of it — types AND
    # primary-key uniqueness (against the table and within the batch),
    # so a failure on row N cannot leave rows 1..N-1 half-applied.
    stored: List[Row] = []
    for value_exprs in stmt.rows:
        values = [_constant(e) for e in value_exprs]
        if stmt.columns is None:
            stored.append(schema.validate_row(values))
        else:
            stored.append(schema.row_from_dict(dict(zip(stmt.columns, values))))
    if schema.key:
        claimed: set = set()
        for row in stored:
            pk = schema.key_of(row)
            if pk in claimed or table.contains_key(pk):
                raise IntegrityError(
                    f"insert would duplicate primary key {pk!r} "
                    f"in table {table.name!r}"
                )
            claimed.add(pk)
    for row in stored:
        table.insert(row)
    return len(stored)


def _matching_rows(table, where: Expr | None) -> List[Row]:
    """Snapshot the rows satisfying ``where`` before any mutation."""
    if where is None:
        return list(table.rows())
    predicate = where.bind(table.schema)
    rows = probe_rows(table, table.schema, where, predicate)
    if rows is not None:
        return rows
    return [row for row in table.rows() if predicate(row)]


def _update(db: Database, stmt: UpdateStmt) -> int:
    table = db.table(stmt.table)
    schema = table.schema
    compiled = [
        (schema.attribute(column).name, expr.bind(schema))
        for column, expr in stmt.assignments
    ]
    # Compute and validate every new row before mutating anything, so a
    # type error on row N cannot leave rows 1..N-1 half-applied.
    pending: List[Tuple[Row, Row, dict]] = []
    for row in _matching_rows(table, stmt.where):
        changes = {column: fn(row) for column, fn in compiled}
        new_values = list(row)
        for column, value in changes.items():
            new_values[schema.position(column)] = value
        pending.append((row, schema.validate_row(new_values), changes))
    if schema.key:
        # Key-changing rows are applied as delete-all-then-insert-all so
        # that permutation updates (SET ID = ID + 1) cannot collide with
        # a not-yet-moved sibling; conflicts with untouched rows and
        # duplicates within the statement are rejected before any
        # mutation, keeping the statement all-or-nothing.
        movers = [
            (schema.key_of(row), schema.key_of(new_row), new_row)
            for row, new_row, _ in pending
            if schema.key_of(new_row) != schema.key_of(row)
        ]
        vacated = {old_pk for old_pk, _, _ in movers}
        claimed: set = set()
        for _, new_pk, _ in movers:
            if new_pk in claimed or (
                table.contains_key(new_pk) and new_pk not in vacated
            ):
                raise IntegrityError(
                    f"update would duplicate primary key {new_pk!r} "
                    f"in table {table.name!r}"
                )
            claimed.add(new_pk)
        for row, new_row, changes in pending:
            if schema.key_of(new_row) == schema.key_of(row):
                table.update(schema.key_of(row), changes)
        for old_pk, _, _ in movers:
            table.delete(old_pk)
        for _, _, new_row in movers:
            table.insert(new_row)
    else:
        for row, new_row, _ in pending:
            table.delete_row(row)
            table.insert(new_row)
    return len(pending)


def _delete(db: Database, stmt: DeleteStmt) -> int:
    table = db.table(stmt.table)
    schema = table.schema
    targets = _matching_rows(table, stmt.where)
    for row in targets:
        if schema.key:
            table.delete(schema.key_of(row))
        else:
            table.delete_row(row)
    return len(targets)

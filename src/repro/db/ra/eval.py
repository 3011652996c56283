"""Full (non-incremental) evaluation of relational-algebra plans.

:func:`evaluate` runs a plan bottom-up against the *current* possible
world stored in a :class:`~repro.db.database.Database` and returns the
answer as a :class:`~repro.db.multiset.Multiset`.  This is the query
executor used by the naive evaluator of Algorithm 3 — the query is
re-run from scratch on every sampled world.

Besides the scan there is one access path: a ``Select`` over a
``Scan`` whose conjuncts pin the table's whole primary key reads one
row (:func:`key_probe`; view materialisation and DML use it too).

The engine is NULL-free; aggregates over an empty global group yield
type-appropriate zeros (documented in DESIGN.md).
"""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.db.database import Database
from repro.db.multiset import Multiset
from repro.db.ra.ast import (
    AggLookup,
    AggregateSpec,
    ColumnRef,
    Comparison,
    Compiled,
    CrossProduct,
    Distinct,
    Expr,
    GroupAggregate,
    Join,
    Limit,
    Literal,
    OrderBy,
    PlanNode,
    Project,
    Scan,
    Select,
    UnionAll,
    split_conjuncts,
)
from repro.db.schema import Schema
from repro.db.table import Table
from repro.db.types import AttrType
from repro.errors import PlanError

__all__ = [
    "evaluate",
    "evaluate_rows",
    "compute_aggregates",
    "zero_for",
    "key_probe",
    "probe_rows",
    "access_paths",
]

Row = Tuple[Any, ...]


def evaluate(plan: PlanNode, db: Database) -> Multiset:
    """Evaluate ``plan`` against ``db``, returning a signed multiset
    whose support is the query answer."""
    if isinstance(plan, Scan):
        return db.table(plan.table_name).as_multiset()

    if isinstance(plan, Select):
        predicate = plan.predicate.bind(plan.child.schema)
        if isinstance(plan.child, Scan):
            table = db.table(plan.child.table_name)
            rows = probe_rows(table, plan.child.schema, plan.predicate, predicate)
            if rows is not None:
                return Multiset(rows)
        child = evaluate(plan.child, db)
        return child.filter_rows(predicate)

    if isinstance(plan, Project):
        child = evaluate(plan.child, db)
        compiled = [expr.bind(plan.child.schema) for expr, _ in plan.outputs]
        return child.map_rows(lambda row: tuple(fn(row) for fn in compiled))

    if isinstance(plan, (Join, CrossProduct)):
        return _evaluate_join(plan, db)

    if isinstance(plan, UnionAll):
        return evaluate(plan.left, db) + evaluate(plan.right, db)

    if isinstance(plan, Distinct):
        child = evaluate(plan.child, db)
        out = Multiset()
        for row in child.support():
            out.add(row, 1)
        return out

    if isinstance(plan, GroupAggregate):
        return _evaluate_aggregate(plan, db)

    if isinstance(plan, AggLookup):
        return _evaluate_agg_lookup(plan, db)

    if isinstance(plan, OrderBy):
        # A multiset has no order; ordering only affects evaluate_rows.
        return evaluate(plan.child, db)

    if isinstance(plan, Limit):
        raise PlanError(
            "LIMIT has no multiset semantics; use evaluate_rows for presentation"
        )

    raise PlanError(f"unknown plan node {type(plan).__name__}")


def evaluate_rows(plan: PlanNode, db: Database) -> list[Row]:
    """Evaluate ``plan`` to an ordered list of rows.

    ORDER BY and LIMIT are honoured here; rows repeat by multiplicity.
    Use this for presentation; use :func:`evaluate` for marginals.
    """
    if isinstance(plan, Limit):
        return evaluate_rows(plan.child, db)[: plan.n]
    if isinstance(plan, OrderBy):
        rows = evaluate_rows(plan.child, db)
        # Sort by each key from the last to the first for stable multi-key order.
        for expr, descending in reversed(plan.keys):
            fn = expr.bind(plan.child.schema)
            rows.sort(key=fn, reverse=descending)
        return rows
    return sorted(evaluate(plan, db))


# ----------------------------------------------------------------------
# Primary-key access path
# ----------------------------------------------------------------------
def key_probe(predicate: Expr, schema: Schema, table_schema: Schema) -> Row | None:
    """The primary-key value ``predicate`` pins, or ``None`` to scan.

    ``predicate`` binds against ``schema`` (a ``Scan``'s or the table's
    own; both list the table's columns in order).  The key is pinned
    when ``AND``-ed conjuncts ``col = lit`` / ``lit = col`` cover every
    key column.  Literals are kept as written, so the dict lookup finds
    exactly what ``==`` would (``17.0`` finds 17, ``'17'`` nothing).
    Callers apply the whole predicate to the probed row, so residual
    and contradictory conjuncts filter it exactly as a scan would.
    """
    if not table_schema.key:
        return None
    pinned: Dict[int, Any] = {}
    for term in split_conjuncts(predicate):
        if not (isinstance(term, Comparison) and term.op == "="):
            continue
        if isinstance(term.left, ColumnRef) and isinstance(term.right, Literal):
            column, literal = term.left, term.right
        elif isinstance(term.left, Literal) and isinstance(term.right, ColumnRef):
            column, literal = term.right, term.left
        else:
            continue
        pinned.setdefault(column._resolve(schema), literal.value)
    positions = [table_schema.position(name) for name in table_schema.key]
    if not all(p in pinned for p in positions):
        return None
    return tuple(pinned[p] for p in positions)


def probe_rows(
    table: Table, schema: Schema, predicate: Expr, bound: Compiled
) -> list[Row] | None:
    """The rows of ``table`` satisfying ``predicate`` (compiled as
    ``bound``) read by one key probe, or ``None`` to scan instead."""
    pk = key_probe(predicate, schema, table.schema)
    if pk is None:
        return None
    row = table.find(pk)
    return [row] if row is not None and bound(row) else []


def access_paths(plan: PlanNode, db: Database) -> list[str]:
    """EXPLAIN's ``access:`` line for each ``Select`` in ``plan`` that
    :func:`key_probe` serves by primary key."""
    lines = [line for child in plan.children() for line in access_paths(child, db)]
    if isinstance(plan, Select) and isinstance(plan.child, Scan):
        table_schema = db.table(plan.child.table_name).schema
        pk = key_probe(plan.predicate, plan.child.schema, table_schema)
        if pk is not None:
            bound = ", ".join(f"{k} = {v!r}" for k, v in zip(table_schema.key, pk))
            lines.append(f"access: {table_schema.name} by primary key ({bound})")
    return list(dict.fromkeys(lines))


# ----------------------------------------------------------------------
# Joins
# ----------------------------------------------------------------------
def _evaluate_join(plan: Join | CrossProduct, db: Database) -> Multiset:
    left = evaluate(plan.left, db)
    right = evaluate(plan.right, db)
    if isinstance(plan, Join):
        left_key = [c.bind(plan.left.schema) for c, _ in plan.equi_pairs]
        right_key = [c.bind(plan.right.schema) for _, c in plan.equi_pairs]
        condition = plan.condition.bind(plan.schema)
    else:
        left_key = right_key = []
        condition = None
    return join_multisets(left, right, left_key, right_key, condition)


def join_multisets(left, right, left_key, right_key, condition) -> Multiset:
    """Hash-join two multisets on compiled key accessors.

    With empty keys this degrades to a cross product.  ``condition``
    (over the concatenated row) is applied when present, so non-equi
    residuals are honoured.
    """
    out = Multiset()
    buckets: Dict[tuple, list[tuple[Row, int]]] = {}
    for r_row, r_count in right.items():
        key = tuple(fn(r_row) for fn in right_key)
        buckets.setdefault(key, []).append((r_row, r_count))
    for l_row, l_count in left.items():
        key = tuple(fn(l_row) for fn in left_key)
        for r_row, r_count in buckets.get(key, ()):
            joined = l_row + r_row
            if condition is None or condition(joined):
                out.add(joined, l_count * r_count)
    return out


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def zero_for(attr_type: AttrType) -> Any:
    """The zero value used for empty-group aggregates (NULL-free engine)."""
    if attr_type is AttrType.FLOAT:
        return 0.0
    if attr_type is AttrType.STRING:
        return ""
    return 0


def compute_aggregates(
    specs: tuple[AggregateSpec, ...],
    rows: list[tuple[Row, int]],
    compiled_args: list,
    schema_types: list[AttrType],
) -> tuple[Any, ...]:
    """Aggregate values over ``rows`` (``(row, count)`` pairs).

    ``compiled_args[i]`` is the bound argument accessor for ``specs[i]``
    (``None`` for ``COUNT(*)``); ``schema_types[i]`` the result type.
    """
    values: list[Any] = []
    for spec, arg, attr_type in zip(specs, compiled_args, schema_types):
        if spec.func == "count":
            if arg is None:
                values.append(sum(c for _, c in rows))
            else:
                values.append(sum(c for row, c in rows if arg(row) is not None))
        elif spec.func == "sum":
            total = sum(arg(row) * c for row, c in rows)
            values.append(float(total) if attr_type is AttrType.FLOAT else total)
        elif spec.func == "avg":
            n = sum(c for _, c in rows)
            values.append(sum(arg(row) * c for row, c in rows) / n if n else 0.0)
        elif spec.func == "min":
            vals = [arg(row) for row, c in rows if c > 0]
            values.append(min(vals) if vals else zero_for(attr_type))
        else:  # max
            vals = [arg(row) for row, c in rows if c > 0]
            values.append(max(vals) if vals else zero_for(attr_type))
    return tuple(values)


def _evaluate_aggregate(plan: GroupAggregate, db: Database) -> Multiset:
    child = evaluate(plan.child, db)
    group_fns = [expr.bind(plan.child.schema) for expr, _ in plan.group_by]
    arg_fns = [
        spec.arg.bind(plan.child.schema) if spec.arg is not None else None
        for spec in plan.aggregates
    ]
    agg_types = [
        plan.schema.attributes[len(plan.group_by) + i].attr_type
        for i in range(len(plan.aggregates))
    ]
    groups: Dict[tuple, list[tuple[Row, int]]] = {}
    for row, count in child.items():
        if count <= 0:
            raise PlanError("aggregate input must be a relation (positive counts)")
        key = tuple(fn(row) for fn in group_fns)
        groups.setdefault(key, []).append((row, count))
    out = Multiset()
    if not groups and not plan.group_by:
        out.add(compute_aggregates(plan.aggregates, [], arg_fns, agg_types), 1)
        return out
    for key, rows in groups.items():
        aggs = compute_aggregates(plan.aggregates, rows, arg_fns, agg_types)
        out.add(key + aggs, 1)
    return out


def _evaluate_agg_lookup(plan: AggLookup, db: Database) -> Multiset:
    outer = evaluate(plan.outer, db)
    inner = evaluate(plan.inner, db)
    values: Dict[Any, Any] = {}
    for row in inner.support():
        values[row[0]] = row[1]
    key_fn = plan.outer_key.bind(plan.outer.schema)
    default = plan.default
    return outer.map_rows(lambda row: row + (values.get(key_fn(row), default),))

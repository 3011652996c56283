"""Relational-algebra plans: scalar expressions and logical operators.

A query is a tree of :class:`PlanNode` over scalar :class:`Expr`
predicates.  Plans are *logical*: they carry schemas and compiled
accessors but no state.  Two executors consume them:

* :mod:`repro.db.ra.eval` — full evaluation against the current world;
* :mod:`repro.db.view` — stateful incremental maintenance (Eq. 6).

Attribute naming convention: a :class:`Scan` exposes its columns as
``alias.column`` so that self-joins (Query 4 of the paper) resolve
unambiguously; :class:`Project` re-exposes chosen expressions under
plain output names.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, ClassVar, Optional, Sequence, Tuple

from repro.db.schema import Attribute, Schema
from repro.db.types import AttrType
from repro.errors import PlanError, QueryError

__all__ = [
    "Expr",
    "ColumnRef",
    "Literal",
    "Comparison",
    "And",
    "Or",
    "Not",
    "Arithmetic",
    "InList",
    "Like",
    "split_conjuncts",
    "conjoin",
    "resolves_in",
    "AggregateSpec",
    "PlanNode",
    "Scan",
    "Select",
    "Project",
    "Join",
    "CrossProduct",
    "UnionAll",
    "Distinct",
    "GroupAggregate",
    "AggLookup",
    "OrderBy",
    "Limit",
]

Row = Tuple[Any, ...]
Compiled = Callable[[Row], Any]

_COMPARATORS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

_ARITHMETIC: dict[str, Callable[[Any, Any], Any]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


# ----------------------------------------------------------------------
# Scalar expressions
# ----------------------------------------------------------------------
class Expr:
    """Base class for scalar expressions evaluated against one row."""

    def bind(self, schema: Schema) -> Compiled:
        """Compile to a ``row -> value`` closure for ``schema``."""
        raise NotImplementedError

    def columns(self) -> list["ColumnRef"]:
        """All column references appearing in this expression."""
        return []

    def result_type(self, schema: Schema) -> AttrType:
        """The attribute type this expression yields under ``schema``."""
        raise NotImplementedError


@dataclass(frozen=True)
class ColumnRef(Expr):
    """Reference to a column, optionally qualified (``T1.STRING``)."""

    name: str
    qualifier: Optional[str] = None

    def _resolve(self, schema: Schema) -> int:
        return schema.resolve(self.name, self.qualifier, self)

    def bind(self, schema: Schema) -> Compiled:
        pos = self._resolve(schema)
        return lambda row: row[pos]

    def columns(self) -> list["ColumnRef"]:
        return [self]

    def result_type(self, schema: Schema) -> AttrType:
        return schema.attributes[self._resolve(schema)].attr_type

    def display_name(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name

    def __repr__(self) -> str:
        return f"Col({self.display_name()})"


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value."""

    value: Any

    def bind(self, schema: Schema) -> Compiled:
        value = self.value
        return lambda row: value

    def result_type(self, schema: Schema) -> AttrType:
        if isinstance(self.value, bool):
            raise QueryError("boolean literals are not storable values")
        if isinstance(self.value, int):
            return AttrType.INT
        if isinstance(self.value, float):
            return AttrType.FLOAT
        if isinstance(self.value, str):
            return AttrType.STRING
        raise QueryError(f"unsupported literal {self.value!r}")

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


@dataclass(frozen=True)
class Comparison(Expr):
    """Binary comparison; ``op`` in ``= != < <= > >=``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _COMPARATORS:
            raise QueryError(f"unknown comparison operator {self.op!r}")

    def bind(self, schema: Schema) -> Compiled:
        fn = _COMPARATORS[self.op]
        lhs = self.left.bind(schema)
        rhs = self.right.bind(schema)
        return lambda row: fn(lhs(row), rhs(row))

    def columns(self) -> list[ColumnRef]:
        return self.left.columns() + self.right.columns()

    def result_type(self, schema: Schema) -> AttrType:
        return AttrType.INT


@dataclass(frozen=True)
class And(Expr):
    terms: tuple[Expr, ...]

    def __init__(self, *terms: Expr):
        object.__setattr__(self, "terms", tuple(terms))
        if not self.terms:
            raise QueryError("AND of zero terms")

    def bind(self, schema: Schema) -> Compiled:
        compiled = [t.bind(schema) for t in self.terms]
        return lambda row: all(c(row) for c in compiled)

    def columns(self) -> list[ColumnRef]:
        return [c for t in self.terms for c in t.columns()]

    def result_type(self, schema: Schema) -> AttrType:
        return AttrType.INT


@dataclass(frozen=True)
class Or(Expr):
    terms: tuple[Expr, ...]

    def __init__(self, *terms: Expr):
        object.__setattr__(self, "terms", tuple(terms))
        if not self.terms:
            raise QueryError("OR of zero terms")

    def bind(self, schema: Schema) -> Compiled:
        compiled = [t.bind(schema) for t in self.terms]
        return lambda row: any(c(row) for c in compiled)

    def columns(self) -> list[ColumnRef]:
        return [c for t in self.terms for c in t.columns()]

    def result_type(self, schema: Schema) -> AttrType:
        return AttrType.INT


@dataclass(frozen=True)
class Not(Expr):
    term: Expr

    def bind(self, schema: Schema) -> Compiled:
        inner = self.term.bind(schema)
        return lambda row: not inner(row)

    def columns(self) -> list[ColumnRef]:
        return self.term.columns()

    def result_type(self, schema: Schema) -> AttrType:
        return AttrType.INT


@dataclass(frozen=True)
class Arithmetic(Expr):
    """Binary arithmetic; ``op`` in ``+ - * /``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _ARITHMETIC:
            raise QueryError(f"unknown arithmetic operator {self.op!r}")

    def bind(self, schema: Schema) -> Compiled:
        fn = _ARITHMETIC[self.op]
        lhs = self.left.bind(schema)
        rhs = self.right.bind(schema)
        return lambda row: fn(lhs(row), rhs(row))

    def columns(self) -> list[ColumnRef]:
        return self.left.columns() + self.right.columns()

    def result_type(self, schema: Schema) -> AttrType:
        if self.op == "/":
            return AttrType.FLOAT
        left = self.left.result_type(schema)
        right = self.right.result_type(schema)
        if AttrType.FLOAT in (left, right):
            return AttrType.FLOAT
        return AttrType.INT


@dataclass(frozen=True)
class InList(Expr):
    """``expr IN (v1, v2, ...)`` over literal values."""

    term: Expr
    values: tuple[Any, ...]

    def bind(self, schema: Schema) -> Compiled:
        inner = self.term.bind(schema)
        allowed = frozenset(self.values)
        return lambda row: inner(row) in allowed

    def columns(self) -> list[ColumnRef]:
        return self.term.columns()

    def result_type(self, schema: Schema) -> AttrType:
        return AttrType.INT


@dataclass(frozen=True)
class Like(Expr):
    """SQL ``LIKE`` with ``%`` (any run) and ``_`` (one char) wildcards."""

    term: Expr
    pattern: str

    def bind(self, schema: Schema) -> Compiled:
        inner = self.term.bind(schema)
        regex = re.compile(
            "^" + re.escape(self.pattern).replace("%", ".*").replace("_", ".") + "$"
        )
        return lambda row: bool(regex.match(inner(row)))

    def columns(self) -> list[ColumnRef]:
        return self.term.columns()

    def result_type(self, schema: Schema) -> AttrType:
        return AttrType.INT


# ----------------------------------------------------------------------
# Conjunct helpers (the compiler, the planner and key probes share them)
# ----------------------------------------------------------------------
def split_conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Flatten nested ANDs into an ordered conjunct list (empty for
    ``None``)."""
    if expr is None:
        return []
    if isinstance(expr, And):
        out: list[Expr] = []
        for term in expr.terms:
            out.extend(split_conjuncts(term))
        return out
    return [expr]


def conjoin(conjuncts: Sequence[Expr]) -> Optional[Expr]:
    """One predicate from an ordered conjunct list (``None`` if empty)."""
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return And(*conjuncts)


def resolves_in(expr: Expr, schema: Schema) -> bool:
    """Whether every column of ``expr`` resolves in ``schema``."""
    for col in expr.columns():
        try:
            col._resolve(schema)
        except QueryError:
            return False
    return True


# ----------------------------------------------------------------------
# Aggregates
# ----------------------------------------------------------------------
_AGG_FUNCS = ("count", "sum", "avg", "min", "max")


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate in a GROUP BY: ``func(arg) AS name``.

    ``arg is None`` encodes ``COUNT(*)``.
    """

    func: str
    arg: Optional[Expr]
    name: str

    def __post_init__(self) -> None:
        if self.func not in _AGG_FUNCS:
            raise QueryError(f"unknown aggregate function {self.func!r}")
        if self.func != "count" and self.arg is None:
            raise QueryError(f"{self.func.upper()}(*) is not valid SQL")

    def result_type(self, schema: Schema) -> AttrType:
        if self.func == "count":
            return AttrType.INT
        assert self.arg is not None
        if self.func == "avg":
            return AttrType.FLOAT
        return self.arg.result_type(schema)


# ----------------------------------------------------------------------
# Plan nodes
# ----------------------------------------------------------------------
class PlanNode:
    """Base class for logical plan operators.

    Subclasses compute their output :class:`Schema` once at
    construction; executors rely on it for binding expressions.
    """

    schema: Schema
    # The attributes that hold child plans, in ``children()`` order.
    child_fields: ClassVar[tuple[str, ...]] = ()

    def children(self) -> tuple["PlanNode", ...]:
        return tuple(getattr(self, name) for name in self.child_fields)

    def describe(self, indent: int = 0) -> str:
        """Human-readable plan tree."""
        pad = "  " * indent
        lines = [f"{pad}{self!r}"]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


class Scan(PlanNode):
    """Read one base table, exposing columns as ``alias.column``."""

    def __init__(self, table_schema: Schema, alias: str | None = None):
        self.table_name = table_schema.name
        self.alias = alias or table_schema.name
        attrs = [
            Attribute(f"{self.alias}.{a.name}", a.attr_type)
            for a in table_schema.attributes
        ]
        self.schema = Schema(self.alias, attrs)

    def __repr__(self) -> str:
        if self.alias != self.table_name:
            return f"Scan({self.table_name} AS {self.alias})"
        return f"Scan({self.table_name})"


class Select(PlanNode):
    """Filter rows by a predicate (σ)."""

    child_fields = ("child",)

    def __init__(self, child: PlanNode, predicate: Expr):
        self.child = child
        self.predicate = predicate
        self.schema = child.schema
        predicate.bind(child.schema)  # fail fast on bad references

    def __repr__(self) -> str:
        return f"Select({self.predicate!r})"


class Project(PlanNode):
    """Multiset projection (π) of expressions to output names."""

    child_fields = ("child",)

    def __init__(self, child: PlanNode, outputs: Sequence[tuple[Expr, str]]):
        if not outputs:
            raise PlanError("projection must keep at least one column")
        self.child = child
        self.outputs = tuple(outputs)
        attrs = [
            Attribute(name, expr.result_type(child.schema))
            for expr, name in self.outputs
        ]
        self.schema = Schema("project", attrs)

    def __repr__(self) -> str:
        cols = ", ".join(name for _, name in self.outputs)
        return f"Project({cols})"


class Join(PlanNode):
    """Inner join with an arbitrary condition.

    The executor extracts equi-join pairs from the condition for
    hashing; residual predicates are applied per matching pair.
    """

    child_fields = ("left", "right")

    def __init__(self, left: PlanNode, right: PlanNode, condition: Expr):
        self.left = left
        self.right = right
        self.condition = condition
        attrs = list(left.schema.attributes) + list(right.schema.attributes)
        self.schema = Schema("join", attrs)
        condition.bind(self.schema)  # fail fast
        self.equi_pairs = _extract_equi_pairs(condition, left.schema, right.schema)

    def __repr__(self) -> str:
        return f"Join({self.condition!r})"


class CrossProduct(PlanNode):
    """Cartesian product (×)."""

    child_fields = ("left", "right")

    def __init__(self, left: PlanNode, right: PlanNode):
        self.left = left
        self.right = right
        attrs = list(left.schema.attributes) + list(right.schema.attributes)
        self.schema = Schema("cross", attrs)

    def __repr__(self) -> str:
        return "CrossProduct"


class UnionAll(PlanNode):
    """Bag union; children must be union-compatible."""

    child_fields = ("left", "right")

    def __init__(self, left: PlanNode, right: PlanNode):
        if [a.attr_type for a in left.schema.attributes] != [
            a.attr_type for a in right.schema.attributes
        ]:
            raise PlanError("UNION ALL children are not union-compatible")
        self.left = left
        self.right = right
        self.schema = left.schema

    def __repr__(self) -> str:
        return "UnionAll"


class Distinct(PlanNode):
    """Collapse the bag to its support (δ)."""

    child_fields = ("child",)

    def __init__(self, child: PlanNode):
        self.child = child
        self.schema = child.schema

    def __repr__(self) -> str:
        return "Distinct"


class GroupAggregate(PlanNode):
    """GROUP BY with aggregates (γ).

    ``group_by`` may be empty, yielding the single global group (which
    is how ``SELECT COUNT(*) FROM ...`` — the paper's Query 2 — plans).
    """

    child_fields = ("child",)

    def __init__(
        self,
        child: PlanNode,
        group_by: Sequence[tuple[Expr, str]],
        aggregates: Sequence[AggregateSpec],
    ):
        if not aggregates and not group_by:
            raise PlanError("aggregate node needs group keys or aggregates")
        self.child = child
        self.group_by = tuple(group_by)
        self.aggregates = tuple(aggregates)
        attrs = [
            Attribute(name, expr.result_type(child.schema))
            for expr, name in self.group_by
        ]
        attrs += [Attribute(a.name, a.result_type(child.schema)) for a in self.aggregates]
        self.schema = Schema("aggregate", attrs)

    def __repr__(self) -> str:
        keys = ", ".join(name for _, name in self.group_by)
        aggs = ", ".join(f"{a.func}->{a.name}" for a in self.aggregates)
        return f"GroupAggregate([{keys}] {aggs})"


class AggLookup(PlanNode):
    """Extend outer rows with a per-key aggregate from a subquery.

    This is the decorrelation target for correlated scalar ``COUNT``
    subqueries (the paper's Query 3): ``inner`` must be a
    :class:`GroupAggregate` with exactly one group key and one
    aggregate; each outer row is extended with the aggregate value for
    its ``outer_key``, or ``default`` when the group is absent
    (COUNT over an empty set is 0).
    """

    child_fields = ("outer", "inner")

    def __init__(
        self,
        outer: PlanNode,
        inner: GroupAggregate,
        outer_key: Expr,
        output_name: str,
        default: Any = 0,
    ):
        if len(inner.group_by) != 1 or len(inner.aggregates) != 1:
            raise PlanError(
                "AggLookup inner must group on one key and compute one aggregate"
            )
        self.outer = outer
        self.inner = inner
        self.outer_key = outer_key
        self.output_name = output_name
        self.default = default
        outer_key.bind(outer.schema)  # fail fast
        attrs = list(outer.schema.attributes) + [
            Attribute(output_name, inner.schema.attributes[1].attr_type)
        ]
        self.schema = Schema("agglookup", attrs)

    def __repr__(self) -> str:
        return f"AggLookup({self.output_name})"


class OrderBy(PlanNode):
    """Sort (presentation only; not incrementally maintainable)."""

    child_fields = ("child",)

    def __init__(self, child: PlanNode, keys: Sequence[tuple[Expr, bool]]):
        self.child = child
        self.keys = tuple(keys)  # (expr, descending)
        self.schema = child.schema
        for expr, _ in self.keys:
            expr.bind(child.schema)

    def __repr__(self) -> str:
        return f"OrderBy({len(self.keys)} keys)"


class Limit(PlanNode):
    """Keep the first ``n`` rows (presentation only)."""

    child_fields = ("child",)

    def __init__(self, child: PlanNode, n: int):
        if n < 0:
            raise PlanError("LIMIT must be non-negative")
        self.child = child
        self.n = n
        self.schema = child.schema

    def __repr__(self) -> str:
        return f"Limit({self.n})"


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _extract_equi_pairs(
    condition: Expr, left: Schema, right: Schema
) -> tuple[tuple[ColumnRef, ColumnRef], ...]:
    """Equality pairs ``(left_col, right_col)`` usable for hash joins.

    Only top-level AND-connected ``col = col`` terms qualify; everything
    else stays in the residual condition (evaluated per candidate pair).
    """
    pairs: list[tuple[ColumnRef, ColumnRef]] = []
    terms = list(condition.terms) if isinstance(condition, And) else [condition]
    for term in terms:
        if (
            isinstance(term, Comparison)
            and term.op == "="
            and isinstance(term.left, ColumnRef)
            and isinstance(term.right, ColumnRef)
        ):
            l_col, r_col = term.left, term.right
            if _resolves(l_col, left) and _resolves(r_col, right):
                pairs.append((l_col, r_col))
            elif _resolves(r_col, left) and _resolves(l_col, right):
                pairs.append((r_col, l_col))
    return tuple(pairs)


def _resolves(col: ColumnRef, schema: Schema) -> bool:
    try:
        col._resolve(schema)
    except QueryError:
        return False
    return True

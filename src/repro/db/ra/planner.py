"""The query planner: projection pruning over compiled plans.

The compiler (:mod:`repro.db.sql.compiler`) lowers SQL to a plan and
decides where each conjunct of the WHERE clause is evaluated.
:class:`Planner` then narrows rows before they are joined or grouped
(:func:`prune_projections`) and records each narrowing in a trace.
Planning returns a :class:`PlannedQuery`: the tree the session runs,
the trace, and an :meth:`~PlannedQuery.explain` report.

Pruning preserves the plan's multiset answer on **every** possible
world, so the pruned tree yields the compiled tree's deterministic
results and, for the same chain, its marginals bit for bit.
Factor-graph pruning — sampling only the query-relevant subgraph — is
*not* a plan rewrite; it lives in
:func:`repro.mcmc.targeted.plan_restriction` and composes with the
planner inside the session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Set, Tuple

from repro.db.database import Database
from repro.db.ra.ast import (
    AggLookup,
    ColumnRef,
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
)
from repro.db.ra.bind import LiteralBinder
from repro.db.ra.eval import access_paths
from repro.db.schema import Schema
from repro.errors import PlanError

__all__ = [
    "Planner",
    "PlannedQuery",
    "RuleApplication",
    "default_planner",
    "prune_projections",
    "replace_children",
]

# Callback that records one rewrite: ``on_apply(rule_name, detail)``.
OnApply = Callable[[str, str], None]


@dataclass(frozen=True)
class RuleApplication:
    """One recorded rewrite: which rewrite fired, and where."""

    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}"


class PlannedQuery:
    """A planned query: the tree to run and the rewrite trace that
    produced it from the compiled tree."""

    __slots__ = ("plan", "trace")

    def __init__(self, plan: PlanNode, trace: Tuple[RuleApplication, ...] = ()):
        self.plan = plan
        self.trace = trace

    def bind(
        self, literals: Sequence[Literal], values: Sequence[Any]
    ) -> "PlannedQuery":
        """This query with ``values[i]`` in place of ``literals[i]``.

        ``literals`` are Literal nodes of this query's tree, each to
        receive a value of its own type.  The caller guarantees that
        two values are equal exactly when the literals they replace
        are: the compiler matches a select-list expression to its
        GROUP BY twin by equality, and the bound query must be the one
        planning its own literals would give.  The bound query keeps this
        query's ``trace``: the same rewrites fired at the same nodes,
        but its details render this query's literals.  To explain a
        statement, plan its own text.
        """
        replaced = {
            id(old): Literal(new)
            for old, new in zip(literals, values)
            if old.value != new
        }
        if not replaced:
            return self
        return PlannedQuery(LiteralBinder(replaced).plan(self.plan), self.trace)

    def explain(self, db: Optional[Database] = None) -> str:
        """A human-readable planning report: the tree, the access path
        of each primary-key read against ``db`` (when given), and the
        rewrite trace."""
        lines = ["plan:", _indent(self.plan.describe())]
        if db is not None:
            lines.extend(access_paths(self.plan, db))
        if not self.trace:
            lines.append("rewrites: (none)")
        else:
            lines.append("rewrites:")
            lines.extend(f"  {application}" for application in self.trace)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"PlannedQuery({len(self.trace)} rewrites)"


def _indent(text: str) -> str:
    return "\n".join(f"  {line}" for line in text.splitlines())


class Planner:
    """Prunes compiled plans and records what it narrowed."""

    def plan(self, plan: PlanNode) -> PlannedQuery:
        """Prune ``plan``; the input tree is never mutated."""
        trace: List[RuleApplication] = []

        def on_apply(rule: str, detail: str) -> None:
            trace.append(RuleApplication(rule, detail))

        return PlannedQuery(prune_projections(plan, on_apply), tuple(trace))


def default_planner() -> Planner:
    """The planner the session uses."""
    return Planner()


# ----------------------------------------------------------------------
# Tree surgery
# ----------------------------------------------------------------------
def replace_children(node: PlanNode, children: Sequence[PlanNode]) -> PlanNode:
    """Rebuild ``node`` over ``children`` (same node if nothing changed).

    Nodes compute schemas and bind expressions in their constructors,
    so replacement goes through the constructor — a child whose schema
    no longer satisfies the node's expressions fails fast here.
    """
    current = node.children()
    if len(current) == len(children) and all(
        a is b for a, b in zip(current, children)
    ):
        return node
    if isinstance(node, Select):
        return Select(children[0], node.predicate)
    if isinstance(node, Project):
        return Project(children[0], node.outputs)
    if isinstance(node, Join):
        return Join(children[0], children[1], node.condition)
    if isinstance(node, CrossProduct):
        return CrossProduct(children[0], children[1])
    if isinstance(node, UnionAll):
        return UnionAll(children[0], children[1])
    if isinstance(node, Distinct):
        return Distinct(children[0])
    if isinstance(node, GroupAggregate):
        return GroupAggregate(children[0], node.group_by, node.aggregates)
    if isinstance(node, AggLookup):
        inner = children[1]
        if not isinstance(inner, GroupAggregate):
            raise PlanError("AggLookup inner must stay a GroupAggregate")
        return AggLookup(
            children[0], inner, node.outer_key, node.output_name, node.default
        )
    if isinstance(node, OrderBy):
        return OrderBy(children[0], node.keys)
    if isinstance(node, Limit):
        return Limit(children[0], node.n)
    raise PlanError(f"unknown plan node {type(node).__name__}")


# ----------------------------------------------------------------------
# Projection pruning
# ----------------------------------------------------------------------
def prune_projections(
    plan: PlanNode, on_apply: Optional[OnApply] = None
) -> PlanNode:
    """Insert narrowing projections below joins and aggregations.

    A top-down required-column analysis threads the set of attribute
    names each subtree must produce; where a join or aggregation input
    carries unneeded columns, a name-preserving :class:`Project` is
    inserted so rows narrow *before* they are joined or grouped.  The
    root's schema is never changed, and positional operators
    (``UNION ALL``, ``DISTINCT``) require their full input — narrowing
    below them would change deduplication semantics.
    """
    return _prune(plan, None, on_apply)


def _resolved_names(expr: Expr, schema: Schema) -> Set[str]:
    """Exact attribute names of ``schema`` referenced by ``expr``."""
    return {
        schema.attributes[col._resolve(schema)].name for col in expr.columns()
    }


def _prune(
    node: PlanNode, required: Optional[Set[str]], on_apply: Optional[OnApply]
) -> PlanNode:
    """Rebuild ``node`` so its schema keeps (at least) ``required``
    attribute names; ``None`` means every column is required."""
    if isinstance(node, Scan):
        return node

    if isinstance(node, Select):
        need = _extend(required, _resolved_names(node.predicate, node.schema))
        return replace_children(node, (_prune(node.child, need, on_apply),))

    if isinstance(node, Project):
        child_need: Set[str] = set()
        for expr, _name in node.outputs:
            child_need |= _resolved_names(expr, node.child.schema)
        return replace_children(
            node, (_prune(node.child, child_need, on_apply),)
        )

    if isinstance(node, (Join, CrossProduct)):
        condition = node.condition if isinstance(node, Join) else None
        cond_names = (
            _resolved_names(condition, node.schema)
            if condition is not None
            else set()
        )
        sides: List[PlanNode] = []
        for child in (node.left, node.right):
            names = {a.name for a in child.schema.attributes}
            side_need = (
                None
                if required is None
                else (required | cond_names) & names
            )
            pruned = _prune(child, side_need, on_apply)
            sides.append(_narrow(pruned, side_need, on_apply))
        return replace_children(node, tuple(sides))

    if isinstance(node, (UnionAll, Distinct)):
        # Positional semantics: every input column participates.
        return replace_children(
            node, tuple(_prune(c, None, on_apply) for c in node.children())
        )

    if isinstance(node, GroupAggregate):
        child_need = set()
        for expr, _name in node.group_by:
            child_need |= _resolved_names(expr, node.child.schema)
        for spec in node.aggregates:
            if spec.arg is not None:
                child_need |= _resolved_names(spec.arg, node.child.schema)
        pruned = _prune(node.child, child_need, on_apply)
        return replace_children(
            node, (_narrow(pruned, child_need, on_apply),)
        )

    if isinstance(node, AggLookup):
        outer_names = {a.name for a in node.outer.schema.attributes}
        outer_need = (
            None
            if required is None
            else (required | _resolved_names(node.outer_key, node.outer.schema))
            & outer_names
        )
        outer = _narrow(
            _prune(node.outer, outer_need, on_apply), outer_need, on_apply
        )
        inner = _prune(node.inner, None, on_apply)
        return replace_children(node, (outer, inner))

    if isinstance(node, OrderBy):
        need = required
        for expr, _descending in node.keys:
            need = _extend(need, _resolved_names(expr, node.child.schema))
        return replace_children(node, (_prune(node.child, need, on_apply),))

    if isinstance(node, Limit):
        return replace_children(
            node, (_prune(node.child, required, on_apply),)
        )

    raise PlanError(f"unknown plan node {type(node).__name__}")


def _extend(required: Optional[Set[str]], extra: Set[str]) -> Optional[Set[str]]:
    return None if required is None else required | extra


def _narrow(
    child: PlanNode, required: Optional[Set[str]], on_apply: Optional[OnApply]
) -> PlanNode:
    """Wrap ``child`` in a name-preserving projection onto ``required``
    (no-op when everything is required)."""
    if required is None:
        return child
    attrs = child.schema.attributes
    keep = [a.name for a in attrs if a.name in required]
    if len(keep) == len(attrs):
        return child
    if not keep:
        # COUNT(*)-style consumers reference no column but still count
        # rows; keep one column so multiplicities survive.
        keep = [attrs[0].name]
    if on_apply is not None:
        dropped = len(attrs) - len(keep)
        on_apply(
            "prune-projections",
            f"narrowed {child!r} to {len(keep)} columns (-{dropped})",
        )
    return Project(child, [(ColumnRef(name), name) for name in keep])

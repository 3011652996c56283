"""The cost-based query planner: an ordered rule program over plans.

The compiler (:mod:`repro.db.sql.compiler`) lowers SQL to a correct
but literal plan.  :class:`Planner` rewrites that plan before it is
cached or executed — the shape follows Calcite-style planner objects:
a reusable instance holding a rule program, applied to a fixpoint,
followed by two whole-tree phases (projection pruning, repeated-scan
consolidation).  Planning returns a :class:`PlannedQuery` carrying the
original tree, the rewritten tree and the rewrite trace, so callers
can run either form (``optimize=False``) and render an
:meth:`~PlannedQuery.explain` report.

The contract that makes rewrites safe under sampling: every rule
preserves the plan's multiset answer on **every** possible world, so
optimized and unoptimized plans yield bit-identical deterministic
results and bit-identical marginals for the same chain.  Factor-graph
pruning — sampling only the query-relevant subgraph — is *not* a plan
rewrite; it lives in :func:`repro.mcmc.targeted.plan_restriction` and
composes with the planner inside the session.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.db.database import Database
from repro.db.ra.ast import Literal, PlanNode
from repro.db.ra.bind import LiteralBinder
from repro.db.ra.eval import access_paths
from repro.db.ra.rules import (
    DEFAULT_RULES,
    OnApply,
    Rule,
    consolidate_scans,
    prune_projections,
    replace_children,
)

__all__ = ["Planner", "PlannedQuery", "RuleApplication", "default_planner"]


@dataclass(frozen=True)
class RuleApplication:
    """One recorded rewrite: which rule fired, and where."""

    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}"


class PlannedQuery:
    """A compiled query in both its raw and optimized forms.

    ``raw`` is the compiler's literal plan, ``plan`` the planner's
    rewrite of it; ``trace`` records every rule application in order.
    Both trees answer every query identically on every world — the
    session's ``optimize=False`` escape hatch simply executes ``raw``.

    :meth:`bind` derives the same query with new literal values; the
    derived query builds each of its trees only when first asked.
    """

    __slots__ = ("_raw", "_plan", "trace", "_source", "_binder")

    def __init__(
        self,
        raw: PlanNode,
        plan: PlanNode,
        trace: Tuple[RuleApplication, ...] = (),
    ):
        self._raw: Optional[PlanNode] = raw
        self._plan: Optional[PlanNode] = plan
        self.trace = trace
        self._source: Optional[PlannedQuery] = None
        self._binder: Optional[LiteralBinder] = None

    def bind(
        self, literals: Sequence[Literal], values: Sequence[Any]
    ) -> "PlannedQuery":
        """This query with ``values[i]`` in place of ``literals[i]``.

        ``literals`` are Literal nodes of this query's trees, each to
        receive a value of its own type.  The caller guarantees that
        two values are equal exactly when the literals they replace
        are: the planner may have shared two subtrees whose literals
        are equal, and the bound query must be the one planning its own
        literals would give.

        The bound query keeps this query's ``trace``: the same rules
        fired at the same nodes, but its details render this query's
        literals.  To explain a statement, plan its own text.
        """
        replaced = {
            id(old): Literal(new)
            for old, new in zip(literals, values)
            if old.value != new
        }
        if not replaced:
            return self
        bound = PlannedQuery.__new__(PlannedQuery)
        bound._raw = bound._plan = None
        bound.trace = self.trace
        bound._source = self
        bound._binder = LiteralBinder(replaced)
        return bound

    @property
    def raw(self) -> PlanNode:
        if self._raw is None:
            assert self._source is not None and self._binder is not None
            self._raw = self._binder.plan(self._source.raw)
        return self._raw

    @property
    def plan(self) -> PlanNode:
        if self._plan is None:
            assert self._source is not None and self._binder is not None
            self._plan = self._binder.plan(self._source.plan)
        return self._plan

    def chosen(self, optimize: bool) -> PlanNode:
        """The tree to execute: rewritten, or the raw escape hatch."""
        return self.plan if optimize else self.raw

    def explain(self, db: Optional[Database] = None) -> str:
        """A human-readable planning report: the optimized tree, the
        access path of each primary-key read against ``db`` (when
        given), the rewrite trace, and (when anything changed) the
        original tree."""
        lines = ["plan:", _indent(self.plan.describe())]
        if db is not None:
            lines.extend(access_paths(self.plan, db))
        if not self.trace:
            lines.append("rewrites: (none)")
            return "\n".join(lines)
        lines.append("rewrites:")
        lines.extend(f"  {application}" for application in self.trace)
        lines.append("original:")
        lines.append(_indent(self.raw.describe()))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"PlannedQuery({len(self.trace)} rewrites)"


def _indent(text: str) -> str:
    return "\n".join(f"  {line}" for line in text.splitlines())


class Planner:
    """Applies an ordered rule program to plan trees.

    Parameters
    ----------
    rules:
        The rewrite program, tried in order at every node, bottom-up,
        to a fixpoint (defaults to :data:`repro.db.ra.rules.DEFAULT_RULES`).
    max_passes:
        Upper bound on full rewrite passes; cascading pushdowns need
        one pass per plan level, so the default covers any realistic
        tree while guaranteeing termination against a cycling rule set.
    prune, consolidate:
        Toggles for the whole-tree phases (projection pruning below
        joins/aggregations, repeated-scan sharing).
    """

    def __init__(
        self,
        rules: Optional[Sequence[Rule]] = None,
        *,
        max_passes: int = 10,
        prune: bool = True,
        consolidate: bool = True,
    ):
        self.rules: Tuple[Rule, ...] = (
            tuple(rules) if rules is not None else DEFAULT_RULES
        )
        self.max_passes = max_passes
        self.prune = prune
        self.consolidate = consolidate

    def plan(self, plan: PlanNode) -> PlannedQuery:
        """Rewrite ``plan``; the input tree is never mutated."""
        trace: List[RuleApplication] = []

        def on_apply(rule: str, detail: str) -> None:
            trace.append(RuleApplication(rule, detail))

        rewritten = plan
        for _ in range(self.max_passes):
            rewritten, changed = self._rewrite_pass(rewritten, on_apply)
            if not changed:
                break
        if self.prune:
            rewritten = prune_projections(rewritten, on_apply)
        if self.consolidate:
            rewritten = consolidate_scans(rewritten, on_apply)
        return PlannedQuery(plan, rewritten, tuple(trace))

    def _rewrite_pass(
        self, node: PlanNode, on_apply: OnApply
    ) -> Tuple[PlanNode, bool]:
        changed = False
        children: List[PlanNode] = []
        for child in node.children():
            new_child, child_changed = self._rewrite_pass(child, on_apply)
            changed = changed or child_changed
            children.append(new_child)
        node = replace_children(node, children)
        for rule in self.rules:
            replacement = rule.apply(node)
            if replacement is not None:
                on_apply(rule.name, repr(node))
                node = replacement
                changed = True
        return node, changed


def default_planner() -> Planner:
    """The planner the session uses unless one is injected."""
    return Planner()

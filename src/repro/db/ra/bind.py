"""Bind new literal values into a planned tree.

The plan cache (:mod:`repro.api.plan_cache`) plans a SELECT once per
*shape* — its text with each literal lifted into a typed slot — and
serves every later statement of that shape by substituting the
statement's own literals into the cached tree.  :class:`LiteralBinder`
does that substitution: it rebuilds only the nodes on a path to a
replaced :class:`~repro.db.ra.ast.Literal` and returns every other
subtree as is.

A replaced literal has the type its slot was planned with, so every
schema, resolved column and equi-join pair a node constructor derived
still holds: rebuilt nodes are copies with new expressions, not new
constructions.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.db.ra.ast import (
    AggLookup,
    AggregateSpec,
    And,
    Arithmetic,
    Comparison,
    Expr,
    GroupAggregate,
    InList,
    Join,
    Like,
    Literal,
    Not,
    Or,
    OrderBy,
    PlanNode,
    Project,
    Select,
)

__all__ = ["LiteralBinder"]


class LiteralBinder:
    """Substitutes ``literals[id(node)]`` for each listed Literal node."""

    def __init__(self, literals: Mapping[int, Literal]):
        self._literals = literals

    def expr(self, expr: Expr) -> Expr:
        """``expr`` with the binding's literals substituted (the same
        object when it holds none of them)."""
        if isinstance(expr, Literal):
            return self._literals.get(id(expr), expr)
        if isinstance(expr, (Comparison, Arithmetic)):
            left, right = self.expr(expr.left), self.expr(expr.right)
            if left is expr.left and right is expr.right:
                return expr
            return type(expr)(expr.op, left, right)
        if isinstance(expr, (And, Or)):
            terms = [self.expr(term) for term in expr.terms]
            if all(new is old for new, old in zip(terms, expr.terms)):
                return expr
            return type(expr)(*terms)
        if isinstance(expr, Not):
            term = self.expr(expr.term)
            return expr if term is expr.term else Not(term)
        if isinstance(expr, InList):
            term = self.expr(expr.term)
            return expr if term is expr.term else InList(term, expr.values)
        if isinstance(expr, Like):
            term = self.expr(expr.term)
            return expr if term is expr.term else Like(term, expr.pattern)
        return expr  # ColumnRef

    def plan(self, node: PlanNode) -> PlanNode:
        """``node`` with the binding's literals substituted (the same
        object when its subtree holds none of them)."""
        changes: Dict[str, object] = {}
        for name in node.child_fields:
            child = getattr(node, name)
            bound = self.plan(child)
            if bound is not child:
                changes[name] = bound
        if isinstance(node, Select):
            self._note(changes, "predicate", node.predicate, self.expr(node.predicate))
        elif isinstance(node, Join):
            self._note(changes, "condition", node.condition, self.expr(node.condition))
        elif isinstance(node, Project):
            outputs = tuple((self.expr(e), name) for e, name in node.outputs)
            self._note_all(changes, "outputs", node.outputs, outputs)
        elif isinstance(node, OrderBy):
            keys = tuple((self.expr(e), desc) for e, desc in node.keys)
            self._note_all(changes, "keys", node.keys, keys)
        elif isinstance(node, AggLookup):
            self._note(changes, "outer_key", node.outer_key, self.expr(node.outer_key))
        elif isinstance(node, GroupAggregate):
            group_by = tuple((self.expr(e), name) for e, name in node.group_by)
            self._note_all(changes, "group_by", node.group_by, group_by)
            specs = node.aggregates
            args = [None if s.arg is None else self.expr(s.arg) for s in specs]
            if any(arg is not spec.arg for arg, spec in zip(args, specs)):
                changes["aggregates"] = tuple(
                    AggregateSpec(spec.func, arg, spec.name)
                    for spec, arg in zip(specs, args)
                )
        if not changes:
            return node
        clone = object.__new__(type(node))
        clone.__dict__.update(node.__dict__)
        clone.__dict__.update(changes)
        return clone

    @staticmethod
    def _note(changes: Dict[str, object], name: str, old: Expr, new: Expr) -> None:
        if new is not old:
            changes[name] = new

    @staticmethod
    def _note_all(
        changes: Dict[str, object], name: str, old: tuple, new: tuple
    ) -> None:
        if any(a[0] is not b[0] for a, b in zip(old, new)):
            changes[name] = new

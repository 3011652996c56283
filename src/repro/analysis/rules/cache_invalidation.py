"""RL002 — cache-invalidation discipline in ``repro/fg/``.

The PR-3/PR-5 bug class: the factor graph's performance rests on
caches keyed by structure that is assumed frozen — per-variable static
adjacency, pooled template instances, compiled array scorers whose
blanket score caches are keyed by ``Weights.version``.  Any method that mutates the underlying structure
(``FactorGraph.variables``/``_by_name``/``templates``, a template's
weights or feature functions, ``Weights._values``) and reaches *any*
exit without running the matching invalidation leaves a cache serving
factors from a world that no longer exists — MCMC keeps accepting
proposals scored against stale structure, silently biasing marginals.

The checker runs a small path-sensitive walk over each method of the
guarded classes: a guarded mutation sets *dirty*; an invalidator call
(``invalidate_adjacency``, ``clear_caches``, ``invalidate``,
``clear_cache``, ``set_caching``, a ``Weights.set``/``_version`` bump)
sets *clean*; every exit — ``return``, ``raise``, or falling off the
end — while dirty is a finding.  ``if``/``else`` branches merge
conservatively (dirty if either branch is, clean only if both are);
loop bodies are walked twice so a ``raise`` that follows a mutation
made by an *earlier iteration* is caught (the ``add_variables``
half-mutation bug this rule encodes); a ``finally`` block containing
an invalidator covers every exit of its ``try``.

``__init__``/``__getstate__``/``__setstate__`` are exempt: they build
or serialize fresh state, with nothing cached against it yet.

A spec may also name *index* attributes — a pair template's endpoint
index of its pool, which removals trust to find every pooled pair — and
the only methods allowed to write them (those that create or evict pool
entries).  A write anywhere else is a finding: an index edited apart
from its pool lets a removal miss a stale entry.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.analysis.astutil import self_attribute, walk_calls
from repro.analysis.framework import Rule

__all__ = ["CacheInvalidationRule"]

MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse",
}

EXEMPT_METHODS = {"__init__", "__new__", "__getstate__", "__setstate__"}


@dataclass
class _GuardSpec:
    attrs: Set[str]
    invalidators: Set[str]
    version_attr: Optional[str] = None
    index_attrs: Set[str] = field(default_factory=set)
    index_writers: Set[str] = field(default_factory=set)

    def describe_invalidators(self) -> str:
        names = sorted(self.invalidators)
        if self.version_attr:
            names.append(f"{self.version_attr} bump")
        return "/".join(names)


_FACTOR_GRAPH = _GuardSpec(
    attrs={"variables", "_by_name", "templates"},
    invalidators={"invalidate_adjacency", "clear_caches", "set_caching"},
)
_WEIGHTS = _GuardSpec(
    attrs={"_values"},
    invalidators={"set"},
    version_attr="_version",
)
_TEMPLATE = _GuardSpec(
    attrs={"weights", "_feature_fn", "_neighbors_fn"},
    invalidators={"clear_cache", "invalidate", "set_caching", "evict_pair"},
    index_attrs={"_partners"},
    index_writers={
        "clear_cache", "invalidate", "evict_pair", "_instantiate", "_unlink",
    },
)

BY_CLASS = {"FactorGraph": _FACTOR_GRAPH, "Weights": _WEIGHTS}


def _spec_for_class(node: ast.ClassDef) -> Optional[_GuardSpec]:
    spec = BY_CLASS.get(node.name)
    if spec is not None:
        return spec
    if node.name.endswith("Template"):
        return _TEMPLATE
    for base in node.bases:
        if isinstance(base, ast.Name) and base.id == "Template":
            return _TEMPLATE
    return None


@dataclass
class _State:
    """Path state: the last un-invalidated guarded mutation (if any),
    whether an invalidator ran, and whether the path already exited
    (``return``/``raise`` — checked at that point, dead afterwards)."""

    dirty_attr: Optional[str] = None
    invalidated: bool = False
    terminated: bool = False
    dirty_node: Optional[ast.AST] = None

    def copy(self) -> "_State":
        return _State(
            self.dirty_attr, self.invalidated, self.terminated, self.dirty_node
        )


def _merge(a: _State, b: _State) -> _State:
    # A branch that already exited contributes nothing downstream.
    if a.terminated and not b.terminated:
        return b.copy()
    if b.terminated and not a.terminated:
        return a.copy()
    return _State(
        dirty_attr=a.dirty_attr or b.dirty_attr,
        invalidated=a.invalidated and b.invalidated,
        terminated=a.terminated and b.terminated,
        dirty_node=a.dirty_node if a.dirty_attr else b.dirty_node,
    )


class CacheInvalidationRule(Rule):
    rule_id = "RL002"
    title = (
        "factor-graph/weights/template structural mutations must "
        "invalidate the dependent caches on every exit path"
    )
    scope = ("repro/fg/",)

    # -- entry ----------------------------------------------------------
    def check_function(self, node: ast.AST) -> None:
        if len(self.func_stack) != 1 or not self.class_stack:
            return  # only direct methods of a class
        if getattr(node, "name", "") in EXEMPT_METHODS:
            return
        spec = _spec_for_class(self.class_stack[-1])
        if spec is None:
            return
        self._spec = spec
        self._method = getattr(node, "name", "<method>")
        self._finally_cover = 0
        if self._method not in spec.index_writers:
            self._check_index_writes(node)
        state = self._process_block(getattr(node, "body", []), _State())
        self._check_exit(node, state, "falls off the end")

    # -- classification -------------------------------------------------
    def _mutated_attr(self, stmt: ast.stmt) -> Optional[str]:
        """The guarded attr this statement mutates, else ``None``."""
        spec = self._spec
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, ast.AugAssign):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            base = target
            while isinstance(base, ast.Subscript):
                base = base.value
            attr = self_attribute(base)
            if attr is not None and attr in spec.attrs:
                return attr
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS
            ):
                attr = self_attribute(func.value)
                if attr is not None and attr in spec.attrs:
                    return attr
        return None

    def _check_index_writes(self, node: ast.AST) -> None:
        """Report every write to an index attribute in this method."""
        attrs = self._spec.index_attrs
        for child in ast.walk(node):
            written: Optional[str] = None
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.Delete)):
                targets = (
                    [child.target]
                    if isinstance(child, ast.AugAssign)
                    else child.targets
                )
                for target in targets:
                    while isinstance(target, ast.Subscript):
                        target = target.value
                    written = written or self_attribute(target)
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in MUTATING_METHODS
            ):
                written = self_attribute(child.func.value)
            if written in attrs:
                self.report(
                    child,
                    f"writes self.{written} outside "
                    f"{'/'.join(sorted(self._spec.index_writers))} — an "
                    "index edited apart from its pool lets a removal miss "
                    "a stale entry",
                    symbol=f"{self.class_stack[-1].name}.{self._method}",
                )

    def _invalidates(self, node: ast.AST) -> bool:
        spec = self._spec
        for call in walk_calls(node):
            func = call.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in spec.invalidators
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
            ):
                return True
        if spec.version_attr is not None:
            for child in ast.walk(node):
                if isinstance(child, (ast.Assign, ast.AugAssign)):
                    targets = (
                        child.targets
                        if isinstance(child, ast.Assign)
                        else [child.target]
                    )
                    for target in targets:
                        if self_attribute(target) == spec.version_attr:
                            return True
        return False

    # -- path walk ------------------------------------------------------
    def _check_exit(self, node: ast.AST, state: _State, how: str) -> None:
        if state.terminated:
            return
        if state.dirty_attr and not state.invalidated and not self._finally_cover:
            # Anchor at the mutation site, not the exit: that is the
            # line a suppression naturally sits on.
            self.report(
                state.dirty_node if state.dirty_node is not None else node,
                f"{how} with self.{state.dirty_attr} mutated but no "
                f"{self._spec.describe_invalidators()} call on this path "
                "— dependent caches keep serving the old structure",
                symbol=f"{self.class_stack[-1].name}.{self._method}",
            )

    def _process_block(self, stmts: Sequence[ast.stmt], state: _State) -> _State:
        for stmt in stmts:
            state = self._process_stmt(stmt, state)
        return state

    def _process_stmt(self, stmt: ast.stmt, state: _State) -> _State:
        if isinstance(stmt, ast.Return):
            self._check_exit(stmt, state, "returns")
            state = state.copy()
            state.terminated = True
            return state
        if isinstance(stmt, ast.Raise):
            self._check_exit(stmt, state, "raises")
            state = state.copy()
            state.terminated = True
            return state
        if isinstance(stmt, ast.If):
            then = self._process_block(stmt.body, state.copy())
            other = self._process_block(stmt.orelse, state.copy())
            return _merge(then, other)
        if isinstance(stmt, (ast.For, ast.While)):
            # Two passes: iteration N may mutate, iteration N+1 raise.
            once = self._process_block(stmt.body, state.copy())
            twice = self._process_block(stmt.body, once)
            after = _merge(state, twice)
            return self._process_block(stmt.orelse, after)
        if isinstance(stmt, ast.Try):
            covered = any(self._invalidates(s) for s in stmt.finalbody)
            if covered:
                self._finally_cover += 1
            body = self._process_block(stmt.body, state.copy())
            body = self._process_block(stmt.orelse, body)
            merged = body
            for handler in stmt.handlers:
                handled = self._process_block(
                    handler.body, _merge(state, body).copy()
                )
                merged = _merge(merged, handled)
            if covered:
                self._finally_cover -= 1
            return self._process_block(stmt.finalbody, merged)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._process_block(stmt.body, state)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return state  # nested definitions run later, not on this path
        # Plain statement: invalidation first (a call both mutating and
        # invalidating — e.g. Weights.set — counts as clean).
        if self._invalidates(stmt):
            state = state.copy()
            state.invalidated = True
        attr = self._mutated_attr(stmt)
        if attr is not None:
            state = state.copy()
            state.dirty_attr = attr
            state.dirty_node = stmt
        return state

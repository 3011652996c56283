"""Lower parsed SQL to relational-algebra plans.

The compiler performs the handful of transformations the paper's
queries need:

* **conjunct placement** — each WHERE conjunct is evaluated at the
  first node where it resolves: single-table conjuncts below joins
  (Query 4 filters ``T1.STRING='Boston'`` before the self-join), a
  conjunct over a scalar subquery right above the lookup that computes
  it.  The compiler is the one place that decides this; the planner
  (:mod:`repro.db.ra.planner`) only prunes columns;
* **join detection** — cross products plus connecting equality
  conjuncts become hash joins;
* **decorrelation** — correlated scalar aggregate subqueries (Query 3)
  become :class:`~repro.db.ra.ast.AggLookup` nodes, which the
  incremental engine maintains;
* **aggregate planning** — select-list aggregates become
  :class:`~repro.db.ra.ast.GroupAggregate` with HAVING as a filter
  above it.

A select list that re-emits its input unchanged (``SELECT *`` over one
table) compiles to no :class:`~repro.db.ra.ast.Project` at all.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.db.database import Database
from repro.db.ra.ast import (
    AggLookup,
    AggregateSpec,
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    CrossProduct,
    Distinct,
    Expr,
    GroupAggregate,
    InList,
    Join,
    Like,
    Limit,
    Literal,
    Not,
    Or,
    OrderBy,
    PlanNode,
    Project,
    Scan,
    Select,
    conjoin,
    resolves_in,
    split_conjuncts,
)
from repro.db.ra.eval import zero_for
from repro.db.schema import Schema
from repro.db.sql.ast import AggCall, ScalarSubquery, SelectStmt, TableRef
from repro.db.sql.parser import parse
from repro.errors import PlanError, QueryError

__all__ = ["compile_select", "plan_query"]


def plan_query(db: Database, sql: str) -> PlanNode:
    """Parse and compile ``sql`` against the schemas of ``db``."""
    return compile_select(parse(sql), db)


def compile_select(stmt: SelectStmt, db: Database) -> PlanNode:
    """Compile one SELECT statement to a logical plan."""
    compiler = _Compiler(db)
    return compiler.compile(stmt)


# ----------------------------------------------------------------------
# Expression utilities
# ----------------------------------------------------------------------
def rewrite(expr: Expr, mapper) -> Expr:
    """Rebuild ``expr`` bottom-up, replacing nodes via ``mapper``.

    ``mapper(node)`` returns a replacement or ``None`` to keep the node
    (children already rewritten).
    """
    if isinstance(expr, And):
        expr = And(*[rewrite(t, mapper) for t in expr.terms])
    elif isinstance(expr, Or):
        expr = Or(*[rewrite(t, mapper) for t in expr.terms])
    elif isinstance(expr, Not):
        expr = Not(rewrite(expr.term, mapper))
    elif isinstance(expr, Comparison):
        expr = Comparison(expr.op, rewrite(expr.left, mapper), rewrite(expr.right, mapper))
    elif isinstance(expr, Arithmetic):
        expr = Arithmetic(expr.op, rewrite(expr.left, mapper), rewrite(expr.right, mapper))
    elif isinstance(expr, InList):
        expr = InList(rewrite(expr.term, mapper), expr.values)
    elif isinstance(expr, Like):
        expr = Like(rewrite(expr.term, mapper), expr.pattern)
    # AggCall and ScalarSubquery are atomic: their bodies live in a
    # different scope (pre-aggregation input / inner query) and must not
    # be rewritten by the caller's mapper.
    replacement = mapper(expr)
    return expr if replacement is None else replacement


def find_nodes(expr: Expr, node_type) -> list:
    """All sub-expressions of ``node_type`` (pre-order)."""
    found: list = []

    def visit(e: Expr) -> None:
        if isinstance(e, node_type):
            found.append(e)
        if isinstance(e, (And, Or)):
            for t in e.terms:
                visit(t)
        elif isinstance(e, Not):
            visit(e.term)
        elif isinstance(e, (Comparison, Arithmetic)):
            visit(e.left)
            visit(e.right)
        elif isinstance(e, (InList, Like)):
            visit(e.term)
        elif isinstance(e, AggCall) and e.arg is not None:
            visit(e.arg)
        elif isinstance(e, ScalarSubquery):
            pass  # opaque: inner query has its own scope

    visit(expr)
    return found


# ----------------------------------------------------------------------
# The compiler
# ----------------------------------------------------------------------
class _Compiler:
    def __init__(self, db: Database):
        self.db = db
        self._subquery_counter = 0

    # -- FROM / WHERE ----------------------------------------------------
    def compile(self, stmt: SelectStmt) -> PlanNode:
        conjuncts = split_conjuncts(stmt.where)
        plain = [c for c in conjuncts if not find_nodes(c, ScalarSubquery)]
        with_subqueries = [c for c in conjuncts if find_nodes(c, ScalarSubquery)]

        plan = self._from_plan(stmt, plain)
        plan = self._apply_subqueries(plan, with_subqueries)
        plan = self._apply_select_list(stmt, plan)
        if stmt.distinct:
            plan = Distinct(plan)
        if stmt.order_by:
            keys = [
                (self._order_key(item.expr, plan, stmt), item.descending)
                for item in stmt.order_by
            ]
            plan = OrderBy(plan, keys)
        if stmt.limit is not None:
            plan = Limit(plan, stmt.limit)
        return plan

    def _order_key(self, expr: Expr, plan: PlanNode, stmt: SelectStmt) -> Expr:
        """Resolve an ORDER BY expression against the projected schema.

        SQL lets ORDER BY reference source columns ("ORDER BY T.TEAM")
        that the projection re-exposed under a plain output name; when
        direct binding fails, map the expression onto the select item
        that computes it.
        """
        try:
            expr.bind(plan.schema)
            return expr
        except QueryError:
            pass
        for i, item in enumerate(stmt.items):
            if item.expr == expr:
                return ColumnRef(self._output_name(item, i))
        raise QueryError(
            f"ORDER BY expression {expr!r} is neither an output column "
            "nor a select-list expression"
        )

    def _scan(self, ref: TableRef) -> Scan:
        return Scan(self.db.table(ref.table).schema, alias=ref.exposed_name)

    def _from_plan(self, stmt: SelectStmt, conjuncts: list[Expr]) -> PlanNode:
        """Left-deep joins over FROM tables, each of ``conjuncts``
        evaluated at the first node where it resolves: on its table's
        scan, as the condition of the comma join that links its tables,
        or right above the explicit ``JOIN`` that completes them."""
        remaining = list(conjuncts)
        scans = [self._scan(ref) for ref in stmt.from_tables]

        def local_filter(node: PlanNode) -> PlanNode:
            nonlocal remaining
            mine = [c for c in remaining if resolves_in(c, node.schema)]
            if mine:
                remaining = [c for c in remaining if c not in mine]
                return Select(node, conjoin(mine))
            return node

        plan: PlanNode = local_filter(scans[0])
        for scan in scans[1:]:
            right = local_filter(scan)
            joined_schema = Schema(
                "tmp", list(plan.schema.attributes) + list(right.schema.attributes)
            )
            linking = [
                c
                for c in remaining
                if resolves_in(c, joined_schema)
                and not resolves_in(c, plan.schema)
                and not resolves_in(c, right.schema)
            ]
            if linking:
                remaining = [c for c in remaining if c not in linking]
                plan = Join(plan, right, conjoin(linking))
            else:
                plan = CrossProduct(plan, right)
        rights = [local_filter(self._scan(ref)) for ref, _ in stmt.joins]
        spanning = list(remaining)  # what the scans and comma joins left
        for right, (_, condition) in zip(rights, stmt.joins):
            plan = local_filter(Join(plan, right, condition))
        # Each of them must resolve over the whole FROM list, even one
        # placed at an inner join before a later table made one of its
        # names ambiguous: binding the failures raises their error.
        unresolved = [c for c in spanning if not resolves_in(c, plan.schema)]
        if unresolved:
            And(*unresolved).bind(plan.schema)
        return plan

    # -- scalar subqueries ------------------------------------------------
    def _apply_subqueries(self, plan: PlanNode, conjuncts: list[Expr]) -> PlanNode:
        """Decorrelate every scalar subquery into an AggLookup that adds
        a synthetic ``__sqN`` column, and filter by each conjunct,
        rewritten to read those columns, right above the lookup of its
        last subquery: the first node where it resolves."""
        for conjunct in conjuncts:
            # Keyed by object identity: ScalarSubquery wraps a mutable
            # SelectStmt and is therefore unhashable; rewrite() preserves
            # subquery node identity, so id() is a stable key.
            replacements: Dict[int, ColumnRef] = {}
            for subquery in find_nodes(conjunct, ScalarSubquery):
                name = f"__sq{self._subquery_counter}"
                self._subquery_counter += 1
                plan = self._decorrelate(plan, subquery.query, name)
                replacements[id(subquery)] = ColumnRef(name)
            rewritten = rewrite(
                conjunct,
                lambda e: replacements.get(id(e))
                if isinstance(e, ScalarSubquery)
                else None,
            )
            plan = Select(plan, rewritten)
        return plan

    def _decorrelate(self, outer: PlanNode, inner: SelectStmt, name: str) -> PlanNode:
        if (
            len(inner.items) != 1
            or not isinstance(inner.items[0].expr, AggCall)
            or inner.group_by
            or inner.having
            or inner.distinct
            or inner.joins
            or len(inner.from_tables) != 1
        ):
            raise PlanError(
                "only single-table scalar aggregate subqueries are supported"
            )
        agg = inner.items[0].expr
        scan = self._scan(inner.from_tables[0])
        local: list[Expr] = []
        correlations: list[Comparison] = []
        for conjunct in split_conjuncts(inner.where):
            if find_nodes(conjunct, ScalarSubquery):
                raise PlanError("nested scalar subqueries are not supported")
            if resolves_in(conjunct, scan.schema):
                local.append(conjunct)
                continue
            if not isinstance(conjunct, Comparison) or conjunct.op != "=":
                raise PlanError(
                    f"unsupported correlated predicate {conjunct!r}; only "
                    "equality correlations can be decorrelated"
                )
            correlations.append(conjunct)
        if len(correlations) > 1:
            raise PlanError("at most one correlation equality is supported")

        inner_plan: PlanNode = scan
        local_pred = conjoin(local)
        if local_pred is not None:
            inner_plan = Select(inner_plan, local_pred)

        if correlations:
            corr = correlations[0]
            if resolves_in(corr.left, scan.schema) and not resolves_in(corr.right, scan.schema):
                inner_key, outer_key = corr.left, corr.right
            elif resolves_in(corr.right, scan.schema) and not resolves_in(corr.left, scan.schema):
                inner_key, outer_key = corr.right, corr.left
            else:
                raise PlanError(
                    f"correlation {corr!r} must compare one inner and one outer column"
                )
        else:
            inner_key, outer_key = Literal(0), Literal(0)

        grouped = GroupAggregate(
            inner_plan,
            group_by=[(inner_key, "key")],
            aggregates=[AggregateSpec(agg.func, agg.arg, "value")],
        )
        default = (
            0
            if agg.func == "count"
            else zero_for(grouped.schema.attributes[1].attr_type)
        )
        return AggLookup(outer, grouped, outer_key, name, default=default)

    # -- select list / aggregation ----------------------------------------
    def _apply_select_list(self, stmt: SelectStmt, plan: PlanNode) -> PlanNode:
        if stmt.select_star:
            if stmt.group_by or stmt.having:
                raise PlanError("SELECT * cannot be combined with GROUP BY")
            outputs = [
                (ColumnRef(a.name), a.name) for a in plan.schema.attributes
                if not a.name.startswith("__sq")
            ]
            return _project(plan, outputs)

        agg_calls: list[AggCall] = []
        for item in stmt.items:
            agg_calls.extend(find_nodes(item.expr, AggCall))
        if stmt.having is not None:
            agg_calls.extend(find_nodes(stmt.having, AggCall))

        if not agg_calls and not stmt.group_by:
            if stmt.having is not None:
                raise PlanError("HAVING requires GROUP BY or aggregates")
            outputs = _unique_names(
                [
                    (item.expr, self._output_name(item, i))
                    for i, item in enumerate(stmt.items)
                ]
            )
            return _project(plan, outputs)

        return self._aggregate_plan(stmt, plan, agg_calls)

    def _aggregate_plan(
        self, stmt: SelectStmt, plan: PlanNode, agg_calls: list[AggCall]
    ) -> PlanNode:
        group_pairs: list[tuple[Expr, str]] = []
        for i, expr in enumerate(stmt.group_by):
            name = (
                expr.name if isinstance(expr, ColumnRef) else f"g{i}"
            )
            group_pairs.append((expr, name))

        specs: list[AggregateSpec] = []
        agg_names: Dict[AggCall, str] = {}
        for call in agg_calls:
            if call in agg_names:
                continue
            agg_names[call] = f"__agg{len(specs)}"
            specs.append(AggregateSpec(call.func, call.arg, agg_names[call]))

        aggregated = GroupAggregate(plan, group_pairs, specs)

        def to_output(expr: Expr) -> Expr:
            """Map a select/having expression onto the aggregate schema.

            Top-down: a (sub)expression equal to a GROUP BY key becomes
            a reference to that key's output column *before* its
            children are examined (so ``GROUP BY POP/100`` matches the
            whole arithmetic term, not the bare column inside it).
            """
            for group_expr, name in group_pairs:
                if expr == group_expr or (
                    isinstance(expr, ColumnRef)
                    and isinstance(group_expr, ColumnRef)
                    and _same_column(expr, group_expr, plan.schema)
                ):
                    return ColumnRef(name)
            if isinstance(expr, AggCall):
                return ColumnRef(agg_names[expr])
            if isinstance(expr, ColumnRef):
                raise PlanError(
                    f"column {expr!r} must appear in GROUP BY or an aggregate"
                )
            if isinstance(expr, And):
                return And(*[to_output(t) for t in expr.terms])
            if isinstance(expr, Or):
                return Or(*[to_output(t) for t in expr.terms])
            if isinstance(expr, Not):
                return Not(to_output(expr.term))
            if isinstance(expr, Comparison):
                return Comparison(expr.op, to_output(expr.left), to_output(expr.right))
            if isinstance(expr, Arithmetic):
                return Arithmetic(expr.op, to_output(expr.left), to_output(expr.right))
            if isinstance(expr, InList):
                return InList(to_output(expr.term), expr.values)
            if isinstance(expr, Like):
                return Like(to_output(expr.term), expr.pattern)
            return expr  # literals

        result: PlanNode = aggregated
        if stmt.having is not None:
            result = Select(result, to_output(stmt.having))
        outputs = _unique_names(
            [
                (to_output(item.expr), self._output_name(item, i))
                for i, item in enumerate(stmt.items)
            ]
        )
        return _project(result, outputs)

    @staticmethod
    def _output_name(item, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ColumnRef):
            return item.expr.name
        if isinstance(item.expr, AggCall):
            return item.expr.func
        return f"col{index}"


def _project(plan: PlanNode, outputs: List[Tuple[Expr, str]]) -> PlanNode:
    """``Project(plan, outputs)``, or ``plan`` itself when the outputs
    re-emit its columns unchanged: same columns, names and order."""
    attrs = plan.schema.attributes
    if len(outputs) != len(attrs):
        return Project(plan, outputs)
    for index, ((expr, name), attr) in enumerate(zip(outputs, attrs)):
        if not isinstance(expr, ColumnRef) or name != attr.name:
            return Project(plan, outputs)
        try:
            if expr._resolve(plan.schema) != index:
                return Project(plan, outputs)
        except QueryError:
            return Project(plan, outputs)
    return plan


def _unique_names(
    outputs: List[Tuple[Expr, str]]
) -> List[Tuple[Expr, str]]:
    """Deduplicate default output names (``SELECT A.X, B.X`` → X, X_2)."""
    seen: Dict[str, int] = {}
    unique: List[Tuple[Expr, str]] = []
    for expr, name in outputs:
        key = name.lower()
        count = seen.get(key, 0) + 1
        seen[key] = count
        unique.append((expr, name if count == 1 else f"{name}_{count}"))
    return unique


def _same_column(a: ColumnRef, b: ColumnRef, schema: Schema) -> bool:
    try:
        return a._resolve(schema) == b._resolve(schema)
    except QueryError:
        return False
